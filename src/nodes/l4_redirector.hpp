// Layer-4 NAT redirector (§4.2).
//
// Models the paper's Linux Virtual Server kernel module plus user-space
// daemon: a SYN for a principal's virtual service is either admitted — a
// server is chosen per the scheduling decision and a connection-table entry
// keyed by (client endpoint, principal) pins the flow to that server's
// index in the ServerPool — or parked in a per-principal kernel-level queue
// that a periodic task drains in later windows as agreements allow. New
// connections prefer the server that last served the same client endpoint
// (affinity, e.g. for SSL session reuse) whenever the admission decision
// lands on that server's owner.
//
// The window loop — estimators, snapshots, plan, quotas — lives in
// coord::ControlPlane (DESIGN.md D10); this node owns the connection path
// and what the kernel queue / in-flight connections contribute to demand.
//
// A request stays in the domain's RequestSlab from the client to the
// reply; the kernel queues and the events of the forward and reply hops
// carry its 4-byte handle. Admission opens the flow and stores its id in
// the request (Request::flow); the reply closes the flow by that id, with
// no probe. A client machine's first kClientPorts connections each dial a
// port it has not used before, so they open with no probe of the
// connection table's index (ConnectionTable::open_new); every later one
// opens with one probe, which finds the hint its port's last connection
// left. When the SYN arrives the node rewrites the slab's request the way
// the kernel module sees the connection: `created` becomes the SYN's
// arrival and the reply size reverts to the 6144 B default, so L4 latency
// starts at the redirector and L4 runs ignore the sampled size mix (ROADMAP
// keeps the fix as an open item). The node says so through
// discards_reply_sizes(), and client fleets then draw the sizes' random
// numbers without computing them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "coord/control_plane.hpp"
#include "l4/connection_table.hpp"
#include "nodes/client.hpp"
#include "nodes/metrics.hpp"
#include "nodes/server.hpp"
#include "nodes/window_trace.hpp"
#include "sim/simulator.hpp"

namespace sharegrid::nodes {

/// NAT (Layer-4) redirector node.
class L4Redirector final : public RedirectorBase, public ServiceSink {
 public:
  /// Source ports a client machine dials from in turn: the low 32 bits of a
  /// request's id count its machine's connections, and connection n uses
  /// port 1024 + n mod kClientPorts.
  static constexpr std::uint32_t kClientPorts = 4096;

  struct Config {
    std::string name;
    std::size_t max_queue = 1 << 16;  ///< kernel queue bound per principal
    /// Optional per-window decision log (not owned; may be shared).
    WindowTrace* trace = nullptr;
  };

  /// @param sim      owns the node's liveness flag; it must outlive the node.
  /// @param requests the domain's in-flight requests (not owned).
  /// @param member   this node's control-plane slice (not owned). The node
  ///                 binds its demand/window hooks in the ctor; a member can
  ///                 belong to exactly one node.
  L4Redirector(sim::Simulator* sim, RequestSlab* requests, Metrics* metrics,
               ServerPool* servers, coord::ControlPlane::Member* member,
               Config config);
  ~L4Redirector() override {
    flush_metrics();  // counts since the last window boundary
  }

  // RedirectorBase: admits or queues the connection the request opens.
  void on_client_request(RequestHandle request) override;
  // RedirectorBase: every request's reply size reverts to the default.
  bool discards_reply_sizes() const override { return true; }

  // ServiceSink: the server finished @p request; close its flow and send
  // the reply.
  void on_served(RequestHandle request) override;

  std::size_t queue_length(core::PrincipalId p) const;
  std::uint64_t drops() const { return drops_; }
  std::uint64_t admitted() const { return admitted_; }
  const l4::ConnectionTable& connections() const { return table_; }
  const sched::WindowScheduler& window_scheduler() const {
    return member_->window_scheduler();
  }
  coord::ControlPlane::Member* member() { return member_; }

 private:
  /// The client end of a request's connection: port 1024 + (connection
  /// count mod kClientPorts) of the client machine's address.
  static l4::Endpoint client_of(const Request& request);

  void on_window_begun(SimTime now);
  /// Flushes admitted/dropped deltas to the global metrics registry; called
  /// at window boundaries and on destruction so the per-packet path never
  /// touches a shared atomic.
  void flush_metrics();
  /// Admission decision for a SYN; true when forwarded. A connection among
  /// its machine's first kClientPorts opens with open_new(), any other with
  /// open().
  bool try_forward(RequestHandle request);
  void forward_to(RequestHandle request, std::size_t server);

  sim::Simulator* sim_;
  RequestSlab* requests_;
  Metrics* metrics_;
  ServerPool* servers_;
  coord::ControlPlane::Member* member_;
  Config config_;
  l4::ConnectionTable table_;
  std::vector<std::deque<RequestHandle>> queues_;  ///< kernel queues (SYNs)
  /// Admitted connections whose replies have not come back yet, per
  /// principal. Under healthy operation this is a handful (service time x
  /// rate); when transient over-admission piles work into a server's FIFO,
  /// these requests still hold client slots and must count as demand or the
  /// closed loop locks in below the agreement levels.
  std::vector<double> in_flight_;

  std::uint64_t drops_ = 0;
  std::uint64_t admitted_ = 0;
  std::uint64_t flushed_drops_ = 0;
  std::uint64_t flushed_admitted_ = 0;
};

}  // namespace sharegrid::nodes
