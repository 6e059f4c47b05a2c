// Layer-7 HTTP redirector (§4.1).
//
// Two operating modes, mirroring the paper's implementation history:
//
//  * kCreditBased (default, the paper's final design): each window the
//    redirector solves the LP against *estimated* queue lengths (an EWMA of
//    arrivals, including retries) and admits in-quota requests immediately
//    with a 302 to the assigned server; out-of-quota requests get a 302 back
//    to the redirector itself, implicitly queueing them at the client.
//
//  * kExplicitQueue (the paper's first attempt, kept for the ablation
//    bench): requests are held in per-principal queues and released in a
//    batch at the start of the next window — which bunches traffic and
//    depresses closed-loop client throughput, the anomaly that motivated
//    the switch (§4.1 / tech report).
//
// The window loop itself — estimators, snapshots, plan, quotas — lives in
// coord::ControlPlane (DESIGN.md D10); this node owns only the HTTP-level
// behaviour: what a 302 means, where out-of-quota requests go, and what the
// held-request backlog contributes to demand.
#pragma once

#include <deque>
#include <string>
#include <vector>

#include "coord/control_plane.hpp"
#include "nodes/client.hpp"
#include "nodes/server.hpp"
#include "nodes/window_trace.hpp"
#include "sim/simulator.hpp"

namespace sharegrid::nodes {

/// HTTP (Layer-7) redirector node.
class L7Redirector final : public RedirectorBase {
 public:
  enum class Mode { kCreditBased, kExplicitQueue };

  struct Config {
    std::string name;
    Mode mode = Mode::kCreditBased;
    /// Optional per-window decision log (not owned; may be shared).
    WindowTrace* trace = nullptr;
  };

  /// @param sim      owns the node's liveness flag; it must outlive the node.
  /// @param requests the domain's in-flight requests (not owned).
  /// @param member   this node's control-plane slice (not owned). The node
  ///                 binds its demand/window hooks in the ctor; a member can
  ///                 belong to exactly one node.
  L7Redirector(sim::Simulator* sim, RequestSlab* requests, ServerPool* servers,
               coord::ControlPlane::Member* member, Config config);
  ~L7Redirector() override { *alive_ = false; }

  // RedirectorBase:
  void on_client_request(RequestHandle request) override;

  const sched::WindowScheduler& window_scheduler() const {
    return member_->window_scheduler();
  }
  coord::ControlPlane::Member* member() { return member_; }
  std::uint64_t admitted() const { return admitted_; }
  std::uint64_t self_redirects() const { return self_redirects_; }

 private:
  void on_window_begun(SimTime now);
  void admit_and_redirect(RequestHandle request, core::PrincipalId owner);

  sim::Simulator* sim_;
  RequestSlab* requests_;
  ServerPool* servers_;
  coord::ControlPlane::Member* member_;
  Config config_;

  // Explicit-queue mode state.
  std::vector<std::deque<RequestHandle>> held_;

  std::uint64_t admitted_ = 0;
  std::uint64_t self_redirects_ = 0;
  bool* alive_ = nullptr;  // owned by sim_ (Simulator::new_liveness_flag)
};

}  // namespace sharegrid::nodes
