// Simulated server machine and per-owner server pools (§5 testbed: Apache on
// 1 GHz PCs; here a capacity-C requests/sec service queue, DESIGN.md §4).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/principal.hpp"
#include "nodes/metrics.hpp"
#include "nodes/request.hpp"
#include "sim/simulator.hpp"

namespace sharegrid::nodes {

/// Where a Server reports each request it finishes (Server::submit): the
/// L4 redirector, which closes the flow and sends the reply, or on L7 the
/// client fleet, which sends the reply hop. A sink holds a liveness flag
/// from its simulator, cleared when it is destroyed; a completion naming a
/// sink checks that flag instead of its server's, so a sink is destroyed
/// before the servers it submits to, as every node holding a ServerPool or
/// a Server pointer already is.
class ServiceSink {
 public:
  /// @p request finished service; serving is already recorded in Metrics.
  virtual void on_served(RequestHandle request) = 0;

 protected:
  /// Takes the sink's liveness flag from @p sim, which must outlive it.
  explicit ServiceSink(sim::Simulator* sim);
  ~ServiceSink() { *alive_ = false; }
  ServiceSink(const ServiceSink&) = delete;
  ServiceSink& operator=(const ServiceSink&) = delete;

  /// Owned by the simulator (Simulator::new_liveness_flag); the
  /// implementing node's own events check it too.
  bool* alive_ = nullptr;

 private:
  friend class Server;
};

/// A single server machine: processes requests in FIFO order at a fixed
/// capacity (requests per second). Completion time for a request arriving
/// when the server frees at time f is max(now, f) + 1/C, so completions
/// fire in submission order. Each completion event carries the server, a
/// liveness flag, the request's handle and its sink: 32 bytes, inline in
/// the event node.
class Server {
 public:
  struct Config {
    std::string name;
    core::PrincipalId owner = core::kNoPrincipal;  ///< resource owner
    double capacity = 320.0;                       ///< requests/sec
  };

  /// @param sim      owns the node's liveness flag; it must outlive the node.
  /// @param requests the domain's in-flight requests (not owned).
  Server(sim::Simulator* sim, RequestSlab* requests, Metrics* metrics,
         Config config);

  /// Enqueues @p request. At the simulated instant it finishes service,
  /// serving is recorded in Metrics and then @p sink (may be null) is told.
  /// The completion is inert once @p sink, or the server when there is no
  /// sink, is destroyed.
  void submit(RequestHandle request, ServiceSink* sink);

  /// Seconds of queued work ahead of a new arrival.
  double backlog_seconds() const;
  /// When a request submitted now would start service: the later of now
  /// and the end of the queued work.
  SimTime next_free() const { return std::max(sim_->now(), next_free_); }

  /// Re-provisions the machine (degradation, recovery, upgrade). Applies to
  /// requests submitted from now on; already-queued work keeps its old
  /// completion schedule.
  void set_capacity(double capacity);

  /// Requests submitted so far.
  std::uint64_t requests_submitted() const { return requests_submitted_; }

  const Config& config() const { return config_; }

  ~Server() { *alive_ = false; }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

 private:
  sim::Simulator* sim_;
  RequestSlab* requests_;
  Metrics* metrics_;
  Config config_;
  SimTime next_free_ = 0;
  std::uint64_t requests_submitted_ = 0;
  // Completion events may still sit in the simulator queue when a server is
  // destroyed mid-run; the flag makes those without a sink inert instead of
  // dangling.
  bool* alive_ = nullptr;  // owned by sim_ (Simulator::new_liveness_flag)
};

/// Maps resource-owning principals to their physical machines and picks a
/// machine for each admitted request (least backlog, then registration
/// order). A machine's index is its registration order.
class ServerPool {
 public:
  /// Registers a machine (not owned) as index size().
  void add(Server* server);

  /// Index of the least-backlogged machine owned by @p owner; nullopt when
  /// the owner has no machines.
  std::optional<std::size_t> pick(core::PrincipalId owner) const;

  /// The machine registered as @p index.
  Server& at(std::size_t index) const;

  /// Machines registered.
  std::size_t size() const { return machines_.size(); }

 private:
  std::vector<Server*> machines_;
  std::vector<std::vector<std::size_t>> by_owner_;  ///< indexes, per owner
};

}  // namespace sharegrid::nodes
