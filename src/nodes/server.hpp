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
#include "util/ring_queue.hpp"

namespace sharegrid::nodes {

/// A single server machine: processes requests in FIFO order at a fixed
/// capacity (requests per second). Completion time for a request arriving
/// when the server frees at time f is max(now, f) + 1/C.
/// That time only grows from one submission to the next, so completions
/// fire in submission order and the pending completion callbacks wait in a
/// FIFO; each completion event carries only the server and a handle.
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

  /// Enqueues @p request; @p on_complete (may be empty) fires at the
  /// simulated instant the request finishes service, after serving is
  /// recorded in Metrics.
  void submit(RequestHandle request, sim::Callback on_complete);

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
  util::RingQueue<sim::Callback> pending_;  ///< completions, in due order
  // Completion events may still sit in the simulator queue when a server is
  // destroyed mid-run; the flag makes them inert instead of dangling.
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
