// Open-loop trace replay client.
//
// Issues every arrival of a precomputed RequestTrace at its recorded time,
// regardless of how the system responds — no outstanding-slot throttling, no
// reaction to service rates. This decouples the workload from the scheduler
// under test: two scheduler configurations driven by the same trace see
// byte-identical input, making their admission decisions directly
// comparable (closed-loop ClientFleets would adapt their offered load to
// whatever each scheduler serves).
//
// L7 self-redirects are retried after the configured delay (with jitter),
// like the closed-loop client, but retries do not block new arrivals.
#pragma once

#include <cstdint>

#include "nodes/client.hpp"
#include "nodes/metrics.hpp"
#include "workload/trace.hpp"

namespace sharegrid::nodes {

/// Replays a RequestTrace through one redirector, open loop.
class TraceClient final : public RequestSource {
 public:
  struct Config {
    std::size_t index = 0;          ///< client id carried in requests
    double retry_delay_sec = 0.2;   ///< L7 self-redirect backoff
    SimDuration net_delay = 500;    ///< one-way hop delay (usec)
  };

  /// @param sim      owns the node's liveness flag; it must outlive the node.
  /// @param requests the domain's in-flight requests (not owned).
  /// @param trace    replayed arrivals (not owned; must outlive the client).
  TraceClient(sim::Simulator* sim, RequestSlab* requests, Metrics* metrics,
              RedirectorBase* redirector,
              const workload::RequestTrace* trace, Config config, Rng rng);
  ~TraceClient() override { *alive_ = false; }

  TraceClient(const TraceClient&) = delete;
  TraceClient& operator=(const TraceClient&) = delete;

  /// Schedules every trace arrival (call once, before running the sim).
  void start();

  // RequestSource:
  void on_redirect_to_server(RequestHandle request, Server* server) override;
  void on_self_redirect(RequestHandle request) override;
  void on_response(RequestHandle request) override;

  std::uint64_t issued() const { return issued_; }
  std::uint64_t completed() const { return completed_; }

 private:
  void issue(std::size_t entry);
  void send(RequestHandle request);

  sim::Simulator* sim_;
  RequestSlab* requests_;
  Metrics* metrics_;
  RedirectorBase* redirector_;
  const workload::RequestTrace* trace_;
  Config config_;
  Rng rng_;
  std::uint64_t issued_ = 0;
  std::uint64_t completed_ = 0;
  bool* alive_ = nullptr;  // owned by sim_ (Simulator::new_liveness_flag)
};

}  // namespace sharegrid::nodes
