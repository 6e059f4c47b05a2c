// Simulated client machines: the WebBench load generator (§5).
//
// While active, a machine issues requests at its configured maximum rate —
// the per-machine caps in the paper's figures (135 req/s with the L7 retry
// proxy, 400 req/s raw) — subject to a bound on outstanding requests that
// models WebBench's closed-loop worker threads: when responses stop coming
// back, generation stalls rather than queueing unboundedly.
//
// Layer-7 behaviour: the client sends to a redirector; a 302 to a server
// makes it re-issue the request there; a 302 back to the redirector itself
// (implicit queuing) makes it retry after a jittered 0.2 s. Layer-4
// behaviour: the client just sends to the virtual service address and
// waits.
#pragma once

#include <cstdint>
#include <vector>

#include "nodes/metrics.hpp"
#include "nodes/request.hpp"
#include "nodes/server.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "workload/reply_size.hpp"

namespace sharegrid::nodes {

/// One-way delay of every simulated network hop (usec): client to
/// redirector, redirector to client or server, server to client.
constexpr SimDuration kHopDelay = 500;

/// What a client looks like to a redirector: the callbacks that complete a
/// request's life cycle. Implemented by ClientFleet. A source acquires each
/// request it issues in the domain's RequestSlab and releases it in
/// on_response.
class RequestSource {
 public:
  virtual ~RequestSource() = default;

  /// L7: the redirector assigned @p server; re-issue the request there.
  virtual void on_redirect_to_server(RequestHandle request,
                                     Server* server) = 0;
  /// L7: the redirector said retry later (implicit queuing).
  virtual void on_self_redirect(RequestHandle request) = 0;
  /// Final response arrived (from a server or through the L4 NAT path).
  virtual void on_response(RequestHandle request) = 0;
};

/// What a redirector looks like to a client: a sink for new requests.
/// Both the L7 and L4 redirectors implement this.
class RedirectorBase {
 public:
  virtual ~RedirectorBase() = default;

  /// Invoked (already past the client->redirector network delay) when a
  /// client issues or retries a request. The slab names its source.
  virtual void on_client_request(RequestHandle request) = 0;

  /// True when the redirector replaces every request's reply size, so a
  /// client need not compute the size it samples.
  virtual bool discards_reply_sizes() const { return false; }
};

/// All the load-generating machines of one client spec: `client_scale`
/// identical WebBench machines tied to one organization and one redirector,
/// simulated as an array. The spec's configuration, node pointers, liveness
/// flag and active flag are held once per fleet; each machine keeps only its
/// closed-loop state. Machine m carries client index `first_index + m` in
/// its requests, and the RequestSource callbacks find their machine from
/// Request::client. A fleet of one is a single machine.
///
/// A machine whose max_outstanding no run can reach is open loop: it issues
/// at its rate whatever the redirector admits. On L4 it then draws only
/// arrival gaps and reply sizes from its stream, so schedulers driven by the
/// same streams see identical offered load (bench/abl_open_loop). That holds
/// on L4 only: on L7 every self-redirect draws retry jitter from the same
/// stream and shifts the machine's later arrivals. Behind a redirector that
/// discards reply sizes (L4), a machine takes the sizes' draws with
/// ReplySizeDistribution::skip, so its stream is the same.
class ClientFleet final : public RequestSource, public ServiceSink {
 public:
  struct Config {
    core::PrincipalId principal = core::kNoPrincipal;
    std::size_t first_index = 0;  ///< client index of machine 0
    double rate = 400.0;          ///< per-machine max generation rate (req/s)
    std::size_t max_outstanding = 64;  ///< per-machine closed-loop bound
    bool exponential_arrivals = true;  ///< Poisson vs evenly spaced issue
  };

  /// One machine's closed-loop state: the only per-machine memory, 48
  /// bytes. A request's id packs the machine's client index above its
  /// 32-bit counter, which counts the machine's connections: the L4
  /// redirector derives the source port from it, and opens the flows of
  /// the first 4,096 without an index probe (L4Redirector::kClientPorts).
  struct Machine {
    Rng rng;
    std::uint32_t next_request_id = 0;  ///< requests issued (not retries)
    std::uint32_t outstanding = 0;
    bool loop_armed = false;
  };

  /// @param sim      owns the node's liveness flag; it must outlive the node.
  /// @param requests the domain's in-flight requests (not owned).
  /// @param streams  one RNG stream per machine; the fleet has
  ///                 `streams.size()` machines.
  ClientFleet(sim::Simulator* sim, RequestSlab* requests, Metrics* metrics,
              RedirectorBase* redirector, Config config,
              const std::vector<Rng>& streams,
              const workload::ReplySizeDistribution* sizes = nullptr);

  ClientFleet(const ClientFleet&) = delete;
  ClientFleet& operator=(const ClientFleet&) = delete;

  /// Turns generation on/off for every machine (phase schedule).
  /// Outstanding requests keep draining after deactivation.
  void set_active(bool active);

  // RequestSource:
  void on_redirect_to_server(RequestHandle request, Server* server) override;
  void on_self_redirect(RequestHandle request) override;
  void on_response(RequestHandle request) override;

  // ServiceSink (L7): the server replies to the client directly.
  void on_served(RequestHandle request) override;

  std::size_t size() const { return machines_.size(); }
  const Machine& machine(std::size_t m) const;

 private:
  Machine& machine_of(const Request& request);
  void schedule_next_arrival(std::size_t m);
  void emit(std::size_t m);
  void send_to_redirector(RequestHandle request);

  sim::Simulator* sim_;
  RequestSlab* requests_;
  Metrics* metrics_;
  RedirectorBase* redirector_;
  Config config_;
  const workload::ReplySizeDistribution* sizes_;
  /// The redirector discards reply sizes: draw them, compute none.
  bool skip_sizes_;
  std::vector<Machine> machines_;

  bool active_ = false;
};

}  // namespace sharegrid::nodes
