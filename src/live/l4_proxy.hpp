// A live user-space Layer-4-style proxy (§4.2 without the kernel).
//
// The paper's L4 prototype is an in-kernel LVS/NAT module; raw sockets and
// netfilter hooks need privileges a reproduction cannot assume (DESIGN.md
// §4). This proxy keeps the scheduling-visible semantics at the socket
// layer: admission happens per *connection* at accept time (the SYN
// analogue), an admitted connection is pinned to one backend for its whole
// lifetime (affinity), bytes are relayed verbatim in both directions with
// no application-layer parsing, and over-quota connections are refused by
// closing them (the paper's kernel queue defers packets; a blocking
// userspace proxy signals the client to retry instead).
//
// One listening port per principal plays the role of the virtual service
// address: the proxy infers the organization from the port the client
// dialed, exactly as an L4 switch keys on the destination VIP.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <thread>
#include <vector>

#include "live/wall_clock_admission.hpp"
#include "net/tcp.hpp"
#include "util/thread_annotations.hpp"

namespace sharegrid::live {

/// Wall-clock connection-level admission proxy over loopback TCP.
class L4Proxy {
 public:
  /// One virtual service: connections to the proxy's port for this service
  /// are relayed to `backend_port` when admitted.
  struct Service {
    core::PrincipalId principal = core::kNoPrincipal;
    std::uint16_t backend_port = 0;  ///< where the real server listens
    core::PrincipalId owner = core::kNoPrincipal;  ///< backend's owner
  };

  struct Config {
    std::int64_t window_usec = 100000;
    std::vector<Service> services;
  };

  L4Proxy(const sched::Scheduler* scheduler, Config config);
  ~L4Proxy();

  L4Proxy(const L4Proxy&) = delete;
  L4Proxy& operator=(const L4Proxy&) = delete;

  /// Binds one ephemeral loopback port per service and starts acceptors.
  void start();
  void stop();

  /// The virtual-service port for services[index] (valid after start()).
  std::uint16_t service_port(std::size_t index) const;

  std::uint64_t admitted() const { return admitted_; }
  std::uint64_t refused() const { return refused_; }
  /// Relay threads the proxy still holds: the running ones plus finished
  /// ones not yet reaped. Finished relays are joined whenever a new one
  /// starts, so this tracks concurrent connections, not connections served.
  std::size_t live_relays() const SHAREGRID_EXCLUDES(relays_mutex_);

 private:
  /// One relay thread and the flag it raises as its last act.
  struct Relay {
    std::atomic<bool> done{false};
    std::thread thread;
  };

  void accept_loop(std::size_t service_index) SHAREGRID_EXCLUDES(relays_mutex_);
  /// Joins finished relays, then starts one for an admitted connection.
  void start_relay(net::Socket client, net::Socket backend)
      SHAREGRID_EXCLUDES(relays_mutex_);
  /// Blocking bidirectional byte relay until either side closes.
  static void relay(net::Socket client, net::Socket backend);

  const sched::Scheduler* scheduler_;
  Config config_;
  WallClockAdmission admission_;

  std::vector<net::Socket> listeners_;
  std::vector<std::thread> acceptors_;
  /// Relay threads are spawned by concurrent acceptors, reaped by the next
  /// start_relay() once done, and joined by stop(). A list keeps each
  /// Relay's address stable for the thread that flags it.
  std::list<Relay> relays_ SHAREGRID_GUARDED_BY(relays_mutex_);
  mutable util::Mutex relays_mutex_;
  std::atomic<bool> running_{false};

  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> refused_{0};
};

}  // namespace sharegrid::live
