#include "live/l4_proxy.hpp"

#include <algorithm>
#include <utility>

#include "util/assert.hpp"

namespace sharegrid::live {

L4Proxy::L4Proxy(const sched::Scheduler* scheduler, Config config)
    : scheduler_(scheduler),
      config_(std::move(config)),
      admission_(scheduler, config_.window_usec) {
  SHAREGRID_EXPECTS(scheduler != nullptr);
  SHAREGRID_EXPECTS(!config_.services.empty());
  for (const Service& service : config_.services) {
    SHAREGRID_EXPECTS(service.principal < scheduler->size());
    SHAREGRID_EXPECTS(service.owner < scheduler->size());
    SHAREGRID_EXPECTS(service.backend_port > 0);
  }
}

L4Proxy::~L4Proxy() { stop(); }

void L4Proxy::start() {
  SHAREGRID_EXPECTS(!running_.load());
  listeners_.reserve(config_.services.size());
  for (std::size_t i = 0; i < config_.services.size(); ++i)
    listeners_.push_back(net::Socket::listen_on_loopback());
  admission_.reset_clock();
  running_.store(true);
  for (std::size_t i = 0; i < config_.services.size(); ++i)
    acceptors_.emplace_back([this, i] { accept_loop(i); });
}

void L4Proxy::stop() {
  if (!running_.exchange(false)) return;
  for (const net::Socket& listener : listeners_) {
    try {
      net::Socket::connect_loopback(listener.local_port());  // unblock accept()
    } catch (const ContractViolation&) {
    }
  }
  for (std::thread& t : acceptors_)
    if (t.joinable()) t.join();
  acceptors_.clear();
  {
    const util::MutexLock lock(relays_mutex_);
    for (Relay& r : relays_)
      if (r.thread.joinable()) r.thread.join();
    relays_.clear();
  }
  listeners_.clear();
}

std::uint16_t L4Proxy::service_port(std::size_t index) const {
  SHAREGRID_EXPECTS(index < listeners_.size());
  return listeners_[index].local_port();
}

void L4Proxy::accept_loop(std::size_t service_index) {
  const Service& service = config_.services[service_index];
  while (running_.load()) {
    try {
      net::Socket client = listeners_[service_index].accept();
      if (!running_.load()) break;

      // The SYN analogue: admit or refuse the whole connection.
      if (!admission_.try_admit(service.principal)) {
        ++refused_;
        continue;  // closing the socket tells the client to retry
      }
      ++admitted_;
      net::Socket backend = net::Socket::connect_loopback(service.backend_port);
      // Pin the connection to its backend for its whole lifetime
      // (affinity) and relay bytes until either side closes.
      start_relay(std::move(client), std::move(backend));
    } catch (const ContractViolation&) {
      // per-connection failure (backend down, timeout); keep serving
    }
  }
}

std::size_t L4Proxy::live_relays() const {
  const util::MutexLock lock(relays_mutex_);
  return relays_.size();
}

void L4Proxy::start_relay(net::Socket client, net::Socket backend) {
  const util::MutexLock lock(relays_mutex_);
  for (auto it = relays_.begin(); it != relays_.end();) {
    if (!it->done.load(std::memory_order_acquire)) {
      ++it;
      continue;
    }
    it->thread.join();  // already past its last statement
    it = relays_.erase(it);
  }
  Relay& slot = relays_.emplace_back();
  slot.thread = std::thread([&done = slot.done, client = std::move(client),
                             backend = std::move(backend)]() mutable {
    try {
      relay(std::move(client), std::move(backend));
    } catch (const ContractViolation&) {
      // the peer reset mid-write; this connection is over
    }
    done.store(true, std::memory_order_release);
  });
}

void L4Proxy::relay(net::Socket client, net::Socket backend) {
  // Half-duplex request/response pump: enough for the HTTP-style workloads
  // the paper targets, with no application-layer parsing whatsoever. A
  // relay ends on close *or* timeout: a connection idle past the receive
  // timeout is torn down rather than parked forever.
  while (true) {
    const net::ReadResult request = client.read_some();
    if (request.status != net::ReadStatus::kData) break;
    backend.write_all(request.data);
    const net::ReadResult reply = backend.read_some();
    if (reply.status != net::ReadStatus::kData) break;
    client.write_all(reply.data);
  }
}

}  // namespace sharegrid::live
