// Tests for the live user-space L4-style proxy: connection-level admission
// and protocol-agnostic byte relaying over loopback TCP.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>

#include "live/l4_proxy.hpp"
#include "net/tcp.hpp"
#include "test_helpers.hpp"

namespace sharegrid::live {
namespace {

/// Echo backend: prefixes every received blob with "echo:".
class EchoBackend {
 public:
  EchoBackend() : listener_(net::Socket::listen_on_loopback()) {
    thread_ = std::thread([this] { loop(); });
  }
  ~EchoBackend() {
    running_.store(false);
    try {
      net::Socket::connect_loopback(port());
    } catch (const ContractViolation&) {
    }
    thread_.join();
  }
  std::uint16_t port() const { return listener_.local_port(); }

 private:
  void loop() {
    while (running_.load()) {
      try {
        net::Socket conn = listener_.accept();
        if (!running_.load()) break;
        while (true) {
          const std::string got = conn.read_some().data;
          if (got.empty()) break;
          conn.write_all("echo:" + got);
        }
      } catch (const ContractViolation&) {
      }
    }
  }

  net::Socket listener_;
  std::atomic<bool> running_{true};
  std::thread thread_;
};

TEST(L4Proxy, RelaysBytesBothWaysUnparsed) {
  EchoBackend backend;
  test::FixedRateScheduler scheduler({1000.0});
  L4Proxy::Config config;
  config.services = {{0, backend.port(), 0}};
  L4Proxy proxy(&scheduler, config);
  proxy.start();

  net::Socket client = net::Socket::connect_loopback(proxy.service_port(0));
  client.write_all("arbitrary \x01 bytes, not HTTP");
  const std::string reply = client.read_some().data;
  EXPECT_EQ(reply, "echo:arbitrary \x01 bytes, not HTTP");

  // Same connection again: affinity means it stays on the same backend.
  client.write_all("second");
  EXPECT_EQ(client.read_some().data, "echo:second");

  client.close();
  proxy.stop();
  EXPECT_EQ(proxy.admitted(), 1u);  // one connection, many messages
  EXPECT_EQ(proxy.refused(), 0u);
}

TEST(L4Proxy, RefusesConnectionsBeyondQuota) {
  EchoBackend backend;
  // 10 req/s => one connection per 100 ms window.
  test::FixedRateScheduler scheduler({10.0});
  L4Proxy::Config config;
  config.services = {{0, backend.port(), 0}};
  L4Proxy proxy(&scheduler, config);
  proxy.start();

  net::Socket first = net::Socket::connect_loopback(proxy.service_port(0));
  first.write_all("a");
  EXPECT_EQ(first.read_some().data, "echo:a");  // admitted

  // The second immediate connection is refused: the proxy closes it, so the
  // first read returns empty.
  net::Socket second = net::Socket::connect_loopback(proxy.service_port(0));
  const std::string nothing = second.read_some().data;
  EXPECT_TRUE(nothing.empty());

  first.close();
  second.close();
  proxy.stop();
  EXPECT_EQ(proxy.admitted(), 1u);
  EXPECT_EQ(proxy.refused(), 1u);
}

TEST(L4Proxy, MultipleServicesMapPortsToPrincipals) {
  EchoBackend backend_a;
  EchoBackend backend_b;
  // Principal 0 has generous quota, principal 1 none at all.
  test::FixedRateScheduler scheduler({1000.0, 0.0});
  L4Proxy::Config config;
  config.services = {{0, backend_a.port(), 0}, {1, backend_b.port(), 1}};
  L4Proxy proxy(&scheduler, config);
  proxy.start();

  net::Socket ok = net::Socket::connect_loopback(proxy.service_port(0));
  ok.write_all("hi");
  EXPECT_EQ(ok.read_some().data, "echo:hi");

  net::Socket denied = net::Socket::connect_loopback(proxy.service_port(1));
  EXPECT_TRUE(denied.read_some().data.empty());

  ok.close();
  denied.close();
  proxy.stop();
  EXPECT_EQ(proxy.admitted(), 1u);
  EXPECT_EQ(proxy.refused(), 1u);
}

TEST(L4Proxy, ReapsFinishedRelays) {
  EchoBackend backend;
  test::FixedRateScheduler scheduler({100000.0});
  L4Proxy::Config config;
  config.services = {{0, backend.port(), 0}};
  // One window for every dial. The first window plans from saturated
  // demand; later ones plan from the smoothed arrival rate, and on a loaded
  // host the 50 sequential dials would spill into windows whose quota runs
  // out and refuse some of them.
  config.window_usec = 60 * 1000000;
  L4Proxy proxy(&scheduler, config);
  proxy.start();

  for (int i = 0; i < 50; ++i) {
    net::Socket client = net::Socket::connect_loopback(proxy.service_port(0));
    const std::string message = "ping " + std::to_string(i);
    client.write_all(message);
    EXPECT_EQ(client.read_some().data, "echo:" + message);
    client.close();
  }
  // Each relay ends when its client closes and is joined when a later one
  // starts, so only the last few connections can still hold a thread.
  EXPECT_EQ(proxy.admitted(), 50u);
  EXPECT_LE(proxy.live_relays(), 4u);
  proxy.stop();
  EXPECT_EQ(proxy.live_relays(), 0u);
}

TEST(L4Proxy, ValidatesConfig) {
  test::FixedRateScheduler scheduler({10.0});
  L4Proxy::Config empty;
  EXPECT_THROW(L4Proxy(&scheduler, empty), ContractViolation);

  L4Proxy::Config bad_principal;
  bad_principal.services = {{7, 1234, 0}};
  EXPECT_THROW(L4Proxy(&scheduler, bad_principal), ContractViolation);
}

}  // namespace
}  // namespace sharegrid::live
