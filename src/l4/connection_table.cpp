#include "l4/connection_table.hpp"

#include "audit/invariant_auditor.hpp"
#include "util/assert.hpp"

namespace sharegrid::l4 {

// One flow is one 12-byte entry; the flat table keeps no per-slot flag, so
// this is also the slot size (util/flat_map.hpp).
static_assert(sizeof(ConnectionTable::FlowMap::value_type) == 12,
              "a NAT entry must stay 12 bytes");

ConnectionTable::FlowKey ConnectionTable::key_of(const Endpoint& client,
                                                 std::size_t vip) {
  SHAREGRID_EXPECTS(vip < kMaxVips);
  return FlowKey{client.host, client.port, static_cast<std::uint16_t>(vip)};
}

void ConnectionTable::establish(const Endpoint& client, std::size_t vip,
                                std::size_t server) {
  const FlowKey key = key_of(client, vip);
  SHAREGRID_EXPECTS(server < kMaxServers);
  Flow& entry = flows_[key];
  if (!entry.open()) ++open_flows_;
  entry.bits = static_cast<std::uint32_t>(server) | Flow::kOpen;
}

void ConnectionTable::release(const Endpoint& client, std::size_t vip) {
  const auto it = flows_.find(key_of(client, vip));
  if (it == flows_.end() || !it->second.open()) return;
  it->second.bits &= ~Flow::kOpen;
  --open_flows_;
}

std::optional<std::size_t> ConnectionTable::affinity_hint(
    const Endpoint& client, std::size_t vip) const {
  const auto it = flows_.find(key_of(client, vip));
  if (it == flows_.end()) return std::nullopt;
  return it->second.server();
}

void ConnectionTable::audit(std::size_t vips, std::size_t servers) const {
  audit::audit_connection_table(flows_, open_flows_, vips, servers);
}

}  // namespace sharegrid::l4
