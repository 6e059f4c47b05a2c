#include "l4/connection_table.hpp"

#include <sstream>

#include "audit/invariant_auditor.hpp"
#include "util/assert.hpp"

namespace sharegrid::l4 {

// One flow is one 12-byte entry; the flat table keeps no per-slot flag, so
// this is also the slot size (util/flat_map.hpp).
static_assert(sizeof(ConnectionTable::FlowMap::value_type) == 12,
              "a NAT entry must stay 12 bytes");

std::string to_string(const Endpoint& ep) {
  std::ostringstream os;
  os << "h" << ep.host << ":" << ep.port;
  return os.str();
}

std::optional<std::uint32_t> ConnectionTable::EndpointList::find(
    const Endpoint& endpoint) const {
  const auto it = index_.find(pack(endpoint));
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

std::uint32_t ConnectionTable::EndpointList::intern(const Endpoint& endpoint) {
  if (const auto index = find(endpoint)) return *index;
  SHAREGRID_EXPECTS(endpoints_.size() < limit_);
  const auto index = static_cast<std::uint32_t>(endpoints_.size());
  endpoints_.push_back(endpoint);
  index_.insert_or_assign(pack(endpoint), index);
  return index;
}

std::optional<ConnectionTable::FlowKey> ConnectionTable::key_of(
    const Endpoint& client, const Endpoint& vip) const {
  const auto index = vips_.find(vip);
  if (!index) return std::nullopt;
  return FlowKey{client.host, client.port, static_cast<std::uint16_t>(*index)};
}

void ConnectionTable::establish(const Endpoint& client, const Endpoint& vip,
                                const Endpoint& server) {
  const FlowKey key{client.host, client.port,
                    static_cast<std::uint16_t>(vips_.intern(vip))};
  const Flow flow{servers_.intern(server) | Flow::kOpen};
  Flow& entry = flows_[key];
  if (!entry.open()) ++open_flows_;
  entry = flow;
}

std::optional<Endpoint> ConnectionTable::lookup(const Endpoint& client,
                                                const Endpoint& vip) const {
  const auto key = key_of(client, vip);
  if (!key) return std::nullopt;
  const auto it = flows_.find(*key);
  if (it == flows_.end() || !it->second.open()) return std::nullopt;
  return servers_[it->second.server()];
}

void ConnectionTable::release(const Endpoint& client, const Endpoint& vip) {
  const auto key = key_of(client, vip);
  if (!key) return;
  const auto it = flows_.find(*key);
  if (it == flows_.end() || !it->second.open()) return;
  it->second.bits &= ~Flow::kOpen;
  --open_flows_;
}

void ConnectionTable::audit() const {
  audit::audit_connection_table(flows_, open_flows_, vips_.size(),
                                servers_.size());
}

Packet ConnectionTable::rewrite_to_server(Packet packet,
                                          const Endpoint& server) {
  packet.dst = server;
  return packet;
}

Packet ConnectionTable::rewrite_to_client(Packet packet, const Endpoint& vip,
                                          const Endpoint& client) {
  packet.src = vip;
  packet.dst = client;
  return packet;
}

std::optional<Endpoint> ConnectionTable::affinity_hint(
    const Endpoint& client, const Endpoint& vip) const {
  const auto key = key_of(client, vip);
  if (!key) return std::nullopt;
  const auto it = flows_.find(*key);
  if (it == flows_.end()) return std::nullopt;
  return servers_[it->second.server()];
}

}  // namespace sharegrid::l4
