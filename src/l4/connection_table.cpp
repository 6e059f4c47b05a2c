#include "l4/connection_table.hpp"

#include <algorithm>

namespace sharegrid::l4 {

// Chunks hold entries back to back, so a flow costs 12 bytes of entry and,
// once filed at the index's 7/8 maximum load, 4.6 to 9.1 bytes of index.
static_assert(sizeof(ConnectionTable::Entry) == 12,
              "a NAT entry must stay 12 bytes");

std::optional<ConnectionTable::FlowId> ConnectionTable::State::find(
    const FlowKey& key) const {
  if (index.empty()) return std::nullopt;
  const std::uint32_t word = index[probe(key, hash_of(key))];
  if (word == 0) return std::nullopt;
  return (word & kIdBits) - 1;
}

void ConnectionTable::file_pending() {
  std::size_t words = std::max<std::size_t>(state_.index.size(), 16);
  while ((state_.flows + 1) * 8 > words * 7) words *= 2;
  std::size_t refile = 0;
  if (words != state_.index.size()) {
    // The old words go first: the entries hold every key, so the new index
    // is filed from them, and the two indexes never coexist.
    state_.index = std::vector<std::uint32_t>();
    state_.index.resize(words);
    refile = state_.indexed;
  }
  const std::size_t mask = words - 1;
  // Filed keys are distinct, so each takes the first empty word.
  for (std::size_t id = 0; id < refile; ++id) {
    const std::uint64_t hash =
        hash_of(state_.entry(static_cast<FlowId>(id)).key);
    std::size_t at = static_cast<std::size_t>(hash) & mask;
    while (state_.index[at] != 0) at = (at + 1) & mask;
    state_.index[at] = State::tag_of(hash) | static_cast<std::uint32_t>(id + 1);
  }
  // A pending key's probe must end on an empty word: one that reaches an
  // entry names a key opened before, or pending twice.
  for (; state_.indexed < state_.flows; ++state_.indexed) {
    const auto id = static_cast<FlowId>(state_.indexed);
    const FlowKey& key = state_.entry(id).key;
    const std::uint64_t hash = hash_of(key);
    const std::size_t at = state_.probe(key, hash);
    SHAREGRID_EXPECTS(state_.index[at] == 0);
    state_.index[at] = State::tag_of(hash) | (id + 1);
  }
}

}  // namespace sharegrid::l4
