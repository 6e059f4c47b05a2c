#include "coord/topology.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace sharegrid::coord {

std::size_t TreeTopology::root() const {
  for (std::size_t i = 0; i < parent.size(); ++i)
    if (parent[i] == kNoParent) return i;
  SHAREGRID_ASSERT(!"tree has no root");
  return kNoParent;
}

std::vector<std::vector<std::size_t>> TreeTopology::children() const {
  std::vector<std::vector<std::size_t>> out(parent.size());
  for (std::size_t i = 0; i < parent.size(); ++i)
    if (parent[i] != kNoParent) out[parent[i]].push_back(i);
  return out;
}

std::size_t TreeTopology::depth() const {
  std::size_t deepest = 0;
  for (std::size_t i = 0; i < parent.size(); ++i) {
    std::size_t d = 0;
    for (std::size_t v = i; parent[v] != kNoParent; v = parent[v]) ++d;
    deepest = std::max(deepest, d);
  }
  return deepest;
}

bool TreeTopology::valid() const {
  if (parent.empty()) return false;
  std::size_t roots = 0;
  for (std::size_t i = 0; i < parent.size(); ++i) {
    if (parent[i] == kNoParent) {
      ++roots;
      continue;
    }
    if (parent[i] >= parent.size()) return false;
    // Walk to the root; a cycle would exceed n steps.
    std::size_t v = i;
    std::size_t steps = 0;
    while (parent[v] != kNoParent) {
      v = parent[v];
      if (++steps > parent.size()) return false;
    }
  }
  return roots == 1;
}

TreeTopology TreeTopology::star(std::size_t n) {
  SHAREGRID_EXPECTS(n >= 1);
  TreeTopology t;
  t.parent.assign(n, 0);
  t.parent[0] = kNoParent;
  return t;
}

TreeTopology TreeTopology::balanced(std::size_t n, std::size_t fanout) {
  SHAREGRID_EXPECTS(n >= 1 && fanout >= 1);
  TreeTopology t;
  t.parent.resize(n);
  t.parent[0] = kNoParent;
  for (std::size_t i = 1; i < n; ++i) t.parent[i] = (i - 1) / fanout;
  return t;
}

}  // namespace sharegrid::coord
