// Tree topologies for the combining network (§3.2).
//
// The paper overlays a dynamic combining tree on the redirector nodes and
// notes that "several algorithms exist" for building one; topology is
// therefore an input here (DESIGN.md §4), with helpers for the usual shapes.
#pragma once

#include <cstddef>
#include <vector>

namespace sharegrid::coord {

/// Sentinel for "no parent" (the root).
inline constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

/// Rooted tree over nodes 0..n-1 expressed as a parent array.
struct TreeTopology {
  std::vector<std::size_t> parent;

  std::size_t size() const { return parent.size(); }
  std::size_t root() const;

  /// children()[i] lists i's children in index order.
  std::vector<std::vector<std::size_t>> children() const;

  /// Longest root-to-leaf edge count.
  std::size_t depth() const;

  /// True when the parent array encodes a single connected rooted tree.
  bool valid() const;

  /// Node 0 is the root; every other node is its direct child.
  static TreeTopology star(std::size_t n);
  /// Complete @p fanout-ary tree: node i's parent is (i-1)/fanout (a
  /// fanout of 1 is a chain).
  static TreeTopology balanced(std::size_t n, std::size_t fanout);
};

}  // namespace sharegrid::coord
