#include "match/query_unit.h"

#include <algorithm>

namespace ppsm {

namespace {

/// Derives the kind from the tree structure: depth <= 1 is a star; deeper
/// units are paths when no vertex branches (tree-degree <= 2 everywhere),
/// trees otherwise.
UnitKind ClassifyUnit(const QueryUnit& unit) {
  if (unit.depth <= 1) return UnitKind::kStar;
  std::vector<uint32_t> tree_degree(unit.vertices.size(), 0);
  for (size_t i = 1; i < unit.vertices.size(); ++i) {
    ++tree_degree[i];
    ++tree_degree[unit.parent[i]];
  }
  const bool branches =
      std::any_of(tree_degree.begin(), tree_degree.end(),
                  [](uint32_t d) { return d > 2; });
  return branches ? UnitKind::kTree : UnitKind::kPath;
}

}  // namespace

const char* UnitKindName(UnitKind kind) {
  switch (kind) {
    case UnitKind::kStar:
      return "star";
    case UnitKind::kPath:
      return "path";
    case UnitKind::kTree:
      return "tree";
  }
  return "unknown";
}

uint32_t QueryUnit::DepthOf(size_t i) const {
  uint32_t d = 0;
  while (i != 0) {
    i = parent[i];
    ++d;
  }
  return d;
}

QueryUnit MakeStarUnit(const AttributedGraph& qo, VertexId center) {
  return MakeBfsTreeUnit(qo, center, /*max_depth=*/1);
}

QueryUnit MakeBfsTreeUnit(const AttributedGraph& qo, VertexId root,
                          uint32_t max_depth) {
  QueryUnit unit;
  unit.vertices.push_back(root);
  unit.parent.push_back(0);
  std::vector<bool> visited(qo.NumVertices(), false);
  visited[root] = true;
  // BFS order doubles as the queue: slots are processed in insertion order,
  // and their neighbors appended in adjacency (ascending id) order.
  std::vector<uint32_t> slot_depth{0};
  for (size_t head = 0; head < unit.vertices.size(); ++head) {
    if (slot_depth[head] >= max_depth) continue;
    for (const VertexId w : qo.Neighbors(unit.vertices[head])) {
      if (visited[w]) continue;
      visited[w] = true;
      unit.vertices.push_back(w);
      unit.parent.push_back(static_cast<uint32_t>(head));
      slot_depth.push_back(slot_depth[head] + 1);
      unit.depth = std::max(unit.depth, slot_depth.back());
    }
  }
  unit.kind = ClassifyUnit(unit);
  return unit;
}

std::vector<QueryUnit> EnumerateCandidateUnits(const AttributedGraph& qo,
                                               uint32_t max_depth) {
  std::vector<QueryUnit> units;
  units.reserve(qo.NumVertices() * (max_depth >= 2 ? 2 : 1));
  // Stars first, one per vertex in vertex order: unit index == vertex id,
  // which makes the depth-1 ILP model the paper's per-vertex star cover.
  for (VertexId v = 0; v < qo.NumVertices(); ++v) {
    units.push_back(MakeStarUnit(qo, v));
  }
  if (max_depth >= 2) {
    for (VertexId v = 0; v < qo.NumVertices(); ++v) {
      QueryUnit tree = MakeBfsTreeUnit(qo, v, max_depth);
      // A tree with no vertex beyond depth 1 is the star already enumerated.
      if (tree.depth >= 2) units.push_back(std::move(tree));
    }
  }
  return units;
}

bool IsValidUnit(const AttributedGraph& qo, const QueryUnit& unit) {
  if (unit.vertices.empty() ||
      unit.parent.size() != unit.vertices.size()) {
    return false;
  }
  std::vector<bool> seen(qo.NumVertices(), false);
  for (size_t i = 0; i < unit.vertices.size(); ++i) {
    const VertexId v = unit.vertices[i];
    if (v >= qo.NumVertices() || seen[v]) return false;
    seen[v] = true;
    if (i == 0) {
      if (unit.parent[0] != 0) return false;
      continue;
    }
    if (unit.parent[i] >= i) return false;
    const auto neighbors = qo.Neighbors(unit.vertices[unit.parent[i]]);
    if (!std::binary_search(neighbors.begin(), neighbors.end(), v)) {
      return false;
    }
  }
  return true;
}

}  // namespace ppsm
