#include "match/index.h"

#include <algorithm>
#include <numeric>
#include <string>

#include "util/parallel.h"

namespace ppsm {

Result<CloudIndex> CloudIndex::Build(const AttributedGraph& graph,
                                     size_t num_centers, size_t num_types,
                                     size_t num_groups, size_t num_threads) {
  if (num_centers > graph.NumVertices()) {
    return Status::InvalidArgument(
        "CloudIndex::Build: num_centers (" + std::to_string(num_centers) +
        ") exceeds graph vertex count (" +
        std::to_string(graph.NumVertices()) + ")");
  }
  CloudIndex index;
  index.num_centers_ = num_centers;
  index.num_leaf_vertices_ = graph.NumVertices();
  index.group_vbv_.assign(num_groups, BitVector(num_centers));
  index.type_vbv_.assign(num_types, BitVector(num_centers));
  index.neighbor_group_vbv_.assign(num_groups, BitVector(num_centers));
  index.neighbor_type_vbv_.assign(num_types, BitVector(num_centers));
  index.leaf_group_vbv_.assign(num_groups,
                               BitVector(index.num_leaf_vertices_));
  index.leaf_type_vbv_.assign(num_types, BitVector(index.num_leaf_vertices_));

  // Vertices are scanned in 64-aligned blocks: bits [64b, 64(b+1)) of every
  // bit vector live in one uint64_t word owned exclusively by block b, so
  // concurrent workers never write the same word (BitVector::Set is a plain
  // read-modify-write, not atomic). Every family is indexed by vertex id —
  // the NBVs too, being transposed — and centers are the id prefix
  // [0, num_centers), so one pass covers the center VBVs, the NBVs and the
  // all-vertex leaf VBVs.
  constexpr size_t kBlock = BitVector::kWordBits;
  const size_t num_vertices = index.num_leaf_vertices_;
  const size_t num_blocks = (num_vertices + kBlock - 1) / kBlock;
  ParallelFor(num_threads, num_blocks, [&](size_t block) {
    const size_t begin = block * kBlock;
    const size_t end = std::min(num_vertices, begin + kBlock);
    for (VertexId v = static_cast<VertexId>(begin); v < end; ++v) {
      for (const LabelId g : graph.Labels(v)) {
        if (g >= num_groups) continue;
        index.leaf_group_vbv_[g].Set(v);
        if (v < num_centers) index.group_vbv_[g].Set(v);
      }
      for (const VertexTypeId t : graph.Types(v)) {
        if (t >= num_types) continue;
        index.leaf_type_vbv_[t].Set(v);
        if (v < num_centers) index.type_vbv_[t].Set(v);
      }
      if (v >= num_centers) continue;
      for (const VertexId u : graph.Neighbors(v)) {
        for (const LabelId g : graph.Labels(u)) {
          if (g < num_groups) index.neighbor_group_vbv_[g].Set(v);
        }
        for (const VertexTypeId t : graph.Types(u)) {
          if (t < num_types) index.neighbor_type_vbv_[t].Set(v);
        }
      }
    }
  });

  // Posting lists: each group's leaf VBV, listed. Groups are independent.
  index.group_postings_.resize(num_groups);
  ParallelFor(num_threads, num_groups, [&](size_t g) {
    const BitVector& bits = index.leaf_group_vbv_[g];
    std::vector<VertexId>& postings = index.group_postings_[g];
    postings.reserve(bits.Count());
    bits.ForEachSetBit([&postings](size_t v) {
      postings.push_back(static_cast<VertexId>(v));
    });
  });
  return index;
}

std::vector<VertexId> CloudIndex::CandidateCenters(const AttributedGraph& qo,
                                                   VertexId q) const {
  // The conjunction of Algorithm 1 lines 4 and 6: q's own types and groups
  // select VBVs (alpha), its neighbors' types and groups select NBVs
  // (LBV(va) ⊇ LBV(q) iff va lies in every selected NBV). Any id outside
  // the index's bit spaces names an attribute no center can satisfy.
  std::vector<const BitVector*> terms;
  terms.reserve(8);
  const auto add = [&terms](const std::vector<BitVector>& family,
                            size_t id) {
    if (id >= family.size()) return false;
    terms.push_back(&family[id]);
    return true;
  };
  for (const VertexTypeId t : qo.Types(q)) {
    if (!add(type_vbv_, t)) return {};
  }
  for (const LabelId g : qo.Labels(q)) {
    if (!add(group_vbv_, g)) return {};
  }
  for (const VertexId nq : qo.Neighbors(q)) {
    for (const VertexTypeId t : qo.Types(nq)) {
      if (!add(neighbor_type_vbv_, t)) return {};
    }
    for (const LabelId g : qo.Labels(nq)) {
      if (!add(neighbor_group_vbv_, g)) return {};
    }
  }
  std::vector<VertexId> candidates;
  if (terms.empty()) {
    // No type, label or neighbor (GraphBuilder requires a type, so only a
    // hand-made graph gets here): every center qualifies.
    candidates.resize(num_centers_);
    std::iota(candidates.begin(), candidates.end(), VertexId{0});
    return candidates;
  }
  // Neighbors repeat attributes; an AND needs each bit vector once.
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
  // Whole-vector ANDs, word-parallel.
  BitVector alpha = *terms[0];
  for (size_t i = 1; i < terms.size(); ++i) alpha &= *terms[i];
  alpha.ForEachSetBit([&candidates](size_t va) {
    candidates.push_back(static_cast<VertexId>(va));
  });
  return candidates;
}

const std::vector<VertexId>& RootCandidates::Of(VertexId q) {
  if (computed_[q] == 0) {
    lists_[q] = index_->CandidateCenters(*qo_, q);
    computed_[q] = 1;
  }
  return lists_[q];
}

size_t CloudIndex::MemoryBytes() const {
  size_t bytes = 0;
  for (const auto* family : {&group_vbv_, &type_vbv_, &neighbor_group_vbv_,
                             &neighbor_type_vbv_, &leaf_group_vbv_,
                             &leaf_type_vbv_}) {
    for (const BitVector& bv : *family) bytes += bv.MemoryBytes();
  }
  for (const auto& postings : group_postings_) {
    bytes += postings.size() * sizeof(VertexId);
  }
  return bytes;
}

}  // namespace ppsm
