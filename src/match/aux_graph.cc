#include "match/aux_graph.h"

#include <algorithm>
#include <optional>
#include <span>

#include "match/index.h"
#include "util/parallel.h"

namespace ppsm {

namespace {

/// 64-aligned data-vertex blocks: bits [64b, 64(b+1)) of every class bitmap
/// live in one uint64_t word owned exclusively by block b, so concurrent
/// workers never write the same word (BitVector::Set is a plain
/// read-modify-write, not atomic) — same layout as CloudIndex::Build.
constexpr size_t kBlock = 64;

}  // namespace

size_t QueryAuxGraph::MaterializeCap(size_t num_data) {
  return num_data / 16 + 256;
}

QueryAuxGraph QueryAuxGraph::Build(const AttributedGraph& data,
                                   const AttributedGraph& qo,
                                   size_t num_threads,
                                   const CloudIndex* index) {
  QueryAuxGraph aux;
  const size_t num_query = qo.NumVertices();
  const size_t num_data = data.NumVertices();
  aux.class_of_.resize(num_query, 0);

  // Deduplicate query vertices by (types, labels) signature. Query graphs
  // are tiny (tens of vertices), so a linear scan over the classes found so
  // far beats any hashing setup. `reps[c]` is the first query vertex seen
  // with class c's signature.
  std::vector<VertexId> reps;
  for (VertexId qv = 0; qv < num_query; ++qv) {
    size_t cls = reps.size();
    for (size_t c = 0; c < reps.size(); ++c) {
      if (std::ranges::equal(qo.Types(qv), qo.Types(reps[c])) &&
          std::ranges::equal(qo.Labels(qv), qo.Labels(reps[c]))) {
        cls = c;
        break;
      }
    }
    if (cls == reps.size()) reps.push_back(qv);
    aux.class_of_[qv] = cls;
  }

  const size_t num_classes = reps.size();
  aux.class_bits_.assign(num_classes, BitVector(num_data));
  aux.class_candidates_.resize(num_classes);
  aux.materialized_.assign(num_classes, 0);
  if (num_data == 0) return aux;

  // An index is only trusted when its leaf VBVs span exactly this data
  // graph; anything else (no index, or an index for some other graph) takes
  // the pool-scan path below.
  const bool use_index =
      index != nullptr && index->num_leaf_vertices() == num_data;

  // Per class, an ascending superset of its members to list it from
  // (a group posting list), or none: then the class bitmap is scanned.
  std::vector<std::optional<std::span<const VertexId>>> superset(
      num_classes);
  if (use_index) {
    // Fast path: class bitmap = AND of the index's precomputed leaf VBVs —
    // O(constraints) word-level ANDs per class, no per-query graph scan.
    // A signature mentioning a type/label id outside the index bit spaces
    // has no VBV (the index ignores out-of-bounds ids), but LeafCompatible
    // tests the CSR pools directly, so those classes — vanishingly rare in
    // practice — fall back to a block-parallel containment scan to keep the
    // byte-identity contract exact.
    std::vector<size_t> oob_classes;
    for (size_t c = 0; c < num_classes; ++c) {
      bool in_bounds = true;
      for (const VertexTypeId t : qo.Types(reps[c])) {
        if (t >= index->num_types()) in_bounds = false;
      }
      for (const LabelId l : qo.Labels(reps[c])) {
        if (l >= index->num_groups()) in_bounds = false;
      }
      if (!in_bounds) {
        oob_classes.push_back(c);
        continue;
      }
      BitVector& bits = aux.class_bits_[c];
      bits.SetAll();  // Empty signature: containment is vacuously true.
      for (const VertexTypeId t : qo.Types(reps[c])) {
        bits &= index->LeafTypeVbv(t);
      }
      for (const LabelId l : qo.Labels(reps[c])) {
        bits &= index->LeafGroupVbv(l);
        // Every class member carries l, so the shortest posting list of
        // the class's groups is a superset of the class.
        const std::span<const VertexId> postings = index->GroupPostings(l);
        if (!superset[c] || postings.size() < superset[c]->size()) {
          superset[c] = postings;
        }
      }
    }
    for (const size_t c : oob_classes) {
      const VertexId rep = reps[c];
      const size_t num_blocks = (num_data + kBlock - 1) / kBlock;
      ParallelFor(num_threads, num_blocks, [&](size_t block) {
        const size_t begin = block * kBlock;
        const size_t end = std::min(num_data, begin + kBlock);
        for (VertexId dv = static_cast<VertexId>(begin); dv < end; ++dv) {
          if (data.TypesContainAll(dv, qo.Types(rep)) &&
              data.LabelsContainAll(dv, qo.Labels(rep))) {
            aux.class_bits_[c].Set(dv);
          }
        }
      });
    }
  } else {
    // Index-less path. The containment conditions factor per constraint: a
    // vertex satisfies a class iff it carries EVERY type and EVERY label of
    // the class signature. So instead of one containment scan per (vertex,
    // class) pair, build one bitmap over data vertices per DISTINCT
    // constraint the query mentions — a single pass over the CSR type/label
    // pools — and reduce each class to word-level ANDs of its constraints'
    // bitmaps.
    int32_t max_type = -1, max_label = -1;
    for (const VertexId rep : reps) {
      for (const VertexTypeId t : qo.Types(rep)) {
        max_type = std::max(max_type, static_cast<int32_t>(t));
      }
      for (const LabelId l : qo.Labels(rep)) {
        max_label = std::max(max_label, static_cast<int32_t>(l));
      }
    }
    // Dense constraint-id -> slot maps (-1 = constraint unused by the query).
    std::vector<int32_t> type_slot(max_type + 1, -1);
    std::vector<int32_t> label_slot(max_label + 1, -1);
    size_t num_slots = 0;
    for (const VertexId rep : reps) {
      for (const VertexTypeId t : qo.Types(rep)) {
        if (type_slot[t] < 0) type_slot[t] = static_cast<int32_t>(num_slots++);
      }
      for (const LabelId l : qo.Labels(rep)) {
        if (label_slot[l] < 0) {
          label_slot[l] = static_cast<int32_t>(num_slots++);
        }
      }
    }

    std::vector<BitVector> constraint_bits(num_slots, BitVector(num_data));
    const size_t num_blocks = (num_data + kBlock - 1) / kBlock;
    ParallelFor(num_threads, num_blocks, [&](size_t block) {
      const size_t begin = block * kBlock;
      const size_t end = std::min(num_data, begin + kBlock);
      for (VertexId dv = static_cast<VertexId>(begin); dv < end; ++dv) {
        for (const VertexTypeId t : data.Types(dv)) {
          if (static_cast<int32_t>(t) <= max_type && type_slot[t] >= 0) {
            constraint_bits[type_slot[t]].Set(dv);
          }
        }
        for (const LabelId l : data.Labels(dv)) {
          if (static_cast<int32_t>(l) <= max_label && label_slot[l] >= 0) {
            constraint_bits[label_slot[l]].Set(dv);
          }
        }
      }
    });

    // Reduce: class bitmap = AND over its constraints (all-ones when the
    // signature is unconstrained — empty containment is vacuously true).
    // Classes are independent, so this axis parallelizes trivially.
    ParallelFor(num_threads, num_classes, [&](size_t c) {
      BitVector& bits = aux.class_bits_[c];
      bits.SetAll();
      for (const VertexTypeId t : qo.Types(reps[c])) {
        bits &= constraint_bits[type_slot[t]];
      }
      for (const LabelId l : qo.Labels(reps[c])) {
        bits &= constraint_bits[label_slot[l]];
      }
    });
  }

  // Materialize each small-enough bitmap as its sorted candidate list:
  // filtering an ascending superset through the bitmap, or scanning the
  // bitmap (ascending) when there is none, gives the same sorted,
  // duplicate-free list. Classes above the cap stay bitmap-only — see
  // ClassMaterialized. Classes are independent, so this axis parallelizes
  // trivially.
  const size_t cap = MaterializeCap(num_data);
  ParallelFor(num_threads, num_classes, [&](size_t c) {
    const BitVector& bits = aux.class_bits_[c];
    // A superset within the cap bounds the class without counting it.
    const size_t bound = superset[c] && superset[c]->size() <= cap
                             ? superset[c]->size()
                             : bits.Count();
    if (bound > cap) return;
    aux.materialized_[c] = 1;
    std::vector<VertexId>& out = aux.class_candidates_[c];
    out.reserve(bound);
    if (superset[c]) {
      for (const VertexId dv : *superset[c]) {
        if (bits.Test(dv)) out.push_back(dv);
      }
    } else {
      bits.ForEachSetBit(
          [&out](size_t dv) { out.push_back(static_cast<VertexId>(dv)); });
    }
  });
  return aux;
}

size_t QueryAuxGraph::MemoryBytes() const {
  size_t bytes = class_of_.size() * sizeof(size_t);
  for (const BitVector& bits : class_bits_) bytes += bits.MemoryBytes();
  for (const std::vector<VertexId>& c : class_candidates_) {
    bytes += c.size() * sizeof(VertexId);
  }
  return bytes;
}

}  // namespace ppsm
