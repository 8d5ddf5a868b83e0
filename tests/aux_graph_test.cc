// The auxiliary-graph matcher's two contracts (DESIGN.md §15):
//  1. QueryAuxGraph is exactly the precomputed LeafCompatible relation —
//     same classes for same (types, labels) signatures, sorted candidate
//     lists that agree with the bitmaps, parallel build == serial build.
//  2. Byte-identity: matching with the aux path on — under ANY intersection
//     kernel — produces the identical rows, in the identical order, as the
//     aux-off LeafCompatible-filtered lists, at every k, shard count and
//     thread count. The aux path is a pure execution strategy.
// Plus the abort-path fix: units skipped after a sibling truncates carry
// real column layouts (correct MatchSet arity) and a distinct skipped mark.

#include "match/aux_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cloud/cloud_server.h"
#include "cloud/cluster.h"
#include "cloud/data_owner.h"
#include "graph/generators.h"
#include "graph/query_extractor.h"
#include "graph/query_shapes.h"
#include "match/unit_matcher.h"
#include "util/intersect.h"
#include "util/random.h"

namespace ppsm {
namespace {

using matcher_internal::LeafCompatible;
using matcher_internal::UnitColumns;

constexpr IntersectKernel kAllKernels[] = {
    IntersectKernel::kAuto, IntersectKernel::kScalar,
    IntersectKernel::kGalloping, IntersectKernel::kSimd};

TEST(AuxGraph, IsExactlyThePrecomputedLeafCompatibleRelation) {
  Rng rng(83);
  for (int trial = 0; trial < 5; ++trial) {
    const auto g = GenerateUniformRandomGraph(60, 180, 4, 3000 + trial);
    ASSERT_TRUE(g.ok());
    auto extracted = ExtractQuery(*g, 5, rng);
    ASSERT_TRUE(extracted.ok());
    const AttributedGraph& qo = extracted->query;

    const QueryAuxGraph aux = QueryAuxGraph::Build(*g, qo);
    for (VertexId qv = 0; qv < qo.NumVertices(); ++qv) {
      size_t compatible = 0;
      for (VertexId dv = 0; dv < g->NumVertices(); ++dv) {
        const bool want = LeafCompatible(qo, qv, *g, dv);
        EXPECT_EQ(aux.Compatible(qv, dv), want)
            << "trial=" << trial << " qv=" << qv << " dv=" << dv;
        compatible += want;
      }
      const auto candidates = aux.Candidates(qv);
      ASSERT_EQ(candidates.size(), compatible) << "qv=" << qv;
      for (size_t i = 0; i + 1 < candidates.size(); ++i) {
        EXPECT_LT(candidates[i], candidates[i + 1]);  // Sorted, unique.
      }
      for (const VertexId dv : candidates) {
        EXPECT_TRUE(aux.Compatible(qv, dv));
      }
    }
  }
}

TEST(AuxGraph, IdenticalSignaturesShareOneClass) {
  GraphBuilder b;
  b.AddVertex(0, {1, 2});
  b.AddVertex(0, {2, 1});  // Same signature (label sets are sorted).
  b.AddVertex(0, {1});     // Different.
  ASSERT_TRUE(b.AddEdge(0, 1).ok());
  ASSERT_TRUE(b.AddEdge(1, 2).ok());
  const AttributedGraph qo = b.Build().value();
  const auto g = GenerateUniformRandomGraph(40, 120, 3, 17);
  ASSERT_TRUE(g.ok());

  const QueryAuxGraph aux = QueryAuxGraph::Build(*g, qo);
  EXPECT_EQ(aux.NumClasses(), 2u);
  EXPECT_EQ(aux.ClassOf(0), aux.ClassOf(1));
  EXPECT_NE(aux.ClassOf(0), aux.ClassOf(2));
  EXPECT_EQ(aux.Candidates(0).data(), aux.Candidates(1).data())
      << "shared class should share one materialized candidate list";
}

TEST(AuxGraph, ParallelBuildMatchesSerial) {
  Rng rng(97);
  const auto g = GenerateUniformRandomGraph(500, 2000, 6, 23);
  ASSERT_TRUE(g.ok());
  auto extracted = ExtractQuery(*g, 6, rng);
  ASSERT_TRUE(extracted.ok());
  const AttributedGraph& qo = extracted->query;

  const QueryAuxGraph serial = QueryAuxGraph::Build(*g, qo, 1);
  const QueryAuxGraph parallel = QueryAuxGraph::Build(*g, qo, 8);
  ASSERT_EQ(serial.NumClasses(), parallel.NumClasses());
  for (VertexId qv = 0; qv < qo.NumVertices(); ++qv) {
    EXPECT_EQ(serial.ClassOf(qv), parallel.ClassOf(qv));
    const auto a = serial.Candidates(qv);
    const auto b = parallel.Candidates(qv);
    ASSERT_EQ(a.size(), b.size()) << "qv=" << qv;
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin())) << "qv=" << qv;
  }
}

// The serving path hands Build the hosted CloudIndex, whose leaf VBVs turn
// each class into word-level ANDs. The result must be indistinguishable from
// the index-less containment scan — same classes, bitmaps, candidate lists
// and materialization decisions — and both must be exactly LeafCompatible,
// including when the index covers fewer centers than the graph has vertices
// (leaf VBVs span ALL vertices).
TEST(AuxGraph, IndexBackedBuildMatchesContainmentScan) {
  Rng rng(131);
  for (int trial = 0; trial < 5; ++trial) {
    const auto g = GenerateUniformRandomGraph(120, 480, 4, 5000 + trial);
    ASSERT_TRUE(g.ok());
    const CloudIndex index =
        CloudIndex::Build(*g, g->NumVertices() / 2, 1, 4).value();
    auto extracted = ExtractQuery(*g, 5, rng);
    ASSERT_TRUE(extracted.ok());
    const AttributedGraph& qo = extracted->query;

    const QueryAuxGraph scan = QueryAuxGraph::Build(*g, qo);
    const QueryAuxGraph indexed = QueryAuxGraph::Build(*g, qo, 1, &index);
    ASSERT_EQ(scan.NumClasses(), indexed.NumClasses());
    for (VertexId qv = 0; qv < qo.NumVertices(); ++qv) {
      EXPECT_EQ(scan.ClassOf(qv), indexed.ClassOf(qv));
      for (VertexId dv = 0; dv < g->NumVertices(); ++dv) {
        const bool want = LeafCompatible(qo, qv, *g, dv);
        ASSERT_EQ(scan.Compatible(qv, dv), want)
            << "trial=" << trial << " qv=" << qv << " dv=" << dv;
        ASSERT_EQ(indexed.Compatible(qv, dv), want)
            << "trial=" << trial << " qv=" << qv << " dv=" << dv;
      }
    }
    for (size_t c = 0; c < scan.NumClasses(); ++c) {
      ASSERT_EQ(scan.ClassMaterialized(c), indexed.ClassMaterialized(c));
      const auto a = scan.ClassCandidates(c);
      const auto b = indexed.ClassCandidates(c);
      ASSERT_EQ(a.size(), b.size()) << "class=" << c;
      EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
    }
    EXPECT_EQ(scan.MemoryBytes(), indexed.MemoryBytes());
  }
}

// Build trusts an index only when its leaf VBVs span the data graph's
// vertices. An index built over another graph, smaller or larger, must be
// ignored: every class takes the containment scan and the relation is still
// exactly LeafCompatible over `data`.
TEST(AuxGraph, IndexOverAnotherGraphFallsBackToContainmentScan) {
  Rng rng(137);
  const auto g = GenerateUniformRandomGraph(120, 480, 4, 5100);
  ASSERT_TRUE(g.ok());
  auto extracted = ExtractQuery(*g, 5, rng);
  ASSERT_TRUE(extracted.ok());
  const AttributedGraph& qo = extracted->query;
  const QueryAuxGraph scan = QueryAuxGraph::Build(*g, qo);
  for (const size_t other_vertices : {90u, 150u}) {
    const auto other =
        GenerateUniformRandomGraph(other_vertices, 4 * other_vertices, 4, 5200);
    ASSERT_TRUE(other.ok());
    const CloudIndex index =
        CloudIndex::Build(*other, other->NumVertices(), 1, 4).value();
    ASSERT_NE(index.num_leaf_vertices(), g->NumVertices());

    const QueryAuxGraph aux = QueryAuxGraph::Build(*g, qo, 1, &index);
    ASSERT_EQ(aux.NumClasses(), scan.NumClasses());
    for (VertexId qv = 0; qv < qo.NumVertices(); ++qv) {
      for (VertexId dv = 0; dv < g->NumVertices(); ++dv) {
        ASSERT_EQ(aux.Compatible(qv, dv), LeafCompatible(qo, qv, *g, dv))
            << "other=" << other_vertices << " qv=" << qv << " dv=" << dv;
      }
    }
    for (size_t c = 0; c < aux.NumClasses(); ++c) {
      EXPECT_EQ(aux.ClassBits(c), scan.ClassBits(c));
      EXPECT_EQ(aux.ClassMaterialized(c), scan.ClassMaterialized(c));
      EXPECT_TRUE(std::ranges::equal(aux.ClassCandidates(c),
                                     scan.ClassCandidates(c)));
    }
  }
}

// The index-backed build lists a class by filtering its shortest group
// posting list through the class bitmap; the containment-scan build scans
// the bitmap. Lists and materialization must agree for classes just under, at
// and just over the materialization cap — for one-group classes (the
// posting list is the class) and two-group ones (it is a strict superset)
// — for an empty group, and for a label-free class (no posting list).
TEST(AuxGraph, PostingListClassesMatchBitmapScanAtTheCap) {
  constexpr size_t kN = 1600;
  const size_t cap = QueryAuxGraph::MaterializeCap(kN);
  ASSERT_EQ(cap, 356u);
  GraphBuilder b;
  for (VertexId v = 0; v < kN; ++v) {
    std::vector<LabelId> labels;
    if (v < cap) labels.push_back(0);      // |0| = cap.
    if (v < cap + 1) labels.push_back(1);  // |1| = cap + 1.
    if (v < 500) labels.push_back(2);
    if (v >= 144) labels.push_back(3);     // |2 ∩ 3| = cap.
    if (v >= 143) labels.push_back(4);     // |2 ∩ 4| = cap + 1.
    if (v + 1 < cap) labels.push_back(6);  // |6| = cap - 1.
    b.AddVertex(0, std::move(labels));     // Group 5 stays empty.
  }
  for (VertexId v = 0; v < kN; ++v) b.TryAddEdge(v, (v + 1) % kN);
  const AttributedGraph g = b.Build().value();
  const CloudIndex index = CloudIndex::Build(g, kN / 2, 1, 7).value();

  const std::vector<std::vector<LabelId>> signatures{
      {0}, {1}, {2, 3}, {2, 4}, {5}, {6}, {}};
  const std::vector<bool> materialized{true, false, true, false,
                                       true, true,  false};
  GraphBuilder qb;
  for (const auto& labels : signatures) qb.AddVertex(0, labels);
  const AttributedGraph qo = qb.Build().value();

  const QueryAuxGraph scan = QueryAuxGraph::Build(g, qo);
  const QueryAuxGraph indexed = QueryAuxGraph::Build(g, qo, 1, &index);
  ASSERT_EQ(indexed.NumClasses(), signatures.size());
  for (VertexId qv = 0; qv < qo.NumVertices(); ++qv) {
    const size_t c = indexed.ClassOf(qv);
    ASSERT_EQ(scan.ClassOf(qv), c);
    EXPECT_EQ(indexed.ClassBits(c), scan.ClassBits(c)) << "qv=" << qv;
    EXPECT_EQ(indexed.ClassMaterialized(c), scan.ClassMaterialized(c));
    EXPECT_EQ(indexed.ClassMaterialized(c), materialized[qv]) << "qv=" << qv;
    EXPECT_TRUE(std::ranges::equal(indexed.ClassCandidates(c),
                                   scan.ClassCandidates(c)))
        << "qv=" << qv;
    if (materialized[qv]) {
      EXPECT_EQ(indexed.ClassCandidates(c).size(),
                indexed.ClassBits(c).Count());
    }
  }
  // The {0} and {2, 3} classes sit exactly at the cap.
  EXPECT_EQ(indexed.ClassBits(indexed.ClassOf(0)).Count(), cap);
  EXPECT_EQ(indexed.ClassBits(indexed.ClassOf(2)).Count(), cap);
}

// A signature mentioning a label outside the index's bit spaces has no leaf
// VBV (CloudIndex ignores out-of-bounds ids), but LeafCompatible tests the
// CSR pools directly — so the index-backed build must fall back to a
// containment scan for that class and still produce the exact relation.
TEST(AuxGraph, OutOfBoundsSignatureFallsBackToContainmentScan) {
  GraphBuilder b;
  for (VertexId v = 0; v < 50; ++v) {
    b.AddVertex(0, {static_cast<LabelId>(v % 3)});
  }
  for (VertexId v = 0; v < 50; ++v) b.TryAddEdge(v, (v + 1) % 50);
  const AttributedGraph g = b.Build().value();
  // num_groups = 1: labels 1 and 2 exist in the graph but have no VBV.
  const CloudIndex index = CloudIndex::Build(g, 50, 1, 1).value();

  GraphBuilder qb;
  qb.AddVertex(0, {0});
  qb.AddVertex(0, {2});  // Out of the index's bit space.
  ASSERT_TRUE(qb.AddEdge(0, 1).ok());
  const AttributedGraph qo = qb.Build().value();

  const QueryAuxGraph aux = QueryAuxGraph::Build(g, qo, 1, &index);
  for (VertexId qv = 0; qv < qo.NumVertices(); ++qv) {
    for (VertexId dv = 0; dv < g.NumVertices(); ++dv) {
      EXPECT_EQ(aux.Compatible(qv, dv), LeafCompatible(qo, qv, g, dv))
          << "qv=" << qv << " dv=" << dv;
    }
  }
}

// A class spanning a large fraction of the data graph stays bitmap-only
// (its list could never beat the bitmap-filter walk, so Build skips the
// O(candidates) materialization). The bitmap is still exact, and matching
// stays byte-identical to the aux-off reference — under forced kernels too,
// which must silently fall back to the walk when no list exists.
TEST(AuxGraph, HugeClassStaysBitmapOnlyAndStillMatchesByteIdentical) {
  GraphBuilder b;
  constexpr size_t kN = 6000;  // Cap is num_data/16 + 256 = 631.
  for (VertexId v = 0; v < kN; ++v) {
    b.AddVertex(0, {static_cast<LabelId>(v % 2)});
  }
  for (VertexId v = 0; v < kN; ++v) {
    b.TryAddEdge(v, (v + 1) % kN);
    b.TryAddEdge(v, (v + 17) % kN);
  }
  const AttributedGraph g = b.Build().value();
  const CloudIndex index = CloudIndex::Build(g, kN, 1, 2).value();

  Rng rng(139);
  auto extracted = ExtractQuery(g, 4, rng);
  ASSERT_TRUE(extracted.ok());
  const AttributedGraph& qo = extracted->query;

  const QueryAuxGraph aux = QueryAuxGraph::Build(g, qo, 1, &index);
  bool saw_bitmap_only = false;
  for (size_t c = 0; c < aux.NumClasses(); ++c) {
    if (aux.ClassMaterialized(c)) continue;
    saw_bitmap_only = true;
    EXPECT_TRUE(aux.ClassCandidates(c).empty());
    EXPECT_GT(aux.ClassBits(c).Count(), 631u);
  }
  ASSERT_TRUE(saw_bitmap_only)
      << "every vertex shares 2 signatures over 6000 vertices; at least one "
         "class must exceed the materialization cap";

  const auto units = EnumerateCandidateUnits(qo, /*max_depth=*/2);
  UnitMatchOptions reference_options;
  reference_options.use_aux_graph = false;
  const auto reference = MatchUnits(g, index, qo, units, reference_options);
  for (const IntersectKernel kernel : kAllKernels) {
    UnitMatchOptions options;
    options.use_aux_graph = true;
    options.intersect_kernel = kernel;
    const auto got = MatchUnits(g, index, qo, units, options);
    ASSERT_EQ(got.size(), reference.size());
    for (size_t u = 0; u < got.size(); ++u) {
      EXPECT_TRUE(got[u].matches == reference[u].matches)
          << "unit=" << u << " kernel=" << IntersectKernelName(kernel);
    }
  }
}

// The core determinism contract at the matcher level: aux-on rows equal
// aux-off rows byte for byte (same order, not just same set), under every
// kernel, for stars and deep units alike.
TEST(AuxGraph, MatchUnitsAuxOnOffByteIdenticalUnderEveryKernel) {
  Rng rng(103);
  for (int trial = 0; trial < 8; ++trial) {
    const auto g = GenerateUniformRandomGraph(80, 320, 4, 4000 + trial);
    ASSERT_TRUE(g.ok());
    const CloudIndex index =
        CloudIndex::Build(*g, g->NumVertices(), 1, 4).value();
    auto extracted = ExtractQuery(*g, 5, rng);
    ASSERT_TRUE(extracted.ok());
    const AttributedGraph& qo = extracted->query;
    const auto units = EnumerateCandidateUnits(qo, /*max_depth=*/2);

    UnitMatchOptions reference_options;
    reference_options.use_aux_graph = false;
    const auto reference =
        MatchUnits(*g, index, qo, units, reference_options);

    for (const IntersectKernel kernel : kAllKernels) {
      UnitMatchOptions options;
      options.use_aux_graph = true;
      options.intersect_kernel = kernel;
      MatchPhaseStats stats;
      options.phase_stats = &stats;
      const auto got = MatchUnits(*g, index, qo, units, options);
      ASSERT_EQ(got.size(), reference.size());
      for (size_t u = 0; u < got.size(); ++u) {
        EXPECT_EQ(got[u].columns, reference[u].columns);
        EXPECT_TRUE(got[u].matches == reference[u].matches)
            << "trial=" << trial << " unit=" << u << " kernel="
            << IntersectKernelName(kernel);
        EXPECT_EQ(got[u].num_candidates, reference[u].num_candidates);
      }
      EXPECT_GT(stats.aux_bytes, 0u);
    }
  }
}

// Abort-path regression: when a unit truncates, the units skipped after it
// must carry the real column layout (a MatchSet of the right arity, not a
// default-constructed one) and the distinct skipped mark — both for star
// units (center + leaves columns) and deep units (BFS slot columns).
TEST(AuxGraph, SkippedUnitsCarryRealColumnsAndArity) {
  const auto g = GenerateUniformRandomGraph(60, 240, 2, 31);
  ASSERT_TRUE(g.ok());
  const CloudIndex index =
      CloudIndex::Build(*g, g->NumVertices(), 1, 2).value();
  Rng rng(107);
  auto extracted = ExtractQuery(*g, 5, rng);
  ASSERT_TRUE(extracted.ok());
  const AttributedGraph& qo = extracted->query;
  const auto units = EnumerateCandidateUnits(qo, /*max_depth=*/2);
  ASSERT_GE(units.size(), 2u);

  for (const bool use_aux : {false, true}) {
    UnitMatchOptions options;
    options.max_rows = 1;  // Truncates on the first unit with >1 row.
    options.use_aux_graph = use_aux;
    const auto matches = MatchUnits(*g, index, qo, units, options);
    ASSERT_EQ(matches.size(), units.size());
    bool saw_skipped = false;
    for (size_t u = 0; u < matches.size(); ++u) {
      const std::vector<VertexId> want_columns = UnitColumns(qo, units[u]);
      EXPECT_EQ(matches[u].columns, want_columns) << "unit=" << u;
      EXPECT_EQ(matches[u].matches.arity(), want_columns.size())
          << "unit=" << u << " use_aux=" << use_aux;
      if (matches[u].skipped) {
        saw_skipped = true;
        EXPECT_TRUE(matches[u].truncated)
            << "skipped units must also read as truncated";
        EXPECT_EQ(matches[u].matches.NumMatches(), 0u);
        EXPECT_EQ(matches[u].num_candidates, 0u);
      }
    }
    EXPECT_TRUE(saw_skipped)
        << "max_rows=1 should truncate and skip at least one unit";
  }
}

// End-to-end byte identity across the knob grid the ISSUE pins: aux on/off
// x k in {2, 4} x shards in {1, 2, 4} x threads in {1, 8}. The aux-on
// deployment must return the byte-identical wire payload of the aux-off
// deployment in every cell.
TEST(AuxGraph, EndToEndByteIdenticalAcrossKShardsThreads) {
  auto g = GenerateDataset(DbpediaLike(0.01));
  ASSERT_TRUE(g.ok());
  for (const uint32_t k : {2u, 4u}) {
    DataOwnerOptions owner_options;
    owner_options.k = k;
    owner_options.go_hops = 2;  // Deep units in play.
    auto owner = DataOwner::Create(*g, g->schema(), owner_options);
    ASSERT_TRUE(owner.ok()) << owner.status();

    std::vector<std::vector<uint8_t>> requests;
    Rng rng(113 + k);
    for (const QueryShape shape :
         {QueryShape::kStar, QueryShape::kPath, QueryShape::kTree}) {
      auto extracted = ExtractShapedQuery(*g, shape, 4, rng);
      ASSERT_TRUE(extracted.ok());
      auto request = owner->AnonymizeQueryToRequest(extracted->query);
      ASSERT_TRUE(request.ok());
      requests.push_back(*std::move(request));
    }

    for (const uint32_t num_shards : {1u, 2u, 4u}) {
      for (const size_t num_threads : {size_t{1}, size_t{8}}) {
        CloudConfig aux_on;
        aux_on.num_threads = num_threads;
        aux_on.aux_graph = true;
        CloudConfig aux_off = aux_on;
        aux_off.aux_graph = false;
        auto on = CloudCluster::Host(owner->upload_bytes(), num_shards, aux_on);
        auto off =
            CloudCluster::Host(owner->upload_bytes(), num_shards, aux_off);
        ASSERT_TRUE(on.ok()) << on.status();
        ASSERT_TRUE(off.ok()) << off.status();
        for (size_t i = 0; i < requests.size(); ++i) {
          auto want = off->Serve(requests[i]);
          auto got = on->Serve(requests[i]);
          ASSERT_TRUE(want.ok()) << want.status();
          ASSERT_TRUE(got.ok()) << got.status();
          EXPECT_EQ(got->response_payload, want->response_payload)
              << "k=" << k << " shards=" << num_shards
              << " threads=" << num_threads << " query=" << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace ppsm
