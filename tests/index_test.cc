#include "match/index.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/generators.h"
#include "index_oracle.h"
#include "util/random.h"

namespace ppsm {
namespace {

using index_oracle::PerCenterLbvIndex;

/// The per-center view of the transposed LBV: the groups (resp. types)
/// whose neighbor bit vector has `center` set.
std::vector<size_t> NeighborGroupsOf(const CloudIndex& index,
                                     VertexId center) {
  std::vector<size_t> groups;
  for (LabelId g = 0; g < index.num_groups(); ++g) {
    if (index.NeighborGroupVbv(g).Test(center)) groups.push_back(g);
  }
  return groups;
}
std::vector<size_t> NeighborTypesOf(const CloudIndex& index,
                                    VertexId center) {
  std::vector<size_t> types;
  for (VertexTypeId t = 0; t < index.num_types(); ++t) {
    if (index.NeighborTypeVbv(t).Test(center)) types.push_back(t);
  }
  return types;
}

/// Data graph mirroring the paper's Figure 7 discussion: vertices with
/// group-id labels, index over a prefix of "centers".
AttributedGraph Fig7LikeGraph() {
  // Groups: A=0,B=1,C=2,D=3,E=4,F=5 (paper's letters).
  GraphBuilder b;
  b.AddVertex(0, {2, 4});     // p1-like: C,E.       (center 0)
  b.AddVertex(0, {2, 3});     // p2-like: C,D.       (center 1)
  b.AddVertex(1, {0, 1});     // c1-like: A,B.       (center 2)
  b.AddVertex(2, {5});        // s1-like: F.         (center 3)
  b.AddVertex(0, {2, 3});     // N1-ish extra vertex (not a center).
  EXPECT_TRUE(b.AddEdge(0, 2).ok());  // p1 - c1.
  EXPECT_TRUE(b.AddEdge(1, 2).ok());  // p2 - c1.
  EXPECT_TRUE(b.AddEdge(0, 1).ok());  // p1 - p2.
  EXPECT_TRUE(b.AddEdge(0, 3).ok());  // p1 - s1.
  EXPECT_TRUE(b.AddEdge(1, 3).ok());  // p2 - s1.
  EXPECT_TRUE(b.AddEdge(3, 4).ok());  // s1 - extra.
  return b.Build().value();
}

TEST(CloudIndex, VbvBitsMatchVertexGroups) {
  const AttributedGraph g = Fig7LikeGraph();
  const CloudIndex index = CloudIndex::Build(g, 4, 3, 6).value();
  EXPECT_EQ(index.num_centers(), 4u);
  // Group C (=2) is carried by centers 0 and 1.
  EXPECT_EQ(index.GroupVbv(2).ToIndices(), (std::vector<size_t>{0, 1}));
  EXPECT_EQ(index.GroupVbv(0).ToIndices(), (std::vector<size_t>{2}));
  EXPECT_EQ(index.GroupVbv(5).ToIndices(), (std::vector<size_t>{3}));
  // Type VBVs.
  EXPECT_EQ(index.TypeVbv(0).ToIndices(), (std::vector<size_t>{0, 1}));
  EXPECT_EQ(index.TypeVbv(1).ToIndices(), (std::vector<size_t>{2}));
  EXPECT_EQ(index.TypeVbv(2).ToIndices(), (std::vector<size_t>{3}));
}

TEST(CloudIndex, LbvBitsMatchNeighborCoverage) {
  const AttributedGraph g = Fig7LikeGraph();
  const CloudIndex index = CloudIndex::Build(g, 4, 3, 6).value();
  // Center 0 (p1) neighbors: c1 {A,B}, p2 {C,D}, s1 {F} -> groups 0,1,2,3,5.
  EXPECT_EQ(NeighborGroupsOf(index, 0), (std::vector<size_t>{0, 1, 2, 3, 5}));
  // Paper's point: E (=4) is NOT in p1's neighbor label set.
  EXPECT_FALSE(index.NeighborGroupVbv(4).Test(0));
  // Center 3 (s1) neighbors: p1 {C,E}, p2 {C,D}, extra {C,D}.
  EXPECT_EQ(NeighborGroupsOf(index, 3), (std::vector<size_t>{2, 3, 4}));
  // Neighbor types of center 2 (c1): both neighbors are type 0.
  EXPECT_EQ(NeighborTypesOf(index, 2), (std::vector<size_t>{0}));
  // Transposed, E's bit vector holds exactly the centers with an E
  // neighbor: p2, c1 and s1 all neighbor p1, but p1 itself does not. It
  // spans the centers only, so the non-center vertex 4 has no bit.
  EXPECT_EQ(index.NeighborGroupVbv(4).ToIndices(),
            (std::vector<size_t>{1, 2, 3}));
  EXPECT_EQ(index.NeighborGroupVbv(4).size(), 4u);
  // The per-center oracle agrees on every center.
  const PerCenterLbvIndex oracle(g, 4, 3, 6);
  for (VertexId c = 0; c < 4; ++c) {
    EXPECT_EQ(NeighborGroupsOf(index, c), oracle.NeighborGroups(c));
    EXPECT_EQ(NeighborTypesOf(index, c), oracle.NeighborTypes(c));
  }
}

TEST(CloudIndex, CandidateCentersLine46Semantics) {
  const AttributedGraph g = Fig7LikeGraph();
  const CloudIndex index = CloudIndex::Build(g, 4, 3, 6).value();

  // Query star: center type 0 with group C, neighbors requiring groups
  // {A} (type 1) and {F} (type 2) — the Figure 6 S1 star shape.
  GraphBuilder q;
  q.AddVertex(0, {2});
  q.AddVertex(1, {0});
  q.AddVertex(2, {5});
  ASSERT_TRUE(q.AddEdge(0, 1).ok());
  ASSERT_TRUE(q.AddEdge(0, 2).ok());
  const AttributedGraph qo = q.Build().value();
  // Both p1 (0) and p2 (1) carry C and have neighbors covering {A,F}.
  EXPECT_EQ(index.CandidateCenters(qo, 0), (std::vector<VertexId>{0, 1}));

  // A center that additionally requires group E among neighbors: none.
  GraphBuilder q2;
  q2.AddVertex(0, {2});
  q2.AddVertex(0, {4});  // Neighbor with E.
  ASSERT_TRUE(q2.AddEdge(0, 1).ok());
  const AttributedGraph qo2 = q2.Build().value();
  EXPECT_EQ(index.CandidateCenters(qo2, 0), (std::vector<VertexId>{1}));
  // p2's neighbor p1 carries E, so only center 1 qualifies; p1's own
  // neighbors (c1, p2, s1) never carry E.
}

TEST(CloudIndex, OutOfRangeQueryIdsYieldNoCandidates) {
  const AttributedGraph g = Fig7LikeGraph();
  const CloudIndex index = CloudIndex::Build(g, 4, 3, 6).value();
  GraphBuilder q;
  q.AddVertex(9, {});  // Unknown type.
  EXPECT_TRUE(index.CandidateCenters(q.Build().value(), 0).empty());
  GraphBuilder q2;
  q2.AddVertex(0, {77});  // Unknown group.
  EXPECT_TRUE(index.CandidateCenters(q2.Build().value(), 0).empty());
}

TEST(CloudIndex, CandidatesAgainstBruteForceOnRandomGraphs) {
  Rng rng(66);
  for (int trial = 0; trial < 10; ++trial) {
    const auto g = GenerateUniformRandomGraph(60, 150, 6, 1000 + trial);
    ASSERT_TRUE(g.ok());
    const size_t centers = 40;
    const CloudIndex index = CloudIndex::Build(*g, centers, 1, 6).value();

    // Random star query from the data graph itself.
    const auto center =
        static_cast<VertexId>(rng.Below(g->NumVertices()));
    GraphBuilder qb;
    const auto center_labels = g->Labels(center);
    qb.AddVertex(0, std::vector<LabelId>(center_labels.begin(),
                                         center_labels.end()));
    size_t leaf_count = 0;
    for (const VertexId nb : g->Neighbors(center)) {
      if (leaf_count++ >= 3) break;
      const auto labels = g->Labels(nb);
      const VertexId leaf = qb.AddVertex(
          0, std::vector<LabelId>(labels.begin(), labels.end()));
      ASSERT_TRUE(qb.AddEdge(0, leaf).ok());
    }
    const AttributedGraph qo = qb.Build().value();
    const std::vector<VertexId> fast = index.CandidateCenters(qo, 0);

    // Brute force the line 4-6 semantics.
    std::vector<VertexId> slow;
    for (VertexId va = 0; va < centers; ++va) {
      if (!g->LabelsContainAll(va, qo.Labels(0))) continue;
      bool lbv_ok = true;
      for (const VertexId leaf : qo.Neighbors(0)) {
        for (const LabelId l : qo.Labels(leaf)) {
          bool found = false;
          for (const VertexId nb : g->Neighbors(va)) {
            if (g->HasLabel(nb, l)) found = true;
          }
          if (!found) lbv_ok = false;
        }
      }
      if (lbv_ok) slow.push_back(va);
    }
    EXPECT_EQ(fast, slow) << "trial " << trial;
  }
}

TEST(CloudIndex, ParallelBuildMatchesSerial) {
  // Non-multiple-of-64 center count exercises the ragged final block; the
  // TSan job runs this test to prove the block partitioning is race-free.
  const auto g = GenerateUniformRandomGraph(300, 1200, 6, 77);
  ASSERT_TRUE(g.ok());
  const size_t centers = 250;
  const CloudIndex serial = CloudIndex::Build(*g, centers, 1, 6).value();
  for (const size_t threads : {2, 4, 8}) {
    const CloudIndex parallel = CloudIndex::Build(*g, centers, 1, 6, threads).value();
    ASSERT_EQ(parallel.num_centers(), serial.num_centers());
    for (LabelId gid = 0; gid < 6; ++gid) {
      EXPECT_EQ(parallel.GroupVbv(gid).ToIndices(),
                serial.GroupVbv(gid).ToIndices())
          << "threads " << threads << " group " << gid;
    }
    EXPECT_EQ(parallel.TypeVbv(0).ToIndices(), serial.TypeVbv(0).ToIndices());
    for (VertexId v = 0; v < centers; ++v) {
      ASSERT_EQ(NeighborGroupsOf(parallel, v), NeighborGroupsOf(serial, v))
          << "threads " << threads << " center " << v;
      ASSERT_EQ(NeighborTypesOf(parallel, v), NeighborTypesOf(serial, v))
          << "threads " << threads << " center " << v;
    }
    for (LabelId gid = 0; gid < 6; ++gid) {
      const auto a = parallel.GroupPostings(gid);
      const auto b = serial.GroupPostings(gid);
      EXPECT_TRUE(std::ranges::equal(a, b))
          << "threads " << threads << " group " << gid;
    }
  }
}

TEST(CloudIndex, LeafVbvsCoverAllVerticesNotJustCenters) {
  const AttributedGraph g = Fig7LikeGraph();
  // 4 centers, 5 vertices: the non-center extra vertex (id 4, groups C,D)
  // must appear in the leaf VBVs even though the center VBVs exclude it.
  const CloudIndex index = CloudIndex::Build(g, 4, 3, 6).value();
  EXPECT_EQ(index.num_leaf_vertices(), 5u);
  EXPECT_EQ(index.GroupVbv(2).ToIndices(), (std::vector<size_t>{0, 1}));
  EXPECT_EQ(index.LeafGroupVbv(2).ToIndices(),
            (std::vector<size_t>{0, 1, 4}));
  EXPECT_EQ(index.LeafGroupVbv(3).ToIndices(), (std::vector<size_t>{1, 4}));
  EXPECT_EQ(index.LeafTypeVbv(0).ToIndices(), (std::vector<size_t>{0, 1, 4}));
  EXPECT_EQ(index.LeafTypeVbv(2).ToIndices(), (std::vector<size_t>{3}));
  // Default-constructed index reports 0 so QueryAuxGraph::Build can tell it
  // cannot trust the (absent) leaf VBVs.
  EXPECT_EQ(CloudIndex{}.num_leaf_vertices(), 0u);
}

TEST(CloudIndex, GroupPostingsListTheLeafVbvs) {
  const AttributedGraph g = Fig7LikeGraph();
  const CloudIndex index = CloudIndex::Build(g, 4, 3, 6).value();
  for (LabelId gid = 0; gid < 6; ++gid) {
    const auto postings = index.GroupPostings(gid);
    const std::vector<size_t> bits = index.LeafGroupVbv(gid).ToIndices();
    EXPECT_TRUE(std::ranges::equal(postings, bits)) << "group " << gid;
  }
  // Group C (=2) is on centers 0, 1 and the non-center vertex 4.
  EXPECT_TRUE(std::ranges::equal(index.GroupPostings(2),
                                 std::vector<VertexId>{0, 1, 4}));
}

/// Random data graph with up to two types and three groups per vertex,
/// drawn from [0, num_types) and [0, num_groups).
AttributedGraph RandomAttributedGraph(Rng& rng, size_t n, size_t m,
                                      size_t num_types, size_t num_groups) {
  GraphBuilder b;
  for (size_t v = 0; v < n; ++v) {
    std::vector<VertexTypeId> types{
        static_cast<VertexTypeId>(rng.Below(num_types))};
    if (rng.Chance(0.3)) {
      types.push_back(static_cast<VertexTypeId>(rng.Below(num_types)));
    }
    std::vector<LabelId> labels;
    const size_t num_labels = rng.Below(4);
    for (size_t i = 0; i < num_labels; ++i) {
      labels.push_back(static_cast<LabelId>(rng.Below(num_groups)));
    }
    b.AddVertex(std::move(types), std::move(labels));
  }
  for (size_t e = 0; e < m && n > 1; ++e) {
    b.TryAddEdge(static_cast<VertexId>(rng.Below(n)),
                 static_cast<VertexId>(rng.Below(n)));
  }
  return b.Build().value();
}

/// Random query graph whose attributes are mostly in range but may name
/// ids one or two past the index's bit spaces; vertices may carry no label
/// (constrained by their type alone) and no edge (isolated).
AttributedGraph RandomQuery(Rng& rng, size_t num_types, size_t num_groups) {
  GraphBuilder b;
  const size_t n = 1 + rng.Below(5);
  for (size_t v = 0; v < n; ++v) {
    const auto draw = [&rng](size_t bound) {
      // 1 in 20 draws lands past the bit space.
      return rng.Chance(0.05) ? bound + rng.Below(2) : rng.Below(bound);
    };
    std::vector<VertexTypeId> types{
        static_cast<VertexTypeId>(draw(num_types))};
    std::vector<LabelId> labels;
    const size_t num_labels = rng.Chance(0.4) ? 0 : 1 + rng.Below(2);
    for (size_t i = 0; i < num_labels; ++i) {
      labels.push_back(static_cast<LabelId>(draw(num_groups)));
    }
    b.AddVertex(std::move(types), std::move(labels));
  }
  for (size_t e = 0; e < n; ++e) {
    if (rng.Chance(0.3)) continue;
    b.TryAddEdge(static_cast<VertexId>(rng.Below(n)),
                 static_cast<VertexId>(rng.Below(n)));
  }
  return b.Build().value();
}

// The transposed filter returns exactly the per-center LBV-subset filter's
// candidates, for every center count (zero, a B1-like prefix, and the BAS
// case where every vertex is a center), at 1 and 4 build threads, on random
// queries that include out-of-range ids and label-free and isolated
// vertices.
TEST(CloudIndex, CandidateCentersMatchPerCenterLbvOracle) {
  Rng rng(171);
  constexpr size_t kTypes = 3, kGroups = 70;  // Groups span two words.
  size_t nonempty = 0, label_free = 0, isolated = 0, out_of_range = 0;
  for (int trial = 0; trial < 12; ++trial) {
    const size_t n = 40 + rng.Below(200);
    const AttributedGraph g =
        RandomAttributedGraph(rng, n, 3 * n, kTypes, kGroups);
    for (const size_t centers : {size_t{0}, n / 2 + 1, n}) {
      const PerCenterLbvIndex oracle(g, centers, kTypes, kGroups);
      for (const size_t threads : {1, 4}) {
        const CloudIndex index =
            CloudIndex::Build(g, centers, kTypes, kGroups, threads).value();
        for (int qi = 0; qi < 20; ++qi) {
          const AttributedGraph qo = RandomQuery(rng, kTypes, kGroups);
          for (VertexId q = 0; q < qo.NumVertices(); ++q) {
            const std::vector<VertexId> want = oracle.CandidateCenters(qo, q);
            ASSERT_EQ(index.CandidateCenters(qo, q), want)
                << "trial " << trial << " centers " << centers << " threads "
                << threads << " query " << qi << " vertex " << q;
            nonempty += !want.empty();
            label_free += qo.Labels(q).empty();
            isolated += qo.Degree(q) == 0;
            bool oob = false;
            for (VertexId u = 0; u < qo.NumVertices(); ++u) {
              if (u != q && !qo.HasEdge(q, u)) continue;
              for (const VertexTypeId t : qo.Types(u)) oob |= t >= kTypes;
              for (const LabelId l : qo.Labels(u)) oob |= l >= kGroups;
            }
            out_of_range += oob;
          }
        }
      }
    }
  }
  // The random draws must actually reach every case listed above.
  EXPECT_GT(nonempty, 100u);
  EXPECT_GT(label_free, 10u);
  EXPECT_GT(isolated, 10u);
  EXPECT_GT(out_of_range, 10u);
}

TEST(CloudIndex, ZeroCentersYieldNoCandidates) {
  const AttributedGraph g = Fig7LikeGraph();
  const CloudIndex index = CloudIndex::Build(g, 0, 3, 6).value();
  GraphBuilder q;
  q.AddVertex(0, {});  // Label-free and isolated: only its type filters.
  EXPECT_TRUE(index.CandidateCenters(q.Build().value(), 0).empty());
}

TEST(CloudIndex, LabelFreeIsolatedVertexTakesItsTypeVbv) {
  const AttributedGraph g = Fig7LikeGraph();
  const CloudIndex index = CloudIndex::Build(g, 4, 3, 6).value();
  GraphBuilder q;
  q.AddVertex(0, {});
  EXPECT_EQ(index.CandidateCenters(q.Build().value(), 0),
            (std::vector<VertexId>{0, 1}));
}

TEST(CloudIndex, MemoryAccountingNonZero) {
  const AttributedGraph g = Fig7LikeGraph();
  const CloudIndex index = CloudIndex::Build(g, 4, 3, 6).value();
  EXPECT_GT(index.MemoryBytes(), 0u);
  // More centers -> larger index.
  const CloudIndex bigger = CloudIndex::Build(g, 5, 3, 6).value();
  EXPECT_GE(bigger.MemoryBytes(), index.MemoryBytes());
}

}  // namespace
}  // namespace ppsm
