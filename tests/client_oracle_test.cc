// Byte-identity suite for the client's Algorithm 3. DataOwner::ProcessResponse
// tests each (Rin row, automorphic shift) pair cell by cell and builds only
// the survivors; the oracle (tests/join_oracle.h ExpandSortFilter) expands Rin
// to R(Qo,Gk), sort-deduplicates it and filters every row. Both must return
// the same MatchSet byte for byte — on responses served by a real cloud at
// every method, k, Go radius and shard count, and on hand-built responses
// holding orbit duplicates, noise vertices, repeated vertices and fabricated
// edges.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cloud/cloud_server.h"
#include "cloud/cluster.h"
#include "cloud/data_owner.h"
#include "core/ppsm_system.h"
#include "graph/generators.h"
#include "graph/query_extractor.h"
#include "join_oracle.h"
#include "util/random.h"

namespace ppsm {
namespace {

DataOwnerOptions OwnerOptions(Method method, uint32_t k, uint32_t go_hops) {
  DataOwnerOptions options;
  options.k = k;
  options.go_hops = go_hops;
  options.strategy =
      method == Method::kRan    ? GroupingStrategy::kRandom
      : method == Method::kFsim ? GroupingStrategy::kFrequencySimilar
                                : GroupingStrategy::kCostModel;
  options.baseline_upload = method == Method::kBas;
  return options;
}

/// A prime vertex count leaves a partial AVT row at every k, so Gk carries
/// noise vertices for the client to reject.
Result<AttributedGraph> MakeGraph() {
  DatasetConfig config = DbpediaLike(0.01);
  config.num_vertices = 479;
  return GenerateDataset(config);
}

/// `query` with its labels dropped: a pattern with many answers, so the
/// filter keeps rows as well as dropping them.
AttributedGraph Loosen(const AttributedGraph& query,
                       std::shared_ptr<const Schema> schema) {
  GraphBuilder builder(std::move(schema));
  for (VertexId v = 0; v < query.NumVertices(); ++v) {
    builder.AddVertex(query.PrimaryType(v), {});
  }
  query.ForEachEdge([&](VertexId a, VertexId b) {
    EXPECT_TRUE(builder.AddEdge(a, b).ok());
  });
  return builder.Build().value();
}

/// Runs `rin` through the client and the oracle; returns the client's rows.
MatchSet ExpectClientMatchesOracle(const DataOwner& owner,
                                   const AttributedGraph& query,
                                   const MatchSet& rin) {
  DataOwner::ClientStats stats;
  auto got = owner.ProcessResponse(query, rin.Serialize(), &stats);
  EXPECT_TRUE(got.ok()) << got.status();
  if (!got.ok()) return MatchSet(query.NumVertices());
  const MatchSet want = join_oracle::ExpandSortFilter(owner, query, rin);
  EXPECT_EQ(got->Serialize(), want.Serialize());
  const size_t shifts = owner.IsBaselineUpload() ? 1 : owner.k();
  EXPECT_EQ(stats.candidates, shifts * rin.NumMatches());
  EXPECT_EQ(stats.results, got->NumMatches());
  return *std::move(got);
}

TEST(ClientOracle, ServedResponsesAreByteIdentical) {
  const auto g = MakeGraph();
  ASSERT_TRUE(g.ok()) << g.status();
  std::vector<AttributedGraph> queries;
  Rng rng(23);
  for (size_t i = 0; i < 4; ++i) {
    auto extracted = ExtractQuery(*g, 1 + i, rng);
    ASSERT_TRUE(extracted.ok()) << extracted.status();
    if (i < 2) queries.push_back(Loosen(extracted->query, g->schema()));
    queries.push_back(std::move(extracted->query));
  }

  size_t served = 0;
  size_t kept = 0;
  for (const Method method : {Method::kEff, Method::kRan, Method::kFsim,
                              Method::kBas}) {
    const bool baseline = method == Method::kBas;
    for (const uint32_t k : {2u, 3u, 4u, 6u}) {
      // The baseline ships all of Gk: no Go radius, no shards.
      for (const uint32_t go_hops : baseline ? std::vector<uint32_t>{1}
                                             : std::vector<uint32_t>{1, 2}) {
        auto owner = DataOwner::Create(*g, g->schema(),
                                       OwnerOptions(method, k, go_hops));
        ASSERT_TRUE(owner.ok()) << owner.status();
        const auto check = [&](const CloudQueryDriver& cloud,
                               uint32_t shards) {
          for (size_t i = 0; i < queries.size(); ++i) {
            SCOPED_TRACE("method=" + std::string(MethodName(method)) +
                         " k=" + std::to_string(k) +
                         " go_hops=" + std::to_string(go_hops) +
                         " shards=" + std::to_string(shards) +
                         " query=" + std::to_string(i));
            auto request = owner->AnonymizeQueryToRequest(queries[i]);
            ASSERT_TRUE(request.ok()) << request.status();
            auto answer = cloud.Serve(*request);
            if (!answer.ok()) {
              // Only the row cap may refuse a query.
              ASSERT_EQ(answer.status().code(),
                        StatusCode::kResourceExhausted);
              continue;
            }
            auto rin = MatchSet::Deserialize(answer->response_payload);
            ASSERT_TRUE(rin.ok()) << rin.status();
            // An anchored Rin has k distinct images per row, so the pairs
            // examined are exactly |R(Qo,Gk)| (the baseline's is Rin).
            if (!baseline) {
              EXPECT_EQ(
                  join_oracle::ExpandByAutomorphisms(*rin, owner->kag().avt)
                      .NumMatches(),
                  k * rin->NumMatches());
            }
            kept += ExpectClientMatchesOracle(*owner, queries[i], *rin)
                        .NumMatches();
            ++served;
          }
        };
        auto server = CloudServer::Host(owner->upload_bytes());
        ASSERT_TRUE(server.ok()) << server.status();
        check(*server, 1);
        // The baseline ships no B1 block to partition.
        for (const uint32_t shards : baseline ? std::vector<uint32_t>{}
                                              : std::vector<uint32_t>{2, 4}) {
          auto cluster = CloudCluster::Host(owner->upload_bytes(), shards);
          ASSERT_TRUE(cluster.ok()) << cluster.status();
          check(*cluster, shards);
        }
      }
    }
  }
  // (3 methods x 4 k x 2 radii x 3 clouds + 4 k) x 6 queries, and the
  // label-free queries have many answers each.
  EXPECT_GT(served, 400u);
  EXPECT_GT(kept, served);
}

TEST(ClientOracle, HandBuiltResponsesAreByteIdentical) {
  const auto g = MakeGraph();
  ASSERT_TRUE(g.ok()) << g.status();
  Rng rng(41);
  for (const Method method : {Method::kEff, Method::kBas}) {
    for (const uint32_t k : {2u, 4u}) {
      auto owner =
          DataOwner::Create(*g, g->schema(), OwnerOptions(method, k, 1));
      ASSERT_TRUE(owner.ok()) << owner.status();
      const Avt& avt = owner->kag().avt;
      const auto gk_vertices =
          static_cast<uint32_t>(owner->kag().gk.NumVertices());
      const auto original = static_cast<uint32_t>(g->NumVertices());
      ASSERT_LT(original, gk_vertices) << "fixture needs noise vertices";
      for (size_t i = 0; i < 6; ++i) {
        SCOPED_TRACE("method=" + std::string(MethodName(method)) +
                     " k=" + std::to_string(k) + " query=" + std::to_string(i));
        auto extracted = ExtractQuery(*g, 2 + i % 4, rng);
        ASSERT_TRUE(extracted.ok()) << extracted.status();
        // Odd rounds drop the labels, so more rows survive the per-cell
        // test and reach the injectivity and edge checks.
        const AttributedGraph query =
            i % 2 == 0 ? extracted->query
                       : Loosen(extracted->query, g->schema());
        const size_t n = query.NumVertices();
        const std::vector<VertexId> row = extracted->planted;  // In G.
        ASSERT_EQ(row.size(), n);

        MatchSet rin(n);
        rin.Append(row);
        rin.Append(row);  // Exact duplicate.
        for (uint32_t d = 1; d < k; ++d) {
          rin.Append(avt.ApplyToMatch(row, d));  // Orbit duplicates.
        }
        std::vector<VertexId> repeated = row;
        repeated[n - 1] = repeated[0];
        rin.Append(repeated);
        std::vector<VertexId> noisy = row;
        noisy[rng.Below(n)] = original + static_cast<VertexId>(
                                             rng.Below(gk_vertices - original));
        rin.Append(noisy);
        for (size_t q = 0; q < n; ++q) {
          // Twins: another original vertex that fits query vertex q passes
          // the per-cell test, so the row dies on a fabricated edge or a
          // repeated vertex, if at all.
          const auto qv = static_cast<VertexId>(q);
          size_t twins = 0;
          for (VertexId w = 0; w < original && twins < 3; ++w) {
            if (w == row[q] || !g->TypesContainAll(w, query.Types(qv)) ||
                !g->LabelsContainAll(w, query.Labels(qv))) {
              continue;
            }
            std::vector<VertexId> twin = row;
            twin[q] = w;
            rin.Append(twin);
            ++twins;
          }
        }
        for (size_t j = 0; j < 20; ++j) {
          // A random Gk vertex in one cell, and its image under F_1.
          std::vector<VertexId> fabricated = row;
          fabricated[rng.Below(n)] =
              static_cast<VertexId>(rng.Below(gk_vertices));
          rin.Append(fabricated);
          rin.Append(avt.ApplyToMatch(fabricated, 1 % k));
        }
        const MatchSet kept = ExpectClientMatchesOracle(*owner, query, rin);
        // The genuine row is always among the answers.
        bool found = false;
        for (size_t r = 0; r < kept.NumMatches(); ++r) {
          found = found || std::ranges::equal(kept.Get(r), row);
        }
        EXPECT_TRUE(found);
      }
    }
  }
}

}  // namespace
}  // namespace ppsm
