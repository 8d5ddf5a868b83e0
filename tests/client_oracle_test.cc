// Byte-identity suite for the client's Algorithm 3. DataOwner::ProcessResponse
// tests each (Rin row, automorphic shift) pair cell by cell and builds only
// the survivors; the oracle (tests/join_oracle.h ExpandSortFilter) expands Rin
// to R(Qo,Gk), sort-deduplicates it and filters every row. Both must return
// the same MatchSet byte for byte — on responses served by a real cloud at
// every method, k, Go radius and shard count, and on hand-built responses
// holding orbit duplicates, noise vertices, repeated vertices and fabricated
// edges. The client memoizes its per-cell test by (column, vertex) within a
// call and shifts in windows of 64; the last tests pin both, and that
// concurrent calls on one owner share nothing.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <thread>
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

TEST(ClientOracle, OneVertexInTwoColumnsKeepsTwoMasks) {
  // Query a -- b, both of vertex v's type; b also needs a label that v lacks
  // and its neighbour y has. Rin holds (v, y) and (y, v): v fits column a
  // but not column b, so a per-cell test remembered by v alone would keep
  // (y, v) or drop (v, y), depending on which row comes first.
  const auto g = MakeGraph();
  ASSERT_TRUE(g.ok()) << g.status();
  std::optional<std::pair<VertexId, VertexId>> pair;  // (v, y).
  LabelId label = 0;
  for (VertexId y = 0; y < g->NumVertices() && !pair; ++y) {
    for (const VertexId v : g->Neighbors(y)) {
      if (g->PrimaryType(v) != g->PrimaryType(y)) continue;
      for (const LabelId l : g->Labels(y)) {
        if (!std::ranges::binary_search(g->Labels(v), l)) {
          pair = {v, y};
          label = l;
          break;
        }
      }
      if (pair) break;
    }
  }
  ASSERT_TRUE(pair) << "fixture needs such an edge";
  const auto [v, y] = *pair;
  GraphBuilder builder(g->schema());
  builder.AddVertex(g->PrimaryType(v), {});
  builder.AddVertex(g->PrimaryType(v), {label});
  ASSERT_TRUE(builder.AddEdge(0, 1).ok());
  const AttributedGraph query = builder.Build().value();

  for (const uint32_t k : {1u, 2u, 4u}) {
    auto owner =
        DataOwner::Create(*g, g->schema(), OwnerOptions(Method::kEff, k, 1));
    ASSERT_TRUE(owner.ok()) << owner.status();
    for (const bool v_first : {true, false}) {
      SCOPED_TRACE("k=" + std::to_string(k) +
                   " v_first=" + std::to_string(v_first));
      MatchSet rin(2);
      const std::vector<VertexId> fits = {v, y};
      const std::vector<VertexId> misfits = {y, v};
      rin.Append(v_first ? fits : misfits);
      rin.Append(v_first ? misfits : fits);
      const MatchSet kept = ExpectClientMatchesOracle(*owner, query, rin);
      bool has_fits = false;
      bool has_misfits = false;
      for (size_t r = 0; r < kept.NumMatches(); ++r) {
        has_fits = has_fits || std::ranges::equal(kept.Get(r), fits);
        has_misfits = has_misfits || std::ranges::equal(kept.Get(r), misfits);
      }
      EXPECT_TRUE(has_fits);
      EXPECT_FALSE(has_misfits);
    }
  }
}

TEST(ClientOracle, ShiftsPastSixtyFourUseASecondWindow) {
  // k = 65: shift 64 lives in the second mask word. A Rin of the single
  // image F_d(row) of the planted row finds it at shift k - d alone, so
  // d = 1 needs the second window and d = 2 the last bit of the first.
  // Rin of all k images and served responses cover the rest.
  const auto g = MakeGraph();
  ASSERT_TRUE(g.ok()) << g.status();
  constexpr uint32_t k = 65;
  auto owner =
      DataOwner::Create(*g, g->schema(), OwnerOptions(Method::kEff, k, 1));
  ASSERT_TRUE(owner.ok()) << owner.status();
  auto server = CloudServer::Host(owner->upload_bytes());
  ASSERT_TRUE(server.ok()) << server.status();
  const Avt& avt = owner->kag().avt;
  Rng rng(67);
  for (size_t i = 0; i < 4; ++i) {
    SCOPED_TRACE("query=" + std::to_string(i));
    auto extracted = ExtractQuery(*g, 2 + i % 2, rng);
    ASSERT_TRUE(extracted.ok()) << extracted.status();
    const AttributedGraph query =
        i % 2 == 0 ? extracted->query : Loosen(extracted->query, g->schema());
    const std::vector<VertexId>& row = extracted->planted;
    for (const std::optional<uint32_t> d :
         {std::optional<uint32_t>(1), std::optional<uint32_t>(2),
          std::optional<uint32_t>(64), std::optional<uint32_t>()}) {
      MatchSet rin(query.NumVertices());
      for (uint32_t e = 0; e < k; ++e) {
        if (!d || e == *d) rin.Append(avt.ApplyToMatch(row, e));
      }
      const MatchSet kept = ExpectClientMatchesOracle(*owner, query, rin);
      bool found = false;
      for (size_t r = 0; r < kept.NumMatches(); ++r) {
        found = found || std::ranges::equal(kept.Get(r), row);
      }
      EXPECT_TRUE(found) << "d=" << d.value_or(k);
    }

    auto request = owner->AnonymizeQueryToRequest(query);
    ASSERT_TRUE(request.ok()) << request.status();
    auto answer = server->Serve(*request);
    if (!answer.ok()) {
      ASSERT_EQ(answer.status().code(), StatusCode::kResourceExhausted);
      continue;
    }
    auto served = MatchSet::Deserialize(answer->response_payload);
    ASSERT_TRUE(served.ok()) << served.status();
    ExpectClientMatchesOracle(*owner, query, *served);
  }
}

TEST(ClientOracle, ConcurrentCallsOnOneOwnerMatchSerial) {
  // ProcessResponse is const and keeps its memo call-local: four threads
  // answering on one owner must each get the serial answer.
  const auto g = MakeGraph();
  ASSERT_TRUE(g.ok()) << g.status();
  auto owner =
      DataOwner::Create(*g, g->schema(), OwnerOptions(Method::kEff, 4, 1));
  ASSERT_TRUE(owner.ok()) << owner.status();
  auto server = CloudServer::Host(owner->upload_bytes());
  ASSERT_TRUE(server.ok()) << server.status();
  std::vector<AttributedGraph> queries;
  std::vector<std::vector<uint8_t>> payloads;
  std::vector<std::vector<uint8_t>> want;
  Rng rng(71);
  while (queries.size() < 8) {
    auto extracted = ExtractQuery(*g, 2 + queries.size() % 3, rng);
    ASSERT_TRUE(extracted.ok()) << extracted.status();
    AttributedGraph query = Loosen(extracted->query, g->schema());
    auto request = owner->AnonymizeQueryToRequest(query);
    ASSERT_TRUE(request.ok()) << request.status();
    auto answer = server->Serve(*request);
    if (!answer.ok()) continue;
    auto serial = owner->ProcessResponse(query, answer->response_payload);
    ASSERT_TRUE(serial.ok()) << serial.status();
    want.push_back(serial->Serialize());
    payloads.push_back(std::move(answer->response_payload));
    queries.push_back(std::move(query));
  }
  std::vector<size_t> mismatches(4, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (size_t round = 0; round < 5; ++round) {
        for (size_t i = 0; i < queries.size(); ++i) {
          const size_t q = (i + t) % queries.size();
          auto got = owner->ProcessResponse(queries[q], payloads[q]);
          if (!got.ok() || got->Serialize() != want[q]) ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t t = 0; t < 4; ++t) EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
}

}  // namespace
}  // namespace ppsm
