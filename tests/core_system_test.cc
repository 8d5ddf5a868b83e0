// Tests for the PpsmSystem facade: configuration handling, channel
// accounting, determinism and cross-method agreement.

#include "core/ppsm_system.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "graph/example_graphs.h"
#include "graph/generators.h"
#include "graph/query_extractor.h"
#include "util/random.h"

namespace ppsm {
namespace {

TEST(PpsmSystem, MethodNames) {
  EXPECT_STREQ(MethodName(Method::kEff), "EFF");
  EXPECT_STREQ(MethodName(Method::kRan), "RAN");
  EXPECT_STREQ(MethodName(Method::kFsim), "FSIM");
  EXPECT_STREQ(MethodName(Method::kBas), "BAS");
}

TEST(PpsmSystem, ChannelChargesUploadAndQueries) {
  const RunningExample ex = MakeRunningExample();
  SystemConfig config;
  config.k = 2;
  auto system = PpsmSystem::Setup(ex.graph, ex.schema, config);
  ASSERT_TRUE(system.ok());
  EXPECT_EQ(system->channel().num_messages(), 1u);  // The upload.
  EXPECT_EQ(system->channel().total_bytes(),
            system->owner().upload_bytes().size());
  EXPECT_GT(system->upload_ms(), 0.0);

  QueryRequest request;
  request.pattern = ex.query;
  const QueryResponse outcome = system->Execute(request);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(system->channel().num_messages(), 3u);  // + request + response.
  EXPECT_EQ(outcome.cloud.request_bytes + outcome.cloud.response_bytes +
                system->owner().upload_bytes().size(),
            system->channel().total_bytes());
  EXPECT_GT(outcome.cloud.network_ms, 0.0);
  EXPECT_GE(outcome.cloud.total_ms,
            outcome.cloud.network_ms);  // Total includes network.
}

TEST(PpsmSystem, CustomChannelConfigChangesNetworkTime) {
  const RunningExample ex = MakeRunningExample();
  SystemConfig fast;
  fast.k = 2;
  fast.channel.bandwidth_mbps = 10000.0;
  fast.channel.latency_ms = 0.01;
  SystemConfig slow = fast;
  slow.channel.bandwidth_mbps = 0.1;
  slow.channel.latency_ms = 50.0;
  auto fast_system = PpsmSystem::Setup(ex.graph, ex.schema, fast);
  auto slow_system = PpsmSystem::Setup(ex.graph, ex.schema, slow);
  ASSERT_TRUE(fast_system.ok());
  ASSERT_TRUE(slow_system.ok());
  QueryRequest request;
  request.pattern = ex.query;
  const QueryResponse fast_outcome = fast_system->Execute(request);
  const QueryResponse slow_outcome = slow_system->Execute(request);
  ASSERT_TRUE(fast_outcome.ok());
  ASSERT_TRUE(slow_outcome.ok());
  EXPECT_GT(slow_outcome.cloud.network_ms,
            100.0 * fast_outcome.cloud.network_ms);
}

TEST(PpsmSystem, DeterministicResultsForFixedSeed) {
  const auto g = GenerateDataset(DbpediaLike(0.01));
  ASSERT_TRUE(g.ok());
  SystemConfig config;
  config.k = 3;
  config.seed = 99;
  auto a = PpsmSystem::Setup(*g, g->schema(), config);
  auto b = PpsmSystem::Setup(*g, g->schema(), config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->owner().upload_bytes(), b->owner().upload_bytes());
  Rng rng(5);
  auto extracted = ExtractQuery(*g, 5, rng);
  ASSERT_TRUE(extracted.ok());
  QueryRequest request;
  request.pattern = extracted->query;
  const QueryResponse oa = a->Execute(request);
  const QueryResponse ob = b->Execute(request);
  ASSERT_TRUE(oa.ok());
  ASSERT_TRUE(ob.ok());
  EXPECT_TRUE(oa.matches == ob.matches);
}

TEST(PpsmSystem, SnapshotRoundTripServesIdenticalResults) {
  const auto g = GenerateDataset(DbpediaLike(0.01));
  ASSERT_TRUE(g.ok());
  SystemConfig config;
  config.k = 3;
  config.seed = 17;
  auto original = PpsmSystem::Setup(*g, g->schema(), config);
  ASSERT_TRUE(original.ok());

  const std::string dir = ::testing::TempDir() + "/ppsm_system_snapshot";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(original->SaveSnapshot(dir).ok());

  // Load with a deliberately wrong k: the snapshot's own k must win.
  SystemConfig reload = config;
  reload.k = 7;
  auto restored = PpsmSystem::LoadSnapshot(dir, reload);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->config().k, 3u);
  EXPECT_EQ(restored->owner().upload_bytes(), original->owner().upload_bytes());

  Rng rng(9);
  auto extracted = ExtractQuery(*g, 5, rng);
  ASSERT_TRUE(extracted.ok());
  QueryRequest request;
  request.pattern = extracted->query;
  const QueryResponse direct = original->Execute(request);
  const QueryResponse from_snapshot = restored->Execute(request);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(from_snapshot.ok());
  EXPECT_TRUE(direct.matches == from_snapshot.matches);
  std::filesystem::remove_all(dir);
}

TEST(PpsmSystem, LoadSnapshotRejectsMissingDirectory) {
  SystemConfig config;
  EXPECT_FALSE(
      PpsmSystem::LoadSnapshot("/nonexistent/ppsm_snap", config).ok());
}

TEST(PpsmSystem, AllMethodsAgreeOnResults) {
  const auto g = GenerateDataset(DbpediaLike(0.008));
  ASSERT_TRUE(g.ok());
  Rng rng(6);
  auto extracted = ExtractQuery(*g, 4, rng);
  ASSERT_TRUE(extracted.ok());

  MatchSet reference;
  bool first = true;
  for (const Method method :
       {Method::kEff, Method::kRan, Method::kFsim, Method::kBas}) {
    SystemConfig config;
    config.method = method;
    config.k = 3;
    auto system = PpsmSystem::Setup(*g, g->schema(), config);
    ASSERT_TRUE(system.ok()) << MethodName(method);
    QueryRequest request;
    request.pattern = extracted->query;
    const QueryResponse outcome = system->Execute(request);
    ASSERT_TRUE(outcome.ok()) << MethodName(method);
    // Rows come back sorted and distinct, so sorting them again is a no-op.
    MatchSet resorted = outcome.matches;
    resorted.SortDedup();
    EXPECT_EQ(resorted, outcome.matches) << MethodName(method);
    if (first) {
      reference = outcome.matches;
      first = false;
    } else {
      EXPECT_TRUE(MatchSet::EquivalentUnordered(reference, outcome.matches))
          << MethodName(method);
    }
  }
}

TEST(PpsmSystem, ThetaVariants) {
  const auto g = GenerateDataset(DbpediaLike(0.008));
  ASSERT_TRUE(g.ok());
  Rng rng(7);
  auto extracted = ExtractQuery(*g, 4, rng);
  ASSERT_TRUE(extracted.ok());
  for (const size_t theta : {1u, 2u, 3u, 4u}) {
    SystemConfig config;
    config.k = 2;
    config.theta = theta;
    auto system = PpsmSystem::Setup(*g, g->schema(), config);
    ASSERT_TRUE(system.ok()) << "theta=" << theta;
    QueryRequest request;
    request.pattern = extracted->query;
    const QueryResponse outcome = system->Execute(request);
    ASSERT_TRUE(outcome.ok()) << "theta=" << theta;
    EXPECT_GE(outcome.cloud.client_candidates, outcome.matches.NumMatches());
  }
}

TEST(PpsmSystem, BfsAlignmentVariant) {
  const auto g = GenerateDataset(NotreDameLike(0.01));
  ASSERT_TRUE(g.ok());
  SystemConfig config;
  config.k = 3;
  config.kauto.alignment = AlignmentOrder::kBfs;
  auto system = PpsmSystem::Setup(*g, g->schema(), config);
  ASSERT_TRUE(system.ok());
  Rng rng(8);
  auto extracted = ExtractQuery(*g, 4, rng);
  ASSERT_TRUE(extracted.ok());
  QueryRequest request;
  request.pattern = extracted->query;
  const QueryResponse outcome = system->Execute(request);
  ASSERT_TRUE(outcome.ok());
  EXPECT_GE(outcome.matches.NumMatches(), 1u);
}

TEST(PpsmSystem, RejectsDegenerateSetups) {
  const RunningExample ex = MakeRunningExample();
  SystemConfig config;
  config.k = 0;
  EXPECT_FALSE(PpsmSystem::Setup(ex.graph, ex.schema, config).ok());
  config.k = 2;
  config.theta = 0;
  EXPECT_FALSE(PpsmSystem::Setup(ex.graph, ex.schema, config).ok());
  GraphBuilder empty;
  config.theta = 2;
  EXPECT_FALSE(
      PpsmSystem::Setup(empty.Build().value(), ex.schema, config).ok());
}

TEST(PpsmSystem, CloudStatsAreConsistent) {
  const RunningExample ex = MakeRunningExample();
  SystemConfig config;
  config.k = 2;
  auto system = PpsmSystem::Setup(ex.graph, ex.schema, config);
  ASSERT_TRUE(system.ok());
  QueryRequest request;
  request.pattern = ex.query;
  const QueryResponse outcome = system->Execute(request);
  ASSERT_TRUE(outcome.ok());
  EXPECT_GE(outcome.cloud.cloud_ms, 0.0);
  EXPECT_GT(outcome.cloud.num_stars, 0u);
  EXPECT_GE(outcome.cloud.rs_size, outcome.cloud.num_stars == 0 ? 0u : 1u);
  EXPECT_EQ(outcome.cloud.result_rows * 0 + outcome.matches.NumMatches(),
            outcome.matches.NumMatches());
  // Candidates seen by the client = k * |Rin| at most (expansion), and at
  // least |Rin|.
  EXPECT_GE(outcome.cloud.client_candidates, outcome.cloud.result_rows);
  EXPECT_LE(outcome.cloud.client_candidates,
            outcome.cloud.result_rows * config.k);
}

}  // namespace
}  // namespace ppsm
