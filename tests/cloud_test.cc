// Tests for the cloud-facing pieces: channel accounting, message formats,
// CloudServer hosting/validation/answering.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "cloud/channel.h"
#include "cloud/cloud_server.h"
#include "cloud/data_owner.h"
#include "cloud/messages.h"
#include "graph/example_graphs.h"
#include "graph/generators.h"

namespace ppsm {
namespace {

TEST(Channel, TransferMath) {
  ChannelConfig config;
  config.bandwidth_mbps = 8.0;  // 1 MB/s.
  config.latency_ms = 2.0;
  SimulatedChannel channel(config);
  // 1,000,000 bytes = 8,000,000 bits at 8 Mbps = 1 s + 2 ms latency.
  const double ms = channel.Transfer(1000000, "blob");
  EXPECT_NEAR(ms, 1002.0, 1e-6);
  EXPECT_EQ(channel.total_bytes(), 1000000u);
  EXPECT_EQ(channel.num_messages(), 1u);
  channel.Transfer(0, "empty");
  EXPECT_NEAR(channel.total_millis(), 1004.0, 1e-6);  // Latency still paid.
  channel.Reset();
  EXPECT_EQ(channel.total_bytes(), 0u);
  EXPECT_EQ(channel.num_messages(), 0u);
}

TEST(Channel, LogKeepsDescriptions) {
  SimulatedChannel channel;
  channel.Transfer(10, "upload");
  channel.Transfer(20, "query");
  ASSERT_EQ(channel.log().size(), 2u);
  EXPECT_EQ(channel.log()[0].description, "upload");
  EXPECT_EQ(channel.log()[1].bytes, 20u);
}

TEST(Channel, ValidateRejectsNonPositiveBandwidth) {
  ChannelConfig config;
  config.bandwidth_mbps = 0.0;
  EXPECT_TRUE(ValidateChannelConfig(config).code() == StatusCode::kInvalidArgument);
  config.bandwidth_mbps = -10.0;
  EXPECT_TRUE(ValidateChannelConfig(config).code() == StatusCode::kInvalidArgument);
  config.bandwidth_mbps = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(ValidateChannelConfig(config).code() == StatusCode::kInvalidArgument);
}

TEST(Channel, ValidateRejectsNegativeLatency) {
  ChannelConfig config;
  config.latency_ms = -1.0;
  EXPECT_TRUE(ValidateChannelConfig(config).code() == StatusCode::kInvalidArgument);
  config.latency_ms = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(ValidateChannelConfig(config).code() == StatusCode::kInvalidArgument);
  config.latency_ms = 0.0;  // Zero latency is a valid (ideal) link.
  EXPECT_TRUE(ValidateChannelConfig(config).ok());
}

TEST(Channel, CreateReturnsTypedErrorForInvalidConfig) {
  ChannelConfig config;
  config.bandwidth_mbps = -5.0;
  auto channel = SimulatedChannel::Create(config);
  ASSERT_FALSE(channel.ok());
  EXPECT_TRUE(channel.status().code() == StatusCode::kInvalidArgument);

  config = ChannelConfig{};
  config.bandwidth_mbps = 250.0;
  config.latency_ms = 0.5;
  auto valid = SimulatedChannel::Create(config);
  ASSERT_TRUE(valid.ok()) << valid.status();
  EXPECT_GT(valid->Transfer(1000, "probe"), 0.0);
}

TEST(Channel, ConstructorFallsBackToFiniteTransferTimes) {
  // The unchecked constructor must never produce a channel that emits
  // inf/negative transfer times (they would poison the latency metrics):
  // an invalid config falls back to the default link.
  ChannelConfig config;
  config.bandwidth_mbps = 0.0;
  config.max_log_records = 7;
  SimulatedChannel channel(config);
  const double ms = channel.Transfer(1000000, "blob");
  EXPECT_TRUE(std::isfinite(ms));
  EXPECT_GT(ms, 0.0);
  for (int i = 0; i < 10; ++i) channel.Transfer(1, "x");
  EXPECT_LE(channel.log().size(), 7u);  // max_log_records is preserved.
}

DataOwner MakeOwner(bool baseline, uint32_t k = 2) {
  const RunningExample ex = MakeRunningExample();
  DataOwnerOptions options;
  options.k = k;
  options.baseline_upload = baseline;
  auto owner = DataOwner::Create(ex.graph, ex.schema, options);
  EXPECT_TRUE(owner.ok()) << owner.status();
  return std::move(owner).value();
}

TEST(Messages, UploadPackageRoundTripOptimized) {
  const DataOwner owner = MakeOwner(/*baseline=*/false);
  auto package = UploadPackage::Deserialize(owner.upload_bytes());
  ASSERT_TRUE(package.ok()) << package.status();
  EXPECT_FALSE(package->IsBaseline());
  EXPECT_EQ(package->k, 2u);
  ASSERT_TRUE(package->go.has_value());
  ASSERT_TRUE(package->avt.has_value());
  EXPECT_FALSE(package->full_gk.has_value());
  EXPECT_EQ(package->type_of_group.size(), owner.lct().NumGroups());
}

TEST(Messages, UploadPackageRoundTripBaseline) {
  const DataOwner owner = MakeOwner(/*baseline=*/true);
  auto package = UploadPackage::Deserialize(owner.upload_bytes());
  ASSERT_TRUE(package.ok()) << package.status();
  EXPECT_TRUE(package->IsBaseline());
  ASSERT_TRUE(package->full_gk.has_value());
  EXPECT_EQ(package->full_gk->NumVertices(), owner.kag().gk.NumVertices());
}

TEST(Messages, BaselineUploadIsLargerThanOptimized) {
  // The whole point of Go: the optimized upload is smaller (much smaller
  // for large k; modestly here on the 8-vertex example).
  const auto g = GenerateDataset(NotreDameLike(0.01));
  ASSERT_TRUE(g.ok());
  DataOwnerOptions options;
  options.k = 4;
  auto optimized = DataOwner::Create(*g, g->schema(), options);
  ASSERT_TRUE(optimized.ok());
  options.baseline_upload = true;
  auto baseline = DataOwner::Create(*g, g->schema(), options);
  ASSERT_TRUE(baseline.ok());
  EXPECT_LT(optimized->upload_bytes().size(),
            baseline->upload_bytes().size());
}

TEST(Messages, DeserializeRejectsGarbage) {
  EXPECT_FALSE(UploadPackage::Deserialize(std::vector<uint8_t>{1, 2}).ok());
  const DataOwner owner = MakeOwner(false);
  auto bytes = owner.upload_bytes();
  bytes.resize(bytes.size() / 2);
  EXPECT_FALSE(UploadPackage::Deserialize(bytes).ok());
}

TEST(CloudServer, HostsOptimizedAndAnswers) {
  const RunningExample ex = MakeRunningExample();
  const DataOwner owner = MakeOwner(false);
  auto server = CloudServer::Host(owner.upload_bytes());
  ASSERT_TRUE(server.ok()) << server.status();
  EXPECT_FALSE(server->IsBaseline());
  EXPECT_EQ(server->k(), 2u);
  EXPECT_GT(server->IndexMemoryBytes(), 0u);
  EXPECT_EQ(server->NumCenters(), 4u);  // ceil(8/2) rows.

  auto request = owner.AnonymizeQueryToRequest(ex.query);
  ASSERT_TRUE(request.ok());
  QueryProfile profile;
  auto answer = server->Serve(*request, {.profile = &profile});
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_GT(profile.num_stars, 0u);
  EXPECT_GT(profile.rs_size, 0u);
  auto rin = MatchSet::Deserialize(answer->response_payload);
  ASSERT_TRUE(rin.ok());
  EXPECT_EQ(rin->arity(), ex.query.NumVertices());
}

TEST(CloudServer, BaselineHostsFullGk) {
  const DataOwner owner = MakeOwner(true, 2);
  auto server = CloudServer::Host(owner.upload_bytes());
  ASSERT_TRUE(server.ok());
  EXPECT_TRUE(server->IsBaseline());
  EXPECT_EQ(server->NumCenters(), owner.kag().gk.NumVertices());
  EXPECT_EQ(server->HostedEdges(), owner.kag().gk.NumEdges());
}

TEST(CloudServer, OptimizedHostsFewerEdgesThanBaseline) {
  const auto g = GenerateDataset(NotreDameLike(0.01));
  ASSERT_TRUE(g.ok());
  DataOwnerOptions options;
  options.k = 5;
  auto owner = DataOwner::Create(*g, g->schema(), options);
  ASSERT_TRUE(owner.ok());
  auto server = CloudServer::Host(owner->upload_bytes());
  ASSERT_TRUE(server.ok());
  EXPECT_LT(server->HostedEdges(), owner->kag().gk.NumEdges());
}

TEST(CloudServer, RejectsMalformedQueries) {
  const DataOwner owner = MakeOwner(false);
  auto server = CloudServer::Host(owner.upload_bytes());
  ASSERT_TRUE(server.ok());
  EXPECT_FALSE(server->Serve(std::vector<uint8_t>{1, 2, 3}).ok());
  // An empty query graph is rejected too.
  GraphBuilder b;
  const AttributedGraph empty = b.Build().value();
  EXPECT_FALSE(server->Serve(SerializeQueryRequest(empty)).ok());
}

TEST(CloudServer, RejectsInconsistentPackages) {
  UploadPackage package;
  package.k = 2;
  package.num_types = 1;
  // Optimized shape but missing pieces.
  EXPECT_FALSE(CloudServer::Host(std::move(package)).ok());
}

TEST(CloudServer, StatsExposedForCostModel) {
  const DataOwner owner = MakeOwner(false, 2);
  auto server = CloudServer::Host(owner.upload_bytes());
  ASSERT_TRUE(server.ok());
  const GkStatistics& stats = server->statistics();
  EXPECT_EQ(stats.k, 2u);
  EXPECT_EQ(stats.num_gk_vertices, 8u);
  EXPECT_GT(stats.avg_degree, 0.0);
}

}  // namespace
}  // namespace ppsm
