// Sharded-cloud tests: a CloudCluster answers byte-identically to the
// unsharded CloudServer at every shard count (the DESIGN.md §13 guarantee),
// shard uploads round-trip through the owner store and re-host to the same
// answers, the exchange meters count real bytes, baseline uploads are
// rejected, and the PpsmSystem facade serves the sharded path end to end —
// including concurrently (run under TSan in CI).

#include "cloud/cluster.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <vector>

#include "cloud/cloud_server.h"
#include "cloud/data_owner.h"
#include "cloud/owner_store.h"
#include "core/ppsm_system.h"
#include "graph/generators.h"
#include "graph/query_extractor.h"
#include "util/random.h"

namespace ppsm {
namespace {

std::string TempDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/ppsm_cluster_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

struct Fixture {
  AttributedGraph graph;
  DataOwner owner;
  std::vector<std::vector<uint8_t>> requests;  // Serialized Qo workload.
};

Fixture MakeFixture(uint32_t k, size_t num_queries, uint64_t seed = 11,
                    uint32_t go_hops = 1) {
  auto g = GenerateDataset(DbpediaLike(0.01));
  EXPECT_TRUE(g.ok());
  DataOwnerOptions options;
  options.k = k;
  options.go_hops = go_hops;
  auto owner = DataOwner::Create(*g, g->schema(), options);
  EXPECT_TRUE(owner.ok());
  Fixture fx{*std::move(g), *std::move(owner), {}};
  Rng rng(seed);
  for (size_t i = 0; i < num_queries; ++i) {
    auto extracted = ExtractQuery(fx.graph, 3 + i % 5, rng);
    EXPECT_TRUE(extracted.ok());
    auto request = fx.owner.AnonymizeQueryToRequest(extracted->query);
    EXPECT_TRUE(request.ok());
    fx.requests.push_back(*std::move(request));
  }
  return fx;
}

/// Every QueryProfile field both hosts fill deterministically. Left out:
/// timings (per run), the aux footprint and kernel counters (each shard
/// builds its own slice-local aux graph, so they sum over shards) and the
/// shard profiles (cluster only).
void ExpectSameDeterministicStats(const QueryProfile& got,
                                  const QueryProfile& want) {
  EXPECT_EQ(got.num_stars, want.num_stars);
  EXPECT_EQ(got.rs_size, want.rs_size);
  EXPECT_EQ(got.result_rows, want.result_rows);
  EXPECT_EQ(got.peak_join_rows, want.peak_join_rows);
  EXPECT_EQ(got.plan_cache_hit, want.plan_cache_hit);
  EXPECT_EQ(got.overflowed, want.overflowed);
  EXPECT_EQ(got.timed_out_phase, want.timed_out_phase);
  // The global plan must be the unsharded plan, unit for unit.
  ASSERT_EQ(got.stars.size(), want.stars.size());
  for (size_t u = 0; u < want.stars.size(); ++u) {
    EXPECT_EQ(got.stars[u].center, want.stars[u].center) << "unit " << u;
    EXPECT_EQ(got.stars[u].candidates, want.stars[u].candidates);
    EXPECT_EQ(got.stars[u].rows, want.stars[u].rows);
    EXPECT_EQ(got.stars[u].estimated_rows, want.stars[u].estimated_rows);
    EXPECT_EQ(got.stars[u].truncated, want.stars[u].truncated);
    EXPECT_EQ(got.stars[u].skipped, want.stars[u].skipped);
    EXPECT_EQ(got.stars[u].kind, want.stars[u].kind);
  }
  ASSERT_EQ(got.join_steps.size(), want.join_steps.size());
  for (size_t i = 0; i < want.join_steps.size(); ++i) {
    const JoinStepProfile& a = got.join_steps[i];
    const JoinStepProfile& b = want.join_steps[i];
    EXPECT_EQ(a.step, b.step) << "join step " << i;
    EXPECT_EQ(a.star_index, b.star_index);
    EXPECT_EQ(a.star_center, b.star_center);
    EXPECT_EQ(a.build_rows, b.build_rows);
    EXPECT_EQ(a.output_rows, b.output_rows);
    EXPECT_EQ(a.injectivity_drops, b.injectivity_drops);
    EXPECT_EQ(a.estimated_rows, b.estimated_rows);
    EXPECT_EQ(a.overflow, b.overflow);
    EXPECT_EQ(a.kind, b.kind);
  }
}

TEST(Cluster, ByteIdenticalToUnshardedAtEveryShardCount) {
  // The acceptance bar of the sharded design: not equivalent-up-to-order
  // but BYTE-identical response payloads and the same per-query stats, for
  // k=8 and a mixed workload, over the paper's radius-1 Go and a radius-2
  // Go with path/tree units in play.
  for (const uint32_t go_hops : {1u, 2u}) {
    Fixture fx = MakeFixture(/*k=*/8, /*num_queries=*/6, /*seed=*/11, go_hops);
    for (const uint32_t num_shards : {1u, 2u, 4u}) {
      SCOPED_TRACE("go_hops=" + std::to_string(go_hops) +
                   " shards=" + std::to_string(num_shards));
      // Both hosts start with cold plan caches, so hits stay in lockstep.
      auto server = CloudServer::Host(fx.owner.upload_bytes());
      ASSERT_TRUE(server.ok()) << server.status();
      auto cluster = CloudCluster::Host(fx.owner.upload_bytes(), num_shards);
      ASSERT_TRUE(cluster.ok()) << cluster.status();
      ASSERT_EQ(cluster->num_shards(), num_shards);
      EXPECT_EQ(cluster->k(), 8u);
      EXPECT_EQ(cluster->hops(), go_hops);
      EXPECT_EQ(cluster->EffectiveUnitDepth(), server->EffectiveUnitDepth());

      // The second pass repeats every query, so it must hit both caches.
      for (const bool repeat : {false, true}) {
        for (const auto& request : fx.requests) {
          QueryProfile want_profile;
          auto want = server->Serve(request, {.profile = &want_profile});
          ASSERT_TRUE(want.ok()) << want.status();
          QueryProfile got_profile;
          auto got = cluster->Serve(request, {.profile = &got_profile});
          ASSERT_TRUE(got.ok()) << got.status();
          EXPECT_EQ(got->response_payload, want->response_payload);
          ExpectSameDeterministicStats(got_profile, want_profile);
          if (repeat) {
            EXPECT_TRUE(got_profile.plan_cache_hit);
          }
          ASSERT_EQ(got_profile.shards.size(), num_shards);
        }
      }
      EXPECT_EQ(cluster->plan_cache_stats().hits,
                server->plan_cache_stats().hits);
      EXPECT_EQ(cluster->plan_cache_stats().misses,
                server->plan_cache_stats().misses);

      // An already-expired deadline refuses both hosts at the same
      // checkpoint, with the same partial stats.
      QueryContext ctx;
      ctx.deadline =
          std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
      QueryProfile want_profile;
      ctx.profile = &want_profile;
      auto want = server->Serve(fx.requests[0], ctx);
      QueryProfile got_profile;
      ctx.profile = &got_profile;
      auto got = cluster->Serve(fx.requests[0], ctx);
      ASSERT_FALSE(want.ok());
      ASSERT_FALSE(got.ok());
      EXPECT_EQ(want.status().code(), StatusCode::kDeadlineExceeded);
      EXPECT_EQ(got.status().code(), StatusCode::kDeadlineExceeded);
      EXPECT_EQ(want_profile.timed_out_phase, "on admission");
      ExpectSameDeterministicStats(got_profile, want_profile);
    }
  }
}

TEST(Cluster, ShardUploadsRoundTripThroughTheStore) {
  Fixture fx = MakeFixture(/*k=*/3, /*num_queries=*/4);
  auto plan = fx.owner.BuildShardUploads(/*num_shards=*/4, kShardPartitionSeed);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->shards.size(), 4u);
  EXPECT_EQ(plan->partitioning.num_parts, 4u);

  const std::string dir = TempDir("roundtrip");
  ASSERT_TRUE(SaveShardUploads(*plan, dir).ok());
  auto reloaded = LoadShardUploads(dir);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();

  // The partitioner assignment reloads exactly — a cluster re-hosted from
  // the snapshot slices Go the same way the original did.
  EXPECT_EQ(reloaded->partitioning, plan->partitioning);
  ASSERT_EQ(reloaded->shards.size(), plan->shards.size());
  for (size_t s = 0; s < plan->shards.size(); ++s) {
    EXPECT_EQ(reloaded->shards[s].Serialize(), plan->shards[s].Serialize());
  }

  // Re-hosting the reloaded shards merges to the unsharded answers.
  auto server = CloudServer::Host(fx.owner.upload_bytes());
  ASSERT_TRUE(server.ok());
  auto cluster = CloudCluster::HostShards(std::move(reloaded->shards));
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  for (const auto& request : fx.requests) {
    auto want = server->Serve(request);
    ASSERT_TRUE(want.ok());
    auto got = cluster->Serve(request);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got->response_payload, want->response_payload);
  }
}

TEST(Cluster, ExchangeMetersCountShardTraffic) {
  Fixture fx = MakeFixture(/*k=*/2, /*num_queries=*/3);
  auto cluster = CloudCluster::Host(fx.owner.upload_bytes(), /*num_shards=*/3);
  ASSERT_TRUE(cluster.ok()) << cluster.status();

  EXPECT_EQ(cluster->ExchangedBytes(), 0u);
  size_t profiled_bytes = 0;
  for (const auto& request : fx.requests) {
    QueryProfile profile;
    auto answer = cluster->Serve(request, {.profile = &profile});
    ASSERT_TRUE(answer.ok()) << answer.status();
    ASSERT_EQ(profile.shards.size(), 3u);
    for (const ShardProfile& shard : profile.shards) {
      if (shard.shard == 0) {
        // The coordinator is colocated with shard 0: no wire hop.
        EXPECT_EQ(shard.exchanged_bytes, 0u);
      } else {
        EXPECT_GT(shard.exchanged_bytes, 0u);
      }
      profiled_bytes += shard.exchanged_bytes;
    }
  }
  // The cluster-lifetime meter agrees with the per-query profiles.
  EXPECT_EQ(cluster->ExchangedBytes(), profiled_bytes);
}

TEST(Cluster, SystemFacadeServesShardedBatchesConcurrently) {
  // End to end through PpsmSystem (owner + channel + service + cluster),
  // with a concurrent batch — the TSan job runs this binary, so the
  // coordinator's merge/exchange path gets checked for data races.
  auto g = GenerateDataset(DbpediaLike(0.01));
  ASSERT_TRUE(g.ok());
  SystemConfig unsharded_config;
  unsharded_config.k = 2;
  auto unsharded = PpsmSystem::Setup(*g, g->schema(), unsharded_config);
  ASSERT_TRUE(unsharded.ok()) << unsharded.status();

  SystemConfig config = unsharded_config;
  config.num_shards = 4;
  auto sharded = PpsmSystem::Setup(*g, g->schema(), config);
  ASSERT_TRUE(sharded.ok()) << sharded.status();
  ASSERT_NE(sharded->cluster(), nullptr);
  EXPECT_EQ(sharded->cluster()->num_shards(), 4u);
  EXPECT_EQ(unsharded->cluster(), nullptr);

  std::vector<QueryRequest> workload;
  Rng rng(23);
  for (int i = 0; i < 8; ++i) {
    auto extracted = ExtractQuery(*g, 3 + i % 4, rng);
    ASSERT_TRUE(extracted.ok());
    QueryRequest request;
    request.pattern = extracted->query;
    request.tag = "q" + std::to_string(i);
    workload.push_back(std::move(request));
  }

  const BatchResult want = unsharded->ExecuteBatch(workload, 4);
  const BatchResult got = sharded->ExecuteBatch(workload, 4);
  ASSERT_EQ(want.summary.succeeded, workload.size());
  ASSERT_EQ(got.summary.succeeded, workload.size());
  for (size_t i = 0; i < workload.size(); ++i) {
    EXPECT_TRUE(got.responses[i].matches == want.responses[i].matches)
        << "query " << i;
    EXPECT_EQ(got.responses[i].tag, workload[i].tag);
    EXPECT_EQ(got.responses[i].cloud.shards.size(), 4u);
  }
}

TEST(Cluster, FacadeRejectsShardedBaseline) {
  auto g = GenerateDataset(DbpediaLike(0.008));
  ASSERT_TRUE(g.ok());
  SystemConfig config;
  config.k = 2;
  config.method = Method::kBas;
  config.num_shards = 2;
  auto system = PpsmSystem::Setup(*g, g->schema(), config);
  EXPECT_FALSE(system.ok());
  EXPECT_EQ(system.status().code(), StatusCode::kInvalidArgument);
}

TEST(Cluster, BaselineUploadsAreRejected) {
  auto g = GenerateDataset(DbpediaLike(0.008));
  ASSERT_TRUE(g.ok());
  DataOwnerOptions options;
  options.k = 2;
  options.baseline_upload = true;
  auto owner = DataOwner::Create(*g, g->schema(), options);
  ASSERT_TRUE(owner.ok());

  auto plan = owner->BuildShardUploads(/*num_shards=*/2, kShardPartitionSeed);
  EXPECT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);

  auto cluster = CloudCluster::Host(owner->upload_bytes(), /*num_shards=*/2);
  EXPECT_FALSE(cluster.ok());
}

}  // namespace
}  // namespace ppsm
