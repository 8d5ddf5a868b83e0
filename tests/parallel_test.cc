#include "util/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "cloud/cloud_server.h"
#include "core/ppsm_system.h"
#include "cloud/data_owner.h"
#include "graph/generators.h"
#include "graph/query_extractor.h"
#include "util/random.h"

namespace ppsm {
namespace {

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (const size_t threads : {1u, 2u, 4u, 9u}) {
    for (const size_t items : {0u, 1u, 7u, 100u, 1000u}) {
      std::vector<std::atomic<int>> hits(items);
      ParallelFor(threads, items,
                  [&hits](size_t i) { hits[i].fetch_add(1); });
      for (size_t i = 0; i < items; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "threads=" << threads;
      }
    }
  }
}

TEST(ParallelFor, AggregationMatchesSerial) {
  const size_t n = 5000;
  std::vector<uint64_t> out(n);
  ParallelFor(4, n, [&out](size_t i) { out[i] = i * i; });
  uint64_t total = std::accumulate(out.begin(), out.end(), uint64_t{0});
  uint64_t expected = 0;
  for (uint64_t i = 0; i < n; ++i) expected += i * i;
  EXPECT_EQ(total, expected);
}

TEST(ParallelFor, HardwareThreadsPositive) {
  EXPECT_GE(HardwareThreads(), 1u);
}

TEST(ParallelCloud, SameAnswersAsSerial) {
  const auto g = GenerateDataset(DbpediaLike(0.01));
  ASSERT_TRUE(g.ok());
  DataOwnerOptions options;
  options.k = 3;
  auto owner = DataOwner::Create(*g, g->schema(), options);
  ASSERT_TRUE(owner.ok());

  CloudConfig parallel_config;
  parallel_config.num_threads = 4;
  auto serial = CloudServer::Host(owner->upload_bytes());
  auto parallel = CloudServer::Host(owner->upload_bytes(), parallel_config);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(parallel->num_threads(), 4u);

  Rng rng(33);
  for (int i = 0; i < 8; ++i) {
    auto extracted = ExtractQuery(*g, 2 + i % 6, rng);
    ASSERT_TRUE(extracted.ok());
    auto request = owner->AnonymizeQueryToRequest(extracted->query);
    ASSERT_TRUE(request.ok());
    QueryProfile a_profile;
    auto a = serial->Serve(*request, {.profile = &a_profile});
    QueryProfile b_profile;
    auto b = parallel->Serve(*request, {.profile = &b_profile});
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->response_payload, b->response_payload)
        << "parallel star matching changed the answer";
    EXPECT_EQ(a_profile.rs_size, b_profile.rs_size);
  }
}

TEST(ParallelCloud, FacadeConfigThreadsGiveExactAnswers) {
  const auto g = GenerateDataset(DbpediaLike(0.008));
  ASSERT_TRUE(g.ok());
  SystemConfig serial_config;
  serial_config.k = 3;
  SystemConfig parallel_config = serial_config;
  parallel_config.cloud.num_threads = 4;
  auto serial = PpsmSystem::Setup(*g, g->schema(), serial_config);
  auto parallel = PpsmSystem::Setup(*g, g->schema(), parallel_config);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(parallel->cloud().num_threads(), 4u);
  Rng rng(44);
  for (int i = 0; i < 4; ++i) {
    auto extracted = ExtractQuery(*g, 5, rng);
    ASSERT_TRUE(extracted.ok());
    QueryRequest request;
    request.pattern = extracted->query;
    const QueryResponse a = serial->Execute(request);
    const QueryResponse b = parallel->Execute(request);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_TRUE(a.matches == b.matches);
  }
}

TEST(ParallelCloud, ZeroThreadsClampsToOne) {
  const auto g = GenerateDataset(DbpediaLike(0.005));
  ASSERT_TRUE(g.ok());
  DataOwnerOptions options;
  options.k = 2;
  auto owner = DataOwner::Create(*g, g->schema(), options);
  ASSERT_TRUE(owner.ok());
  CloudConfig config;
  config.num_threads = 0;
  config.max_inflight = 0;
  auto server = CloudServer::Host(owner->upload_bytes(), config);
  ASSERT_TRUE(server.ok());
  EXPECT_EQ(server->num_threads(), 1u);
  EXPECT_EQ(server->config().max_inflight, 1u);
}

}  // namespace
}  // namespace ppsm
