// QueryService / AdmissionGate / plan-cache tests: concurrent answers must
// be byte-identical to the serial path, repeated queries must hit the plan
// cache, expired deadlines must surface as the typed kDeadlineExceeded
// status, and the admission gate must enforce its inflight + queue bounds.

#include "cloud/query_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "cloud/cloud_server.h"
#include "cloud/data_owner.h"
#include "core/ppsm_system.h"
#include "graph/generators.h"
#include "graph/query_extractor.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "query/query_api.h"
#include "util/random.h"

namespace ppsm {
namespace {

constexpr auto kNoDeadline = std::chrono::steady_clock::time_point::max();

double CounterValue(const std::string& name) {
  MetricSnapshot snap;
  if (!MetricsRegistry::Global().Find(name, &snap)) return 0.0;
  return snap.value;
}

struct Fixture {
  AttributedGraph graph;
  DataOwner owner;
  std::vector<std::vector<uint8_t>> requests;  // Serialized Qo workload.
};

Fixture MakeFixture(size_t num_queries, uint64_t seed = 7) {
  auto g = GenerateDataset(DbpediaLike(0.01));
  EXPECT_TRUE(g.ok());
  DataOwnerOptions options;
  options.k = 3;
  auto owner = DataOwner::Create(*g, g->schema(), options);
  EXPECT_TRUE(owner.ok());
  Fixture fx{*std::move(g), *std::move(owner), {}};
  Rng rng(seed);
  for (size_t i = 0; i < num_queries; ++i) {
    auto extracted = ExtractQuery(fx.graph, 2 + i % 5, rng);
    EXPECT_TRUE(extracted.ok());
    auto request = fx.owner.AnonymizeQueryToRequest(extracted->query);
    EXPECT_TRUE(request.ok());
    fx.requests.push_back(*std::move(request));
  }
  return fx;
}

// The acceptance bar for the serving redesign: >= 8 simultaneous queries
// against one hosted server return payloads byte-identical to the serial
// single-threaded path.
TEST(QueryService, EightConcurrentQueriesMatchSerialByteForByte) {
  constexpr size_t kThreads = 8;
  Fixture fx = MakeFixture(kThreads);

  CloudConfig serial_config;
  serial_config.plan_cache_entries = 0;  // Pure serial reference.
  auto serial = CloudServer::Host(fx.owner.upload_bytes(), serial_config);
  ASSERT_TRUE(serial.ok());
  std::vector<std::vector<uint8_t>> expected;
  for (const auto& request : fx.requests) {
    auto answer = serial->Serve(request);
    ASSERT_TRUE(answer.ok());
    expected.push_back(answer->response_payload);
  }

  CloudConfig config;
  config.num_threads = 2;
  config.max_inflight = kThreads;
  auto server = CloudServer::Host(fx.owner.upload_bytes(), config);
  ASSERT_TRUE(server.ok());
  QueryService service(&*server);

  std::vector<std::vector<uint8_t>> got(kThreads);
  std::vector<std::atomic<bool>> ok(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto answer = service.Execute(fx.requests[t]);
      ok[t].store(answer.ok());
      if (answer.ok()) got[t] = std::move(answer->response_payload);
    });
  }
  for (std::thread& t : threads) t.join();
  for (size_t t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(ok[t].load()) << "query " << t;
    EXPECT_EQ(got[t], expected[t]) << "concurrent answer diverged, query "
                                   << t;
  }
  EXPECT_EQ(service.gate().InFlight(), 0u);
  EXPECT_EQ(service.gate().Queued(), 0u);
}

TEST(QueryService, PlanCacheHitsOnRepeatAndKeepsAnswersIdentical) {
  Fixture fx = MakeFixture(2);
  CloudConfig config;
  config.plan_cache_entries = 8;
  auto server = CloudServer::Host(fx.owner.upload_bytes(), config);
  ASSERT_TRUE(server.ok());

  const double hits_before =
      CounterValue("ppsm_cloud_plan_cache_hits_total");
  QueryProfile profile;
  auto first = server->Serve(fx.requests[0], {.profile = &profile});
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(profile.plan_cache_hit);
  PlanCacheStats stats = server->plan_cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.capacity, 8u);

  auto second = server->Serve(fx.requests[0], {.profile = &profile});
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(profile.plan_cache_hit);
  EXPECT_EQ(second->response_payload, first->response_payload)
      << "cached plan changed the answer";
  stats = server->plan_cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(CounterValue("ppsm_cloud_plan_cache_hits_total"), hits_before);

  // A different query is a miss, not a false hit.
  auto third = server->Serve(fx.requests[1], {.profile = &profile});
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(profile.plan_cache_hit);
  EXPECT_EQ(server->plan_cache_stats().misses, 2u);
}

TEST(QueryService, PlanCacheDisabledNeverCounts) {
  Fixture fx = MakeFixture(1);
  CloudConfig config;
  config.plan_cache_entries = 0;
  auto server = CloudServer::Host(fx.owner.upload_bytes(), config);
  ASSERT_TRUE(server.ok());
  for (int i = 0; i < 3; ++i) {
    QueryProfile profile;
    auto answer = server->Serve(fx.requests[0], {.profile = &profile});
    ASSERT_TRUE(answer.ok());
    EXPECT_FALSE(profile.plan_cache_hit);
  }
  const PlanCacheStats stats = server->plan_cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.capacity, 0u);
}

TEST(QueryService, ExpiredDeadlineReturnsTypedStatus) {
  Fixture fx = MakeFixture(1);
  auto server = CloudServer::Host(fx.owner.upload_bytes());
  ASSERT_TRUE(server.ok());
  QueryService service(&*server);

  const auto past =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(5);
  auto answer = service.Execute(fx.requests[0], past);
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kDeadlineExceeded)
      << answer.status();

  // The server-level entry point refuses too (no admission involved).
  QueryContext past_ctx;
  past_ctx.deadline = past;
  auto direct = server->Serve(fx.requests[0], past_ctx);
  ASSERT_FALSE(direct.ok());
  EXPECT_EQ(direct.status().code(), StatusCode::kDeadlineExceeded);

  // And a generous deadline still answers.
  auto relaxed = service.Execute(
      fx.requests[0], std::chrono::steady_clock::now() +
                          std::chrono::seconds(300));
  EXPECT_TRUE(relaxed.ok()) << relaxed.status();
}

TEST(AdmissionGate, AcquireReleaseTracksOccupancy) {
  AdmissionGate gate(2, 4);
  EXPECT_EQ(gate.max_inflight(), 2u);
  EXPECT_EQ(gate.queue_limit(), 4u);
  ASSERT_TRUE(gate.Acquire(kNoDeadline).ok());
  ASSERT_TRUE(gate.Acquire(kNoDeadline).ok());
  EXPECT_EQ(gate.InFlight(), 2u);
  gate.Release();
  EXPECT_EQ(gate.InFlight(), 1u);
  ASSERT_TRUE(gate.Acquire(kNoDeadline).ok());
  gate.Release();
  gate.Release();
  EXPECT_EQ(gate.InFlight(), 0u);
}

TEST(AdmissionGate, QueuedCallerDeadlineExpires) {
  AdmissionGate gate(1, 4);
  ASSERT_TRUE(gate.Acquire(kNoDeadline).ok());  // Occupy the only slot.
  const auto soon =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
  const Status status = gate.Acquire(soon);
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded) << status;
  EXPECT_EQ(gate.Queued(), 0u);
  gate.Release();
}

TEST(AdmissionGate, FullQueueRefusesImmediately) {
  AdmissionGate gate(1, 1);
  ASSERT_TRUE(gate.Acquire(kNoDeadline).ok());  // Slot taken.

  // One caller may wait; park it in the queue.
  std::atomic<bool> queued_ok{false};
  std::thread waiter([&] {
    queued_ok.store(gate.Acquire(kNoDeadline).ok());
  });
  while (gate.Queued() == 0) std::this_thread::yield();

  // Queue is at its limit: the next caller is refused without blocking.
  const Status refused = gate.Acquire(
      std::chrono::steady_clock::now() + std::chrono::seconds(300));
  EXPECT_EQ(refused.code(), StatusCode::kResourceExhausted) << refused;

  gate.Release();  // Frees the slot; the queued caller gets it.
  waiter.join();
  EXPECT_TRUE(queued_ok.load());
  gate.Release();
  EXPECT_EQ(gate.InFlight(), 0u);
  EXPECT_EQ(gate.Queued(), 0u);
}

// End-to-end batch path through the facade: concurrent ExecuteBatch answers
// equal individually issued serial queries, and the summary accounting adds
// up.
TEST(ExecuteBatch, MatchesSerialQueriesAndSummarizes) {
  auto g = GenerateDataset(DbpediaLike(0.008));
  ASSERT_TRUE(g.ok());
  SystemConfig config;
  config.k = 2;
  config.cloud.num_threads = 2;
  config.cloud.max_inflight = 4;
  auto system = PpsmSystem::Setup(*g, g->schema(), config);
  ASSERT_TRUE(system.ok());

  Rng rng(21);
  std::vector<AttributedGraph> workload;
  for (int i = 0; i < 6; ++i) {
    auto extracted = ExtractQuery(*g, 3 + i % 3, rng);
    ASSERT_TRUE(extracted.ok());
    workload.push_back(extracted->query);
  }

  std::vector<QueryRequest> requests(workload.size());
  for (size_t i = 0; i < workload.size(); ++i) {
    requests[i].pattern = workload[i];
  }

  std::vector<MatchSet> expected;
  for (const QueryRequest& request : requests) {
    const QueryResponse outcome = system->Execute(request);
    ASSERT_TRUE(outcome.ok());
    expected.push_back(outcome.matches);
  }

  const BatchResult batch = system->ExecuteBatch(requests, 4);
  ASSERT_EQ(batch.responses.size(), workload.size());
  EXPECT_EQ(batch.summary.queries, workload.size());
  EXPECT_EQ(batch.summary.succeeded, workload.size());
  EXPECT_EQ(batch.summary.failed, 0u);
  EXPECT_GT(batch.summary.queries_per_second, 0.0);
  EXPECT_GE(batch.summary.p95_ms, batch.summary.p50_ms);
  for (size_t i = 0; i < workload.size(); ++i) {
    ASSERT_TRUE(batch.responses[i].ok()) << "query " << i;
    EXPECT_TRUE(batch.responses[i].matches == expected[i])
        << "batch answer diverged from serial, query " << i;
  }
  // The serial warm-up pass decomposed each distinct query once; the batch
  // replay should have been pure cache hits.
  EXPECT_GE(batch.summary.plan_cache.hits, workload.size());
}

TEST(ExecuteBatch, EmptyWorkloadIsWellFormed) {
  auto g = GenerateDataset(DbpediaLike(0.005));
  ASSERT_TRUE(g.ok());
  SystemConfig config;
  config.k = 2;
  auto system = PpsmSystem::Setup(*g, g->schema(), config);
  ASSERT_TRUE(system.ok());
  const BatchResult batch = system->ExecuteBatch({}, 2);
  EXPECT_TRUE(batch.responses.empty());
  EXPECT_EQ(batch.summary.queries, 0u);
  EXPECT_EQ(batch.summary.succeeded, 0u);
}

// Regression: the idle-gate fast path used to admit a query whose deadline
// had already passed — no clock check at all before taking a slot.
TEST(AdmissionGate, AlreadyExpiredDeadlineRefusedOnIdleGate) {
  AdmissionGate gate(4, 8);
  const auto past =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(5);
  const Status status = gate.Acquire(past);
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded) << status;
  EXPECT_EQ(gate.InFlight(), 0u) << "expired query burned a slot";
  // The gate is undamaged: a live query still gets in.
  ASSERT_TRUE(gate.Acquire(kNoDeadline).ok());
  gate.Release();
  EXPECT_EQ(gate.InFlight(), 0u);
}

// Regression: a 0-ms budget against a saturated gate must come back as a
// queue-phase refusal that leaves no occupancy behind.
TEST(AdmissionGate, ZeroBudgetUnderSaturatedGateRefusesCleanly) {
  AdmissionGate gate(1, 4);
  ASSERT_TRUE(gate.Acquire(kNoDeadline).ok());  // Occupy the only slot.
  const Status refused = gate.Acquire(std::chrono::steady_clock::now());
  EXPECT_EQ(refused.code(), StatusCode::kDeadlineExceeded) << refused;
  EXPECT_EQ(gate.Queued(), 0u);
  EXPECT_EQ(gate.InFlight(), 1u);  // Only the legitimate holder.
  gate.Release();
  EXPECT_EQ(gate.InFlight(), 0u);
}

// Regression pair for the serving-path fixes: an expired budget surfaces as
// a refusal stamped timed_out_phase="queue" (pre-fix the query was admitted
// and timed out somewhere inside the handler instead), and the refusal's
// profile accounts the encoded error reply instead of 0 response bytes.
TEST(QueryService, ExpiredBudgetStampsQueuePhaseAndAccountsReplyBytes) {
  Fixture fx = MakeFixture(1);
  auto server = CloudServer::Host(fx.owner.upload_bytes());
  ASSERT_TRUE(server.ok());
  QueryService service(&*server);

  FlightRecorder::Global().Clear();
  const auto past =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  auto answer = service.Execute(fx.requests[0], past);
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kDeadlineExceeded)
      << answer.status();
  EXPECT_EQ(service.gate().InFlight(), 0u) << "refusal leaked a slot";

  const std::vector<QueryProfile> recent = FlightRecorder::Global().Recent();
  ASSERT_FALSE(recent.empty());
  const QueryProfile& profile = recent.back();
  EXPECT_EQ(profile.timed_out_phase, "queue");
  EXPECT_GT(profile.response_bytes, 0u)
      << "error reply reported as free on the wire";
  // The service sizes the reply before it knows its own size.
  QueryProfile unsized = profile;
  unsized.response_bytes = 0;
  EXPECT_EQ(profile.response_bytes,
            EncodedErrorResponseBytes(answer.status(), unsized));
}

// The caller gets back the very profile the service filed — refusals
// included, which never reach the cloud — so a refused query is not a
// stats-free error at the call site either.
TEST(QueryService, RefusalHandsBackTheFiledProfile) {
  Fixture fx = MakeFixture(1);
  auto server = CloudServer::Host(fx.owner.upload_bytes());
  ASSERT_TRUE(server.ok());
  QueryService service(&*server);

  FlightRecorder::Global().Clear();
  QueryProfile profile;
  auto answer = service.Execute(
      fx.requests[0],
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1),
      &profile);
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(profile.query_id, 0u);
  EXPECT_EQ(profile.status, "deadline_exceeded");
  EXPECT_EQ(profile.timed_out_phase, "queue");
  EXPECT_EQ(profile.request_bytes, fx.requests[0].size());
  EXPECT_GT(profile.response_bytes, 0u);

  const std::vector<QueryProfile> recent = FlightRecorder::Global().Recent();
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_EQ(recent[0].query_id, profile.query_id);
  EXPECT_EQ(recent[0].response_bytes, profile.response_bytes);
}

// Starvation stress, TSan-covered: 8 threads hammer a 2-slot gate with a
// mix of unbounded and near-expired budgets. A lost wakeup (e.g. a timed-out
// waiter absorbing the Release notification without passing it on) hangs
// this test; clean termination with drained occupancy is the assertion.
TEST(AdmissionGate, StarvationFreeUnderContention) {
  AdmissionGate gate(2, 64);
  constexpr int kThreads = 8;
  constexpr int kIters = 200;
  std::atomic<int> admitted{0};
  std::atomic<int> refused{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const bool tight = ((i + t) % 3) == 0;
        const auto deadline =
            tight ? std::chrono::steady_clock::now() +
                        std::chrono::microseconds(100 * ((i + t) % 5))
                  : kNoDeadline;
        const Status status = gate.Acquire(deadline);
        if (status.ok()) {
          admitted.fetch_add(1);
          std::this_thread::yield();
          gate.Release();
        } else {
          refused.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(gate.InFlight(), 0u);
  EXPECT_EQ(gate.Queued(), 0u);
  EXPECT_GT(admitted.load(), 0);
}

TEST(ExecuteBatch, DeadlineZeroMeansNoDeadline) {
  auto g = GenerateDataset(DbpediaLike(0.005));
  ASSERT_TRUE(g.ok());
  SystemConfig config;
  config.k = 2;
  config.cloud.query_deadline_ms = 0;  // Disabled.
  auto system = PpsmSystem::Setup(*g, g->schema(), config);
  ASSERT_TRUE(system.ok());
  Rng rng(5);
  auto extracted = ExtractQuery(*g, 3, rng);
  ASSERT_TRUE(extracted.ok());
  QueryRequest request;
  request.pattern = extracted->query;
  const QueryResponse outcome = system->Execute(request);
  EXPECT_TRUE(outcome.ok()) << outcome.status;
}

}  // namespace
}  // namespace ppsm
