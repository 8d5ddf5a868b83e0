// End-to-end query-observability tests: the reply stats carry a minted
// query_id plus per-star / per-join-step profiles, the id lands in the
// tracer's span args, failed queries (expired deadlines) still produce a
// flight-recorder capture with the phases that ran, the system facade
// annotates network/client times onto the recorded profile, the query-log
// dump is parseable JSONL, and the channel counts its evicted log records.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cloud/channel.h"
#include "cloud/cloud_server.h"
#include "cloud/data_owner.h"
#include "cloud/query_service.h"
#include "core/ppsm_system.h"
#include "graph/generators.h"
#include "graph/query_extractor.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/query_profile.h"
#include "obs/trace.h"
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
    auto extracted = ExtractQuery(fx.graph, 3 + i % 4, rng);
    EXPECT_TRUE(extracted.ok());
    auto request = fx.owner.AnonymizeQueryToRequest(extracted->query);
    EXPECT_TRUE(request.ok());
    fx.requests.push_back(*std::move(request));
  }
  return fx;
}

// Finds the recorded profile for `query_id` in the recorder's ring.
bool FindProfile(uint64_t query_id, QueryProfile* out) {
  for (const QueryProfile& profile : FlightRecorder::Global().Recent()) {
    if (profile.query_id == query_id) {
      *out = profile;
      return true;
    }
  }
  return false;
}

TEST(QueryObs, ReplyCarriesQueryIdAndPerPhaseProfiles) {
  Fixture fx = MakeFixture(3);
  auto server = CloudServer::Host(fx.owner.upload_bytes());
  ASSERT_TRUE(server.ok());
  QueryService service(&*server);
  FlightRecorder::Global().Clear();

  std::set<uint64_t> seen_ids;
  for (const auto& request : fx.requests) {
    QueryProfile stats;
    auto answer = service.Execute(request, &stats);
    ASSERT_TRUE(answer.ok()) << answer.status();

    EXPECT_NE(stats.query_id, 0u);
    EXPECT_TRUE(seen_ids.insert(stats.query_id).second)
        << "query_id reused: " << stats.query_id;

    // One star profile per decomposed star, actuals filled in.
    ASSERT_EQ(stats.stars.size(), stats.num_stars);
    uint64_t rows_across_stars = 0;
    for (const UnitProfile& star : stats.stars) {
      EXPECT_GE(star.candidates, star.rows == 0 ? 0u : 1u);
      rows_across_stars += star.rows;
    }
    EXPECT_EQ(rows_across_stars, stats.rs_size);

    // Every served query records the anchor as step 0 (estimate 0.0 — the
    // anchor is not a JoinStep, so it never feeds calibration), then one
    // step per non-anchor star with its cost-model estimate and the actual
    // output cardinality.
    ASSERT_EQ(stats.join_steps.size(), stats.num_stars);
    EXPECT_EQ(stats.join_steps.front().step, 0u);
    EXPECT_EQ(stats.join_steps.front().estimated_rows, 0.0);
    std::set<uint32_t> joined_stars;
    for (const JoinStepProfile& step : stats.join_steps) {
      EXPECT_TRUE(joined_stars.insert(step.star_index).second);
      EXPECT_LT(step.star_index, stats.num_stars);
      if (step.step > 0) {
        EXPECT_GT(step.estimated_rows, 0.0)
            << "join steps should carry the section-5.1 estimate";
      }
      EXPECT_FALSE(step.overflow);
    }
    EXPECT_EQ(stats.join_steps.back().output_rows, stats.result_rows);

    // The service filed the same profile with the recorder.
    QueryProfile recorded;
    ASSERT_TRUE(FindProfile(stats.query_id, &recorded));
    EXPECT_EQ(recorded.status, "ok");
    EXPECT_EQ(recorded.num_stars, stats.num_stars);
    EXPECT_EQ(recorded.result_rows, stats.result_rows);
    EXPECT_EQ(recorded.stars.size(), stats.stars.size());
    EXPECT_EQ(recorded.join_steps.size(), stats.join_steps.size());
    EXPECT_GT(recorded.request_bytes, 0u);
    EXPECT_GT(recorded.response_bytes, 0u);
    EXPECT_GE(recorded.queue_wait_ms, 0.0);
  }
}

TEST(QueryObs, QueryIdPropagatesIntoSpanArgs) {
  Fixture fx = MakeFixture(1);
  auto server = CloudServer::Host(fx.owner.upload_bytes());
  ASSERT_TRUE(server.ok());
  QueryService service(&*server);

  Tracer::Global().Clear();
  QueryProfile profile;
  auto answer = service.Execute(fx.requests[0], &profile);
  ASSERT_TRUE(answer.ok()) << answer.status();
  const std::string want = std::to_string(profile.query_id);

  bool server_span = false;
  bool service_span = false;
  for (const TraceEvent& event : Tracer::Global().Events()) {
    for (const TraceArg& arg : event.args) {
      if (arg.key != "query_id" || arg.value != want) continue;
      if (event.name == "cloud.answer_query") server_span = true;
      if (event.name == "cloud.query_service.execute") service_span = true;
    }
  }
  EXPECT_TRUE(server_span)
      << "cloud.answer_query span missing query_id=" << want;
  EXPECT_TRUE(service_span)
      << "cloud.query_service.execute span missing query_id=" << want;
}

TEST(QueryObs, ExpiredDeadlineStillProducesACapture) {
  Fixture fx = MakeFixture(1);
  auto server = CloudServer::Host(fx.owner.upload_bytes());
  ASSERT_TRUE(server.ok());
  QueryService service(&*server);
  FlightRecorder::Global().Clear();

  const auto past =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(5);
  auto answer = service.Execute(fx.requests[0], past);
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kDeadlineExceeded);

  // The refusal was recorded with the id and the failing phase. An
  // already-expired budget never passes the gate anymore (it used to be
  // admitted and burn a slot before failing "on admission"), so the
  // capture reports the queue as the phase where the clock ran out — and
  // accounts the encoded error reply instead of 0 response bytes.
  const std::vector<QueryProfile> slow = FlightRecorder::Global().SlowQueries();
  ASSERT_EQ(slow.size(), 1u);
  EXPECT_NE(slow[0].query_id, 0u);
  EXPECT_EQ(slow[0].status, "deadline_exceeded");
  EXPECT_EQ(slow[0].timed_out_phase, "queue");
  EXPECT_GT(slow[0].request_bytes, 0u);
  EXPECT_GT(slow[0].response_bytes, 0u);
  // It is in the ring too.
  QueryProfile recorded;
  EXPECT_TRUE(FindProfile(slow[0].query_id, &recorded));
}

TEST(QueryObs, DirectServeFillsStatsOnDeadlineFailure) {
  Fixture fx = MakeFixture(1);
  auto server = CloudServer::Host(fx.owner.upload_bytes());
  ASSERT_TRUE(server.ok());
  FlightRecorder::Global().Clear();

  QueryContext ctx;
  ctx.query_id = FlightRecorder::NextQueryId();
  ctx.deadline = std::chrono::steady_clock::now() - std::chrono::seconds(1);
  QueryProfile profile;
  ctx.profile = &profile;
  auto answer = server->Serve(fx.requests[0], ctx);
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kDeadlineExceeded);
  // The out-param carries the partial profile despite the early return...
  EXPECT_EQ(profile.query_id, ctx.query_id);
  EXPECT_EQ(profile.timed_out_phase, "on admission");
  // ...and a direct server call does not file with the recorder — that is
  // the service's job.
  EXPECT_EQ(FlightRecorder::Global().NumRecorded(), 0u);
}

TEST(QueryObs, SystemAnnotatesNetworkAndClientTimes) {
  auto g = GenerateDataset(DbpediaLike(0.008));
  ASSERT_TRUE(g.ok());
  SystemConfig config;
  config.k = 2;
  auto system = PpsmSystem::Setup(*g, g->schema(), config);
  ASSERT_TRUE(system.ok());
  FlightRecorder::Global().Clear();

  Rng rng(11);
  auto extracted = ExtractQuery(*g, 4, rng);
  ASSERT_TRUE(extracted.ok());
  QueryRequest request;
  request.pattern = extracted->query;
  const QueryResponse outcome = system->Execute(request);
  ASSERT_TRUE(outcome.ok()) << outcome.status;
  ASSERT_NE(outcome.cloud.query_id, 0u);

  QueryProfile recorded;
  ASSERT_TRUE(FindProfile(outcome.cloud.query_id, &recorded));
  // The facade annotated the post-cloud legs onto the recorded profile.
  EXPECT_EQ(recorded.network_ms, outcome.cloud.network_ms);
  EXPECT_GT(recorded.network_ms, 0.0);
  EXPECT_EQ(recorded.total_ms, outcome.cloud.total_ms);
  EXPECT_GE(recorded.total_ms, recorded.cloud_ms);

  // Static accessors see the same global recorder.
  ASSERT_EQ(PpsmSystem::RecentQueryProfiles().size(), 1u);
  EXPECT_EQ(PpsmSystem::RecentQueryProfiles()[0].query_id,
            outcome.cloud.query_id);
}

// A query the cloud refuses mid-evaluation still hands the caller its
// profile: on a complete graph a 3-leaf star trips the row cap during unit
// matching, and the response carries the same record the flight recorder
// filed — the id, the overflow and the units that ran.
TEST(QueryObs, FailedQueryResponseKeepsTheCloudProfile) {
  auto g = GenerateUniformRandomGraph(60, 1770, 1, 7);
  ASSERT_TRUE(g.ok()) << g.status();
  ASSERT_EQ(g->NumEdges(), 1770u);  // Complete.
  SystemConfig config;
  config.k = 2;
  auto system = PpsmSystem::Setup(*g, g->schema(), config);
  ASSERT_TRUE(system.ok()) << system.status();

  GraphBuilder star(g->schema());
  const VertexId center = star.AddVertex(0, {});
  for (int leaf = 0; leaf < 3; ++leaf) {
    ASSERT_TRUE(star.AddEdge(center, star.AddVertex(0, {})).ok());
  }
  auto pattern = star.Build();
  ASSERT_TRUE(pattern.ok()) << pattern.status();
  QueryRequest request;
  request.pattern = *std::move(pattern);

  FlightRecorder::Global().Clear();
  const QueryResponse outcome = system->Execute(request);
  ASSERT_EQ(outcome.status.code(), StatusCode::kResourceExhausted)
      << outcome.status;
  EXPECT_TRUE(outcome.matches.empty());
  const QueryProfile& profile = outcome.cloud;
  EXPECT_NE(profile.query_id, 0u);
  EXPECT_EQ(profile.status, "resource_exhausted");
  EXPECT_TRUE(profile.overflowed);
  EXPECT_GT(profile.num_stars, 0u);
  EXPECT_EQ(profile.stars.size(), profile.num_stars);
  EXPECT_GT(profile.request_bytes, 0u);
  EXPECT_GT(profile.response_bytes, 0u);

  QueryProfile recorded;
  ASSERT_TRUE(FindProfile(profile.query_id, &recorded));
  EXPECT_EQ(recorded.status, profile.status);
  EXPECT_EQ(recorded.overflowed, profile.overflowed);
  EXPECT_EQ(recorded.num_stars, profile.num_stars);
  EXPECT_EQ(recorded.rs_size, profile.rs_size);
}

TEST(QueryObs, DumpQueryLogWritesParseableJsonl) {
  auto g = GenerateDataset(DbpediaLike(0.008));
  ASSERT_TRUE(g.ok());
  SystemConfig config;
  config.k = 2;
  auto system = PpsmSystem::Setup(*g, g->schema(), config);
  ASSERT_TRUE(system.ok());
  FlightRecorder::Global().Clear();

  Rng rng(13);
  for (int i = 0; i < 3; ++i) {
    auto extracted = ExtractQuery(*g, 3 + i, rng);
    ASSERT_TRUE(extracted.ok());
    QueryRequest request;
    request.pattern = extracted->query;
    const QueryResponse outcome = system->Execute(request);
    ASSERT_TRUE(outcome.ok()) << outcome.status;
  }

  const std::string path = ::testing::TempDir() + "/query_log.jsonl";
  ASSERT_TRUE(PpsmSystem::DumpQueryLog(path).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) {
    auto parsed = QueryProfileFromJson(line);
    ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << line;
    EXPECT_NE(parsed->query_id, 0u);
    ++lines;
  }
  EXPECT_EQ(lines, 3u);  // Ring entries only; nothing was slow or failed.
  std::remove(path.c_str());

  // An unwritable path is a typed error, not a crash.
  EXPECT_FALSE(PpsmSystem::DumpQueryLog("/nonexistent-dir/x.jsonl").ok());
}

TEST(QueryObs, ChannelCountsEvictedLogRecords) {
  ChannelConfig config;
  config.max_log_records = 2;
  auto channel = SimulatedChannel::Create(config);
  ASSERT_TRUE(channel.ok());
  const double dropped_before =
      CounterValue("ppsm_channel_log_dropped_total");
  for (int i = 0; i < 5; ++i) {
    channel->Transfer(100, "msg " + std::to_string(i));
  }
  EXPECT_EQ(channel->num_messages(), 5u);
  EXPECT_EQ(channel->log().size(), 2u);
  EXPECT_EQ(channel->num_dropped_records(), 3u);
  EXPECT_EQ(CounterValue("ppsm_channel_log_dropped_total") - dropped_before,
            3.0);
  channel->Reset();
  EXPECT_EQ(channel->num_dropped_records(), 0u);
}

TEST(QueryObs, ConcurrentBatchMintsDistinctIds) {
  auto g = GenerateDataset(DbpediaLike(0.008));
  ASSERT_TRUE(g.ok());
  SystemConfig config;
  config.k = 2;
  config.cloud.num_threads = 2;
  config.cloud.max_inflight = 4;
  auto system = PpsmSystem::Setup(*g, g->schema(), config);
  ASSERT_TRUE(system.ok());
  FlightRecorder::Global().Clear();

  Rng rng(17);
  std::vector<AttributedGraph> workload;
  for (int i = 0; i < 8; ++i) {
    auto extracted = ExtractQuery(*g, 3 + i % 3, rng);
    ASSERT_TRUE(extracted.ok());
    workload.push_back(extracted->query);
  }
  std::vector<QueryRequest> requests(workload.size());
  for (size_t i = 0; i < workload.size(); ++i) {
    requests[i].pattern = workload[i];
  }
  const BatchResult batch = system->ExecuteBatch(requests, 4);
  std::set<uint64_t> ids;
  for (const QueryResponse& outcome : batch.responses) {
    ASSERT_TRUE(outcome.ok()) << outcome.status;
    EXPECT_NE(outcome.cloud.query_id, 0u);
    EXPECT_TRUE(ids.insert(outcome.cloud.query_id).second);
  }
  EXPECT_EQ(FlightRecorder::Global().NumRecorded(), workload.size());
}

}  // namespace
}  // namespace ppsm
