// End-to-end observability: running PpsmSystem setup + query populates the
// global tracer with the expected span tree and the global registry with the
// pipeline metrics, and parallel star matching records the same histogram
// totals as serial.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "core/ppsm_system.h"
#include "graph/example_graphs.h"
#include "graph/generators.h"
#include "graph/query_extractor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/random.h"

namespace ppsm {
namespace {

const TraceEvent* FindSpan(const std::vector<TraceEvent>& events,
                           const std::string& name) {
  for (const TraceEvent& event : events) {
    if (event.name == name && !event.instant) return &event;
  }
  return nullptr;
}

bool Contains(const TraceEvent& outer, const TraceEvent& inner) {
  return outer.ts_us <= inner.ts_us &&
         outer.ts_us + outer.dur_us >= inner.ts_us + inner.dur_us;
}

uint64_t HistogramCount(const std::string& name) {
  MetricSnapshot snap;
  if (!MetricsRegistry::Global().Find(name, &snap)) return 0;
  return snap.histogram.count;
}

double CounterValue(const std::string& name) {
  MetricSnapshot snap;
  if (!MetricsRegistry::Global().Find(name, &snap)) return -1.0;
  return snap.value;
}

TEST(ObservabilityE2e, SetupAndQueryEmitExpectedSpanTree) {
  Tracer& tracer = Tracer::Global();
  tracer.Clear();
  MetricsRegistry::Global().Reset();

  const RunningExample ex = MakeRunningExample();
  SystemConfig config;
  config.k = 2;
  auto system = PpsmSystem::Setup(ex.graph, ex.schema, config);
  ASSERT_TRUE(system.ok());
  QueryRequest request;
  request.pattern = ex.query;
  const QueryResponse outcome = system->Execute(request);
  ASSERT_TRUE(outcome.ok());

  const std::vector<TraceEvent> events = tracer.Events();
  // Every pipeline phase left a span.
  for (const char* name :
       {"setup", "setup.data_owner", "setup.lct", "setup.label_generalization",
        "setup.kauto", "setup.kauto.partition", "setup.kauto.align_and_copy",
        "setup.upload_build", "setup.cloud_host", "cloud.index_build", "query",
        "query.anonymize", "cloud.answer_query", "cloud.decompose",
        "cloud.star_match", "cloud.unit_match.unit", "cloud.join",
        "client.process_response", "client.expand", "client.filter"}) {
    EXPECT_NE(FindSpan(events, name), nullptr) << "missing span " << name;
  }
  // The channel emitted transfer instants (upload, request, response).
  const size_t instants = static_cast<size_t>(
      std::count_if(events.begin(), events.end(), [](const TraceEvent& e) {
        return e.instant && e.name.rfind("channel.transfer", 0) == 0;
      }));
  EXPECT_GE(instants, 3u);

  // Tree shape: parents contain children in time and sit at lower depth.
  const TraceEvent* setup = FindSpan(events, "setup");
  const TraceEvent* kauto = FindSpan(events, "setup.kauto");
  const TraceEvent* partition = FindSpan(events, "setup.kauto.partition");
  const TraceEvent* query = FindSpan(events, "query");
  const TraceEvent* answer = FindSpan(events, "cloud.answer_query");
  const TraceEvent* star_match = FindSpan(events, "cloud.star_match");
  ASSERT_NE(setup, nullptr);
  ASSERT_NE(kauto, nullptr);
  ASSERT_NE(partition, nullptr);
  ASSERT_NE(query, nullptr);
  ASSERT_NE(answer, nullptr);
  ASSERT_NE(star_match, nullptr);
  EXPECT_TRUE(Contains(*setup, *kauto));
  EXPECT_TRUE(Contains(*kauto, *partition));
  EXPECT_TRUE(Contains(*query, *answer));
  EXPECT_TRUE(Contains(*answer, *star_match));
  EXPECT_LT(setup->depth, kauto->depth);
  EXPECT_LT(kauto->depth, partition->depth);
  EXPECT_LT(query->depth, answer->depth);
  // Setup finished before the query started.
  EXPECT_LE(setup->ts_us + setup->dur_us, query->ts_us);
}

TEST(ObservabilityE2e, QueryPopulatesPipelineMetrics) {
  MetricsRegistry::Global().Reset();
  const RunningExample ex = MakeRunningExample();
  SystemConfig config;
  config.k = 2;
  auto system = PpsmSystem::Setup(ex.graph, ex.schema, config);
  ASSERT_TRUE(system.ok());
  QueryRequest request;
  request.pattern = ex.query;
  const QueryResponse outcome = system->Execute(request);
  ASSERT_TRUE(outcome.ok());

  EXPECT_EQ(CounterValue("ppsm_queries_total"), 1.0);
  EXPECT_EQ(CounterValue("ppsm_cloud_queries_total"), 1.0);
  EXPECT_EQ(CounterValue("ppsm_setup_runs_total"), 1.0);
  EXPECT_EQ(CounterValue("ppsm_client_responses_total"), 1.0);
  EXPECT_GT(CounterValue("ppsm_network_messages_total"), 0.0);
  EXPECT_GT(CounterValue("ppsm_network_bytes_total"), 0.0);
  for (const char* name :
       {"ppsm_cloud_decomposition_ms", "ppsm_cloud_star_matching_ms",
        "ppsm_cloud_join_ms", "ppsm_cloud_query_ms", "ppsm_query_total_ms",
        "ppsm_client_post_process_ms", "ppsm_network_transfer_ms"}) {
    EXPECT_GE(HistogramCount(name), 1u) << "histogram " << name;
  }
  // Star counters line up with the reported stats.
  EXPECT_EQ(CounterValue("ppsm_cloud_stars_total"),
            static_cast<double>(outcome.cloud.num_stars));
  EXPECT_EQ(HistogramCount("ppsm_cloud_star_match_rows"),
            static_cast<uint64_t>(outcome.cloud.num_stars));
}

TEST(ObservabilityE2e, ShardedQueriesFeedCloudMetrics) {
  // A sharded cloud runs the same query driver as the single server, so
  // its queries land in the same ppsm_cloud_* counters.
  MetricsRegistry::Global().Reset();
  const auto g = GenerateDataset(DbpediaLike(0.01));
  ASSERT_TRUE(g.ok());
  SystemConfig config;
  config.k = 2;
  config.num_shards = 2;
  auto system = PpsmSystem::Setup(*g, g->schema(), config);
  ASSERT_TRUE(system.ok()) << system.status();
  ASSERT_NE(system->cluster(), nullptr);

  // Three distinct queries, each served twice: the repeats hit the plan
  // cache, the first runs miss it.
  std::vector<QueryRequest> workload;
  Rng rng(31);
  for (int i = 0; i < 3; ++i) {
    auto extracted = ExtractQuery(*g, 3 + i, rng);
    ASSERT_TRUE(extracted.ok());
    QueryRequest request;
    request.pattern = extracted->query;
    workload.push_back(request);
    workload.push_back(std::move(request));
  }
  const double queries = CounterValue("ppsm_cloud_queries_total");
  const double hits = CounterValue("ppsm_cloud_plan_cache_hits_total");
  const double misses = CounterValue("ppsm_cloud_plan_cache_misses_total");
  for (const QueryRequest& request : workload) {
    const QueryResponse outcome = system->Execute(request);
    ASSERT_TRUE(outcome.ok()) << outcome.status;
    EXPECT_EQ(outcome.cloud.shards.size(), 2u);
  }
  EXPECT_EQ(CounterValue("ppsm_cloud_queries_total") - queries,
            static_cast<double>(workload.size()));
  EXPECT_GE(CounterValue("ppsm_cloud_plan_cache_hits_total") - hits, 3.0);
  EXPECT_GE(CounterValue("ppsm_cloud_plan_cache_misses_total") - misses, 1.0);
}

TEST(ObservabilityE2e, FailedQueriesStayVisibleInMetrics) {
  MetricsRegistry::Global().Reset();
  const RunningExample ex = MakeRunningExample();
  SystemConfig config;
  config.k = 2;
  auto system = PpsmSystem::Setup(ex.graph, ex.schema, config);
  ASSERT_TRUE(system.ok());

  QueryRequest good_request;
  good_request.pattern = ex.query;
  const QueryResponse good = system->Execute(good_request);
  ASSERT_TRUE(good.ok());

  // A query carrying a label id outside the schema fails at Q -> Qo
  // anonymization; the attempt must still show up in ppsm_queries_total and
  // land in ppsm_queries_failed_total.
  GraphBuilder bad_builder;
  bad_builder.AddVertex(0, {static_cast<LabelId>(100000)});
  const AttributedGraph bad_query = bad_builder.Build().value();
  QueryRequest bad_request;
  bad_request.pattern = bad_query;
  const QueryResponse bad = system->Execute(bad_request);
  EXPECT_FALSE(bad.ok());

  EXPECT_EQ(CounterValue("ppsm_queries_total"), 2.0);
  EXPECT_EQ(CounterValue("ppsm_queries_failed_total"), 1.0);
}

TEST(ObservabilityE2e, ParallelAndSerialRecordIdenticalStarHistograms) {
  const auto g = GenerateDataset(DbpediaLike(0.01));
  ASSERT_TRUE(g.ok());
  Rng rng(11);
  auto extracted = ExtractQuery(*g, 4, rng);
  ASSERT_TRUE(extracted.ok());

  auto run = [&](size_t threads) -> HistogramSnapshot {
    MetricsRegistry::Global().Reset();
    SystemConfig config;
    config.k = 3;
    config.cloud.num_threads = threads;
    auto system = PpsmSystem::Setup(*g, g->schema(), config);
    EXPECT_TRUE(system.ok());
    QueryRequest request;
    request.pattern = extracted->query;
    const QueryResponse outcome = system->Execute(request);
    EXPECT_TRUE(outcome.ok());
    MetricSnapshot snap;
    EXPECT_TRUE(
        MetricsRegistry::Global().Find("ppsm_cloud_star_match_rows", &snap));
    return snap.histogram;
  };

  const HistogramSnapshot serial = run(1);
  const HistogramSnapshot parallel = run(4);
  EXPECT_EQ(serial.count, parallel.count);
  EXPECT_DOUBLE_EQ(serial.sum, parallel.sum);
  ASSERT_EQ(serial.counts.size(), parallel.counts.size());
  for (size_t i = 0; i < serial.counts.size(); ++i) {
    EXPECT_EQ(serial.counts[i], parallel.counts[i]) << "bucket " << i;
  }
  EXPECT_GT(serial.count, 0u);
}

TEST(ObservabilityE2e, DisabledTracerSkipsPipelineSpans) {
  Tracer& tracer = Tracer::Global();
  tracer.Clear();
  tracer.SetEnabled(false);
  const RunningExample ex = MakeRunningExample();
  SystemConfig config;
  config.k = 2;
  auto system = PpsmSystem::Setup(ex.graph, ex.schema, config);
  ASSERT_TRUE(system.ok());
  QueryRequest request;
  request.pattern = ex.query;
  const QueryResponse outcome = system->Execute(request);
  tracer.SetEnabled(true);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(tracer.NumEvents(), 0u);
}

}  // namespace
}  // namespace ppsm
