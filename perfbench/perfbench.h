// Shared declarations of the end-to-end benchmark (see README.md).
#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/ppsm_system.h"
#include "net/net_client.h"
#include "net/ppsm_server.h"
#include "net/serving_system.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double MillisBetween(Clock::time_point a, Clock::time_point b);

/// One named workload: the dataset, the deployment and the traffic.
struct Spec {
  std::string name;
  /// Size of a uniform random graph (no hubs, uniformly drawn labels);
  /// 0 vertices selects the DBpedia* preset of graph/generators.h instead.
  size_t uniform_vertices = 0;
  size_t uniform_edges = 0;
  size_t uniform_labels = 0;
  uint32_t k = 2;
  uint32_t go_hops = 1;
  size_t query_edges = 4;
  /// Unique patterns per run. Closed loops cycle through them in order; a
  /// pool larger than the 128-entry plan cache makes every lookup miss.
  size_t pool_size = 512;
  /// > 0: requests draw pool entries with this Zipf skew instead.
  double zipf_skew = 0.0;
  /// Offered rate of the traced run's open loop.
  double nominal_qps = 100.0;
  /// Fixed ladder of offered rates. Non-empty: the timed run serves the
  /// traffic over loopback sockets and climbs the ladder.
  std::vector<double> ladder_qps;
  /// Latency limit on p99 for a ladder rung to count toward max_rate_qps.
  double p99_limit_ms = 20.0;
  /// Setups per run; setup_s reports their median.
  int setup_reps = 3;
};

const Spec* FindSpec(const std::string& name);
ppsm::SystemConfig MakeSystemConfig(const Spec& spec);

/// Everything a run feeds the program, generated from the seed alone.
struct Inputs {
  ppsm::AttributedGraph graph;
  std::vector<ppsm::QueryRequest> requests;  // The unique patterns.
  /// planted[i][q]: the data vertex pattern i's vertex q was carved from.
  std::vector<std::vector<ppsm::VertexId>> planted;
  std::vector<uint32_t> sequence;  // Pattern index of the i-th request sent.
  uint32_t At(size_t i) const { return sequence[i % sequence.size()]; }
};

ppsm::Result<Inputs> MakeInputs(const Spec& spec, uint64_t seed);

/// Builds a query-ready system from the generated graph.
ppsm::Result<ppsm::PpsmSystem> SetupSystem(const Spec& spec,
                                           const Inputs& inputs);

/// Answers seen during a run, checked after the timed phases end. Each
/// thread fills its own log; Merge folds them together.
class AnswerLog {
 public:
  /// Records one successful answer to pattern `index`.
  void Add(uint32_t index, ppsm::MatchSet matches);
  void Merge(AnswerLog&& other);
  /// Every row must be a match of the pattern in G, the planted embedding
  /// must be among them, repeated answers must agree, and a seeded sample of
  /// patterns must equal the ground truth of FindSubgraphMatches. Returns
  /// the number of wrong answers; reasons go to stderr.
  size_t Verify(const Inputs& inputs, uint64_t seed) const;

 private:
  struct Entry {
    ppsm::MatchSet first;  // Full rows of the first answer.
    uint64_t fingerprint = 0;
    size_t repeats = 0;
    size_t mismatches = 0;  // Repeats whose fingerprint differed.
  };
  std::map<uint32_t, Entry> entries_;
};

/// Order-independent digest of a match set.
uint64_t Fingerprint(const ppsm::MatchSet& matches);

/// Attempt/failure counts and per-query latencies of one phase.
struct Tally {
  std::vector<double> latency_ms;  // Successful requests, in send order.
  std::vector<double> done_s;  // Their completion, seconds into the phase.
  size_t attempted = 0;
  size_t failed = 0;
};

/// Requests attempted and failed over a whole run.
struct Counts {
  size_t attempted = 0;
  size_t failed = 0;
  void Add(const Tally& phase) {
    attempted += phase.attempted;
    failed += phase.failed;
  }
};

/// Completions per second: the median over the phase's whole one-second
/// windows, so a host stall costs one window, not the figure.
double WindowedRate(const Tally& tally, double seconds);

/// Nearest-rank percentile of `values` (copied and sorted).
double Percentile(std::vector<double> values, double pct);
double Median(std::vector<double> values);

/// Requests per block of BlockPercentile: p99 leaves 10 samples beyond it.
inline constexpr size_t kLatencyBlock = 1000;

/// Splits `values` (in send order) into consecutive blocks of kLatencyBlock
/// and returns the median of the blocks' percentiles, so a host stall that
/// delays a burst of requests moves one block, not the reported figure.
/// Fewer values than one block: the plain percentile.
double BlockPercentile(const std::vector<double>& values, double pct);
double PeakRssMb();

/// Printed metrics, in insertion order.
struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> values;
  void Set(const std::string& name, double value, const std::string& unit) {
    values.push_back({name, {value, unit}});
  }
};

/// Closed loop: one in-process client calling PpsmSystem::Execute on the
/// request sequence from `*cursor` until `seconds` pass.
Tally RunClosedLoop(const ppsm::PpsmSystem& system, const Inputs& inputs,
                    double seconds, size_t* cursor, AnswerLog* answers);

/// A ppsm_server-style deployment in this process: the serving snapshot, the
/// epoll front end and `connections` loopback NetClients.
struct Deployment {
  std::unique_ptr<ppsm::ServingSystem> serving;
  std::unique_ptr<ppsm::PpsmServer> server;
  std::vector<ppsm::NetClient> clients;
  ~Deployment();
};

/// Threads per role — setup workers, server workers, client connections:
/// one per CPU of the 4-CPU machine the benchmark is sized for.
inline constexpr size_t kCpus = 4;

ppsm::Result<std::unique_ptr<Deployment>> Deploy(const Spec& spec,
                                                 const Inputs& inputs,
                                                 ppsm::PpsmSystem system);

/// Outcome of one open-loop phase at a fixed offered rate.
struct OpenLoopResult {
  Tally tally;              // Latency measured from each request's due time.
  std::vector<double> send_lag_ms;  // Generator lateness, in due order.
  std::vector<double> queue_wait_ms;  // QueryService admission wait.
  size_t refused = 0;       // ResourceExhausted refusals at admission.
  size_t backlog_end = 0;   // Due but not completed when the phase ended.
  double completed_qps = 0.0;  // Completions over first due to last reply.
  /// Latencies of requests due while `during` ran (empty if none).
  std::vector<double> during_ms;
  double during_s = 0.0;    // Wall time of `during`.
};

/// Sends the sequence from `*cursor` at `rate` per second for `seconds`
/// over the deployment's connections, then drains. `during`, when set, runs
/// on its own thread once the phase is half over (the hot-swap probe).
OpenLoopResult RunOpenLoop(Deployment& deployment, const Inputs& inputs,
                           double rate, double seconds, size_t* cursor,
                           AnswerLog* answers,
                           const std::function<void()>& during = {});

/// The first `connections` connections each send back to back for
/// `seconds`; latency is timed from each send.
Tally RunClosedLoopNet(Deployment& deployment, const Inputs& inputs,
                       size_t connections, double seconds, size_t* cursor,
                       AnswerLog* answers);

/// The traced run: fills `metrics` with every per-layer metric and writes
/// its spans to `trace_path` (JSON lines; skipped when empty).
ppsm::Status RunTraced(const Spec& spec, const Inputs& inputs,
                       double seconds, const std::string& trace_path,
                       Metrics* metrics, Counts* total, AnswerLog* answers,
                       bool* faithful);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
