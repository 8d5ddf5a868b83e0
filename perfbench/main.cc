// ppsm_perfbench: runs one named workload end to end and prints its metrics
// as the last line of stdout (see README.md).
//
//   ppsm_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--trace-out FILE]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>

#include "obs/trace.h"
#include "perfbench.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

// Shares of the serve workload's run.
constexpr double kLatencyShare = 0.2;
constexpr double kThroughputShare = 0.15;
constexpr double kRungShare = 0.06;  // Per ladder rung.
// Consecutive failing rungs that end the ladder.
constexpr int kLadderPatience = 2;

// Walks the fixed ladder of offered rates. A rung passes when its p99
// (failures count as over the limit) meets the limit, the generator kept to
// its schedule, and the backlog stayed what the limit allows; max_rate_qps
// is the completion rate measured at the highest passing rung.
double RunLadder(const Spec& spec, Deployment& deployment,
                 const Inputs& inputs, double rung_seconds, size_t* cursor,
                 AnswerLog* answers, Counts* total) {
  double max_rate_qps = 0.0;
  int failing = 0;
  for (const double rate : spec.ladder_qps) {
    const OpenLoopResult rung = RunOpenLoop(deployment, inputs, rate,
                                            rung_seconds, cursor, answers);
    total->Add(rung.tally);
    std::vector<double> latency = rung.tally.latency_ms;
    latency.insert(latency.end(), rung.tally.failed, INFINITY);
    const double p99 = BlockPercentile(latency, 99.0);
    const double lag_p99 = BlockPercentile(rung.send_lag_ms, 99.0);
    const double backlog_allowed =
        std::max<double>(kCpus, rate * spec.p99_limit_ms / 1e3);
    const bool pass = p99 <= spec.p99_limit_ms &&
                      lag_p99 <= spec.p99_limit_ms / 2 &&
                      rung.backlog_end <= backlog_allowed;
    std::cout << "# rung " << rate << " qps: p99 " << p99 << " ms over "
              << latency.size() << " requests, generator lag p99 " << lag_p99
              << " ms, backlog " << rung.backlog_end << " -> "
              << (pass ? "pass" : "fail") << "\n";
    if (pass) {
      max_rate_qps = rung.completed_qps;
      failing = 0;
    } else if (++failing == kLadderPatience) {
      break;
    }
  }
  return max_rate_qps;
}

void PrintLatency(const Tally& tally, Metrics* metrics) {
  std::cout << "# latency samples: " << tally.latency_ms.size() << " in "
            << tally.latency_ms.size() / kLatencyBlock << " blocks of "
            << kLatencyBlock << "; whole-run p99 "
            << Percentile(tally.latency_ms, 99.0) << " ms\n";
  metrics->Set("latency_p50_ms", BlockPercentile(tally.latency_ms, 50.0),
               "ms");
  metrics->Set("latency_p90_ms", BlockPercentile(tally.latency_ms, 90.0),
               "ms");
  metrics->Set("latency_p99_ms", BlockPercentile(tally.latency_ms, 99.0),
               "ms");
}

// The timed run: setup repeated spec.setup_reps times, then the workload's
// query phase with the program's own tracer off.
ppsm::Status RunTimed(const Spec& spec, const Inputs& inputs, double seconds,
                      Metrics* metrics, Counts* total, AnswerLog* answers) {
  std::vector<double> setup_s;
  std::optional<ppsm::PpsmSystem> system;
  std::unique_ptr<Deployment> deployment;
  for (int rep = 0; rep < spec.setup_reps; ++rep) {
    deployment.reset();
    system.reset();
    const Clock::time_point start = Clock::now();
    ppsm::Result<ppsm::PpsmSystem> built = SetupSystem(spec, inputs);
    if (!built.ok()) return built.status();
    if (!spec.ladder_qps.empty()) {
      ppsm::Result<std::unique_ptr<Deployment>> deployed =
          Deploy(spec, inputs, std::move(built).value());
      if (!deployed.ok()) return deployed.status();
      deployment = std::move(deployed).value();
    } else {
      system.emplace(std::move(built).value());
    }
    setup_s.push_back(MillisBetween(start, Clock::now()) / 1e3);
  }

  size_t cursor = 0;
  Tally query_phase;
  double throughput_qps = 0.0;
  if (!spec.ladder_qps.empty()) {
    // Latency as one waiting caller sees it, throughput with every
    // connection busy, then the open-loop ladder.
    query_phase = RunClosedLoopNet(*deployment, inputs, 1,
                                   seconds * kLatencyShare, &cursor, answers);
    total->Add(query_phase);
    const Tally busy =
        RunClosedLoopNet(*deployment, inputs, kCpus,
                         seconds * kThroughputShare, &cursor, answers);
    total->Add(busy);
    throughput_qps = WindowedRate(busy, seconds * kThroughputShare);
    const double max_rate_qps =
        RunLadder(spec, *deployment, inputs, seconds * kRungShare, &cursor,
                  answers, total);
    metrics->Set("max_rate_qps", max_rate_qps, "1/s");
  } else {
    query_phase = RunClosedLoop(*system, inputs, seconds, &cursor, answers);
    total->Add(query_phase);
    throughput_qps = WindowedRate(query_phase, seconds);
  }

  metrics->Set("setup_s", Median(setup_s), "s");
  PrintLatency(query_phase, metrics);
  metrics->Set("throughput_qps", throughput_qps, "1/s");
  return ppsm::Status::OK();
}

void PrintResult(bool correct, const Counts& total, size_t wrong,
                 const Metrics& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(total.attempted);
  json += ", \"failed\": " + std::to_string(total.failed + wrong);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.values.size(); ++i) {
    const auto& [name, value_unit] = metrics.values[i];
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g",
                  std::isfinite(value_unit.first) ? value_unit.first : -1.0);
    json += (i == 0 ? "\"" : ", \"") + name + "\": {\"value\": " + number +
            ", \"unit\": \"" + value_unit.second + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: ppsm_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE]\n";
    return 2;
  }
  const Spec* spec = FindSpec(args.workload);
  if (spec == nullptr) {
    std::cerr << "unknown workload '" << args.workload << "'\n";
    return 2;
  }
  // The program's built-in span recorder stays off in every run: timed
  // runs measure with tracing off, and the traced run records its own spans.
  ppsm::Tracer::Global().SetEnabled(false);

  ppsm::Result<Inputs> inputs = MakeInputs(*spec, args.seed);
  if (!inputs.ok()) {
    std::cerr << "input generation failed: " << inputs.status() << "\n";
    return 1;
  }
  Metrics metrics;
  Counts total;
  AnswerLog answers;
  bool faithful = true;
  const ppsm::Status status =
      args.trace ? RunTraced(*spec, *inputs, args.seconds, args.trace_out,
                             &metrics, &total, &answers, &faithful)
                 : RunTimed(*spec, *inputs, args.seconds, &metrics, &total,
                            &answers);
  if (!status.ok()) {
    std::cerr << "run failed: " << status << "\n";
    return 1;
  }
  if (!args.trace) {
    metrics.Set("answered_frac",
                total.attempted == 0
                    ? 0.0
                    : static_cast<double>(total.attempted - total.failed) /
                          total.attempted,
                "ratio");
    metrics.Set("peak_rss_mb", PeakRssMb(), "MB");
  }
  const size_t wrong = answers.Verify(*inputs, args.seed);
  std::cout << "# " << total.attempted << " attempted, " << total.failed
            << " failed, " << wrong << " wrong answers"
            << (faithful ? "" : ", replay differs from Serve") << "\n";
  const bool correct = wrong == 0 && faithful && total.attempted > 0;
  PrintResult(correct, total, wrong, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
