// Workload definitions, input generation, the in-process closed loop and
// the answer check.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <iostream>
#include <unordered_set>

#include "graph/generators.h"
#include "graph/query_extractor.h"
#include "match/decomposition.h"
#include "match/subgraph_matcher.h"
#include "perfbench.h"
#include "util/random.h"
#include "util/zipf.h"

namespace perfbench {

using ppsm::Result;
using ppsm::Status;

double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

namespace {

// Why these three: README.md. Every workload keeps the per-query cost
// distribution narrow enough that a run's figures do not hinge on which few
// queries the seed drew (README.md, "Datasets").
std::vector<Spec> MakeSpecs() {
  std::vector<Spec> specs;
  {
    Spec s;
    s.name = "uniform-client-k4";
    s.uniform_vertices = 3000;
    s.uniform_edges = 9000;
    s.uniform_labels = 100;
    s.k = 4;
    s.go_hops = 1;
    s.query_edges = 5;
    s.pool_size = 8192;
    s.nominal_qps = 100.0;
    s.setup_reps = 9;  // One setup takes ~20 ms.
    specs.push_back(s);
  }
  {
    Spec s;
    s.name = "uniform-cloud-k2";
    s.uniform_vertices = 20000;
    s.uniform_edges = 80000;
    s.uniform_labels = 200;
    s.k = 2;
    s.go_hops = 2;
    s.query_edges = 12;
    s.pool_size = 4096;
    s.nominal_qps = 500.0;
    s.setup_reps = 5;
    specs.push_back(s);
  }
  {
    Spec s;
    s.name = "dbp-serve-open";
    s.k = 2;
    s.go_hops = 1;
    s.query_edges = 4;
    s.pool_size = 512;
    s.zipf_skew = 1.0;
    s.nominal_qps = 2000.0;
    s.ladder_qps = {3000, 5000, 7000, 8000, 9000, 10000, 11000, 12000, 13000};
    specs.push_back(s);
  }
  return specs;
}

// Length of the precomputed Zipf request sequence (wraps around).
constexpr size_t kZipfSequence = size_t{1} << 18;

// Patterns whose full answer is compared with FindSubgraphMatches per run.
constexpr size_t kGroundTruthSample = 16;

uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

}  // namespace

const Spec* FindSpec(const std::string& name) {
  static const std::vector<Spec> specs = MakeSpecs();
  for (const Spec& spec : specs) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

ppsm::SystemConfig MakeSystemConfig(const Spec& spec) {
  ppsm::SystemConfig config;
  config.method = ppsm::Method::kEff;
  config.k = spec.k;
  config.go_hops = spec.go_hops;
  config.setup_threads = kCpus;
  return config;
}

Result<Inputs> MakeInputs(const Spec& spec, uint64_t seed) {
  Inputs inputs;
  const uint64_t graph_seed = Mix(seed * 2 + 1);
  Result<ppsm::AttributedGraph> graph =
      spec.uniform_vertices > 0
          ? ppsm::GenerateUniformRandomGraph(spec.uniform_vertices,
                                             spec.uniform_edges,
                                             spec.uniform_labels, graph_seed)
          : [&] {
              ppsm::DatasetConfig config = ppsm::DbpediaLike(1.0);
              config.seed = graph_seed;
              return ppsm::GenerateDataset(config);
            }();
  if (!graph.ok()) return graph.status();
  inputs.graph = std::move(graph).value();

  // Unique patterns: distinct canonical signatures, so no two pool entries
  // are the same query.
  ppsm::Rng rng(Mix(seed * 2 + 2));
  std::unordered_set<std::string> seen;
  for (size_t attempts = 0; inputs.requests.size() < spec.pool_size;
       ++attempts) {
    if (attempts > 20 * spec.pool_size) {
      return Status::FailedPrecondition("cannot extract enough unique queries");
    }
    Result<ppsm::ExtractedQuery> query =
        ppsm::ExtractQuery(inputs.graph, spec.query_edges, rng);
    if (!query.ok()) continue;
    if (!seen.insert(ppsm::QoSignature(query->query)).second) continue;
    inputs.requests.emplace_back().pattern = std::move(query->query);
    inputs.planted.push_back(std::move(query->planted));
  }

  if (spec.zipf_skew > 0.0) {
    const ppsm::ZipfDistribution zipf(inputs.requests.size(),
                                      spec.zipf_skew);
    inputs.sequence.resize(kZipfSequence);
    for (uint32_t& index : inputs.sequence) {
      index = static_cast<uint32_t>(zipf.Sample(rng));
    }
  } else {
    inputs.sequence.resize(inputs.requests.size());
    for (size_t i = 0; i < inputs.sequence.size(); ++i) {
      inputs.sequence[i] = static_cast<uint32_t>(i);
    }
  }
  return inputs;
}

Result<ppsm::PpsmSystem> SetupSystem(const Spec& spec, const Inputs& inputs) {
  return ppsm::PpsmSystem::Setup(inputs.graph, inputs.graph.schema(),
                                 MakeSystemConfig(spec));
}

uint64_t Fingerprint(const ppsm::MatchSet& matches) {
  uint64_t sum = matches.NumMatches();
  for (size_t r = 0; r < matches.NumMatches(); ++r) {
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (const ppsm::VertexId v : matches.Get(r)) h = Mix(h ^ v);
    sum += h;
  }
  return sum;
}

void AnswerLog::Add(uint32_t index, ppsm::MatchSet matches) {
  const uint64_t fingerprint = Fingerprint(matches);
  auto [it, inserted] = entries_.try_emplace(index);
  Entry& entry = it->second;
  if (inserted) {
    entry.first = std::move(matches);
    entry.fingerprint = fingerprint;
    return;
  }
  ++entry.repeats;
  if (fingerprint != entry.fingerprint) ++entry.mismatches;
}

void AnswerLog::Merge(AnswerLog&& other) {
  for (auto& [index, theirs] : other.entries_) {
    auto [it, inserted] = entries_.try_emplace(index);
    Entry& mine = it->second;
    if (inserted) {
      mine = std::move(theirs);
      continue;
    }
    mine.repeats += theirs.repeats + 1;
    mine.mismatches += theirs.mismatches;
    if (theirs.fingerprint != mine.fingerprint) ++mine.mismatches;
  }
}

namespace {

// Returns "" when every row of `answer` is a match of `query` in `graph`
// and `planted` is one of them; otherwise the first problem found.
std::string CheckRows(const ppsm::AttributedGraph& query,
                      const std::vector<ppsm::VertexId>& planted,
                      const ppsm::AttributedGraph& graph,
                      const ppsm::MatchSet& answer) {
  if (answer.arity() != query.NumVertices()) return "wrong arity";
  bool planted_found = false;
  for (size_t r = 0; r < answer.NumMatches(); ++r) {
    const auto row = answer.Get(r);
    if (ppsm::MatchSet::HasDuplicateVertices(row)) return "non-injective row";
    for (ppsm::VertexId q = 0; q < row.size(); ++q) {
      if (row[q] >= graph.NumVertices() ||
          !ppsm::VertexCompatible(query, q, graph, row[q])) {
        return "row binds an incompatible vertex";
      }
    }
    bool edges_ok = true;
    query.ForEachEdge([&](ppsm::VertexId a, ppsm::VertexId b) {
      edges_ok = edges_ok && graph.HasEdge(row[a], row[b]);
    });
    if (!edges_ok) return "row misses a query edge";
    planted_found = planted_found ||
                    std::equal(row.begin(), row.end(), planted.begin(),
                               planted.end());
  }
  return planted_found ? "" : "planted embedding missing";
}

}  // namespace

size_t AnswerLog::Verify(const Inputs& inputs, uint64_t seed) const {
  size_t wrong = 0;
  std::vector<uint32_t> answered;
  for (const auto& [index, entry] : entries_) {
    answered.push_back(index);
    const std::string problem =
        CheckRows(inputs.requests[index].pattern, inputs.planted[index],
                  inputs.graph, entry.first);
    if (!problem.empty()) {
      std::cerr << "wrong answer to pattern " << index << ": " << problem
                << "\n";
      ++wrong;
    }
    if (entry.mismatches > 0) {
      std::cerr << "pattern " << index << ": " << entry.mismatches
                << " repeated answers differ from the first\n";
      wrong += entry.mismatches;
    }
  }
  ppsm::Rng rng(Mix(seed * 2 + 3));
  rng.Shuffle(answered);
  answered.resize(std::min(answered.size(), kGroundTruthSample));
  for (const uint32_t index : answered) {
    ppsm::MatchSet truth =
        ppsm::FindSubgraphMatches(inputs.requests[index].pattern,
                                  inputs.graph);
    ppsm::MatchSet got = entries_.at(index).first;
    const size_t rows = got.NumMatches();
    got.SortDedup();
    truth.SortDedup();
    if (got.NumMatches() != rows || !(got == truth)) {
      std::cerr << "pattern " << index << ": answer (" << rows
                << " rows) differs from the ground truth ("
                << truth.NumMatches() << " rows)\n";
      ++wrong;
    }
  }
  return wrong;
}

double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = std::clamp<size_t>(
      static_cast<size_t>(std::ceil(pct / 100.0 * values.size())), 1,
      values.size());
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

double BlockPercentile(const std::vector<double>& values, double pct) {
  if (values.size() < kLatencyBlock) return Percentile(values, pct);
  std::vector<double> per_block;
  for (size_t begin = 0; begin + kLatencyBlock <= values.size();
       begin += kLatencyBlock) {
    per_block.push_back(Percentile(
        std::vector<double>(values.begin() + begin,
                            values.begin() + begin + kLatencyBlock),
        pct));
  }
  return Median(std::move(per_block));
}

double WindowedRate(const Tally& tally, double seconds) {
  std::vector<double> per_window(std::max<size_t>(1, seconds), 0.0);
  for (const double t : tally.done_s) {
    const size_t window = static_cast<size_t>(t);
    if (window < per_window.size()) ++per_window[window];
  }
  return Median(std::move(per_window));
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

Tally RunClosedLoop(const ppsm::PpsmSystem& system, const Inputs& inputs,
                    double seconds, size_t* cursor, AnswerLog* answers) {
  Tally tally;
  const Clock::time_point phase_start = Clock::now();
  const Clock::time_point end =
      phase_start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds));
  while (Clock::now() < end) {
    const uint32_t index = inputs.At((*cursor)++);
    const Clock::time_point start = Clock::now();
    ppsm::QueryResponse response = system.Execute(inputs.requests[index]);
    const Clock::time_point done = Clock::now();
    ++tally.attempted;
    if (!response.ok()) {
      ++tally.failed;
      continue;
    }
    tally.latency_ms.push_back(MillisBetween(start, done));
    tally.done_s.push_back(MillisBetween(phase_start, done) / 1e3);
    answers->Add(index, std::move(response.matches));
  }
  return tally;
}

}  // namespace perfbench
