#include "cloud/data_owner.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "cloud/cluster.h"
#include "kauto/outsourced_graph.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace ppsm {

namespace {

/// Call-local memo of Algorithm 3's shift masks, keyed by a Rin cell's
/// (column q, vertex v): one query's Rin repeats a few hundred distinct
/// cells across thousands of rows. A slot records which shifts of the cell
/// were tested and which passed, and tests only the shifts a row still
/// needs, so no (cell, shift) is tested twice or needlessly. Open
/// addressing with linear probing, doubling at half load.
class ShiftMaskMemo {
 public:
  /// Sized for a Rin of `cells` cells: distinct cells are far fewer on big
  /// responses, and a small response should not pay for a big table.
  explicit ShiftMaskMemo(size_t cells)
      : slots_(std::bit_ceil(std::clamp<size_t>(cells, 16, 512)),
               Slot{kEmpty, 0, 0}),
        shift_(64 - std::countr_zero(slots_.size())) {}

  /// The shifts among `wanted` that pass for (q, v); `test(missing)`
  /// returns which of the not yet tested shifts `missing` pass.
  template <typename Test>
  uint64_t Passing(size_t q, VertexId v, uint64_t wanted, const Test& test) {
    const uint64_t key = (static_cast<uint64_t>(q) << 32) | v;
    size_t i = Home(key);
    while (slots_[i].key != key) {
      if (slots_[i].key == kEmpty) {
        if (2 * (size_ + 1) > slots_.size()) {
          Grow();
          return Passing(q, v, wanted, test);
        }
        slots_[i].key = key;
        ++size_;
        break;
      }
      i = (i + 1) & (slots_.size() - 1);
    }
    Slot& slot = slots_[i];
    const uint64_t missing = wanted & ~slot.tested;
    if (missing != 0) {
      slot.passed |= test(missing);
      slot.tested |= missing;
    }
    return slot.passed & wanted;
  }

 private:
  struct Slot {
    uint64_t key;
    uint64_t tested;
    uint64_t passed;
  };
  // Column indices are query vertices, far below 2^32 - 1.
  static constexpr uint64_t kEmpty = UINT64_MAX;

  /// Fibonacci hashing: the top bits of key * 2^64/phi.
  size_t Home(uint64_t key) const {
    return static_cast<size_t>((key * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  void Grow() {
    std::vector<Slot> old(slots_.size() * 2, Slot{kEmpty, 0, 0});
    old.swap(slots_);
    --shift_;
    for (const Slot& slot : old) {
      if (slot.key == kEmpty) continue;
      size_t i = Home(slot.key);
      while (slots_[i].key != kEmpty) i = (i + 1) & (slots_.size() - 1);
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  int shift_;  // 64 - log2(slots_.size()).
  size_t size_ = 0;
};

/// Registry handles for the offline pipeline and the client post-process.
/// SetupStats / ClientStats remain the per-call views; these accumulate for
/// export (DESIGN.md "Observability").
struct OwnerMetrics {
  MetricsRegistry::Counter setups;
  MetricsRegistry::Counter responses;
  MetricsRegistry::Counter candidates;
  MetricsRegistry::Counter results;
  MetricsRegistry::Histogram lct_ms;
  MetricsRegistry::Histogram anonymize_ms;
  MetricsRegistry::Histogram kauto_ms;
  MetricsRegistry::Histogram go_ms;
  MetricsRegistry::Histogram setup_total_ms;
  MetricsRegistry::Histogram expand_ms;
  MetricsRegistry::Histogram filter_ms;
  MetricsRegistry::Histogram client_total_ms;
  MetricsRegistry::Gauge upload_bytes;
  MetricsRegistry::Gauge noise_vertices;
  MetricsRegistry::Gauge noise_edges;
  MetricsRegistry::Gauge setup_threads;

  static const OwnerMetrics& Get() {
    static const OwnerMetrics m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      OwnerMetrics metrics;
      metrics.setups =
          r.counter("ppsm_setup_runs_total", "Offline pipeline executions");
      metrics.responses = r.counter("ppsm_client_responses_total",
                                    "Cloud responses post-processed");
      metrics.candidates =
          r.counter("ppsm_client_candidates_total",
                    "(Rin row, shift) pairs examined (Alg. 3)");
      metrics.results =
          r.counter("ppsm_client_results_total", "Exact |R(Q,G)| rows kept");
      metrics.lct_ms = r.histogram("ppsm_setup_lct_ms",
                                   DefaultLatencyBucketsMs(),
                                   "Label-combination search time");
      metrics.anonymize_ms =
          r.histogram("ppsm_setup_anonymize_ms", DefaultLatencyBucketsMs(),
                      "G -> G' label rewrite time");
      metrics.kauto_ms = r.histogram("ppsm_setup_kauto_ms",
                                     DefaultLatencyBucketsMs(),
                                     "k-automorphism construction time");
      metrics.go_ms = r.histogram("ppsm_setup_go_ms",
                                  DefaultLatencyBucketsMs(),
                                  "Go extraction + upload packaging time");
      metrics.setup_total_ms =
          r.histogram("ppsm_setup_total_ms", DefaultLatencyBucketsMs(),
                      "Offline pipeline end-to-end time");
      metrics.expand_ms = r.histogram("ppsm_client_expand_ms",
                                      DefaultLatencyBucketsMs(),
                                      "Shift selection time (Alg. 3)");
      metrics.filter_ms =
          r.histogram("ppsm_client_filter_ms", DefaultLatencyBucketsMs(),
                      "False-positive elimination time (Alg. 3)");
      metrics.client_total_ms =
          r.histogram("ppsm_client_post_process_ms", DefaultLatencyBucketsMs(),
                      "Client post-processing end-to-end time");
      metrics.upload_bytes =
          r.gauge("ppsm_setup_upload_bytes", "Serialized upload package size");
      metrics.noise_vertices =
          r.gauge("ppsm_setup_noise_vertices", "Noise vertices added to Gk");
      metrics.noise_edges =
          r.gauge("ppsm_setup_noise_edges", "Noise edges added to Gk");
      metrics.setup_threads = r.gauge(
          "ppsm_setup_threads", "Workers used by the last offline pipeline");
      return metrics;
    }();
    return m;
  }
};

}  // namespace

Result<DataOwner> DataOwner::Create(AttributedGraph graph,
                                    std::shared_ptr<const Schema> schema,
                                    const DataOwnerOptions& options) {
  if (schema == nullptr) {
    return Status::InvalidArgument("data owner needs the schema");
  }
  if (options.k == 0) return Status::InvalidArgument("k must be >= 1");
  if (options.go_hops == 0) {
    return Status::InvalidArgument("go_hops must be >= 1");
  }

  DataOwner owner;
  owner.graph_ = std::move(graph);
  owner.schema_ = std::move(schema);
  owner.baseline_ = options.baseline_upload;
  owner.go_hops_ = options.go_hops;

  const size_t threads =
      options.setup_threads == 0 ? 1 : options.setup_threads;

  WallTimer total_timer;
  WallTimer phase_timer;
  PPSM_TRACE_SPAN_CAT("setup.data_owner", "setup");
  const OwnerMetrics& metrics = OwnerMetrics::Get();
  metrics.setup_threads.Set(static_cast<double>(threads));

  // Label combination (§5.2) and LCT construction.
  {
    PPSM_TRACE_SPAN_CAT("setup.lct", "setup");
    GroupingOptions grouping = options.grouping;
    grouping.num_threads = threads;
    PPSM_ASSIGN_OR_RETURN(owner.lct_,
                          BuildLct(options.strategy, *owner.schema_,
                                   owner.graph_, grouping));
  }
  owner.setup_stats_.lct_ms = phase_timer.ElapsedMillis();
  metrics.lct_ms.Observe(owner.setup_stats_.lct_ms);

  // G -> G': rewrite labels to group ids (§3).
  phase_timer.Restart();
  Result<AttributedGraph> generalized_or = [&] {
    PPSM_TRACE_SPAN_CAT("setup.label_generalization", "setup");
    return owner.lct_.AnonymizeGraph(owner.graph_);
  }();
  PPSM_ASSIGN_OR_RETURN(const AttributedGraph generalized,
                        std::move(generalized_or));
  owner.setup_stats_.anonymize_ms = phase_timer.ElapsedMillis();
  metrics.anonymize_ms.Observe(owner.setup_stats_.anonymize_ms);

  // G' -> Gk (+AVT).
  phase_timer.Restart();
  KAutomorphismOptions kauto = options.kauto;
  kauto.k = options.k;
  kauto.num_threads = threads;
  {
    PPSM_TRACE_SPAN_CAT("setup.kauto", "setup");
    PPSM_ASSIGN_OR_RETURN(owner.kag_,
                          BuildKAutomorphicGraph(generalized, kauto));
  }
  owner.setup_stats_.kauto_ms = phase_timer.ElapsedMillis();
  metrics.kauto_ms.Observe(owner.setup_stats_.kauto_ms);
  owner.setup_stats_.gk_vertices = owner.kag_.gk.NumVertices();
  owner.setup_stats_.gk_edges = owner.kag_.gk.NumEdges();
  owner.setup_stats_.noise_vertices = owner.kag_.NumNoiseVertices();
  owner.setup_stats_.noise_edges = owner.kag_.NumNoiseEdges();

  // Upload package.
  phase_timer.Restart();
  {
    PPSM_TRACE_SPAN_CAT("setup.upload_build", "setup");
    PPSM_RETURN_IF_ERROR(owner.BuildUpload(threads));
  }
  owner.setup_stats_.go_ms = phase_timer.ElapsedMillis();
  owner.setup_stats_.total_ms = total_timer.ElapsedMillis();
  metrics.go_ms.Observe(owner.setup_stats_.go_ms);
  metrics.setup_total_ms.Observe(owner.setup_stats_.total_ms);
  metrics.upload_bytes.Set(
      static_cast<double>(owner.setup_stats_.upload_bytes));
  metrics.noise_vertices.Set(
      static_cast<double>(owner.setup_stats_.noise_vertices));
  metrics.noise_edges.Set(static_cast<double>(owner.setup_stats_.noise_edges));
  metrics.setups.Increment();
  return owner;
}

Result<DataOwner> DataOwner::Restore(AttributedGraph graph,
                                     std::shared_ptr<const Schema> schema,
                                     Lct lct, KAutomorphicGraph kag,
                                     bool baseline_upload,
                                     uint32_t go_hops) {
  if (schema == nullptr) {
    return Status::InvalidArgument("data owner needs the schema");
  }
  if (go_hops == 0) return Status::InvalidArgument("go_hops must be >= 1");
  PPSM_RETURN_IF_ERROR(lct.Validate(*schema));
  PPSM_RETURN_IF_ERROR(kag.avt.Validate());
  if (kag.num_original_vertices != graph.NumVertices()) {
    return Status::InvalidArgument(
        "Gk original-vertex count disagrees with the graph");
  }
  if (kag.gk.NumVertices() !=
      static_cast<size_t>(kag.avt.k()) * kag.avt.num_rows()) {
    return Status::InvalidArgument("AVT does not cover Gk");
  }
  if (kag.num_original_edges > kag.gk.NumEdges() ||
      kag.num_original_edges != graph.NumEdges()) {
    return Status::InvalidArgument(
        "Gk original-edge count disagrees with the graph");
  }

  DataOwner owner;
  owner.graph_ = std::move(graph);
  owner.schema_ = std::move(schema);
  owner.lct_ = std::move(lct);
  owner.kag_ = std::move(kag);
  owner.baseline_ = baseline_upload;
  owner.go_hops_ = go_hops;
  owner.setup_stats_.gk_vertices = owner.kag_.gk.NumVertices();
  owner.setup_stats_.gk_edges = owner.kag_.gk.NumEdges();
  owner.setup_stats_.noise_vertices = owner.kag_.NumNoiseVertices();
  owner.setup_stats_.noise_edges = owner.kag_.NumNoiseEdges();
  PPSM_RETURN_IF_ERROR(owner.BuildUpload(/*num_threads=*/1));
  return owner;
}

Status DataOwner::BuildUpload(size_t num_threads) {
  PPSM_TRACE_SPAN_CAT("setup.upload_package", "setup");
  UploadPackage package;
  package.k = kag_.avt.k();
  package.num_types = static_cast<uint32_t>(schema_->NumTypes());
  package.type_of_group.reserve(lct_.NumGroups());
  for (GroupId g = 0; g < lct_.NumGroups(); ++g) {
    package.type_of_group.push_back(lct_.TypeOfGroup(g));
  }
  if (baseline_) {
    package.full_gk = kag_.gk;
    setup_stats_.go_vertices = kag_.gk.NumVertices();
    setup_stats_.go_edges = kag_.gk.NumEdges();
  } else {
    PPSM_ASSIGN_OR_RETURN(OutsourcedGraph go,
                          BuildOutsourcedGraph(kag_, num_threads, go_hops_));
    setup_stats_.go_vertices = go.graph.NumVertices();
    setup_stats_.go_edges = go.graph.NumEdges();
    package.go = std::move(go);
    package.avt = kag_.avt;
  }
  upload_bytes_ = package.Serialize();
  setup_stats_.upload_bytes = upload_bytes_.size();
  return Status::OK();
}

Result<ShardingPlan> DataOwner::BuildShardUploads(uint32_t num_shards,
                                                  uint64_t seed) const {
  if (baseline_) {
    return Status::InvalidArgument(
        "sharding needs the outsourced upload; the BAS baseline has no "
        "partitionable B1 block");
  }
  PPSM_ASSIGN_OR_RETURN(const UploadPackage package,
                        UploadPackage::Deserialize(upload_bytes_));
  return ppsm::BuildShardUploads(package, num_shards, seed);
}

Result<AttributedGraph> DataOwner::AnonymizeQuery(
    const AttributedGraph& query) const {
  return lct_.AnonymizeGraph(query);
}

Result<std::vector<uint8_t>> DataOwner::AnonymizeQueryToRequest(
    const AttributedGraph& query) const {
  PPSM_ASSIGN_OR_RETURN(const AttributedGraph qo, AnonymizeQuery(query));
  return SerializeQueryRequest(qo);
}

Result<MatchSet> DataOwner::ProcessResponse(
    const AttributedGraph& query, std::span<const uint8_t> response_payload,
    ClientStats* stats) const {
  WallTimer total_timer;
  PPSM_TRACE_SPAN_CAT("client.process_response", "query");
  PPSM_ASSIGN_OR_RETURN(const MatchSet rin,
                        MatchSet::Deserialize(response_payload));
  const size_t arity = query.NumVertices();
  if (rin.arity() != arity) {
    return Status::InvalidArgument(
        "response arity disagrees with the query");
  }
  // A cell outside the AVT has no image under F_m. The baseline response is
  // R(Qo,Gk) itself and is never shifted; its unknown ids fail the noise
  // test below and the row is dropped.
  if (!baseline_) {
    for (size_t r = 0; r < rin.NumMatches(); ++r) {
      for (const VertexId v : rin.Get(r)) {
        if (!kag_.avt.Contains(v)) {
          return Status::InvalidArgument(
              "response names a vertex outside Gk");
        }
      }
    }
  }

  // Algorithm 3 without materializing R(Qo,Gk) = F_0(Rin) ∪ ... ∪
  // F_{k-1}(Rin): the filter (lines 6-23) is a predicate on one row, so
  // filtering each image F_m(r) and deduplicating the survivors yields the
  // same sorted set as deduplicating the whole expansion first. The
  // baseline response is R(Qo,Gk) already: one shift, the identity.
  const uint32_t shifts = baseline_ ? 1 : kag_.avt.k();
  const auto image = [&](VertexId v, uint32_t m) {
    return m == 0 ? v : kag_.avt.Apply(v, m);
  };

  // Pass 1 (shift selection): keep the (row, shift) pairs whose every cell
  // maps to an original vertex carrying the query vertex's types and
  // labels. A cell (q, v) is tested at most once per shift in a call: the
  // memo's mask has bit j set iff shift base + j passes. A row's surviving
  // shifts are the AND of its cells' masks; the row stops at the first empty
  // AND. Shifts go in windows of 64, one mask word each.
  WallTimer phase_timer;
  std::vector<std::pair<size_t, uint32_t>> survivors;
  {
    PPSM_TRACE_SPAN_CAT("client.expand", "query");
    const size_t original_vertices = kag_.num_original_vertices;
    for (uint32_t base = 0; base < shifts; base += 64) {
      const uint32_t width = std::min<uint32_t>(64, shifts - base);
      const uint64_t all = width == 64 ? ~uint64_t{0}
                                       : (uint64_t{1} << width) - 1;
      ShiftMaskMemo memo(rin.NumMatches() * arity);  // One per window.
      for (size_t r = 0; r < rin.NumMatches(); ++r) {
        const auto row = rin.Get(r);
        uint64_t alive = all;
        for (size_t q = 0; alive != 0 && q < arity; ++q) {
          alive = memo.Passing(q, row[q], alive, [&](uint64_t missing) {
            const auto qv = static_cast<VertexId>(q);
            uint64_t passed = 0;
            for (; missing != 0; missing &= missing - 1) {
              const auto j = static_cast<uint32_t>(std::countr_zero(missing));
              const VertexId w = image(row[q], base + j);
              if (w < original_vertices &&
                  graph_.TypesContainAll(w, query.Types(qv)) &&
                  graph_.LabelsContainAll(w, query.Labels(qv))) {
                passed |= uint64_t{1} << j;
              }
            }
            return passed;
          });
        }
        for (; alive != 0; alive &= alive - 1) {
          survivors.emplace_back(
              r, base + static_cast<uint32_t>(std::countr_zero(alive)));
        }
      }
    }
  }
  const double expand_ms = phase_timer.ElapsedMillis();

  // Pass 2 (verification): injectivity and every query edge on G's sorted
  // CSR (binary search on the shorter list), then sort the few survivors.
  phase_timer.Restart();
  MatchSet results(arity);
  {
    PPSM_TRACE_SPAN_CAT("client.filter", "query");
    std::vector<VertexId> match(arity);
    for (const auto& [r, m] : survivors) {
      const auto row = rin.Get(r);
      for (size_t q = 0; q < arity; ++q) match[q] = image(row[q], m);
      bool keep = !MatchSet::HasDuplicateVertices(match);
      if (keep) {
        query.ForEachEdge([&](VertexId a, VertexId b) {
          if (keep && !graph_.HasEdge(match[a], match[b])) keep = false;
        });
      }
      if (keep) results.Append(match);
    }
    results.SortDedup();
  }

  const double filter_ms = phase_timer.ElapsedMillis();
  const double total_ms = total_timer.ElapsedMillis();
  const size_t candidates = shifts * rin.NumMatches();
  const OwnerMetrics& metrics = OwnerMetrics::Get();
  metrics.expand_ms.Observe(expand_ms);
  metrics.filter_ms.Observe(filter_ms);
  metrics.client_total_ms.Observe(total_ms);
  metrics.candidates.Increment(candidates);
  metrics.results.Increment(results.NumMatches());
  metrics.responses.Increment();
  if (stats != nullptr) {
    stats->expand_ms = expand_ms;
    stats->filter_ms = filter_ms;
    stats->candidates = candidates;
    stats->results = results.NumMatches();
    stats->total_ms = total_ms;
  }
  return results;
}

}  // namespace ppsm
