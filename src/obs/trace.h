#ifndef PPSM_OBS_TRACE_H_
#define PPSM_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace ppsm {

/// One span argument, pre-rendered: `value` is a complete JSON literal
/// (quoted string or number) so exporters concatenate without re-escaping.
struct TraceArg {
  std::string key;
  std::string value;
};

/// One completed span (Chrome trace-event "X" phase) or instant marker
/// ("i" phase, duration < 0 by convention here means instant).
struct TraceEvent {
  std::string name;
  std::string category;
  uint32_t thread_id = 0;  // Stable small id, assigned per OS thread.
  uint32_t depth = 0;      // Span-nesting depth on its thread at open time.
  double ts_us = 0.0;      // Start, microseconds since the tracer's epoch.
  double dur_us = 0.0;     // Duration; instants record 0 and instant=true.
  bool instant = false;
  /// Per-span arguments (query_id, row counts, ...) — the Chrome trace
  /// `args` object, which is what makes a trace per-query drillable.
  std::vector<TraceArg> args;
};

/// Bounded recorder of pipeline spans. Spans are RAII (see TraceSpan /
/// PPSM_TRACE_SPAN below): opening stamps the start, destruction appends one
/// complete event to a fixed-capacity ring buffer, overwriting the oldest
/// once full (soak runs keep the tail, which is what you want to look at).
/// Appending takes a mutex — span close is orders of magnitude rarer than
/// metric increments, so contention is a non-issue even with the parallel
/// unit matcher.
class Tracer {
 public:
  /// The process-wide tracer the pipeline instrumentation records into.
  /// Never destroyed (leaked on purpose) so shutdown order is a non-issue.
  static Tracer& Global();

  explicit Tracer(size_t capacity = 65536);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Tracing is on by default; disabling makes span open/close nearly free
  /// (one relaxed load).
  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Resizes the ring. Existing events are dropped (simplest correct thing).
  void SetCapacity(size_t capacity);
  size_t capacity() const;

  /// Appends one event (span close or instant). Thread-safe.
  void Record(TraceEvent event);
  /// Zero-duration marker event on the calling thread.
  void Instant(std::string name, std::string category = "");

  /// Events currently held, oldest first. Thread-safe copy.
  std::vector<TraceEvent> Events() const;
  size_t NumEvents() const;
  /// Events overwritten because the ring was full.
  uint64_t NumDropped() const;

  void Clear();

  /// Microseconds from the tracer's epoch to `tp`.
  double MicrosSinceEpoch(std::chrono::steady_clock::time_point tp) const {
    return std::chrono::duration<double, std::micro>(tp - epoch_).count();
  }

 private:
  std::atomic<bool> enabled_{true};
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<TraceEvent> ring_;
  size_t capacity_;
  size_t next_ = 0;      // Ring write cursor.
  size_t size_ = 0;      // Events held (<= capacity_).
  uint64_t dropped_ = 0;
};

/// RAII span: stamps the start time on construction, records a complete
/// TraceEvent on destruction. Nesting depth is tracked per thread so
/// exporters and tests can reconstruct the span tree.
class TraceSpan {
 public:
  TraceSpan(Tracer& tracer, std::string name, std::string category = "");
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attaches an argument, visible in the exported Chrome trace `args`
  /// object. Callable any time before destruction; no-ops when the tracer
  /// was disabled at open. Numbers stay numbers in the JSON.
  void AddArg(const std::string& key, uint64_t value);
  void AddArg(const std::string& key, double value);
  void AddArg(const std::string& key, const std::string& value);

 private:
  Tracer* tracer_ = nullptr;  // Null when the tracer was disabled at open.
  std::string name_;
  std::string category_;
  uint32_t depth_ = 0;
  std::chrono::steady_clock::time_point start_;
  std::vector<TraceArg> args_;
};

/// Stable small integer id for the calling OS thread (0 for the first thread
/// that asks, then 1, 2, ...). Used as the Chrome trace `tid`.
uint32_t TraceThreadId();

}  // namespace ppsm

#define PPSM_TRACE_CONCAT_INNER(a, b) a##b
#define PPSM_TRACE_CONCAT(a, b) PPSM_TRACE_CONCAT_INNER(a, b)

/// Opens a span on the global tracer for the rest of the enclosing scope:
///   PPSM_TRACE_SPAN("cloud.star_match");
#define PPSM_TRACE_SPAN(name)                                      \
  ::ppsm::TraceSpan PPSM_TRACE_CONCAT(_ppsm_trace_span_, __LINE__)( \
      ::ppsm::Tracer::Global(), (name))

/// Same, with an explicit category (the Chrome trace `cat` field).
#define PPSM_TRACE_SPAN_CAT(name, category)                        \
  ::ppsm::TraceSpan PPSM_TRACE_CONCAT(_ppsm_trace_span_, __LINE__)( \
      ::ppsm::Tracer::Global(), (name), (category))

#endif  // PPSM_OBS_TRACE_H_
