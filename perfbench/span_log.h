// In-memory spans recorded by the benchmark around the calls it makes into
// each layer of the program.
#ifndef PERFBENCH_SPAN_LOG_H_
#define PERFBENCH_SPAN_LOG_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench.h"

namespace perfbench {

class SpanLog {
 public:
  struct Span {
    std::string name;
    double start_ms = 0.0;  // Since the log was created.
    double end_ms = 0.0;
    int parent = -1;        // Index into spans(); -1 for a root.
    uint64_t query_id = 0;
  };

  /// Opens a span under the innermost open one; returns its index.
  int Open(const std::string& name, uint64_t query_id);
  void Close(int index);
  /// Records a closed child of the innermost open span from a duration the
  /// program reported for work it did inside the call that span wraps.
  void AddReported(const std::string& name, double start_ms, double dur_ms);

  double NowMs() const { return MillisBetween(epoch_, Clock::now()); }
  const std::vector<Span>& spans() const { return spans_; }

  /// Per span name: summed duration minus the part covered by children.
  std::map<std::string, double> SelfMillis() const;
  /// Per span name: summed duration.
  std::map<std::string, double> TotalMillis() const;
  /// Writes one JSON object per span.
  bool WriteJsonl(const std::string& path) const;

 private:
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span on a SpanLog.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const std::string& name, uint64_t query_id)
      : log_(log), index_(log.Open(name, query_id)) {}
  ~ScopedSpan() { log_.Close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  double start_ms() const { return log_.spans()[index_].start_ms; }

 private:
  SpanLog& log_;
  int index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_LOG_H_
