#include "span_log.h"

#include <fstream>

namespace perfbench {

int SpanLog::Open(const std::string& name, uint64_t query_id) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.query_id = query_id;
  span.start_ms = NowMs();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanLog::Close(int index) {
  spans_[index].end_ms = NowMs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void SpanLog::AddReported(const std::string& name, double start_ms,
                          double dur_ms) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.query_id = span.parent < 0 ? 0 : spans_[span.parent].query_id;
  span.start_ms = start_ms;
  span.end_ms = start_ms + dur_ms;
  spans_.push_back(std::move(span));
}

std::map<std::string, double> SpanLog::SelfMillis() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_ms - spans_[i].start_ms;
    if (spans_[i].parent >= 0) {
      self[spans_[i].parent] -= spans_[i].end_ms - spans_[i].start_ms;
    }
  }
  std::map<std::string, double> by_name;
  for (size_t i = 0; i < spans_.size(); ++i) by_name[spans_[i].name] += self[i];
  return by_name;
}

std::map<std::string, double> SpanLog::TotalMillis() const {
  std::map<std::string, double> by_name;
  for (const Span& span : spans_) {
    by_name[span.name] += span.end_ms - span.start_ms;
  }
  return by_name;
}

bool SpanLog::WriteJsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"parent\":" << s.parent << ",\"query_id\":" << s.query_id
        << ",\"start_ms\":" << s.start_ms << ",\"end_ms\":" << s.end_ms
        << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
