#include "obs/query_profile.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <functional>

#include "obs/json_util.h"

namespace ppsm {

namespace {

void AppendField(std::string* out, const char* key, double value,
                 bool* first) {
  if (!*first) out->append(", ");
  *first = false;
  out->push_back('"');
  out->append(key);
  out->append("\": ");
  out->append(JsonNumber(value));
}

void AppendField(std::string* out, const char* key, uint64_t value,
                 bool* first) {
  if (!*first) out->append(", ");
  *first = false;
  out->push_back('"');
  out->append(key);
  out->append("\": ");
  out->append(std::to_string(value));
}

void AppendField(std::string* out, const char* key, bool value, bool* first) {
  if (!*first) out->append(", ");
  *first = false;
  out->push_back('"');
  out->append(key);
  out->append("\": ");
  out->append(value ? "true" : "false");
}

void AppendField(std::string* out, const char* key, const std::string& value,
                 bool* first) {
  if (!*first) out->append(", ");
  *first = false;
  out->push_back('"');
  out->append(key);
  out->append("\": ");
  out->append(JsonString(value));
}

}  // namespace

std::string StatusCodeLabel(StatusCode code) {
  std::string label;
  bool prev_lower = false;
  for (const char c : std::string_view(StatusCodeToString(code))) {
    if (std::isupper(static_cast<unsigned char>(c))) {
      // Word boundary only after a lowercase run, so "OK" stays "ok".
      if (prev_lower) label.push_back('_');
      label.push_back(
          static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
      prev_lower = false;
    } else {
      label.push_back(c);
      prev_lower = true;
    }
  }
  return label;
}

namespace {

std::string StarToJson(const UnitProfile& star) {
  std::string out = "{";
  bool first = true;
  AppendField(&out, "center", static_cast<uint64_t>(star.center), &first);
  AppendField(&out, "kind", star.kind, &first);
  AppendField(&out, "candidates", star.candidates, &first);
  AppendField(&out, "rows", star.rows, &first);
  AppendField(&out, "estimated_rows", star.estimated_rows, &first);
  AppendField(&out, "truncated", star.truncated, &first);
  AppendField(&out, "skipped", star.skipped, &first);
  out.push_back('}');
  return out;
}

std::string JoinStepToJson(const JoinStepProfile& step) {
  std::string out = "{";
  bool first = true;
  AppendField(&out, "step", static_cast<uint64_t>(step.step), &first);
  AppendField(&out, "star_index", static_cast<uint64_t>(step.star_index),
              &first);
  AppendField(&out, "star_center", static_cast<uint64_t>(step.star_center),
              &first);
  AppendField(&out, "build_rows", step.build_rows, &first);
  AppendField(&out, "output_rows", step.output_rows, &first);
  AppendField(&out, "injectivity_drops", step.injectivity_drops, &first);
  AppendField(&out, "estimated_rows", step.estimated_rows, &first);
  AppendField(&out, "overflow", step.overflow, &first);
  AppendField(&out, "kind", step.kind, &first);
  out.push_back('}');
  return out;
}

std::string ShardToJson(const ShardProfile& shard) {
  std::string out = "{";
  bool first = true;
  AppendField(&out, "shard", static_cast<uint64_t>(shard.shard), &first);
  AppendField(&out, "candidates", shard.candidates, &first);
  AppendField(&out, "rows", shard.rows, &first);
  AppendField(&out, "match_ms", shard.match_ms, &first);
  AppendField(&out, "exchange_ms", shard.exchange_ms, &first);
  AppendField(&out, "exchanged_bytes", shard.exchanged_bytes, &first);
  out.push_back('}');
  return out;
}

/// Cursor over one JSON document. The grammar accepted is exactly what the
/// serializer emits (objects, arrays of objects, strings, numbers, bools,
/// null) — enough for a lossless round trip without pulling in a JSON
/// dependency.
class JsonCursor {
 public:
  explicit JsonCursor(std::string_view text) : text_(text) {}

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool AtEnd() {
    SkipWs();
    return pos_ >= text_.size();
  }

  bool Consume(char c) {
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  char Peek() {
    SkipWs();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  Result<std::string> ParseString() {
    SkipWs();
    if (!Consume('"')) return Status::InvalidArgument("expected '\"'");
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char escaped = text_[pos_++];
      switch (escaped) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Status::InvalidArgument("truncated \\u escape");
          }
          const std::string hex(text_.substr(pos_, 4));
          pos_ += 4;
          out.push_back(static_cast<char>(
              std::strtoul(hex.c_str(), nullptr, 16) & 0xff));
          break;
        }
        default:
          return Status::InvalidArgument("unknown escape in string");
      }
    }
    return Status::InvalidArgument("unterminated string");
  }

  Result<double> ParseNumber() {
    SkipWs();
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return Status::InvalidArgument("expected a number");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      return Status::InvalidArgument("malformed number '" + token + "'");
    }
    return value;
  }

  Result<bool> ParseBool() {
    SkipWs();
    if (text_.substr(pos_).starts_with("true")) {
      pos_ += 4;
      return true;
    }
    if (text_.substr(pos_).starts_with("false")) {
      pos_ += 5;
      return false;
    }
    return Status::InvalidArgument("expected true/false");
  }

  /// Skips one value of any supported type (for unknown keys).
  Status SkipValue() {
    SkipWs();
    const char c = Peek();
    if (c == '"') return ParseString().status();
    if (c == 't' || c == 'f') return ParseBool().status();
    if (c == 'n') {
      if (!text_.substr(pos_).starts_with("null")) {
        return Status::InvalidArgument("expected null");
      }
      pos_ += 4;
      return Status::OK();
    }
    if (c == '{' || c == '[') {
      const char open = c;
      const char close = open == '{' ? '}' : ']';
      Consume(open);
      if (Consume(close)) return Status::OK();
      while (true) {
        if (open == '{') {
          PPSM_RETURN_IF_ERROR(ParseString().status());  // Key.
          if (!Consume(':')) return Status::InvalidArgument("expected ':'");
        }
        PPSM_RETURN_IF_ERROR(SkipValue());
        if (Consume(close)) return Status::OK();
        if (!Consume(',')) return Status::InvalidArgument("expected ','");
      }
    }
    return ParseNumber().status();
  }

  /// Iterates the members of one object, calling `member(key)` with the
  /// cursor positioned at the value. The callback must consume the value.
  Status ParseObject(
      const std::function<Status(const std::string& key)>& member) {
    if (!Consume('{')) return Status::InvalidArgument("expected '{'");
    if (Consume('}')) return Status::OK();
    while (true) {
      PPSM_ASSIGN_OR_RETURN(const std::string key, ParseString());
      if (!Consume(':')) return Status::InvalidArgument("expected ':'");
      PPSM_RETURN_IF_ERROR(member(key));
      if (Consume('}')) return Status::OK();
      if (!Consume(',')) return Status::InvalidArgument("expected ','");
    }
  }

  /// Iterates the elements of one array; the callback consumes each value.
  Status ParseArray(const std::function<Status()>& element) {
    if (!Consume('[')) return Status::InvalidArgument("expected '['");
    if (Consume(']')) return Status::OK();
    while (true) {
      PPSM_RETURN_IF_ERROR(element());
      if (Consume(']')) return Status::OK();
      if (!Consume(',')) return Status::InvalidArgument("expected ','");
    }
  }

 private:
  std::string_view text_;
  size_t pos_ = 0;
};

Result<uint64_t> ParseU64(JsonCursor* cursor) {
  PPSM_ASSIGN_OR_RETURN(const double value, cursor->ParseNumber());
  if (value < 0) return Status::InvalidArgument("expected a non-negative int");
  return static_cast<uint64_t>(value);
}

Status ParseStar(JsonCursor* cursor, UnitProfile* star) {
  return cursor->ParseObject([&](const std::string& key) -> Status {
    if (key == "center") {
      PPSM_ASSIGN_OR_RETURN(const uint64_t v, ParseU64(cursor));
      star->center = static_cast<uint32_t>(v);
    } else if (key == "kind") {
      PPSM_ASSIGN_OR_RETURN(star->kind, cursor->ParseString());
    } else if (key == "candidates") {
      PPSM_ASSIGN_OR_RETURN(star->candidates, ParseU64(cursor));
    } else if (key == "rows") {
      PPSM_ASSIGN_OR_RETURN(star->rows, ParseU64(cursor));
    } else if (key == "estimated_rows") {
      PPSM_ASSIGN_OR_RETURN(star->estimated_rows, cursor->ParseNumber());
    } else if (key == "truncated") {
      PPSM_ASSIGN_OR_RETURN(star->truncated, cursor->ParseBool());
    } else if (key == "skipped") {
      PPSM_ASSIGN_OR_RETURN(star->skipped, cursor->ParseBool());
    } else {
      return cursor->SkipValue();
    }
    return Status::OK();
  });
}

Status ParseJoinStep(JsonCursor* cursor, JoinStepProfile* step) {
  return cursor->ParseObject([&](const std::string& key) -> Status {
    if (key == "step") {
      PPSM_ASSIGN_OR_RETURN(const uint64_t v, ParseU64(cursor));
      step->step = static_cast<uint32_t>(v);
    } else if (key == "star_index") {
      PPSM_ASSIGN_OR_RETURN(const uint64_t v, ParseU64(cursor));
      step->star_index = static_cast<uint32_t>(v);
    } else if (key == "star_center") {
      PPSM_ASSIGN_OR_RETURN(const uint64_t v, ParseU64(cursor));
      step->star_center = static_cast<uint32_t>(v);
    } else if (key == "build_rows") {
      PPSM_ASSIGN_OR_RETURN(step->build_rows, ParseU64(cursor));
    } else if (key == "output_rows") {
      PPSM_ASSIGN_OR_RETURN(step->output_rows, ParseU64(cursor));
    } else if (key == "injectivity_drops") {
      PPSM_ASSIGN_OR_RETURN(step->injectivity_drops, ParseU64(cursor));
    } else if (key == "estimated_rows") {
      PPSM_ASSIGN_OR_RETURN(step->estimated_rows, cursor->ParseNumber());
    } else if (key == "overflow") {
      PPSM_ASSIGN_OR_RETURN(step->overflow, cursor->ParseBool());
    } else if (key == "kind") {
      PPSM_ASSIGN_OR_RETURN(step->kind, cursor->ParseString());
    } else {
      return cursor->SkipValue();
    }
    return Status::OK();
  });
}

Status ParseShard(JsonCursor* cursor, ShardProfile* shard) {
  return cursor->ParseObject([&](const std::string& key) -> Status {
    if (key == "shard") {
      PPSM_ASSIGN_OR_RETURN(const uint64_t v, ParseU64(cursor));
      shard->shard = static_cast<uint32_t>(v);
    } else if (key == "candidates") {
      PPSM_ASSIGN_OR_RETURN(shard->candidates, ParseU64(cursor));
    } else if (key == "rows") {
      PPSM_ASSIGN_OR_RETURN(shard->rows, ParseU64(cursor));
    } else if (key == "match_ms") {
      PPSM_ASSIGN_OR_RETURN(shard->match_ms, cursor->ParseNumber());
    } else if (key == "exchange_ms") {
      PPSM_ASSIGN_OR_RETURN(shard->exchange_ms, cursor->ParseNumber());
    } else if (key == "exchanged_bytes") {
      PPSM_ASSIGN_OR_RETURN(shard->exchanged_bytes, ParseU64(cursor));
    } else {
      return cursor->SkipValue();
    }
    return Status::OK();
  });
}

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

}  // namespace

std::string QueryProfileToJson(const QueryProfile& profile) {
  std::string out = "{";
  bool first = true;
  AppendField(&out, "query_id", profile.query_id, &first);
  AppendField(&out, "status", profile.status, &first);
  AppendField(&out, "timed_out_phase", profile.timed_out_phase, &first);
  AppendField(&out, "queue_wait_ms", profile.queue_wait_ms, &first);
  AppendField(&out, "decomposition_ms", profile.decomposition_ms, &first);
  AppendField(&out, "star_matching_ms", profile.star_matching_ms, &first);
  AppendField(&out, "join_ms", profile.join_ms, &first);
  AppendField(&out, "cloud_ms", profile.cloud_ms, &first);
  AppendField(&out, "network_ms", profile.network_ms, &first);
  AppendField(&out, "client_ms", profile.client_ms, &first);
  AppendField(&out, "client_expand_ms", profile.client_expand_ms, &first);
  AppendField(&out, "client_filter_ms", profile.client_filter_ms, &first);
  AppendField(&out, "total_ms", profile.total_ms, &first);
  AppendField(&out, "aux_build_ms", profile.aux_build_ms, &first);
  AppendField(&out, "aux_bytes", profile.aux_bytes, &first);
  AppendField(&out, "intersect_scalar", profile.intersect_scalar, &first);
  AppendField(&out, "intersect_galloping", profile.intersect_galloping,
              &first);
  AppendField(&out, "intersect_simd", profile.intersect_simd, &first);
  AppendField(&out, "plan_cache_hit", profile.plan_cache_hit, &first);
  AppendField(&out, "overflowed", profile.overflowed, &first);
  AppendField(&out, "num_stars", profile.num_stars, &first);
  AppendField(&out, "rs_size", profile.rs_size, &first);
  AppendField(&out, "result_rows", profile.result_rows, &first);
  AppendField(&out, "peak_join_rows", profile.peak_join_rows, &first);
  AppendField(&out, "client_candidates", profile.client_candidates, &first);
  AppendField(&out, "request_bytes", profile.request_bytes, &first);
  AppendField(&out, "response_bytes", profile.response_bytes, &first);
  out.append(", \"stars\": [");
  for (size_t i = 0; i < profile.stars.size(); ++i) {
    if (i > 0) out.append(", ");
    out.append(StarToJson(profile.stars[i]));
  }
  out.append("], \"join_steps\": [");
  for (size_t i = 0; i < profile.join_steps.size(); ++i) {
    if (i > 0) out.append(", ");
    out.append(JoinStepToJson(profile.join_steps[i]));
  }
  out.push_back(']');
  // Omitted when empty (the single-server common case) so the JSONL record
  // doesn't grow for deployments without a cluster; the parser treats a
  // missing key as an empty list.
  if (!profile.shards.empty()) {
    out.append(", \"shards\": [");
    for (size_t i = 0; i < profile.shards.size(); ++i) {
      if (i > 0) out.append(", ");
      out.append(ShardToJson(profile.shards[i]));
    }
    out.push_back(']');
  }
  out.push_back('}');
  return out;
}

Result<QueryProfile> QueryProfileFromJson(std::string_view json) {
  JsonCursor cursor(json);
  QueryProfile profile;
  PPSM_RETURN_IF_ERROR(
      cursor.ParseObject([&](const std::string& key) -> Status {
        if (key == "query_id") {
          PPSM_ASSIGN_OR_RETURN(profile.query_id, ParseU64(&cursor));
        } else if (key == "status") {
          PPSM_ASSIGN_OR_RETURN(profile.status, cursor.ParseString());
        } else if (key == "timed_out_phase") {
          PPSM_ASSIGN_OR_RETURN(profile.timed_out_phase,
                                cursor.ParseString());
        } else if (key == "queue_wait_ms") {
          PPSM_ASSIGN_OR_RETURN(profile.queue_wait_ms, cursor.ParseNumber());
        } else if (key == "decomposition_ms") {
          PPSM_ASSIGN_OR_RETURN(profile.decomposition_ms,
                                cursor.ParseNumber());
        } else if (key == "star_matching_ms") {
          PPSM_ASSIGN_OR_RETURN(profile.star_matching_ms,
                                cursor.ParseNumber());
        } else if (key == "join_ms") {
          PPSM_ASSIGN_OR_RETURN(profile.join_ms, cursor.ParseNumber());
        } else if (key == "cloud_ms") {
          PPSM_ASSIGN_OR_RETURN(profile.cloud_ms, cursor.ParseNumber());
        } else if (key == "network_ms") {
          PPSM_ASSIGN_OR_RETURN(profile.network_ms, cursor.ParseNumber());
        } else if (key == "client_ms") {
          PPSM_ASSIGN_OR_RETURN(profile.client_ms, cursor.ParseNumber());
        } else if (key == "client_expand_ms") {
          PPSM_ASSIGN_OR_RETURN(profile.client_expand_ms,
                                cursor.ParseNumber());
        } else if (key == "client_filter_ms") {
          PPSM_ASSIGN_OR_RETURN(profile.client_filter_ms,
                                cursor.ParseNumber());
        } else if (key == "total_ms") {
          PPSM_ASSIGN_OR_RETURN(profile.total_ms, cursor.ParseNumber());
        } else if (key == "aux_build_ms") {
          PPSM_ASSIGN_OR_RETURN(profile.aux_build_ms, cursor.ParseNumber());
        } else if (key == "aux_bytes") {
          PPSM_ASSIGN_OR_RETURN(profile.aux_bytes, ParseU64(&cursor));
        } else if (key == "intersect_scalar") {
          PPSM_ASSIGN_OR_RETURN(profile.intersect_scalar, ParseU64(&cursor));
        } else if (key == "intersect_galloping") {
          PPSM_ASSIGN_OR_RETURN(profile.intersect_galloping,
                                ParseU64(&cursor));
        } else if (key == "intersect_simd") {
          PPSM_ASSIGN_OR_RETURN(profile.intersect_simd, ParseU64(&cursor));
        } else if (key == "plan_cache_hit") {
          PPSM_ASSIGN_OR_RETURN(profile.plan_cache_hit, cursor.ParseBool());
        } else if (key == "overflowed") {
          PPSM_ASSIGN_OR_RETURN(profile.overflowed, cursor.ParseBool());
        } else if (key == "num_stars") {
          PPSM_ASSIGN_OR_RETURN(profile.num_stars, ParseU64(&cursor));
        } else if (key == "rs_size") {
          PPSM_ASSIGN_OR_RETURN(profile.rs_size, ParseU64(&cursor));
        } else if (key == "result_rows") {
          PPSM_ASSIGN_OR_RETURN(profile.result_rows, ParseU64(&cursor));
        } else if (key == "peak_join_rows") {
          PPSM_ASSIGN_OR_RETURN(profile.peak_join_rows, ParseU64(&cursor));
        } else if (key == "client_candidates") {
          PPSM_ASSIGN_OR_RETURN(profile.client_candidates, ParseU64(&cursor));
        } else if (key == "request_bytes") {
          PPSM_ASSIGN_OR_RETURN(profile.request_bytes, ParseU64(&cursor));
        } else if (key == "response_bytes") {
          PPSM_ASSIGN_OR_RETURN(profile.response_bytes, ParseU64(&cursor));
        } else if (key == "stars") {
          return cursor.ParseArray([&]() -> Status {
            UnitProfile star;
            PPSM_RETURN_IF_ERROR(ParseStar(&cursor, &star));
            profile.stars.push_back(star);
            return Status::OK();
          });
        } else if (key == "join_steps") {
          return cursor.ParseArray([&]() -> Status {
            JoinStepProfile step;
            PPSM_RETURN_IF_ERROR(ParseJoinStep(&cursor, &step));
            profile.join_steps.push_back(step);
            return Status::OK();
          });
        } else if (key == "shards") {
          return cursor.ParseArray([&]() -> Status {
            ShardProfile shard;
            PPSM_RETURN_IF_ERROR(ParseShard(&cursor, &shard));
            profile.shards.push_back(shard);
            return Status::OK();
          });
        } else {
          return cursor.SkipValue();
        }
        return Status::OK();
      }));
  if (!cursor.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after the profile object");
  }
  return profile;
}

CostModelCalibration SummarizeCostModelCalibration(
    std::span<const QueryProfile> profiles) {
  CostModelCalibration calibration;
  std::vector<double> star_ratios;
  std::vector<double> join_ratios;
  // Per-kind sample buckets in reporting order; unknown kind strings fold
  // into a trailing bucket so a forward-compatible log never drops samples.
  const char* kKinds[] = {"star", "path", "tree", "unknown"};
  std::vector<double> kind_ratios[4];
  for (const QueryProfile& profile : profiles) {
    for (const UnitProfile& star : profile.stars) {
      // Truncated units have max_rows-clipped actuals: excluded — the cap,
      // not the model, decided the row count.
      if (star.truncated || star.estimated_rows <= 0.0) continue;
      const double ratio = (star.estimated_rows + 1.0) /
                           (static_cast<double>(star.rows) + 1.0);
      star_ratios.push_back(ratio);
      size_t bucket = 3;
      for (size_t i = 0; i < 3; ++i) {
        if (star.kind == kKinds[i]) bucket = i;
      }
      kind_ratios[bucket].push_back(ratio);
    }
    for (const JoinStepProfile& step : profile.join_steps) {
      if (step.overflow || step.estimated_rows <= 0.0) continue;
      join_ratios.push_back((step.estimated_rows + 1.0) /
                            (static_cast<double>(step.output_rows) + 1.0));
    }
  }
  std::sort(star_ratios.begin(), star_ratios.end());
  std::sort(join_ratios.begin(), join_ratios.end());
  calibration.star_samples = star_ratios.size();
  calibration.join_samples = join_ratios.size();
  calibration.star_ratio_p50 = Percentile(star_ratios, 50.0);
  calibration.star_ratio_p90 = Percentile(star_ratios, 90.0);
  calibration.star_ratio_p99 = Percentile(star_ratios, 99.0);
  calibration.join_ratio_p50 = Percentile(join_ratios, 50.0);
  calibration.join_ratio_p90 = Percentile(join_ratios, 90.0);
  calibration.join_ratio_p99 = Percentile(join_ratios, 99.0);
  for (const double r : star_ratios) {
    calibration.star_mean_abs_log2 += std::abs(std::log2(r));
  }
  for (const double r : join_ratios) {
    calibration.join_mean_abs_log2 += std::abs(std::log2(r));
  }
  if (!star_ratios.empty()) {
    calibration.star_mean_abs_log2 /=
        static_cast<double>(star_ratios.size());
  }
  if (!join_ratios.empty()) {
    calibration.join_mean_abs_log2 /=
        static_cast<double>(join_ratios.size());
  }
  for (size_t b = 0; b < 4; ++b) {
    std::vector<double>& ratios = kind_ratios[b];
    if (ratios.empty()) continue;
    std::sort(ratios.begin(), ratios.end());
    UnitKindCalibration kind;
    kind.kind = kKinds[b];
    kind.samples = ratios.size();
    kind.ratio_p50 = Percentile(ratios, 50.0);
    kind.ratio_p90 = Percentile(ratios, 90.0);
    kind.ratio_p99 = Percentile(ratios, 99.0);
    for (const double r : ratios) kind.mean_abs_log2 += std::abs(std::log2(r));
    kind.mean_abs_log2 /= static_cast<double>(ratios.size());
    calibration.per_kind.push_back(std::move(kind));
  }
  return calibration;
}

}  // namespace ppsm
