#include "obs/query_profile.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <type_traits>
#include <variant>

#include "obs/json_util.h"

namespace ppsm {

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

  /// The raw token of one JSON number; the caller decides its type.
  Result<std::string_view> NumberToken() {
    SkipWs();
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return Status::InvalidArgument("expected a number");
    return text_.substr(start, pos_ - start);
  }

  Result<double> ParseNumber() {
    PPSM_ASSIGN_OR_RETURN(const std::string_view view, NumberToken());
    const std::string token(view);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      return Status::InvalidArgument("malformed number '" + token + "'");
    }
    return value;
  }

  /// An unsigned integer that fits `Int` exactly: a fraction, an exponent,
  /// a sign or an out-of-range value is an error, never a rounded or
  /// narrowed number.
  template <typename Int>
  Result<Int> ParseUnsigned() {
    PPSM_ASSIGN_OR_RETURN(const std::string_view token, NumberToken());
    Int value = 0;
    const auto [end, error] =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (error != std::errc() || end != token.data() + token.size()) {
      return Status::InvalidArgument("expected an unsigned " +
                                     std::to_string(8 * sizeof(Int)) +
                                     "-bit integer, got '" +
                                     std::string(token) + "'");
    }
    return value;
  }

  /// Consumes `word` (a JSON literal) if the next token is exactly it.
  bool ConsumeWord(std::string_view word) {
    SkipWs();
    if (!text_.substr(pos_).starts_with(word)) return false;
    pos_ += word.size();
    return true;
  }

  Result<bool> ParseBool() {
    if (ConsumeWord("true")) return true;
    if (ConsumeWord("false")) return false;
    return Status::InvalidArgument("expected true/false");
  }

  /// Skips one value of any supported type (for unknown keys).
  Status SkipValue() {
    const char c = Peek();
    if (c == '"') return ParseString().status();
    if (c == 't' || c == 'f') return ParseBool().status();
    if (c == 'n') {
      return ConsumeWord("null") ? Status::OK()
                                 : Status::InvalidArgument("expected null");
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

/// Anything a profile member can be: an unsigned integer of either width, a
/// double, a flag, a string, or a list of nested records.
template <typename Record>
using Member = std::variant<uint32_t Record::*, uint64_t Record::*,
                            double Record::*, bool Record::*,
                            std::string Record::*,
                            std::vector<UnitProfile> Record::*,
                            std::vector<JoinStepProfile> Record::*,
                            std::vector<ShardProfile> Record::*>;

/// One schema entry: the JSON key and the member it names. A list marked
/// `omit_empty` is left out of the record while it has no elements.
template <typename Record>
struct Field {
  std::string_view key;
  Member<Record> member;
  bool omit_empty = false;
};

/// The per-query schema, written once. Each table lists its record's
/// members in serialization order; the writer and the reader below walk
/// it, so a member added here is logged, sent and parsed back with no other
/// edit.
template <typename Record>
struct Schema;

template <>
struct Schema<UnitProfile> {
  static constexpr Field<UnitProfile> kFields[] = {
      {"center", &UnitProfile::center},
      {"kind", &UnitProfile::kind},
      {"candidates", &UnitProfile::candidates},
      {"rows", &UnitProfile::rows},
      {"estimated_rows", &UnitProfile::estimated_rows},
      {"truncated", &UnitProfile::truncated},
      {"skipped", &UnitProfile::skipped},
  };
};

template <>
struct Schema<JoinStepProfile> {
  static constexpr Field<JoinStepProfile> kFields[] = {
      {"step", &JoinStepProfile::step},
      {"star_index", &JoinStepProfile::star_index},
      {"star_center", &JoinStepProfile::star_center},
      {"build_rows", &JoinStepProfile::build_rows},
      {"output_rows", &JoinStepProfile::output_rows},
      {"injectivity_drops", &JoinStepProfile::injectivity_drops},
      {"estimated_rows", &JoinStepProfile::estimated_rows},
      {"overflow", &JoinStepProfile::overflow},
      {"kind", &JoinStepProfile::kind},
  };
};

template <>
struct Schema<ShardProfile> {
  static constexpr Field<ShardProfile> kFields[] = {
      {"shard", &ShardProfile::shard},
      {"candidates", &ShardProfile::candidates},
      {"rows", &ShardProfile::rows},
      {"match_ms", &ShardProfile::match_ms},
      {"exchange_ms", &ShardProfile::exchange_ms},
      {"exchanged_bytes", &ShardProfile::exchanged_bytes},
  };
};

template <>
struct Schema<QueryProfile> {
  static constexpr Field<QueryProfile> kFields[] = {
      {"query_id", &QueryProfile::query_id},
      {"status", &QueryProfile::status},
      {"timed_out_phase", &QueryProfile::timed_out_phase},
      {"queue_wait_ms", &QueryProfile::queue_wait_ms},
      {"decomposition_ms", &QueryProfile::decomposition_ms},
      {"star_matching_ms", &QueryProfile::star_matching_ms},
      {"join_ms", &QueryProfile::join_ms},
      {"cloud_ms", &QueryProfile::cloud_ms},
      {"network_ms", &QueryProfile::network_ms},
      {"client_ms", &QueryProfile::client_ms},
      {"client_expand_ms", &QueryProfile::client_expand_ms},
      {"client_filter_ms", &QueryProfile::client_filter_ms},
      {"total_ms", &QueryProfile::total_ms},
      {"aux_build_ms", &QueryProfile::aux_build_ms},
      {"aux_bytes", &QueryProfile::aux_bytes},
      {"intersect_scalar", &QueryProfile::intersect_scalar},
      {"intersect_galloping", &QueryProfile::intersect_galloping},
      {"intersect_simd", &QueryProfile::intersect_simd},
      {"plan_cache_hit", &QueryProfile::plan_cache_hit},
      {"overflowed", &QueryProfile::overflowed},
      {"num_stars", &QueryProfile::num_stars},
      {"rs_size", &QueryProfile::rs_size},
      {"result_rows", &QueryProfile::result_rows},
      {"peak_join_rows", &QueryProfile::peak_join_rows},
      {"client_candidates", &QueryProfile::client_candidates},
      {"request_bytes", &QueryProfile::request_bytes},
      {"response_bytes", &QueryProfile::response_bytes},
      {"stars", &QueryProfile::stars},
      {"join_steps", &QueryProfile::join_steps},
      // Omitted when empty (the single-server common case) so the record
      // doesn't grow for deployments without a cluster; a missing key
      // parses as an empty list.
      {"shards", &QueryProfile::shards, /*omit_empty=*/true},
  };
};

template <typename Record>
void AppendRecord(const Record& record, std::string* out);

template <typename T>
void AppendValue(const T& value, std::string* out) {
  if constexpr (std::is_same_v<T, bool>) {
    out->append(value ? "true" : "false");
  } else if constexpr (std::is_integral_v<T>) {
    out->append(std::to_string(value));
  } else if constexpr (std::is_same_v<T, double>) {
    out->append(JsonNumber(value));
  } else if constexpr (std::is_same_v<T, std::string>) {
    out->append(JsonString(value));
  } else {  // A list of nested records.
    out->push_back('[');
    for (size_t i = 0; i < value.size(); ++i) {
      if (i > 0) out->append(", ");
      AppendRecord(value[i], out);
    }
    out->push_back(']');
  }
}

template <typename Record>
void AppendRecord(const Record& record, std::string* out) {
  out->push_back('{');
  bool first = true;
  for (const Field<Record>& field : Schema<Record>::kFields) {
    std::visit(
        [&](auto member) {
          const auto& value = record.*member;
          if constexpr (requires { value.empty(); }) {
            if (field.omit_empty && value.empty()) return;
          }
          if (!first) out->append(", ");
          first = false;
          out->push_back('"');
          out->append(field.key);
          out->append("\": ");
          AppendValue(value, out);
        },
        field.member);
  }
  out->push_back('}');
}

template <typename Record>
Status ParseRecord(JsonCursor* cursor, Record* record);

template <typename T>
Status ParseValue(JsonCursor* cursor, T* value) {
  if constexpr (std::is_same_v<T, bool>) {
    PPSM_ASSIGN_OR_RETURN(*value, cursor->ParseBool());
  } else if constexpr (std::is_integral_v<T>) {
    PPSM_ASSIGN_OR_RETURN(*value, cursor->ParseUnsigned<T>());
  } else if constexpr (std::is_same_v<T, double>) {
    PPSM_ASSIGN_OR_RETURN(*value, cursor->ParseNumber());
  } else if constexpr (std::is_same_v<T, std::string>) {
    PPSM_ASSIGN_OR_RETURN(*value, cursor->ParseString());
  } else {  // A list of nested records.
    return cursor->ParseArray([&]() -> Status {
      return ParseRecord(cursor, &value->emplace_back());
    });
  }
  return Status::OK();
}

template <typename Record>
Status ParseRecord(JsonCursor* cursor, Record* record) {
  return cursor->ParseObject([&](const std::string& key) -> Status {
    for (const Field<Record>& field : Schema<Record>::kFields) {
      if (field.key != key) continue;
      return std::visit(
          [&](auto member) { return ParseValue(cursor, &(record->*member)); },
          field.member);
    }
    return cursor->SkipValue();  // Unknown keys: the format can grow.
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

/// Sample count, exact percentiles and mean |log2| of one set of ratios
/// (sorted in place); `kind` is left for the caller.
UnitKindCalibration SummarizeRatios(std::vector<double>& ratios) {
  std::sort(ratios.begin(), ratios.end());
  UnitKindCalibration summary;
  summary.samples = ratios.size();
  summary.ratio_p50 = Percentile(ratios, 50.0);
  summary.ratio_p90 = Percentile(ratios, 90.0);
  summary.ratio_p99 = Percentile(ratios, 99.0);
  for (const double r : ratios) summary.mean_abs_log2 += std::abs(std::log2(r));
  if (!ratios.empty()) {
    summary.mean_abs_log2 /= static_cast<double>(ratios.size());
  }
  return summary;
}

}  // namespace

std::string QueryProfileToJson(const QueryProfile& profile) {
  std::string out;
  AppendRecord(profile, &out);
  return out;
}

Result<QueryProfile> QueryProfileFromJson(std::string_view json) {
  JsonCursor cursor(json);
  QueryProfile profile;
  PPSM_RETURN_IF_ERROR(ParseRecord(&cursor, &profile));
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
  const UnitKindCalibration stars = SummarizeRatios(star_ratios);
  calibration.star_samples = stars.samples;
  calibration.star_ratio_p50 = stars.ratio_p50;
  calibration.star_ratio_p90 = stars.ratio_p90;
  calibration.star_ratio_p99 = stars.ratio_p99;
  calibration.star_mean_abs_log2 = stars.mean_abs_log2;
  const UnitKindCalibration joins = SummarizeRatios(join_ratios);
  calibration.join_samples = joins.samples;
  calibration.join_ratio_p50 = joins.ratio_p50;
  calibration.join_ratio_p90 = joins.ratio_p90;
  calibration.join_ratio_p99 = joins.ratio_p99;
  calibration.join_mean_abs_log2 = joins.mean_abs_log2;
  for (size_t b = 0; b < 4; ++b) {
    if (kind_ratios[b].empty()) continue;
    UnitKindCalibration kind = SummarizeRatios(kind_ratios[b]);
    kind.kind = kKinds[b];
    calibration.per_kind.push_back(std::move(kind));
  }
  return calibration;
}

}  // namespace ppsm
