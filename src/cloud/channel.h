#ifndef PPSM_CLOUD_CHANNEL_H_
#define PPSM_CLOUD_CHANNEL_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>

#include "util/status.h"

namespace ppsm {

/// Link model for the client <-> cloud connection. The paper's testbed put
/// the client on a PC and the cloud on Azure; our substitute charges each
/// serialized message `latency + bytes / bandwidth` of simulated wall time,
/// which reproduces the paper's network-overhead comparisons (Fig. 33) —
/// they depend only on payload sizes, not on real sockets.
struct ChannelConfig {
  double bandwidth_mbps = 100.0;  // Megabits per second.
  double latency_ms = 1.0;        // Per-message one-way latency.
  /// Per-message records retained in log(). Totals (bytes/millis/messages)
  /// stay exact past the cap; only the oldest records are evicted, so
  /// million-query soak runs do not grow memory without bound. 0 disables
  /// record keeping entirely.
  size_t max_log_records = 4096;
};

/// InvalidArgument unless the config describes a physical link:
/// bandwidth_mbps must be finite and strictly positive (Transfer divides by
/// it — zero or negative would turn every transfer into inf/negative
/// millis and poison the ppsm_network_transfer_ms metrics and bench CSVs),
/// latency_ms finite and non-negative.
Status ValidateChannelConfig(const ChannelConfig& config);

/// Byte- and time-accounting channel. Not a transport: callers move the
/// bytes themselves; the channel just records what a real link would have
/// cost.
///
/// Thread-safe: concurrent queries (PpsmSystem::ExecuteBatch) account their
/// request/response transfers through one shared channel, so the totals and
/// the log are guarded by an internal mutex. Exception: the reference
/// returned by log() is only safe to read while no Transfer runs.
class SimulatedChannel {
 public:
  SimulatedChannel() : mu_(std::make_unique<std::mutex>()) {}
  /// Requires a valid config — an invalid one is replaced with the default
  /// link (and logged) so a channel can never emit inf/negative transfer
  /// times. Construction sites that can report errors should use Create.
  explicit SimulatedChannel(ChannelConfig config);

  /// Validated construction: typed InvalidArgument instead of the ctor's
  /// silent fallback.
  static Result<SimulatedChannel> Create(ChannelConfig config);

  /// Records a message of `bytes` and returns its simulated transfer time in
  /// milliseconds. Thread-safe; const because concurrent accounting must run
  /// under PpsmSystem::Execute() const (the bookkeeping is observability, not
  /// logical channel state).
  double Transfer(size_t bytes, const std::string& description) const;

  size_t total_bytes() const { return Locked(total_bytes_); }
  double total_millis() const { return Locked(total_millis_); }
  /// Messages ever transferred — exact even after log eviction.
  size_t num_messages() const { return Locked(num_messages_); }
  /// Records evicted from log() by the max_log_records cap. Non-zero means
  /// log() is a suffix of the traffic, not the whole of it (the totals
  /// above stay exact regardless).
  size_t num_dropped_records() const { return Locked(num_dropped_records_); }

  struct Record {
    std::string description;
    size_t bytes;
    double millis;
  };
  /// The most recent messages (up to config.max_log_records), oldest first.
  /// Only valid while no concurrent Transfer runs.
  const std::deque<Record>& log() const { return log_; }

  void Reset();

 private:
  template <typename T>
  T Locked(const T& field) const {
    std::lock_guard<std::mutex> lock(*mu_);
    return field;
  }

  ChannelConfig config_;
  std::unique_ptr<std::mutex> mu_;  // Pointer keeps the channel movable.
  mutable size_t total_bytes_ = 0;
  mutable double total_millis_ = 0.0;
  mutable size_t num_messages_ = 0;
  mutable size_t num_dropped_records_ = 0;
  mutable std::deque<Record> log_;
};

}  // namespace ppsm

#endif  // PPSM_CLOUD_CHANNEL_H_
