#ifndef PPSM_CLOUD_SHARD_EXCHANGE_H_
#define PPSM_CLOUD_SHARD_EXCHANGE_H_

#include <vector>

#include "cloud/channel.h"
#include "cloud/messages.h"
#include "match/unit_matcher.h"
#include "util/status.h"

namespace ppsm {

/// Accounting for one shard's BSP exchange round (cloud/cluster.h): the
/// serialized R(S,Go) row payload it shipped to the coordinator and what the
/// simulated link charged for it. Because the exchange ships *un-expanded*
/// star rows (the coordinator's probe join applies the k automorphic
/// functions), `bytes` is independent of the privacy parameter k — the
/// bench_sharding fixture asserts exactly that.
struct ExchangeStats {
  size_t bytes = 0;
  double transfer_ms = 0.0;
};

/// Ships one shard's per-star row streams to the coordinator over the
/// simulated link: serialize, charge the channel, deserialize on the far
/// side. The round trip through the wire codec is real (not a pointer
/// hand-off), so a codec regression breaks the equivalence tests instead of
/// hiding behind shared memory. Rows must already be translated to global
/// Go-local ids by the sender.
Result<std::vector<UnitMatches>> ShipStarRows(
    const std::vector<UnitMatches>& stars, const SimulatedChannel& channel,
    const std::string& description, ExchangeStats* stats = nullptr);

/// Merges per-shard star-match streams into the global streams the unsharded
/// server would have produced, byte for byte. Inputs must be aligned: every
/// shard evaluated the SAME decomposition, so `shard_rows[s][i]` is shard
/// s's rows for star i, with identical centers/columns across shards. Within
/// a stream rows are grouped by candidate center (match column 0) in
/// ascending id order — MatchUnits enumerates its shortlist that way — and
/// shards own disjoint candidate sets, so a run-copying k-way merge on
/// column 0 reproduces the global enumeration order exactly.
/// `num_candidates` sums and `truncated` ORs across shards; a truncated
/// input skips the row merge for that star (the caller refuses the query
/// anyway, matching the unsharded ResourceExhausted boundary).
Result<std::vector<UnitMatches>> MergeShardUnitMatches(
    const std::vector<std::vector<UnitMatches>>& shard_rows);

}  // namespace ppsm

#endif  // PPSM_CLOUD_SHARD_EXCHANGE_H_
