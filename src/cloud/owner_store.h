#ifndef PPSM_CLOUD_OWNER_STORE_H_
#define PPSM_CLOUD_OWNER_STORE_H_

#include <string>

#include "cloud/data_owner.h"
#include "util/status.h"

namespace ppsm {

/// Durable storage for a data owner's anonymization state. The offline
/// pipeline (partitioning + alignment + label combination) is the expensive
/// part of the system and — more importantly — must be REUSED verbatim:
/// re-anonymizing the same graph with a fresh random seed would publish a
/// second, differently-noised Gk, and intersecting two published versions
/// weakens the k-automorphism guarantee. Persisting the exact artifacts
/// avoids both problems.
///
/// Layout under `directory` (created if missing):
///   schema.bin   vocabulary (types/attributes/labels with names)
///   graph.bin    the original G
///   lct.bin      the secret label-correspondence table
///   gk.bin       the k-automorphic graph Gk
///   avt.bin      the alignment vertex table
///   meta.bin     k, baseline flag, original-size counters
///
/// Everything here is OWNER-side secret material; none of it is meant for
/// the cloud (the cloud only ever receives DataOwner::upload_bytes()).
///
/// `num_threads` workers serialize the artifacts concurrently (each file's
/// payload is an independent pure function of the owner); the files are
/// written in a fixed order and their bytes are identical at every value.
Status SaveDataOwner(const DataOwner& owner, const std::string& directory,
                     size_t num_threads = 1);

/// Restores a DataOwner saved by SaveDataOwner. Re-derives the outsourced
/// graph and upload package deterministically from the stored artifacts;
/// the restored owner produces byte-identical uploads and identical query
/// post-processing.
Result<DataOwner> LoadDataOwner(const std::string& directory);

/// Persists a sharding plan (DataOwner::BuildShardUploads) so a cluster can
/// re-host the EXACT same vertex-to-shard assignment later — re-partitioning
/// with a different seed would re-slice Go and invalidate any shard-local
/// caches. Layout under `directory` (created if missing):
///   shards_meta.bin   magic, shard count, the serialized Partitioning
///   shard_<i>.bin     ShardUpload::Serialize() of shard i
/// Unlike the owner artifacts above these are CLOUD-side bytes: each file is
/// exactly what one shard server would receive over the wire.
Status SaveShardUploads(const ShardingPlan& plan,
                        const std::string& directory);

/// Reloads a SaveShardUploads directory. Validates the shard files against
/// the manifest (count, per-file shard index) and returns a plan that
/// compares equal to the one saved.
Result<ShardingPlan> LoadShardUploads(const std::string& directory);

}  // namespace ppsm

#endif  // PPSM_CLOUD_OWNER_STORE_H_
