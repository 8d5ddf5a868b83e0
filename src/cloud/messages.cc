#include "cloud/messages.h"

#include <bit>

#include "graph/serialize.h"

namespace ppsm {

namespace {

constexpr uint32_t kUploadMagic = 0x31504c55;    // "ULP1"
constexpr uint32_t kStatsMagic = 0x31545347;     // "GST1"
constexpr uint32_t kStarRowsMagic = 0x31575253;  // "SRW1"
constexpr uint32_t kShardMagic = 0x31444853;     // "SHD1"
constexpr uint8_t kShapeOptimized = 0;
constexpr uint8_t kShapeBaseline = 1;

void PutDouble(BinaryWriter* writer, double value) {
  writer->PutU64(std::bit_cast<uint64_t>(value));
}

Result<double> GetDouble(BinaryReader* reader) {
  PPSM_ASSIGN_OR_RETURN(const uint64_t bits, reader->GetU64());
  return std::bit_cast<double>(bits);
}

void PutBlob(BinaryWriter* writer, const std::vector<uint8_t>& blob) {
  writer->PutVarint(blob.size());
  for (const uint8_t b : blob) writer->PutU8(b);
}

Result<std::vector<uint8_t>> GetBlob(BinaryReader* reader) {
  PPSM_ASSIGN_OR_RETURN(const uint64_t size, reader->GetVarint());
  if (size > reader->remaining()) {
    return Status::OutOfRange("truncated blob");
  }
  std::vector<uint8_t> blob;
  blob.reserve(size);
  for (uint64_t i = 0; i < size; ++i) {
    PPSM_ASSIGN_OR_RETURN(const uint8_t b, reader->GetU8());
    blob.push_back(b);
  }
  return blob;
}

}  // namespace

std::vector<uint8_t> UploadPackage::Serialize() const {
  BinaryWriter writer;
  writer.PutU32(kUploadMagic);
  writer.PutU8(IsBaseline() ? kShapeBaseline : kShapeOptimized);
  writer.PutVarint(k);
  writer.PutVarint(num_types);
  writer.PutVarint(type_of_group.size());
  for (const VertexTypeId t : type_of_group) writer.PutVarint(t);
  if (IsBaseline()) {
    PutBlob(&writer, SerializeGraph(*full_gk));
  } else {
    PutBlob(&writer, go->Serialize());
    PutBlob(&writer, avt->Serialize());
  }
  return writer.TakeBytes();
}

Result<UploadPackage> UploadPackage::Deserialize(
    std::span<const uint8_t> bytes) {
  BinaryReader reader(bytes);
  PPSM_ASSIGN_OR_RETURN(const uint32_t magic, reader.GetU32());
  if (magic != kUploadMagic) {
    return Status::InvalidArgument("bad upload magic");
  }
  PPSM_ASSIGN_OR_RETURN(const uint8_t shape, reader.GetU8());
  UploadPackage package;
  PPSM_ASSIGN_OR_RETURN(const uint64_t k, reader.GetVarint());
  PPSM_ASSIGN_OR_RETURN(const uint64_t num_types, reader.GetVarint());
  if (k == 0 || k > UINT32_MAX || num_types > UINT32_MAX) {
    return Status::InvalidArgument("bad upload header");
  }
  package.k = static_cast<uint32_t>(k);
  package.num_types = static_cast<uint32_t>(num_types);
  PPSM_ASSIGN_OR_RETURN(const uint64_t num_groups, reader.GetVarint());
  if (num_groups > reader.remaining()) {
    return Status::OutOfRange("group table exceeds payload");
  }
  package.type_of_group.reserve(num_groups);
  for (uint64_t g = 0; g < num_groups; ++g) {
    PPSM_ASSIGN_OR_RETURN(const uint64_t t, reader.GetVarint());
    if (t >= package.num_types) {
      return Status::InvalidArgument("group owner type out of range");
    }
    package.type_of_group.push_back(static_cast<VertexTypeId>(t));
  }
  if (shape == kShapeBaseline) {
    PPSM_ASSIGN_OR_RETURN(const std::vector<uint8_t> blob, GetBlob(&reader));
    PPSM_ASSIGN_OR_RETURN(AttributedGraph gk,
                          DeserializeGraph(blob, /*schema=*/nullptr));
    package.full_gk = std::move(gk);
  } else if (shape == kShapeOptimized) {
    PPSM_ASSIGN_OR_RETURN(const std::vector<uint8_t> go_blob,
                          GetBlob(&reader));
    PPSM_ASSIGN_OR_RETURN(OutsourcedGraph go,
                          OutsourcedGraph::Deserialize(go_blob));
    package.go = std::move(go);
    PPSM_ASSIGN_OR_RETURN(const std::vector<uint8_t> avt_blob,
                          GetBlob(&reader));
    PPSM_ASSIGN_OR_RETURN(Avt avt, Avt::Deserialize(avt_blob));
    package.avt = std::move(avt);
  } else {
    return Status::InvalidArgument("unknown upload shape");
  }
  return package;
}

std::vector<uint8_t> SerializeQueryRequest(const AttributedGraph& qo) {
  return SerializeGraph(qo);
}

Result<AttributedGraph> DeserializeQueryRequest(
    std::span<const uint8_t> bytes) {
  return DeserializeGraph(bytes, /*schema=*/nullptr);
}

std::vector<uint8_t> SerializeGkStatistics(const GkStatistics& stats) {
  BinaryWriter writer;
  writer.PutU32(kStatsMagic);
  writer.PutVarint(stats.num_gk_vertices);
  PutDouble(&writer, stats.avg_degree);
  writer.PutVarint(stats.k);
  writer.PutVarint(stats.type_freq.size());
  for (const double f : stats.type_freq) PutDouble(&writer, f);
  writer.PutVarint(stats.group_freq.size());
  for (const double f : stats.group_freq) PutDouble(&writer, f);
  writer.PutVarint(stats.type_of_group.size());
  for (const VertexTypeId t : stats.type_of_group) writer.PutVarint(t);
  return writer.TakeBytes();
}

Result<GkStatistics> DeserializeGkStatistics(std::span<const uint8_t> bytes) {
  BinaryReader reader(bytes);
  PPSM_ASSIGN_OR_RETURN(const uint32_t magic, reader.GetU32());
  if (magic != kStatsMagic) {
    return Status::InvalidArgument("bad statistics magic");
  }
  GkStatistics stats;
  PPSM_ASSIGN_OR_RETURN(const uint64_t num_vertices, reader.GetVarint());
  stats.num_gk_vertices = static_cast<size_t>(num_vertices);
  PPSM_ASSIGN_OR_RETURN(stats.avg_degree, GetDouble(&reader));
  PPSM_ASSIGN_OR_RETURN(const uint64_t k, reader.GetVarint());
  if (k == 0 || k > UINT32_MAX) {
    return Status::InvalidArgument("bad statistics k");
  }
  stats.k = static_cast<uint32_t>(k);
  PPSM_ASSIGN_OR_RETURN(const uint64_t num_types, reader.GetVarint());
  if (num_types > reader.remaining()) {
    return Status::OutOfRange("type table exceeds payload");
  }
  stats.type_freq.reserve(num_types);
  for (uint64_t t = 0; t < num_types; ++t) {
    PPSM_ASSIGN_OR_RETURN(const double f, GetDouble(&reader));
    stats.type_freq.push_back(f);
  }
  PPSM_ASSIGN_OR_RETURN(const uint64_t num_group_freq, reader.GetVarint());
  if (num_group_freq > reader.remaining()) {
    return Status::OutOfRange("group table exceeds payload");
  }
  stats.group_freq.reserve(num_group_freq);
  for (uint64_t g = 0; g < num_group_freq; ++g) {
    PPSM_ASSIGN_OR_RETURN(const double f, GetDouble(&reader));
    stats.group_freq.push_back(f);
  }
  PPSM_ASSIGN_OR_RETURN(const uint64_t num_groups, reader.GetVarint());
  if (num_groups > reader.remaining()) {
    return Status::OutOfRange("group owner table exceeds payload");
  }
  stats.type_of_group.reserve(num_groups);
  for (uint64_t g = 0; g < num_groups; ++g) {
    PPSM_ASSIGN_OR_RETURN(const uint64_t t, reader.GetVarint());
    if (t >= stats.type_freq.size()) {
      return Status::InvalidArgument("group owner type out of range");
    }
    stats.type_of_group.push_back(static_cast<VertexTypeId>(t));
  }
  return stats;
}

std::vector<uint8_t> SerializeStarRows(
    const std::vector<UnitMatches>& stars) {
  BinaryWriter writer;
  writer.PutU32(kStarRowsMagic);
  writer.PutVarint(stars.size());
  for (const UnitMatches& star : stars) {
    writer.PutVarint(star.center);
    writer.PutVarint(star.columns.size());
    for (const VertexId column : star.columns) writer.PutVarint(column);
    writer.PutVarint(star.num_candidates);
    writer.PutU8(star.truncated ? 1 : 0);
    PutBlob(&writer, star.matches.Serialize());
  }
  return writer.TakeBytes();
}

Result<std::vector<UnitMatches>> DeserializeStarRows(
    std::span<const uint8_t> bytes) {
  BinaryReader reader(bytes);
  PPSM_ASSIGN_OR_RETURN(const uint32_t magic, reader.GetU32());
  if (magic != kStarRowsMagic) {
    return Status::InvalidArgument("bad star-rows magic");
  }
  PPSM_ASSIGN_OR_RETURN(const uint64_t num_stars, reader.GetVarint());
  if (num_stars > reader.remaining()) {
    return Status::OutOfRange("star count exceeds payload");
  }
  std::vector<UnitMatches> stars;
  stars.reserve(num_stars);
  for (uint64_t s = 0; s < num_stars; ++s) {
    UnitMatches star;
    PPSM_ASSIGN_OR_RETURN(const uint64_t center, reader.GetVarint());
    star.center = static_cast<VertexId>(center);
    PPSM_ASSIGN_OR_RETURN(const uint64_t num_columns, reader.GetVarint());
    if (num_columns > reader.remaining()) {
      return Status::OutOfRange("column count exceeds payload");
    }
    star.columns.reserve(num_columns);
    for (uint64_t c = 0; c < num_columns; ++c) {
      PPSM_ASSIGN_OR_RETURN(const uint64_t column, reader.GetVarint());
      star.columns.push_back(static_cast<VertexId>(column));
    }
    PPSM_ASSIGN_OR_RETURN(const uint64_t num_candidates, reader.GetVarint());
    star.num_candidates = static_cast<size_t>(num_candidates);
    PPSM_ASSIGN_OR_RETURN(const uint8_t truncated, reader.GetU8());
    star.truncated = truncated != 0;
    PPSM_ASSIGN_OR_RETURN(const std::vector<uint8_t> blob, GetBlob(&reader));
    PPSM_ASSIGN_OR_RETURN(star.matches, MatchSet::Deserialize(blob));
    if (star.matches.arity() != star.columns.size()) {
      return Status::InvalidArgument("star arity disagrees with columns");
    }
    stars.push_back(std::move(star));
  }
  return stars;
}

std::vector<uint8_t> ShardUpload::Serialize() const {
  BinaryWriter writer;
  writer.PutU32(kShardMagic);
  writer.PutVarint(shard);
  writer.PutVarint(num_shards);
  writer.PutVarint(global_vertices);
  writer.PutVarint(global_b1);
  PutBlob(&writer, package.Serialize());
  writer.PutSortedIds(to_global);
  writer.PutVarint(owned.size());
  for (const uint8_t o : owned) writer.PutU8(o);
  PutBlob(&writer, SerializeGkStatistics(stats));
  return writer.TakeBytes();
}

Result<ShardUpload> ShardUpload::Deserialize(std::span<const uint8_t> bytes) {
  BinaryReader reader(bytes);
  PPSM_ASSIGN_OR_RETURN(const uint32_t magic, reader.GetU32());
  if (magic != kShardMagic) {
    return Status::InvalidArgument("bad shard upload magic");
  }
  ShardUpload upload;
  PPSM_ASSIGN_OR_RETURN(const uint64_t shard, reader.GetVarint());
  PPSM_ASSIGN_OR_RETURN(const uint64_t num_shards, reader.GetVarint());
  if (num_shards == 0 || num_shards > UINT32_MAX || shard >= num_shards) {
    return Status::InvalidArgument("bad shard upload header");
  }
  upload.shard = static_cast<uint32_t>(shard);
  upload.num_shards = static_cast<uint32_t>(num_shards);
  PPSM_ASSIGN_OR_RETURN(upload.global_vertices, reader.GetVarint());
  PPSM_ASSIGN_OR_RETURN(upload.global_b1, reader.GetVarint());
  PPSM_ASSIGN_OR_RETURN(const std::vector<uint8_t> package_blob,
                        GetBlob(&reader));
  PPSM_ASSIGN_OR_RETURN(upload.package,
                        UploadPackage::Deserialize(package_blob));
  PPSM_ASSIGN_OR_RETURN(upload.to_global, reader.GetSortedIds());
  PPSM_ASSIGN_OR_RETURN(const uint64_t num_owned, reader.GetVarint());
  if (num_owned > reader.remaining()) {
    return Status::OutOfRange("owned table exceeds payload");
  }
  upload.owned.reserve(num_owned);
  for (uint64_t i = 0; i < num_owned; ++i) {
    PPSM_ASSIGN_OR_RETURN(const uint8_t o, reader.GetU8());
    upload.owned.push_back(o);
  }
  PPSM_ASSIGN_OR_RETURN(const std::vector<uint8_t> stats_blob,
                        GetBlob(&reader));
  PPSM_ASSIGN_OR_RETURN(upload.stats,
                        DeserializeGkStatistics(stats_blob));
  return upload;
}

}  // namespace ppsm
