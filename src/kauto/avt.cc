#include "kauto/avt.h"

#include <cassert>

#include "graph/serialize.h"

namespace ppsm {

namespace {
constexpr uint32_t kAvtMagic = 0x31545641;  // "AVT1"
}  // namespace

Avt::Avt(uint32_t k, uint32_t num_rows)
    : k_(k),
      num_rows_(num_rows),
      cells_(static_cast<size_t>(k) * num_rows, kInvalidVertex),
      row_(static_cast<size_t>(k) * num_rows, kUnplaced),
      block_(static_cast<size_t>(k) * num_rows, 0) {
  assert(k >= 1);
}

void Avt::Place(uint32_t row, uint32_t block, VertexId v) {
  assert(row < num_rows_ && block < k_);
  assert(v < row_.size());
  const size_t cell = CellIndex(row, block);
  assert(cells_[cell] == kInvalidVertex && "cell already filled");
  assert(row_[v] == kUnplaced && "vertex already placed");
  cells_[cell] = v;
  row_[v] = row;
  block_[v] = block;
}

std::vector<VertexId> Avt::ApplyToMatch(std::span<const VertexId> match,
                                        uint32_t m) const {
  std::vector<VertexId> out;
  out.reserve(match.size());
  for (const VertexId v : match) out.push_back(Apply(v, m));
  return out;
}

std::vector<VertexId> Avt::BlockVertices(uint32_t block) const {
  assert(block < k_);
  std::vector<VertexId> out;
  out.reserve(num_rows_);
  for (uint32_t r = 0; r < num_rows_; ++r) out.push_back(At(r, block));
  return out;
}

Status Avt::Validate() const {
  std::vector<bool> seen(row_.size(), false);
  for (uint32_t r = 0; r < num_rows_; ++r) {
    for (uint32_t b = 0; b < k_; ++b) {
      const VertexId v = At(r, b);
      if (v == kInvalidVertex || v >= row_.size()) {
        return Status::FailedPrecondition("AVT cell unfilled or out of range");
      }
      if (seen[v]) {
        return Status::FailedPrecondition("vertex appears twice in AVT");
      }
      seen[v] = true;
      if (row_[v] != r || block_[v] != b) {
        return Status::Internal("AVT inverse map disagrees with cells");
      }
    }
  }
  return Status::OK();
}

std::vector<uint8_t> Avt::Serialize() const {
  BinaryWriter writer;
  writer.PutU32(kAvtMagic);
  writer.PutVarint(k_);
  writer.PutVarint(num_rows_);
  for (const VertexId v : cells_) writer.PutVarint(v);
  return writer.TakeBytes();
}

Result<Avt> Avt::Deserialize(std::span<const uint8_t> bytes) {
  BinaryReader reader(bytes);
  PPSM_ASSIGN_OR_RETURN(const uint32_t magic, reader.GetU32());
  if (magic != kAvtMagic) return Status::InvalidArgument("bad AVT magic");
  PPSM_ASSIGN_OR_RETURN(const uint64_t k, reader.GetVarint());
  PPSM_ASSIGN_OR_RETURN(const uint64_t num_rows, reader.GetVarint());
  if (k == 0 || k > UINT32_MAX || num_rows > UINT32_MAX ||
      k * num_rows > reader.remaining()) {
    // Every cell is at least one varint byte; reject forged dimensions
    // before allocating k * num_rows cells.
    return Status::InvalidArgument("bad AVT dimensions");
  }
  Avt avt(static_cast<uint32_t>(k), static_cast<uint32_t>(num_rows));
  for (uint32_t r = 0; r < avt.num_rows(); ++r) {
    for (uint32_t b = 0; b < avt.k(); ++b) {
      PPSM_ASSIGN_OR_RETURN(const uint64_t v, reader.GetVarint());
      if (v >= avt.row_.size()) {
        return Status::InvalidArgument("AVT vertex id out of range");
      }
      if (avt.row_[v] != kUnplaced) {
        return Status::InvalidArgument("AVT vertex repeated");
      }
      avt.Place(r, b, static_cast<VertexId>(v));
    }
  }
  PPSM_RETURN_IF_ERROR(avt.Validate());
  return avt;
}

}  // namespace ppsm
