#ifndef PPSM_KAUTO_AVT_H_
#define PPSM_KAUTO_AVT_H_

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/attributed_graph.h"
#include "util/status.h"

namespace ppsm {

/// Alignment Vertex Table (paper §2.2 Def. 4). Each row is an alignment
/// vertex instance (AVI): the k symmetric vertices of one orbit, one per
/// block. Column b lists the vertices of block b. The table defines the k
/// automorphic functions F_m: F_m(row r, block b) = (row r, block (b+m) mod
/// k) — the circularly-linked-list semantics of the paper.
class Avt {
 public:
  Avt() = default;
  /// Table of `num_rows` rows over `k` blocks, initialized to
  /// kInvalidVertex.
  Avt(uint32_t k, uint32_t num_rows);

  uint32_t k() const { return k_; }
  uint32_t num_rows() const { return num_rows_; }
  /// Total vertices covered (= k * num_rows when complete).
  size_t NumVertices() const { return row_.size(); }

  /// Places vertex `v` at (row, block). Each vertex may be placed once;
  /// each cell filled once.
  void Place(uint32_t row, uint32_t block, VertexId v);

  VertexId At(uint32_t row, uint32_t block) const {
    assert(row < num_rows_ && block < k_);
    return cells_[CellIndex(row, block)];
  }
  uint32_t RowOf(VertexId v) const {
    assert(Contains(v));
    return row_[v];
  }
  uint32_t BlockOf(VertexId v) const {
    assert(Contains(v));
    return block_[v];
  }
  bool Contains(VertexId v) const {
    return v < row_.size() && row_[v] != kUnplaced;
  }

  /// F_m(v): shifts v's block by m (mod k). F_0 is the identity. Inline and
  /// division-free for m < k: the join and the client call it per cell.
  VertexId Apply(VertexId v, uint32_t m) const {
    assert(Contains(v));
    if (m >= k_) m %= k_;
    uint32_t block = block_[v] + m;
    if (block >= k_) block -= k_;
    return cells_[CellIndex(row_[v], block)];
  }
  /// Applies F_m elementwise to a vertex tuple (a subgraph match).
  std::vector<VertexId> ApplyToMatch(std::span<const VertexId> match,
                                     uint32_t m) const;
  /// The inverse function index: Apply(Apply(v, m), InverseShift(m)) == v.
  uint32_t InverseShift(uint32_t m) const { return (k_ - m % k_) % k_; }

  /// All vertices of block `block` in row order (a column of the table).
  std::vector<VertexId> BlockVertices(uint32_t block) const;

  /// OK iff every cell is filled with a distinct valid vertex id and the
  /// inverse map agrees.
  Status Validate() const;

  /// Wire format (cloud receives the AVT together with Go).
  std::vector<uint8_t> Serialize() const;
  static Result<Avt> Deserialize(std::span<const uint8_t> bytes);

  friend bool operator==(const Avt& a, const Avt& b) {
    return a.k_ == b.k_ && a.num_rows_ == b.num_rows_ && a.cells_ == b.cells_;
  }

 private:
  size_t CellIndex(uint32_t row, uint32_t block) const {
    return static_cast<size_t>(row) * k_ + block;
  }

  uint32_t k_ = 0;
  uint32_t num_rows_ = 0;
  std::vector<VertexId> cells_;  // Row-major (row * k + block).
  /// The inverse map, 8 B per vertex: v sits at (row_[v], block_[v]);
  /// row_[v] is kUnplaced until v is placed.
  std::vector<uint32_t> row_;
  std::vector<uint32_t> block_;

  static constexpr uint32_t kUnplaced = UINT32_MAX;
};

}  // namespace ppsm

#endif  // PPSM_KAUTO_AVT_H_
