// Uniform multi-dimensional grid geometry, shared by the input-space and
// output-space grids.
//
// Cells are half-open boxes [lo_i, hi_i) per dimension, except the last cell
// of each dimension which is closed on top so the whole domain is covered.
// Half-openness matters for soundness: a tuple in a cell is strictly below
// the cell's upper bound in every dimension (unless it lies in a top cell),
// which is what lets cell-coordinate comparisons imply strict Pareto
// dominance (see outputspace/README notes in DESIGN.md Section 2).
#pragma once

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "mapping/interval.h"

namespace progxe {

/// Cell coordinate along one dimension.
using CellCoord = int32_t;

/// Dense linear index of a cell.
using CellIndex = int64_t;

class GridGeometry {
 public:
  GridGeometry() = default;

  /// A grid over the box `bounds` (one interval per dimension) with
  /// `cells_per_dim` cells along every dimension. Zero-width dimensions are
  /// widened by a tiny epsilon so every point falls into a valid cell.
  GridGeometry(std::vector<Interval> bounds, int cells_per_dim);

  int dimensions() const { return static_cast<int>(bounds_.size()); }
  int cells_per_dim() const { return cells_per_dim_; }

  /// Total number of cells (cells_per_dim ^ dimensions).
  CellIndex total_cells() const { return total_cells_; }

  const Interval& domain(int dim) const {
    return bounds_[static_cast<size_t>(dim)];
  }

  /// Coordinate of `value` along `dim`, clamped into [0, cells_per_dim).
  CellCoord CoordOf(int dim, double value) const;

  /// Fills `coords[0..dims)` for a point.
  void CoordsOf(const double* point, CellCoord* coords) const;

  /// Linearizes coordinates (row-major, dimension 0 slowest).
  CellIndex IndexOf(const CellCoord* coords) const;

  /// Inverse of IndexOf.
  void CoordsOfIndex(CellIndex index, CellCoord* coords) const;

  /// Lower bound of a cell along `dim`.
  double CellLower(int dim, CellCoord c) const;

  /// Upper bound of a cell along `dim`.
  double CellUpper(int dim, CellCoord c) const;

  /// The coordinate range [lo_out, hi_out] (inclusive) of cells that a real
  /// interval overlaps along `dim`, clamped to the grid.
  void CoordRange(int dim, const Interval& iv, CellCoord* lo_out,
                  CellCoord* hi_out) const;

  /// Iterates every cell index in the inclusive coordinate box
  /// [lo, hi] (per dimension), invoking fn(CellIndex) in row-major order.
  template <typename Fn>
  void ForEachCellInBox(const CellCoord* lo, const CellCoord* hi,
                        Fn&& fn) const {
    ForEachRowInBox(lo, hi, [&fn](CellIndex first, int64_t len) {
      for (int64_t i = 0; i < len; ++i) fn(first + i);
    });
  }

  /// Like ForEachCellInBox, but hands over whole runs along the last
  /// (contiguous) dimension: fn(first CellIndex, run length), in row-major
  /// order. The linear index is maintained incrementally by the
  /// per-dimension strides instead of re-linearizing every cell (this sits
  /// under every coverage box walk, so the per-cell IndexOf was a top-two
  /// profile entry), and a box reduction over a dense per-cell array runs
  /// as tight inner loops.
  template <typename Fn>
  void ForEachRowInBox(const CellCoord* lo, const CellCoord* hi,
                       Fn&& fn) const {
    const int dims = dimensions();
    assert(dims > 0);
    for (int i = 0; i < dims; ++i) assert(lo[i] <= hi[i]);
    const int last = dims - 1;
    const int64_t run = static_cast<int64_t>(hi[last] - lo[last] + 1);
    std::vector<CellCoord> cur(lo, lo + dims);
    CellIndex idx = IndexOf(lo);
    for (;;) {
      fn(idx, run);
      int dim = last - 1;
      while (dim >= 0) {
        const CellIndex st = stride_[static_cast<size_t>(dim)];
        if (++cur[static_cast<size_t>(dim)] <= hi[dim]) {
          idx += st;
          break;
        }
        idx -= st * (hi[dim] - lo[dim]);
        cur[static_cast<size_t>(dim)] = lo[dim];
        --dim;
      }
      if (dim < 0) break;
    }
  }

  /// Volume (cell count) of an inclusive coordinate box.
  int64_t BoxVolume(const CellCoord* lo, const CellCoord* hi) const {
    int64_t v = 1;
    for (int i = 0; i < dimensions(); ++i) {
      v *= static_cast<int64_t>(hi[i] - lo[i] + 1);
    }
    return v;
  }

  std::string ToString() const;

 private:
  std::vector<Interval> bounds_;
  std::vector<double> inv_width_;  // cells_per_dim / domain width, per dim
  // Row-major linearization factor per dimension (dimension 0 slowest):
  // stride_[d] = cells_per_dim ^ (dims - 1 - d).
  std::vector<CellIndex> stride_;
  int cells_per_dim_ = 0;
  CellIndex total_cells_ = 0;
};

/// Picks the largest per-dimension cell count whose k-dimensional total
/// stays under `budget`, clamped to [lo, hi] — the auto-sizing rule shared
/// by the engine's grids (progxe/prepare.cc) and the sharded merge sink's
/// canonical-cell index, so the two cannot drift apart.
int AutoCellsPerDim(int k, double budget, int lo, int hi);

}  // namespace progxe
