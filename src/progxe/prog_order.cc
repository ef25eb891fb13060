#include "progxe/prog_order.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <numeric>

#include "progxe/cardinality.h"

namespace progxe {

ProgOrder::ProgOrder(std::vector<Region>* regions, ElGraph* el_graph,
                     OutputTable* table, CostModelParams cost_params,
                     std::vector<size_t> r_sizes, std::vector<size_t> t_sizes,
                     OrderingMode mode, uint64_t seed, ProgXeStats* stats)
    : regions_(regions),
      el_graph_(el_graph),
      table_(table),
      cost_params_(cost_params),
      r_sizes_(std::move(r_sizes)),
      t_sizes_(std::move(t_sizes)),
      mode_(mode),
      stats_(stats) {
  if (mode_ != OrderingMode::kProgOrder) {
    for (Region& region : *regions_) {
      if (region.Active()) static_order_.push_back(region.id);
    }
    if (mode_ == OrderingMode::kRandom) {
      Rng rng(seed);
      rng.Shuffle(&static_order_);
    }
    return;
  }

  // Dense up-set coverage for ProgCount.
  cover_lo_.assign(static_cast<size_t>(table_->geometry().total_cells()), 0);
  in_queue_.assign(regions_->size(), 0);
  for (Region& region : *regions_) {
    if (!region.Active()) continue;
    // Precondition: every active region names a partition of each input.
    if (region.a < 0 || static_cast<size_t>(region.a) >= r_sizes_.size() ||
        region.b < 0 || static_cast<size_t>(region.b) >= t_sizes_.size()) {
      std::fprintf(stderr,
                   "ProgOrder: region %d names partitions (%d, %d) outside "
                   "the %zu x %zu input partitions\n",
                   region.id, region.a, region.b, r_sizes_.size(),
                   t_sizes_.size());
      std::abort();
    }
    AddUpSetCoverage(region, +1);

    // Static per-region estimates (Equations 1 and 3-7).
    const double n_a = static_cast<double>(r_sizes_[static_cast<size_t>(region.a)]);
    const double n_b = static_cast<double>(t_sizes_[static_cast<size_t>(region.b)]);
    region.cardinality_est = RegionCardinalityEstimate(
        cost_params_.sigma, n_a, n_b, cost_params_.dims);
    region.cost_est = RegionCost(cost_params_, n_a, n_b,
                                 static_cast<double>(region.BoxVolume()));
  }

  for (int32_t id : el_graph_->InitialRoots(*regions_)) {
    PushRegion(id);
  }
}

void ProgOrder::AddUpSetCoverage(const Region& region, int32_t delta) {
  // Up-set of region.lo_cell: the box [lo_cell, cells-1]^d.
  const int k = table_->dims();
  std::vector<CellCoord> hi(static_cast<size_t>(k),
                            table_->geometry().cells_per_dim() - 1);
  table_->geometry().ForEachCellInBox(
      region.lo_cell.data(), hi.data(),
      [this, delta](CellIndex c) { cover_lo_[static_cast<size_t>(c)] += delta; });
}

int64_t ProgOrder::ComputeProgCount(const Region& region) const {
  // Cells of the region's box that are unmarked and that no other active
  // region covers-or-threatens. For q in box(region), region's own lower
  // cell is <= q in every dimension, so "no other" means cover_lo_ == 1.
  int64_t count = 0;
  table_->geometry().ForEachCellInBox(
      region.lo_cell.data(), region.hi_cell.data(), [&](CellIndex c) {
        if (!table_->marked(c) && cover_lo_[static_cast<size_t>(c)] == 1) {
          ++count;
        }
      });
  return count;
}

double ProgOrder::ComputeRank(const Region& region) const {
  const int64_t prog_count = ComputeProgCount(region);
  const double volume = static_cast<double>(region.BoxVolume());
  const double benefit = (static_cast<double>(prog_count) / volume) *
                         region.cardinality_est;
  return benefit / region.cost_est;
}

void ProgOrder::PushRegion(int32_t id) {
  Region& region = (*regions_)[static_cast<size_t>(id)];
  if (!region.Active()) return;
  region.prog_count = ComputeProgCount(region);
  const double volume = static_cast<double>(region.BoxVolume());
  const double benefit = (static_cast<double>(region.prog_count) / volume) *
                         region.cardinality_est;
  region.rank = benefit / region.cost_est;
  ++region.rank_version;
  in_queue_[static_cast<size_t>(id)] = 1;
  queue_.push(Entry{region.rank, region.rank_version, id});
}

int32_t ProgOrder::PopNext() {
  if (mode_ != OrderingMode::kProgOrder) {
    while (static_pos_ < static_order_.size()) {
      const int32_t id = static_order_[static_pos_++];
      if ((*regions_)[static_cast<size_t>(id)].Active()) return id;
    }
    return -1;
  }

  // Ranks go stale as regions complete (ProgCount can grow) or cells get
  // marked (ProgCount can shrink). Rather than rescanning every affected
  // region's box after each removal — quadratic in dense-overlap workloads —
  // ranks are refreshed lazily when a region reaches the top of the queue,
  // with a freshen budget per pick to bound worst-case churn.
  constexpr int kMaxFreshenPerPick = 64;
  int freshened = 0;
  for (;;) {
    while (!queue_.empty()) {
      Entry top = queue_.top();
      queue_.pop();
      Region& region = (*regions_)[static_cast<size_t>(top.id)];
      if (top.version != region.rank_version) continue;  // stale entry
      if (!region.Active()) continue;                    // discarded
      const double fresh_rank = ComputeRank(region);
      if (fresh_rank != region.rank) {
        region.rank = fresh_rank;
        ++region.rank_version;
        ++stats_->pq_reorderings;
        if (++freshened < kMaxFreshenPerPick && !queue_.empty() &&
            fresh_rank < queue_.top().rank) {
          // A queued region may now outrank this one; re-queue and retry.
          queue_.push(Entry{fresh_rank, region.rank_version, top.id});
          continue;
        }
      }
      in_queue_[static_cast<size_t>(top.id)] = 0;
      return top.id;
    }
    // Queue empty. Any active region left is part of a mutual-elimination
    // cycle in the EL-Graph; force-root them all once.
    if (cycle_fallback_done_) return -1;
    cycle_fallback_done_ = true;
    bool pushed = false;
    for (Region& region : *regions_) {
      if (region.Active() && in_queue_[static_cast<size_t>(region.id)] == 0) {
        PushRegion(region.id);
        pushed = true;
      }
    }
    if (!pushed) return -1;
  }
}

void ProgOrder::OnRegionRemoved(int32_t id) {
  if (mode_ != OrderingMode::kProgOrder) {
    return;
  }
  AddUpSetCoverage((*regions_)[static_cast<size_t>(id)], -1);

  // Admit regions that became EL-Graph roots. Benefit refresh of queued
  // regions (Algorithm 1, line 13) happens lazily inside PopNext.
  for (int32_t new_root : el_graph_->OnRegionRemoved(id, *regions_)) {
    PushRegion(new_root);
  }
}

}  // namespace progxe
