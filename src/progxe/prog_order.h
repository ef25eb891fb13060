// ProgOrder (Section IV, Algorithm 1): chooses the next region for
// tuple-level processing by ranking current EL-Graph roots with
// rank = Benefit / Cost (Equation 8).
//
// Benefit(R) = ProgCount(R) / PartitionCount(R) * Cardinality(R)  (Eq. 2)
// where ProgCount (Definition 2) counts the cells of R's box that no
// *other* unprocessed region covers-or-threatens — maintained with a dense
// up-set coverage array so each update is O(box volume) instead of a global
// rescan. Rank updates are event-driven (the paper's line 13): when a
// region is removed, every region whose benefit may change is re-ranked and
// re-pushed; stale priority-queue entries are version-skipped.
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "common/rng.h"
#include "elgraph/el_graph.h"
#include "outputspace/region.h"
#include "progxe/config.h"
#include "progxe/cost_model.h"
#include "progxe/output_table.h"

namespace progxe {

class ProgOrder {
 public:
  /// `regions` outlives this object and is mutated (rank fields) through it.
  /// `r_sizes` / `t_sizes` give |I^R_a| / |I^T_b| per partition index. In
  /// kProgOrder mode every active region's `a` / `b` must index them; a
  /// violation aborts with a message instead of reading out of bounds.
  ProgOrder(std::vector<Region>* regions, ElGraph* el_graph,
            OutputTable* table, CostModelParams cost_params,
            std::vector<size_t> r_sizes, std::vector<size_t> t_sizes,
            OrderingMode mode, uint64_t seed, ProgXeStats* stats);

  /// Next region to process, or -1 when none remain. Regions discarded
  /// after being queued are skipped. If the EL-Graph deadlocks on a cycle
  /// of mutual partial elimination, all remaining regions are force-rooted.
  int32_t PopNext();

  /// Must be called after a region completes or is discarded: updates the
  /// EL-Graph, admits new roots, and re-ranks affected queued regions.
  void OnRegionRemoved(int32_t id);

  /// Recomputes and stores rank for one region (exposed for tests).
  double ComputeRank(const Region& region) const;

  /// ProgCount per Definition 2 (exposed for tests).
  int64_t ComputeProgCount(const Region& region) const;

 private:
  struct Entry {
    double rank;
    uint32_t version;
    int32_t id;
    bool operator<(const Entry& o) const {
      if (rank != o.rank) return rank < o.rank;  // max-heap by rank
      return id > o.id;  // deterministic tiebreak: lower id first
    }
  };

  void PushRegion(int32_t id);
  void AddUpSetCoverage(const Region& region, int32_t delta);

  std::vector<Region>* regions_;
  ElGraph* el_graph_;
  OutputTable* table_;
  CostModelParams cost_params_;
  std::vector<size_t> r_sizes_;
  std::vector<size_t> t_sizes_;
  OrderingMode mode_;
  ProgXeStats* stats_;

  // kProgOrder state.
  std::priority_queue<Entry> queue_;
  /// cover_lo_[c] = #active regions whose lower cell is <= c in every dim.
  std::vector<int32_t> cover_lo_;
  std::vector<uint8_t> in_queue_;  // region currently admitted as root
  bool cycle_fallback_done_ = false;

  // kRandom / kSequential state.
  std::vector<int32_t> static_order_;
  size_t static_pos_ = 0;
};

}  // namespace progxe
