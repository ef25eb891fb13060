// The region-level tuple pipeline: join a region's partition pair, map the
// pairs through CanonicalMapper, and insert them into the OutputTable in
// blocks of kInsertBlock tuples. The pipeline is resumable: a region can be
// advanced in slices of ~max_pairs pairs, and the table sees the identical
// insert stream wherever the slice boundaries fall.
#pragma once

#include <cstdint>
#include <vector>

#include "grid/partitioning.h"
#include "mapping/canonical.h"
#include "progxe/output_table.h"

namespace progxe {

class RegionJoinPipeline {
 public:
  /// Join pairs buffered, mapped and inserted per OutputTable::InsertBatch
  /// call (amortizes per-tuple call and lookup overhead).
  static constexpr size_t kInsertBlock = 256;

  /// `mapper`, `r_flat`/`t_flat` (flat contribution tables) must outlive
  /// the pipeline.
  RegionJoinPipeline(const CanonicalMapper* mapper, const double* r_flat,
                     const double* t_flat);

  RegionJoinPipeline(const RegionJoinPipeline&) = delete;
  RegionJoinPipeline& operator=(const RegionJoinPipeline&) = delete;

  /// BeginRegion enumerates the join of `pa` x `pb` in JoinIndexes order;
  /// each ProcessSome call then advances at least one block of join pairs
  /// and at most ~`max_pairs` (0 = all remaining), returning the pairs it
  /// inserted. Results and every ProgXeStats counter are bit-identical no
  /// matter where the slice boundaries fall. A region is complete once
  /// RegionExhausted().
  void BeginRegion(const InputPartition& pa, const InputPartition& pb);
  uint64_t ProcessSome(size_t max_pairs, OutputTable* table);
  bool RegionExhausted() const { return cursor_task_ >= tasks_.size(); }

 private:
  /// One R row joined against its group's T rows: |t_rows| consecutive
  /// pairs of the sequential order.
  struct Task {
    RowId r;
    const std::vector<RowId>* t_rows;
  };

  const CanonicalMapper* mapper_;
  const double* r_flat_;
  const double* t_flat_;

  std::vector<RowIdPair> pairs_;
  std::vector<double> values_;

  std::vector<Task> tasks_;
  size_t cursor_task_ = 0;    // next task to expand
  size_t cursor_offset_ = 0;  // offset into that task's t_rows
};

}  // namespace progxe
