#include "progxe/pipeline.h"

namespace progxe {

RegionJoinPipeline::RegionJoinPipeline(const CanonicalMapper* mapper,
                                       const double* r_flat,
                                       const double* t_flat)
    : mapper_(mapper),
      r_flat_(r_flat),
      t_flat_(t_flat),
      pairs_(kInsertBlock),
      values_(kInsertBlock *
              static_cast<size_t>(mapper->output_dimensions())) {}

void RegionJoinPipeline::BeginRegion(const InputPartition& pa,
                                     const InputPartition& pb) {
  tasks_.clear();
  pa.key_index.ForEach([&](JoinKey key, const std::vector<RowId>& r_rows) {
    const std::vector<RowId>* t_rows = pb.key_index.Find(key);
    if (t_rows == nullptr) return;
    for (RowId r : r_rows) tasks_.push_back(Task{r, t_rows});
  });
  cursor_task_ = 0;
  cursor_offset_ = 0;
}

uint64_t RegionJoinPipeline::ProcessSome(size_t max_pairs,
                                         OutputTable* table) {
  uint64_t done = 0;
  while (cursor_task_ < tasks_.size()) {
    // Fill one insert block from the cursor, spanning tasks exactly like
    // JoinIndexesBatched spans join groups.
    size_t n = 0;
    while (n < kInsertBlock && cursor_task_ < tasks_.size()) {
      const Task& task = tasks_[cursor_task_];
      const std::vector<RowId>& t_rows = *task.t_rows;
      while (cursor_offset_ < t_rows.size() && n < kInsertBlock) {
        pairs_[n++] = RowIdPair{task.r, t_rows[cursor_offset_++]};
      }
      if (cursor_offset_ == t_rows.size()) {
        ++cursor_task_;
        cursor_offset_ = 0;
      }
    }
    mapper_->CombineBatch(pairs_.data(), n, r_flat_, t_flat_, values_.data());
    table->InsertBatch(values_.data(), pairs_.data(), n);
    done += n;
    if (max_pairs != 0 && done >= max_pairs) break;
  }
  return done;
}

}  // namespace progxe
