#include "progxe/region_loop.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

#include "obs/trace.h"

namespace progxe {

RegionLoop::RegionLoop(PreparedQuery* prep, const ProgXeOptions& options,
                       ProgXeStats* stats)
    : prep_(prep),
      options_(options),
      stats_(stats),
      regions_(&prep->lookahead.regions),
      faults_(options.faults != nullptr ? options.faults.get()
                                        : FaultInjector::FromEnv()),
      table_(prep->lookahead.output_grid, std::move(prep->lookahead.marked),
             stats),
      determine_(&table_),
      pipeline_(&prep->inputs->mapper, prep->inputs->r_contrib->flat().data(),
                prep->inputs->t_contrib->flat().data()) {
  const PreparedInputs& inputs = *prep->inputs;
  table_.InitCoverage(*regions_);

  if (options_.ordering == OrderingMode::kProgOrder) {
    el_graph_ = std::make_unique<ElGraph>(*regions_);
    stats_->elgraph_disabled = el_graph_->disabled();
  }

  CostModelParams cost_params;
  cost_params.sigma = inputs.sigma;
  cost_params.cells_per_dim = options_.output_cells_per_dim;
  cost_params.dims = inputs.k;

  std::vector<size_t> r_sizes;
  for (const auto& p : inputs.r_grid->partitions()) r_sizes.push_back(p.size());
  std::vector<size_t> t_sizes;
  for (const auto& p : inputs.t_grid->partitions()) t_sizes.push_back(p.size());

  order_ = std::make_unique<ProgOrder>(
      regions_, el_graph_.get(), &table_, cost_params, std::move(r_sizes),
      std::move(t_sizes), options_.ordering, options_.seed, stats_);

  for (const Region& region : *regions_) {
    if (region.Active()) ++active_regions_;
  }
  removed_.assign(regions_->size(), 0);
  result_.values.resize(static_cast<size_t>(inputs.k));

  // Classify regions against the refinement seed (if any): a region whose
  // best corner a seed point strictly dominates on *every* dimension can
  // emit no skyline member (the seed point is a genuine output of the same
  // sources+mapping, so some skyline member is at least as good as it —
  // and strictly better than everything the region could produce). The
  // strict all-dims test means a point never discards its own containing
  // region. Seeding only *removes* regions; the pick order stays
  // ProgOrder's, whose cost model is what progressiveness is tuned on.
  const RefinementSeed* seed = options_.refinement_seed.get();
  if (seed != nullptr && seed->k == inputs.k && seed->points() > 0) {
    const GridGeometry& geom = table_.geometry();
    const size_t kd = static_cast<size_t>(inputs.k);
    std::vector<double> lower(kd);
    for (const Region& region : *regions_) {
      if (!region.Active()) continue;
      for (size_t j = 0; j < kd; ++j) {
        lower[j] =
            geom.CellLower(static_cast<int>(j), region.lo_cell[j]);
      }
      for (size_t p = 0; p < seed->points(); ++p) {
        const double* pt = seed->canonical.data() + p * kd;
        bool dom = true;
        for (size_t j = 0; j < kd; ++j) {
          if (!(pt[j] < lower[j])) {
            dom = false;
            break;
          }
        }
        if (dom) {
          seed_discard_.push_back(region.id);  // ascending region id
          break;
        }
      }
    }
  }
  seed_applied_ = seed_discard_.empty();

  // Bucket the active regions by lo_cell for the runtime discard sweep.
  std::unordered_map<CellIndex, size_t> bucket_of;
  for (const Region& region : *regions_) {
    if (!region.Active()) continue;
    const CellIndex lo_index = table_.geometry().IndexOf(region.lo_cell.data());
    auto [it, inserted] =
        bucket_of.try_emplace(lo_index, discard_buckets_.size());
    if (inserted) {
      discard_buckets_.emplace_back();
      discard_buckets_.back().lo = region.lo_cell;
    }
    discard_buckets_[it->second].region_ids.push_back(region.id);
  }
}

bool RegionLoop::ReachedLimit() const {
  return options_.max_results != 0 &&
         stats_->results_emitted >= options_.max_results;
}

void RegionLoop::EmitCells(const std::vector<CellIndex>& cells,
                           std::vector<ResultTuple>* pending) {
  const int k = prep_->inputs->k;
  for (CellIndex c : cells) {
    if (ReachedLimit()) return;
    flush_values_.clear();
    flush_ids_.clear();
    table_.FlushCell(c, &flush_values_, &flush_ids_);
    ++stats_->cells_flushed;
    for (size_t i = 0; i < flush_ids_.size(); ++i) {
      result_.r_id = prep_->inputs->r_orig_ids[flush_ids_[i].r];
      result_.t_id = prep_->inputs->t_orig_ids[flush_ids_[i].t];
      for (int j = 0; j < k; ++j) {
        result_.values[static_cast<size_t>(j)] =
            prep_->inputs->mapper.Decanonicalize(
            j, flush_values_[i * static_cast<size_t>(k) +
                             static_cast<size_t>(j)]);
      }
      pending->push_back(result_);
      ++stats_->results_emitted;
      if (active_regions_ > 0) ++stats_->results_emitted_early;
      if (ReachedLimit()) return;
    }
  }
}

void RegionLoop::RemoveRegion(Region& region,
                              std::vector<ResultTuple>* pending) {
  if (removed_[static_cast<size_t>(region.id)]) return;
  removed_[static_cast<size_t>(region.id)] = 1;
  assert(active_regions_ > 0);
  --active_regions_;
  if (capturing_) {
    if (region.processed) {
      unwalked_.push_back(region.id);
    } else if (region.discarded) {
      newly_safe_.push_back(region.id);  // discarded unprocessed: safe
    }
  }
  table_.ReleaseRegionCoverage(region, &settled_scratch_);
  table_.DrainMarkedEvents(&marked_scratch_);
  determine_.OnCellsMarked(marked_scratch_);
  determine_.OnCellsSettled(settled_scratch_, &flush_scratch_);
  order_->OnRegionRemoved(region.id);
  EmitCells(flush_scratch_, pending);
}

void RegionLoop::DiscardSweep(std::vector<ResultTuple>* pending) {
  // Only runs when the frontier advanced since the last sweep; each bucket
  // is tested against the frontier entries logged since it last survived.
  const uint64_t epoch = table_.frontier_epoch();
  if (epoch == last_sweep_epoch_) return;
  TraceSpan span(trace_cats::kRegion, "region.discard");
  discard_scratch_.clear();
  for (size_t bi = 0; bi < discard_buckets_.size();) {
    DiscardBucket& bucket = discard_buckets_[bi];
    // Lazily drop regions that completed or were discarded meanwhile.
    std::erase_if(bucket.region_ids, [&](int32_t id) {
      return !(*regions_)[static_cast<size_t>(id)].Active();
    });
    if (bucket.region_ids.empty()) {
      // Permanently dead: swap-pop so later sweeps skip it entirely.
      if (bi + 1 != discard_buckets_.size()) {
        discard_buckets_[bi] = std::move(discard_buckets_.back());
      }
      discard_buckets_.pop_back();
      continue;
    }
    if (table_.FrontierDominatesSince(bucket.lo.data(),
                                      bucket.survived_epoch)) {
      discard_scratch_.insert(discard_scratch_.end(),
                              bucket.region_ids.begin(),
                              bucket.region_ids.end());
      if (bi + 1 != discard_buckets_.size()) {
        discard_buckets_[bi] = std::move(discard_buckets_.back());
      }
      discard_buckets_.pop_back();
      continue;
    }
    bucket.survived_epoch = epoch;
    ++bi;
  }
  // Discard in ascending region id — the order the full rescan used — so
  // flush/emission order is byte-for-byte stable.
  std::sort(discard_scratch_.begin(), discard_scratch_.end());
  for (int32_t id : discard_scratch_) {
    Region& other = (*regions_)[static_cast<size_t>(id)];
    if (!other.Active()) continue;
    other.discarded = true;
    ++stats_->regions_discarded_runtime;
    RemoveRegion(other, pending);
  }
  last_sweep_epoch_ = epoch;
}

void RegionLoop::CompletenessSweep(std::vector<ResultTuple>* pending) {
  // Every populated unmarked cell must have flushed by now.
  for (CellIndex c : table_.PopulatedCells()) {
    if (!table_.emitted(c) && !table_.marked(c)) {
      // Unreachable by construction; fail loudly in debug, recover in
      // release so no result is ever lost.
      assert(false && "cell missed by progressive determination");
      std::vector<CellIndex> one{c};
      EmitCells(one, pending);
    }
  }
}

void RegionLoop::FinishRegion(Region& region,
                              std::vector<ResultTuple>* pending) {
  region.processed = true;
  ++stats_->regions_processed;

  {
    TraceSpan span(trace_cats::kRegion, "region.flush");
    span.arg("region", region.id);
    // Kill events produced during insertion must reach ProgDetermine
    // before settle processing.
    table_.DrainMarkedEvents(&marked_scratch_);
    determine_.OnCellsMarked(marked_scratch_);
    RemoveRegion(region, pending);
  }

  DiscardSweep(pending);
}

void RegionLoop::RemainingLowerBound(std::vector<double>* lo) const {
  if (done_) return;
  const GridGeometry& geom = table_.geometry();
  const int k = geom.dimensions();
  for (const Region& region : *regions_) {
    if (!region.Active()) continue;
    for (int d = 0; d < k; ++d) {
      const double edge = geom.CellLower(d, region.lo_cell[static_cast<size_t>(d)]);
      double& slot = (*lo)[static_cast<size_t>(d)];
      if (edge < slot) slot = edge;
    }
  }
}

void RegionLoop::ApplySeedDiscards(std::vector<ResultTuple>* pending) {
  // Ascending region id (seed_discard_ is built in region order), mirroring
  // the runtime discard sweep so flush/emission order is deterministic.
  seed_applied_ = true;
  for (int32_t id : seed_discard_) {
    Region& region = (*regions_)[static_cast<size_t>(id)];
    if (!region.Active()) continue;
    region.discarded = true;
    ++stats_->regions_discarded_seed;
    RemoveRegion(region, pending);
  }
  seed_discard_.clear();
  seed_discard_.shrink_to_fit();
}

void RegionLoop::StartCapture() {
  capturing_ = true;
  table_.EnableStateLog();
  const GridGeometry& geom = table_.geometry();
  const size_t side = static_cast<size_t>(geom.cells_per_dim());
  prefix_offset_.assign(static_cast<size_t>(geom.dimensions()), 0);
  size_t counters = 0;
  size_t level_size = 1;
  for (size_t j = 1; j < prefix_offset_.size(); ++j) {
    level_size *= side;
    prefix_offset_[j] = counters;
    counters += level_size;
  }
  prefix_pending_.assign(counters, 0);
  pending_cells_.assign(static_cast<size_t>(geom.total_cells()), 0);
  for (CellIndex c : table_.PopulatedCells()) {
    if (!table_.pending(c)) continue;
    pending_cells_[static_cast<size_t>(c)] = 1;
    CountPending(c, +1);
  }
  watch_head_.assign(static_cast<size_t>(geom.total_cells()) / side, -1);
  watch_next_.assign(regions_->size(), -1);
  witness_.assign(regions_->size(), -1);
  for (size_t id = 0; id < regions_->size(); ++id) {
    if (!removed_[id]) continue;
    const Region& region = (*regions_)[id];
    if (region.processed) {
      unwalked_.push_back(static_cast<int32_t>(id));
    } else if (region.discarded) {
      newly_safe_.push_back(static_cast<int32_t>(id));
    }
  }
}

void RegionLoop::RefreshSkipSafety() {
  // Flips since the last export bring the pending map and the prefix counts
  // up to date. They are folded per cell first, so a cell filled and
  // flushed in between nets out: while folding, bit 1 of a cell's byte
  // marks it touched and bit 2 keeps its old pending bit. The touched cells
  // that stopped being pending stay in touched_cells_.
  table_.DrainStateLog(&flip_scratch_);
  touched_cells_.clear();
  for (const OutputTable::PendingFlip& flip : flip_scratch_) {
    uint8_t& state = pending_cells_[static_cast<size_t>(flip.cell)];
    if ((state & 2) == 0) {
      state = static_cast<uint8_t>(state | 2 | (state << 2));
      touched_cells_.push_back(flip.cell);
    }
    assert(static_cast<int32_t>(state & 1) + flip.delta >= 0 &&
           static_cast<int32_t>(state & 1) + flip.delta <= 1);
    state = static_cast<uint8_t>(state + flip.delta);
  }
  size_t lost = 0;
  for (const CellIndex cell : touched_cells_) {
    uint8_t& state = pending_cells_[static_cast<size_t>(cell)];
    const int32_t delta = static_cast<int32_t>(state & 1) - ((state >> 2) & 1);
    state &= 1;
    if (delta == 0) continue;
    CountPending(cell, delta);
    if (delta < 0) touched_cells_[lost++] = cell;
  }
  touched_cells_.resize(lost);

  // Regions whose witness stopped being pending look for another one.
  const CellIndex side = table_.geometry().cells_per_dim();
  rewatch_.clear();
  for (const CellIndex cell : touched_cells_) {
    int32_t* link = &watch_head_[static_cast<size_t>(cell / side)];
    while (*link >= 0) {
      const size_t id = static_cast<size_t>(*link);
      if (witness_[id] == cell) {
        rewatch_.push_back(*link);
        *link = watch_next_[id];
      } else {
        link = &watch_next_[id];
      }
    }
  }
  for (int32_t id : rewatch_) Watch(id);
  // Regions processed since the last export look for their first one.
  for (int32_t id : unwalked_) Watch(id);
  unwalked_.clear();

  if (!newly_safe_.empty()) {
    std::sort(newly_safe_.begin(), newly_safe_.end());
    const size_t mid = skip_list_.size();
    skip_list_.insert(skip_list_.end(), newly_safe_.begin(),
                      newly_safe_.end());
    std::inplace_merge(skip_list_.begin(),
                       skip_list_.begin() + static_cast<ptrdiff_t>(mid),
                       skip_list_.end());
    newly_safe_.clear();
  }
}

void RegionLoop::Watch(int32_t id) {
  const Region& region = (*regions_)[static_cast<size_t>(id)];
  const CellIndex witness = FindPending(region, 0, 0);
  if (witness < 0) {  // no pending cell left: all its tuples are settled
    newly_safe_.push_back(id);
    skip_pairs_ += region.join_pairs;
    return;
  }
  const CellIndex side = table_.geometry().cells_per_dim();
  int32_t& head = watch_head_[static_cast<size_t>(witness / side)];
  witness_[static_cast<size_t>(id)] = witness;
  watch_next_[static_cast<size_t>(id)] = head;
  head = id;
}

CellIndex RegionLoop::FindPending(const Region& region, int level,
                                  CellIndex prefix) const {
  const GridGeometry& geom = table_.geometry();
  const CellIndex side = geom.cells_per_dim();
  const CellCoord lo = region.lo_cell[static_cast<size_t>(level)];
  const CellCoord hi = region.hi_cell[static_cast<size_t>(level)];
  if (level == geom.dimensions() - 1) {
    const uint8_t* row = pending_cells_.data() + prefix * side;
    for (CellCoord x = lo; x <= hi; ++x) {
      if (row[x] != 0) return prefix * side + x;
    }
    return -1;
  }
  const int32_t* counts =
      prefix_pending_.data() + prefix_offset_[static_cast<size_t>(level) + 1];
  for (CellCoord x = lo; x <= hi; ++x) {
    const CellIndex child = prefix * side + x;
    if (counts[child] == 0) continue;
    const CellIndex found = FindPending(region, level + 1, child);
    if (found >= 0) return found;
  }
  return -1;
}

void RegionLoop::CountPending(CellIndex cell, int32_t delta) {
  const CellIndex side = table_.geometry().cells_per_dim();
  for (size_t j = prefix_offset_.size(); j-- > 1;) {
    cell /= side;
    prefix_pending_[prefix_offset_[j] + static_cast<size_t>(cell)] += delta;
  }
}

bool RegionLoop::ExportCheckpoint(SessionCheckpoint* out) {
  // Only at a region boundary on a healthy, unfinished loop, and only when
  // no result cap is in play: with max_results set, EmitCells may truncate
  // a flush mid-cell, so "emitted" would no longer imply "delivered".
  if (done_ || current_region_ >= 0 || !status_.ok() ||
      options_.max_results != 0) {
    return false;
  }
  TraceSpan span(trace_cats::kRegion, "checkpoint.export");
  if (!capturing_) StartCapture();
  RefreshSkipSafety();
  span.arg("skips", static_cast<int64_t>(skip_list_.size()));
  if (skip_list_.size() <= skips_exported_) return false;
  skips_exported_ = skip_list_.size();
  out->k = static_cast<uint32_t>(prep_->inputs->k);
  out->frontier_epoch = table_.frontier_epoch();
  out->region_count = regions_->size();
  out->replay_pairs_saved = skip_pairs_;
  out->skip_regions = skip_list_;
  return true;
}

Status RegionLoop::RestoreCheckpoint(const SessionCheckpoint& checkpoint) {
  if (resumed_ || current_region_ >= 0 || done_ || !status_.ok()) {
    return Status::InvalidArgument(
        "RestoreCheckpoint: loop is not freshly constructed");
  }
  if (checkpoint.k != static_cast<uint32_t>(prep_->inputs->k)) {
    return Status::InvalidArgument("checkpoint dimensionality mismatch");
  }
  if (checkpoint.region_count != regions_->size()) {
    return Status::InvalidArgument("checkpoint region count mismatch");
  }
  int32_t prev = -1;
  for (int32_t id : checkpoint.skip_regions) {
    if (id <= prev || static_cast<size_t>(id) >= regions_->size()) {
      return Status::InvalidArgument("checkpoint skip list malformed");
    }
    if (!(*regions_)[static_cast<size_t>(id)].Active()) {
      return Status::InvalidArgument("checkpoint skips an inactive region");
    }
    prev = id;
  }
  // Mirror RemoveRegion, minus emission and stats: on the fresh table the
  // settled cells are empty, so ProgDetermine never offers them for flush
  // (and they can never repopulate — no active region covers them). The
  // dead incarnation's counters travel separately (shard lost_stats).
  for (int32_t id : checkpoint.skip_regions) {
    Region& region = (*regions_)[static_cast<size_t>(id)];
    region.discarded = true;
    removed_[static_cast<size_t>(id)] = 1;
    if (capturing_) newly_safe_.push_back(id);
    assert(active_regions_ > 0);
    --active_regions_;
    table_.ReleaseRegionCoverage(region, &settled_scratch_);
    table_.DrainMarkedEvents(&marked_scratch_);
    determine_.OnCellsMarked(marked_scratch_);
    determine_.OnCellsSettled(settled_scratch_, &flush_scratch_);
    order_->OnRegionRemoved(region.id);
  }
  resumed_ = !checkpoint.skip_regions.empty();
  replay_pairs_saved_ = resumed_ ? checkpoint.replay_pairs_saved : 0;
  resumed_regions_skipped_ =
      static_cast<uint32_t>(checkpoint.skip_regions.size());
  return Status::OK();
}

bool RegionLoop::Step(std::vector<ResultTuple>* pending, size_t max_pairs) {
  if (done_) return false;
  // Seed discards apply lazily on the first Step so their flushed results
  // land in a caller-visible pending vector.
  if (!seed_applied_) ApplySeedDiscards(pending);
  for (;;) {
    if (current_region_ < 0) {
      if (ReachedLimit()) {  // early termination (max_results)
        stats_->dominance_comparisons += table_.dom_counter()->comparisons;
        table_.dom_counter()->comparisons = 0;
        done_ = true;
        return false;
      }
      int32_t next;
      {
        TraceSpan span(trace_cats::kRegion, "region.pick");
        next = order_->PopNext();
        span.arg("region", next);
      }
      if (next < 0) {
        stats_->dominance_comparisons += table_.dom_counter()->comparisons;
        table_.dom_counter()->comparisons = 0;
        CompletenessSweep(pending);
        done_ = true;
        return false;
      }
      Region& picked = (*regions_)[static_cast<size_t>(next)];
      if (!picked.Active()) continue;

      pipeline_.BeginRegion(
          prep_->inputs->r_grid->partitions()[static_cast<size_t>(picked.a)],
          prep_->inputs->t_grid->partitions()[static_cast<size_t>(picked.b)]);
      current_region_ = next;
    }

    // Advance the open region by ~max_pairs pairs (0 = all); flush only
    // once it is exhausted, so the table sees the identical insert stream
    // wherever a slice yields.
    Status fault = MaybeInjectFault(faults_, fault_sites::kPipelineChunk,
                                    options_.fault_instance);
    if (PROGXE_PREDICT_FALSE(!fault.ok())) {
      status_ = std::move(fault);
      done_ = true;
      return false;
    }
    Region& region = (*regions_)[static_cast<size_t>(current_region_)];
    {
      TraceSpan span(trace_cats::kRegion, "region.pipeline");
      span.arg("region", current_region_);
      const uint64_t pairs = pipeline_.ProcessSome(max_pairs, &table_);
      stats_->join_pairs_generated += pairs;
      region.join_pairs += pairs;
      span.arg("pairs", static_cast<int64_t>(pairs));
    }
    if (!pipeline_.RegionExhausted()) return true;  // yielded mid-region
    current_region_ = -1;
    FinishRegion(region, pending);
    return true;
  }
}

}  // namespace progxe
