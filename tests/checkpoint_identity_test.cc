// Checkpoint identity: RegionLoop::ExportCheckpoint maintains skip-safety
// incrementally (a pending-state flip log plus one witness cell per region).
// These tests pin it to the rule it replaces, recomputed from scratch at
// every capture point: a removed region is skip-safe iff it was discarded
// without processing, or it was processed and no cell in its coverage box
// is pending (populated && !emitted && !marked); positive verdicts are
// kept across exports.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "harness/workload.h"
#include "mapping/canonical.h"
#include "progxe/prepare.h"
#include "progxe/region_loop.h"

namespace progxe {
namespace {

/// The full-scan skip rule. `safe` caches positive verdicts across calls,
/// exactly like the per-region cache the full scan kept.
struct ReferenceSkips {
  std::vector<uint8_t> safe;

  /// Fills the sorted skip list and the join pairs its processed regions
  /// generated, reading the table only through the loop's const view.
  void Compute(const std::vector<Region>& regions, const OutputTable& table,
               std::vector<int32_t>* skips, uint64_t* pairs) {
    if (safe.size() != regions.size()) safe.assign(regions.size(), 0);
    skips->clear();
    *pairs = 0;
    const GridGeometry& geom = table.geometry();
    for (size_t id = 0; id < regions.size(); ++id) {
      const Region& region = regions[id];
      // At a region boundary a region has been removed iff it is no longer
      // active for a reason other than look-ahead pruning.
      if (region.pruned || region.Active()) continue;
      if (!safe[id]) {
        bool ok = false;
        if (region.discarded && !region.processed) {
          ok = true;
        } else if (region.processed) {
          ok = true;
          geom.ForEachCellInBox(
              region.lo_cell.data(), region.hi_cell.data(), [&](CellIndex c) {
                if (table.populated(c) && !table.emitted(c) &&
                    !table.marked(c)) {
                  ok = false;
                }
              });
        }
        if (!ok) continue;
        safe[id] = 1;
      }
      skips->push_back(static_cast<int32_t>(id));
      if (region.processed) *pairs += region.join_pairs;
    }
  }
};

struct Case {
  Distribution distribution;
  size_t cardinality;
  int dims;
  double sigma;
  uint64_t seed;
  /// Output grid resolution (0 = automatic). The 4-d cases use a coarser
  /// grid so the from-scratch reference stays fast.
  int output_cells_per_dim;

  ProgXeOptions Options() const {
    ProgXeOptions options;
    options.output_cells_per_dim = output_cells_per_dim;
    return options;
  }
};

Workload MakeWorkload(const Case& c) {
  WorkloadParams params;
  params.distribution = c.distribution;
  params.cardinality = c.cardinality;
  params.dims = c.dims;
  params.sigma = c.sigma;
  params.seed = c.seed;
  return Workload::Make(params).MoveValue();
}

struct LoopUnderTest {
  ProgXeOptions options;
  ProgXeStats stats;
  PreparedQuery prep;
  std::unique_ptr<RegionLoop> loop;

  LoopUnderTest(const SkyMapJoinQuery& query, ProgXeOptions opts)
      : options(std::move(opts)) {
    EXPECT_TRUE(PreparePhase(query, &options, &stats, &prep).ok());
    EXPECT_FALSE(prep.trivially_empty);
    loop = std::make_unique<RegionLoop>(&prep, options, &stats);
  }
};

/// Steps `t` to completion, exporting every `cadence`-th step and comparing
/// each export with the reference. An export is refused mid-region and
/// when the skip set has not grown; after a whole-region step (`max_pairs`
/// 0) only the latter applies, so the reference must then still equal the
/// last export. With `stop_at_skips` > 0 it stops at the first export that
/// lists at least that many regions. Returns the number of exports
/// compared; `last` receives the final export.
int StepAndCompare(LoopUnderTest* t, size_t max_pairs, int cadence,
                   size_t stop_at_skips, SessionCheckpoint* last) {
  ReferenceSkips reference;
  std::vector<ResultTuple> pending;
  std::vector<int32_t> expected;
  uint64_t expected_pairs = 0;
  int compared = 0;
  for (int step = 1;; ++step) {
    if (!t->loop->Step(&pending, max_pairs)) break;
    if (step % cadence != 0) continue;
    SessionCheckpoint checkpoint;
    const bool exported = t->loop->ExportCheckpoint(&checkpoint);
    if (!exported && max_pairs != 0) continue;  // possibly mid-region
    reference.Compute(t->prep.lookahead.regions,
                      t->loop->table_for_testing(), &expected,
                      &expected_pairs);
    if (!exported) {
      // Unchanged: the skip set the caller already holds is current.
      EXPECT_EQ(last->skip_regions, expected) << "step " << step;
      continue;
    }
    EXPECT_EQ(checkpoint.skip_regions, expected) << "step " << step;
    EXPECT_EQ(checkpoint.replay_pairs_saved, expected_pairs) << "step " << step;
    EXPECT_EQ(checkpoint.region_count, t->prep.lookahead.regions.size());
    *last = checkpoint;
    ++compared;
    if (stop_at_skips > 0 && checkpoint.skip_regions.size() >= stop_at_skips) {
      break;
    }
  }
  return compared;
}

// Output dimensionality 2, 3 and 4 on both distributions.
const Case kCases[] = {
    {Distribution::kAntiCorrelated, 2000, 3, 0.005, 3, 0},
    {Distribution::kAntiCorrelated, 1500, 4, 0.01, 17, 10},
    {Distribution::kIndependent, 2000, 2, 0.005, 5, 0},
    {Distribution::kIndependent, 1500, 4, 0.01, 29, 10},
};

TEST(CheckpointIdentity, EveryExportMatchesFullScan) {
  for (const Case& c : kCases) {
    const Workload workload = MakeWorkload(c);
    for (const int cadence : {1, 3}) {
      LoopUnderTest t(workload.query(), c.Options());
      SessionCheckpoint last;
      const int compared = StepAndCompare(&t, /*max_pairs=*/0, cadence,
                                          /*stop_at_skips=*/0, &last);
      EXPECT_GT(compared, 0) << "seed " << c.seed;
      EXPECT_FALSE(last.skip_regions.empty()) << "seed " << c.seed;
      // replay_pairs_saved counts pairs actually generated: never more
      // than the whole run's join pairs.
      EXPECT_LE(last.replay_pairs_saved, t.stats.join_pairs_generated);
      uint64_t per_region = 0;
      for (const Region& region : t.prep.lookahead.regions) {
        per_region += region.join_pairs;
      }
      EXPECT_EQ(per_region, t.stats.join_pairs_generated);
    }
  }
}

TEST(CheckpointIdentity, SlicedStepsExportOnlyAtRegionBoundaries) {
  const Workload workload = MakeWorkload(kCases[0]);
  LoopUnderTest t(workload.query(), kCases[0].Options());
  SessionCheckpoint last;
  EXPECT_GT(StepAndCompare(&t, /*max_pairs=*/64, 1, 0, &last), 0);
}

TEST(CheckpointIdentity, RefinementSeededLoop) {
  for (const Case& c : {kCases[0], kCases[2]}) {
    const Workload workload = MakeWorkload(c);
    const SkyMapJoinQuery query = workload.query();
    // Seed the query from its own skyline: most regions then go through
    // the seed-discard path (discarded without processing).
    std::vector<ResultTuple> results;
    {
      LoopUnderTest parent(query, c.Options());
      while (parent.loop->Step(&results)) {
      }
    }
    CanonicalMapper mapper(query.map, query.pref);
    auto seed = std::make_shared<RefinementSeed>();
    seed->k = query.map.output_dimensions();
    for (const ResultTuple& res : results) {
      for (int j = 0; j < seed->k; ++j) {
        seed->canonical.push_back(mapper.Canonicalize(j, res.values[j]));
      }
    }
    ProgXeOptions options = c.Options();
    options.refinement_seed = seed;
    LoopUnderTest t(query, options);
    SessionCheckpoint last;
    EXPECT_GT(StepAndCompare(&t, 0, 1, 0, &last), 0);
    EXPECT_GT(t.stats.regions_discarded_seed, 0u) << "seed " << c.seed;
  }
}

TEST(CheckpointIdentity, ResumedLoop) {
  for (const Case& c : {kCases[1], kCases[3]}) {
    const Workload workload = MakeWorkload(c);
    SessionCheckpoint checkpoint;
    {
      LoopUnderTest first(workload.query(), c.Options());
      EXPECT_GT(StepAndCompare(&first, 0, 1, /*stop_at_skips=*/8,
                               &checkpoint),
                0);
    }
    ASSERT_GE(checkpoint.skip_regions.size(), 8u) << "seed " << c.seed;
    LoopUnderTest resumed(workload.query(), c.Options());
    ASSERT_TRUE(resumed.loop->RestoreCheckpoint(checkpoint).ok());
    SessionCheckpoint last;
    EXPECT_GT(StepAndCompare(&resumed, 0, 1, 0, &last), 0);
    // The restored regions stay skip-safe in the resumed incarnation.
    for (int32_t id : checkpoint.skip_regions) {
      EXPECT_TRUE(std::binary_search(last.skip_regions.begin(),
                                     last.skip_regions.end(), id));
    }
  }
}

TEST(CheckpointIdentity, LoopThatNeverExportsNeverLogs) {
  const Workload workload = MakeWorkload(kCases[0]);
  {
    LoopUnderTest t(workload.query(), kCases[0].Options());
    std::vector<ResultTuple> pending;
    while (t.loop->Step(&pending)) {
    }
    EXPECT_FALSE(t.loop->table_for_testing().state_log_enabled());
  }
  {
    // A result cap makes every export refuse, so capture never starts.
    ProgXeOptions options = kCases[0].Options();
    options.max_results = 5;
    LoopUnderTest t(workload.query(), options);
    std::vector<ResultTuple> pending;
    SessionCheckpoint checkpoint;
    while (t.loop->Step(&pending)) {
      EXPECT_FALSE(t.loop->ExportCheckpoint(&checkpoint));
    }
    EXPECT_FALSE(t.loop->table_for_testing().state_log_enabled());
  }
}

TEST(CheckpointIdentity, UnchangedSkipSetIsNotExportedAgain) {
  const Workload workload = MakeWorkload(kCases[2]);
  LoopUnderTest t(workload.query(), kCases[2].Options());
  std::vector<ResultTuple> pending;
  size_t exported_skips = 0;
  size_t shipped = 0;
  while (t.loop->Step(&pending)) {
    SessionCheckpoint grown;
    if (t.loop->ExportCheckpoint(&grown)) {
      EXPECT_GT(grown.skip_regions.size(), exported_skips);
      exported_skips = grown.skip_regions.size();
      ++shipped;
    }
    // Nothing ran since: the set cannot have grown.
    SessionCheckpoint again;
    EXPECT_FALSE(t.loop->ExportCheckpoint(&again));
    EXPECT_TRUE(again.skip_regions.empty());
  }
  EXPECT_GT(shipped, 1u);
}

}  // namespace
}  // namespace progxe
