// Randomized equivalence tests for the batched tuple pipeline: across many
// seeded configs — including heavy ties, high join selectivity and
// max_results early termination — the executor must emit exactly the same
// result multiset as SkylineReference applied to the full materialized
// join, and the early-terminated prefix must be a subset of it. A golden
// table pins the work counters of a fixed subset of configs; it was taken
// while the per-tuple insert path still existed and matched the batched
// path counter for counter, so it also pins batching as cost-only.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "equivalence_common.h"

namespace progxe {
namespace {

using test::Config;
using test::MakeConfig;

std::vector<std::pair<RowId, RowId>> Sorted(
    const std::vector<ResultTuple>& results) {
  std::vector<std::pair<RowId, RowId>> ids;
  for (const auto& r : results) ids.emplace_back(r.r_id, r.t_id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

Result<std::vector<ResultTuple>> RunConfig(const Config& cfg,
                                           ProgXeStats* stats,
                                           size_t max_results = 0) {
  ProgXeOptions options;
  options.max_results = max_results;
  options.seed = 0xfeed;
  return RunProgXe(cfg.query(), options, stats);
}

/// Counters of one (config, max_results) run, recorded with the per-tuple
/// and batched insert paths asserted equal.
struct GoldenCounters {
  int param;
  size_t max_results;  // 0 = full run, else 1 + |oracle| / 2
  uint64_t join_pairs_generated;
  uint64_t dominance_comparisons;
  uint64_t tuples_dominated_on_insert;
  uint64_t tuples_evicted;
  size_t results_emitted;
};

constexpr GoldenCounters kGolden[] = {
    {0, 0, 17451, 13605, 13433, 32, 13},
    {0, 7, 1170, 1283, 1127, 32, 7},
    {1, 0, 1397, 153, 94, 33, 7},
    {1, 4, 415, 113, 54, 33, 4},
    {2, 0, 11657, 11727, 6847, 59, 43},
    {2, 22, 5172, 9303, 4819, 59, 22},
    {3, 0, 2734, 2832, 2606, 105, 23},
    {3, 12, 2734, 2832, 2606, 105, 12},
    {4, 0, 8349, 5429, 5256, 31, 1},
    {4, 1, 1484, 1336, 1163, 31, 1},
    {5, 0, 1458, 24, 10, 11, 9},
    {5, 5, 863, 19, 7, 11, 5},
    {6, 0, 1620, 1670, 1546, 54, 20},
    {6, 11, 1620, 1670, 1546, 54, 11},
    {7, 0, 255, 15, 6, 11, 1},
    {7, 1, 59, 11, 2, 11, 1},
    {8, 0, 17636, 16437869, 0, 0, 17636},
    {8, 8819, 12140, 4290233, 0, 0, 8819},
    {9, 0, 4386, 4431, 4354, 31, 1},
    {9, 1, 1368, 1413, 1336, 31, 1},
    {10, 0, 2034, 127, 91, 22, 6},
    {10, 4, 645, 107, 71, 22, 4},
    {11, 0, 2892, 129, 96, 22, 2},
    {11, 2, 1329, 110, 77, 22, 2},
};

/// Configs [0, kGoldenParams) cover every tied/high-sigma combination.
constexpr int kGoldenParams = 12;

/// Checks `stats` against the golden row for (param, max_results); params
/// below kGoldenParams must have one.
void ExpectGolden(int param, size_t max_results, const ProgXeStats& stats) {
  if (param >= kGoldenParams) return;
  SCOPED_TRACE("param=" + std::to_string(param) +
               " max_results=" + std::to_string(max_results));
  for (const GoldenCounters& g : kGolden) {
    if (g.param != param || g.max_results != max_results) continue;
    EXPECT_EQ(stats.join_pairs_generated, g.join_pairs_generated);
    EXPECT_EQ(stats.dominance_comparisons, g.dominance_comparisons);
    EXPECT_EQ(stats.tuples_dominated_on_insert, g.tuples_dominated_on_insert);
    EXPECT_EQ(stats.tuples_evicted, g.tuples_evicted);
    EXPECT_EQ(stats.results_emitted, g.results_emitted);
    return;
  }
  ADD_FAILURE() << "no golden row";
}

class BatchedEquivalenceSweep : public ::testing::TestWithParam<int> {};

TEST_P(BatchedEquivalenceSweep, MatchesOracleAndGoldenCounters) {
  const int param = GetParam();
  Rng rng(0xba7c4 + static_cast<uint64_t>(param));
  // Every third config is heavily tied; every fourth has high sigma.
  const Config cfg = MakeConfig(&rng, param % 3 == 0, param % 4 == 0);
  const auto oracle = test::SkylineOracle(cfg);

  ProgXeStats stats;
  auto results = RunConfig(cfg, &stats);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(Sorted(results.value()), oracle) << "param=" << param;
  ExpectGolden(param, 0, stats);

  // max_results early termination: the emitted prefix must be a subset of
  // the oracle.
  if (!oracle.empty()) {
    const size_t limit = 1 + oracle.size() / 2;
    ProgXeStats early_stats;
    auto early = RunConfig(cfg, &early_stats, limit);
    ASSERT_TRUE(early.ok());
    const auto early_ids = Sorted(early.value());
    EXPECT_LE(early_ids.size(), limit);
    EXPECT_TRUE(std::includes(oracle.begin(), oracle.end(),
                              early_ids.begin(), early_ids.end()))
        << "emitted prefix must be final skyline members, param=" << param;
    ExpectGolden(param, limit, early_stats);
  }
}

// 56 random configs, each with a full and an early-terminated run; the
// first kGoldenParams are golden-pinned.
INSTANTIATE_TEST_SUITE_P(Seeds, BatchedEquivalenceSweep,
                         ::testing::Range(0, 56));

}  // namespace
}  // namespace progxe
