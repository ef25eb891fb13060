// Shared helpers for the executor-equivalence test suites
// (batched_equivalence_test, session_test, the shard and net suites): a
// randomized SkyMapJoin config generator, the materialize-and-skyline
// oracle and the ProgXeStats counter-identity assertion. Keeping these in
// one place means a counter added to ProgXeStats is guarded by every
// equivalence suite at once.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "data/generator.h"
#include "progxe/executor.h"
#include "skyline/skyline.h"

namespace progxe {
namespace test {

struct Config {
  Relation r{Schema::Anonymous(0)};
  Relation t{Schema::Anonymous(0)};
  MapSpec map;
  Preference pref;

  SkyMapJoinQuery query() const {
    SkyMapJoinQuery q;
    q.r = &r;
    q.t = &t;
    q.map = map;
    q.pref = pref;
    return q;
  }
};

/// Random query in the style of random_query_test, plus two stress knobs:
/// `tied` forces one output dimension to a constant (every join result ties
/// on it) and `high_sigma` pushes join selectivity into the 0.2-0.5 range.
inline Config MakeConfig(Rng* rng, bool tied, bool high_sigma) {
  Config cfg;
  const int src_dims = 2 + static_cast<int>(rng->NextBelow(3));
  const int out_dims = 2 + static_cast<int>(rng->NextBelow(2));
  const double sigma = high_sigma ? 0.2 + rng->NextDouble() * 0.3
                                  : 0.01 + rng->NextDouble() * 0.19;

  GeneratorOptions gen;
  gen.distribution = static_cast<Distribution>(rng->NextBelow(3));
  gen.cardinality = 120 + rng->NextBelow(200);
  gen.num_attributes = src_dims;
  gen.join_selectivity = sigma;
  gen.seed = rng->Next();
  cfg.r = GenerateRelation(gen).MoveValue();
  gen.seed = rng->Next();
  gen.cardinality = 120 + rng->NextBelow(200);
  cfg.t = GenerateRelation(gen).MoveValue();

  std::vector<MapFunc> funcs;
  std::vector<Direction> dirs;
  for (int j = 0; j < out_dims; ++j) {
    std::vector<MapTerm> terms;
    const int nterms = 1 + static_cast<int>(rng->NextBelow(3));
    for (int i = 0; i < nterms; ++i) {
      // Weight 0 on every term of a tied dimension: the dimension becomes
      // the constant, so all join results collide there.
      const double weight =
          tied && j == 0 ? 0.0 : rng->Uniform(0.2, 3.0);
      terms.push_back(MapTerm{
          rng->Bernoulli(0.5) ? Side::kR : Side::kT,
          static_cast<int>(rng->NextBelow(static_cast<uint64_t>(src_dims))),
          weight});
    }
    funcs.push_back(MapFunc(terms, rng->Uniform(0.0, 10.0),
                            static_cast<Transform>(rng->NextBelow(4))));
    dirs.push_back(rng->Bernoulli(0.3) ? Direction::kHighest
                                       : Direction::kLowest);
  }
  cfg.map = MapSpec(std::move(funcs));
  cfg.pref = Preference(std::move(dirs));
  return cfg;
}

/// MakeConfig with every R row appended a second time (same attributes,
/// same join key): each join pair then has a twin pair with an identical
/// output point, so every shard's local skyline is full of exact ties.
inline Config MakeTwinConfig(Rng* rng, bool high_sigma) {
  Config cfg = MakeConfig(rng, /*tied=*/false, high_sigma);
  const RowId n = static_cast<RowId>(cfg.r.size());
  for (RowId i = 0; i < n; ++i) {
    // Copy first: appending may reallocate the storage attrs() points into.
    const std::vector<double> attrs(cfg.r.attrs(i).begin(),
                                    cfg.r.attrs(i).end());
    cfg.r.Append(attrs, cfg.r.join_key(i));
  }
  return cfg;
}

/// The canonical (minimize-all) output point of join pair (a, b).
inline std::vector<double> CanonicalPoint(const Config& cfg, RowId a,
                                          RowId b) {
  const int k = cfg.map.output_dimensions();
  std::vector<double> v(static_cast<size_t>(k));
  cfg.map.Eval(cfg.r.attrs(a), cfg.t.attrs(b), v.data());
  for (int j = 0; j < k; ++j) {
    v[static_cast<size_t>(j)] =
        cfg.pref.Canonicalize(j, v[static_cast<size_t>(j)]);
  }
  return v;
}

/// The reference answer: materialize the join, canonicalize the mapped
/// values under the preference and run the O(n^2) SkylineReference. Sorted
/// (r_id, t_id) pairs; exact ties all survive, so this is a multiset.
inline std::vector<std::pair<RowId, RowId>> SkylineOracle(const Config& cfg) {
  const int k = cfg.map.output_dimensions();
  std::vector<double> canon;
  std::vector<std::pair<RowId, RowId>> ids;
  for (RowId a = 0; a < cfg.r.size(); ++a) {
    for (RowId b = 0; b < cfg.t.size(); ++b) {
      if (cfg.r.join_key(a) != cfg.t.join_key(b)) continue;
      const std::vector<double> point = CanonicalPoint(cfg, a, b);
      canon.insert(canon.end(), point.begin(), point.end());
      ids.emplace_back(a, b);
    }
  }
  PointView view{canon.data(), ids.size(), k};
  std::vector<std::pair<RowId, RowId>> skyline;
  for (uint32_t idx : SkylineReference(view)) {
    skyline.push_back(ids[idx]);
  }
  std::sort(skyline.begin(), skyline.end());
  return skyline;
}

/// The counters that define the pipeline's observable work. Every
/// equivalent execution mode (Run / session / sliced / traced) must
/// reproduce all of them exactly, comparisons included.
inline void ExpectSameStats(const ProgXeStats& a, const ProgXeStats& b,
                            const char* label) {
  EXPECT_EQ(a.join_pairs_generated, b.join_pairs_generated) << label;
  EXPECT_EQ(a.tuples_discarded_marked, b.tuples_discarded_marked) << label;
  EXPECT_EQ(a.tuples_discarded_frontier, b.tuples_discarded_frontier)
      << label;
  EXPECT_EQ(a.tuples_dominated_on_insert, b.tuples_dominated_on_insert)
      << label;
  EXPECT_EQ(a.tuples_evicted, b.tuples_evicted) << label;
  EXPECT_EQ(a.dominance_comparisons, b.dominance_comparisons) << label;
  EXPECT_EQ(a.results_emitted, b.results_emitted) << label;
  EXPECT_EQ(a.results_emitted_early, b.results_emitted_early) << label;
  EXPECT_EQ(a.regions_processed, b.regions_processed) << label;
  EXPECT_EQ(a.regions_discarded_runtime, b.regions_discarded_runtime)
      << label;
  EXPECT_EQ(a.regions_discarded_seed, b.regions_discarded_seed) << label;
  EXPECT_EQ(a.cells_flushed, b.cells_flushed) << label;
}

}  // namespace test
}  // namespace progxe
