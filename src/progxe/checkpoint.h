// SessionCheckpoint: a compact, resumable snapshot of a ProgXeSession's
// region cursor, exported at region boundaries and consumed by a re-opened
// incarnation of the same prepared inputs.
//
// The checkpoint does NOT carry tuples or table state — regeneration is the
// recovery mechanism, the checkpoint only bounds it. `skip_regions` lists
// region ids that are *skip-safe*: re-processing them in a fresh incarnation
// cannot produce any undelivered local-skyline member, so the resumed loop
// pre-removes them before its first Step and never re-generates their join
// pairs. A region is skip-safe iff
//
//   (a) it was discarded without processing (its would-be tuples are
//       strictly dominated by frontier points that are themselves delivered
//       or regenerated), or
//   (b) it was processed and every output cell in its coverage box is
//       !populated || emitted || marked — i.e. every live tuple it could
//       have contributed is already flushed (delivered) or dead.
//
// A positive verdict is final: the region is never re-examined and the skip
// list only grows within one incarnation.
//
// Skip-safety is maintained incrementally (RegionLoop::ExportCheckpoint).
// Call a cell *pending* while populated && !emitted && !marked. Nothing is
// tracked before the loop's first export, so sessions that never export pay
// nothing. From the first export on, OutputTable logs every pending-state
// flip (insert 0->1, eviction ->0, FlushCell, KillCell). Each export folds
// the drained log into a per-cell pending map and per-prefix pending counts.
// Every processed, not-yet-safe region watches one pending cell of its box
// (its witness); it searches its box for one at the first export after it
// finishes and again only when its witness stops being pending. The search
// skips every subgrid whose prefix count is zero, and a region whose search
// finds nothing is safe. Discarded-unprocessed regions are promoted when
// removed. An export therefore costs O(flips since the last export x k + one
// search per newly processed region and per lost witness), independent of
// how many regions were processed before.
//
// A resumed incarnation may still emit tuples *outside* the true local
// skyline (a suppressor from a skipped region is absent), and may re-emit
// tuples the dead incarnation delivered. The sharded merge compensates by
// keeping the resumed shard's own watermark in the release check and by
// its accepted frontier, which drops an arrival whose own pair key is
// already accepted (see shard/sharded_stream.h), so the merged delivered
// set stays bit-identical.
//
// Checkpoints travel over the wire (`kOpenShard` field group) to resume
// remote shards; all fields are validated on restore and a stale or corrupt
// checkpoint is rejected with kInvalidArgument, which callers treat as
// "fall back to full replay".
#pragma once

#include <cstdint>
#include <vector>

#include "progxe/config.h"

namespace progxe {

struct SessionCheckpoint {
  /// Output dimensionality of the capturing session (validation).
  uint32_t k = 0;
  /// Output-table frontier epoch at capture (observability/validation).
  uint64_t frontier_epoch = 0;
  /// Results the capturing incarnation had delivered when the checkpoint
  /// was taken. The coordinator adopts the checkpoint only when this is at
  /// most what that incarnation sent it.
  uint64_t delivered = 0;
  /// Total region count of the prepared lookahead (validation: a checkpoint
  /// only resumes the exact same PreparedInputs).
  uint64_t region_count = 0;
  /// Join pairs the listed processed regions actually generated in the
  /// capturing incarnation (Region::join_pairs) — the pairs a resumed
  /// incarnation will not re-generate.
  uint64_t replay_pairs_saved = 0;
  /// Skip-safe region ids, sorted strictly increasing.
  std::vector<int32_t> skip_regions;
  /// Stats snapshot at capture (auditing; not folded into the resumed
  /// session's own counters).
  ProgXeStats stats;
};

}  // namespace progxe
