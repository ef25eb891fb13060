// RemoteShardStream: a ShardEngine whose session runs in a shard-worker
// process.
//
// StartOpen ships the shard assignment (options + map + preference + both
// relation slices) to a worker over a pooled connection and FinishOpen
// claims the reply; each pump is one kPump RPC, sent by StartPump and
// claimed by FinishPump, whose reply carries the worker's locally-final
// candidates, its RemainingLowerBound watermark and a full ProgXeStats
// snapshot. Between the halves the worker runs while the coordinator
// serves other shards. The coordinator caches the last watermark and
// stats, so the merge's release check and before/after pump deltas read
// exactly as they do for a local ProgXeSession — the seam is invisible
// above ShardEngine.
//
// Failures unify with the in-process fault model: a heartbeat-timeout or
// severed connection surfaces through last_status() as a retryable
// kUnavailable, which ShardedStream's quarantine/backoff/idempotent-replay
// machinery handles identically to an injected shard.next_batch fault. The
// retry re-opens on a (typically different) worker and re-ships the slice;
// prepared_inputs() is deliberately null for remote shards.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "net/worker_pool.h"
#include "shard/shard_engine.h"

namespace progxe {

class RemoteShardStream : public ShardEngine {
 public:
  /// Checks out a link to the worker at `endpoint` and sends it the
  /// assignment; FinishOpen then awaits the open reply (the prepare-phase
  /// stats + initial watermark). `options` must already carry the shard's
  /// fault_instance / seed; its coordinator-local pointers (faults,
  /// prepare_cache) do not travel. With `resume` set, the checkpoint
  /// travels in kOpenShard and the worker resumes past its skip-safe
  /// regions. A worker that rejects the checkpoint as stale/corrupt falls
  /// back to full replay (same delivered set) and reports resumed() ==
  /// false.
  static Result<std::unique_ptr<RemoteShardStream>> StartOpen(
      std::shared_ptr<WorkerPool> pool, const std::string& endpoint,
      int shard_index, const Relation& r, const Relation& t,
      const MapSpec& map, const Preference& pref,
      const ProgXeOptions& options,
      const SessionCheckpoint* resume = nullptr);

  /// StartOpen followed by FinishOpen.
  static Result<std::unique_ptr<RemoteShardStream>> Open(
      std::shared_ptr<WorkerPool> pool, const std::string& endpoint,
      int shard_index, const Relation& r, const Relation& t,
      const MapSpec& map, const Preference& pref,
      const ProgXeOptions& options,
      const SessionCheckpoint* resume = nullptr);

  ~RemoteShardStream() override;

  Status FinishOpen() override;
  void StartPump(size_t max_pairs) override;
  size_t FinishPump(std::vector<ResultTuple>* out) override;
  bool awaiting_reply() const override {
    return conn_ != nullptr && conn_->awaiting();
  }
  /// Sends kClose, first draining a reply still in flight (the coordinator
  /// failed or closed mid-round), so the link carries no stale reply.
  void StartClose() override;
  /// Calls StartClose if nobody did, awaits the close ack and returns the
  /// idle link to the pool; a failed link is dropped. Idempotent.
  void Close() override;
  const ProgXeStats& stats() const override { return stats_; }
  Status last_status() const override { return status_; }
  bool RemainingLowerBound(std::vector<double>* lo) const override;

  /// Hands over the checkpoint streamed with the last kPumpResult that
  /// carried one. The worker ships a checkpoint only when its skip set
  /// grew, so each one received is handed over once.
  bool ExportCheckpoint(SessionCheckpoint* out) override;
  bool resumed() const override { return resumed_; }
  uint64_t replay_pairs_saved() const override { return replay_pairs_saved_; }

  const std::string& endpoint() const { return endpoint_; }

 private:
  RemoteShardStream(std::shared_ptr<WorkerPool> pool, std::string endpoint,
                    int shard_index);

  std::shared_ptr<WorkerPool> pool_;
  std::string endpoint_;
  int shard_index_;
  std::unique_ptr<WorkerConnection> conn_;

  ProgXeStats stats_;        ///< last snapshot streamed from the worker
  Status status_;            ///< engine/transport health
  bool has_bound_ = false;   ///< last watermark: shard can still emit
  std::vector<double> bound_;
  bool close_sent_ = false;  ///< kClose is out; Close awaits its ack
  bool closed_ = false;

  // Resume state: whether the worker actually resumed from the
  // shipped checkpoint, the pairs that saved, and the freshest checkpoint
  // it streamed back that was not handed over yet.
  bool resumed_ = false;
  uint64_t replay_pairs_saved_ = 0;
  bool has_checkpoint_ = false;
  SessionCheckpoint last_checkpoint_;
};

}  // namespace progxe
