#include "net/remote_shard.h"

#include <utility>

#include "common/macros.h"
#include "obs/trace.h"

namespace progxe {

RemoteShardStream::RemoteShardStream(std::shared_ptr<WorkerPool> pool,
                                     std::string endpoint, int shard_index)
    : pool_(std::move(pool)),
      endpoint_(std::move(endpoint)),
      shard_index_(shard_index) {}

Result<std::unique_ptr<RemoteShardStream>> RemoteShardStream::StartOpen(
    std::shared_ptr<WorkerPool> pool, const std::string& endpoint,
    int shard_index, const Relation& r, const Relation& t,
    const MapSpec& map, const Preference& pref,
    const ProgXeOptions& options, const SessionCheckpoint* resume) {
  std::unique_ptr<RemoteShardStream> stream(
      new RemoteShardStream(pool, endpoint, shard_index));
  PROGXE_ASSIGN_OR_RETURN(stream->conn_, pool->Checkout(endpoint));

  std::string payload;
  WireWriter w(&payload);
  w.PutU32(static_cast<uint32_t>(shard_index));
  WriteOptions(options, &w);
  WriteMapSpec(map, &w);
  WritePreference(pref, &w);
  WriteRelation(r, &w);
  WriteRelation(t, &w);
  w.PutU8(resume != nullptr ? 1 : 0);
  if (resume != nullptr) WriteCheckpoint(*resume, &w);

  Status st = stream->conn_->Send(MsgType::kOpenShard, payload,
                                  MsgType::kOpenResult);
  if (!st.ok()) {
    pool->ReportFailure(endpoint);
    return st;
  }
  return stream;
}

Result<std::unique_ptr<RemoteShardStream>> RemoteShardStream::Open(
    std::shared_ptr<WorkerPool> pool, const std::string& endpoint,
    int shard_index, const Relation& r, const Relation& t,
    const MapSpec& map, const Preference& pref,
    const ProgXeOptions& options, const SessionCheckpoint* resume) {
  PROGXE_ASSIGN_OR_RETURN(
      std::unique_ptr<RemoteShardStream> stream,
      StartOpen(std::move(pool), endpoint, shard_index, r, t, map, pref,
                options, resume));
  PROGXE_RETURN_NOT_OK(stream->FinishOpen());
  return stream;
}

RemoteShardStream::~RemoteShardStream() { Close(); }

Status RemoteShardStream::FinishOpen() {
  std::string reply;
  status_ = conn_->Await(&reply, kOpenTimeout);
  if (!status_.ok()) {
    pool_->ReportFailure(endpoint_);
    return status_;
  }
  WireReader reader(reply);
  Status remote;
  status_ = ReadStatusPayload(&reader, &remote);
  if (status_.ok() && !remote.ok()) {
    // Semantic open failure on the worker (validation / injected fault):
    // the link itself is fine, hand it back for reuse.
    pool_->Return(std::move(conn_));
    status_ = remote;
  }
  if (status_.ok()) status_ = ReadWatermark(&reader, &has_bound_, &bound_);
  if (status_.ok()) status_ = ReadStats(&reader, &stats_);
  if (!status_.ok()) return status_;
  uint8_t resumed = 0;
  uint32_t regions_skipped = 0;
  uint64_t pairs_saved = 0;
  if (!reader.GetU8(&resumed) || !reader.GetU32(&regions_skipped) ||
      !reader.GetU64(&pairs_saved)) {
    status_ = reader.status();
    return status_;
  }
  resumed_ = resumed != 0;
  replay_pairs_saved_ = resumed_ ? pairs_saved : 0;
  if (!reader.AtEnd()) {
    status_ = Status::InvalidArgument("trailing bytes in open_result payload");
    return status_;
  }
  pool_->ReportSuccess(endpoint_);
  return Status::OK();
}

void RemoteShardStream::StartPump(size_t max_pairs) {
  if (closed_ || !status_.ok()) return;
  std::string payload;
  WireWriter w(&payload);
  w.PutU64(static_cast<uint64_t>(max_pairs));
  status_ = conn_->Send(MsgType::kPump, payload, MsgType::kPumpResult);
  if (!status_.ok()) pool_->ReportFailure(endpoint_);
}

size_t RemoteShardStream::FinishPump(std::vector<ResultTuple>* out) {
  out->clear();
  if (closed_ || !status_.ok()) return 0;

  std::string reply;
  {
    // The merge is blocked on this shard's candidates + watermark advance
    // from here until the reply is read; the worker has been pumping since
    // StartPump.
    TraceSpan span(trace_cats::kNet, "net.wait_watermark");
    span.arg("shard", shard_index_);
    status_ = conn_->Await(&reply, kPumpTimeout);
  }
  if (!status_.ok()) {
    pool_->ReportFailure(endpoint_);
    return 0;
  }

  WireReader reader(reply);
  Status remote;
  status_ = ReadStatusPayload(&reader, &remote);
  if (!status_.ok()) return 0;
  if (!remote.ok()) {
    // The worker's session failed (e.g. an injected fault fired remotely).
    // Same observable as a local engine fault: no results this pump, error
    // in last_status(), pre-failure watermark and stats stay frozen.
    status_ = remote;
    return 0;
  }
  status_ = ReadResultBatch(&reader, out);
  if (!status_.ok()) return 0;
  status_ = ReadWatermark(&reader, &has_bound_, &bound_);
  if (!status_.ok()) return 0;
  status_ = ReadStats(&reader, &stats_);
  if (!status_.ok()) return 0;
  uint8_t has_checkpoint = 0;
  if (!reader.GetU8(&has_checkpoint)) {
    status_ = reader.status();
    out->clear();
    return 0;
  }
  if (has_checkpoint != 0) {
    status_ = ReadCheckpoint(&reader, &last_checkpoint_);
    if (!status_.ok()) {
      out->clear();
      return 0;
    }
    has_checkpoint_ = true;
  }
  // No checkpoint this pump (skip set unchanged, mid-region budget cut,
  // result cap, or exhaustion): the coordinator keeps the previous one —
  // it is still a valid, if less advanced, resume point.
  if (!reader.AtEnd()) {
    status_ =
        Status::InvalidArgument("trailing bytes in pump_result payload");
    out->clear();
    return 0;
  }
  return out->size();
}

bool RemoteShardStream::ExportCheckpoint(SessionCheckpoint* out) {
  if (!has_checkpoint_) return false;
  *out = std::move(last_checkpoint_);
  has_checkpoint_ = false;
  return true;
}

void RemoteShardStream::StartClose() {
  if (closed_ || close_sent_ || conn_ == nullptr || !status_.ok() ||
      !conn_->healthy()) {
    return;
  }
  std::string reply;
  if (conn_->awaiting() &&
      !conn_->Await(&reply, kPumpTimeout).ok()) {
    return;
  }
  close_sent_ = conn_->Send(MsgType::kClose, {}, MsgType::kCloseAck).ok();
}

void RemoteShardStream::Close() {
  if (closed_) return;
  StartClose();
  closed_ = true;
  std::string reply;
  if (close_sent_ && conn_->Await(&reply, kPumpTimeout).ok()) {
    pool_->Return(std::move(conn_));
  }
  conn_.reset();  // broken links die here instead of rejoining the pool
}

bool RemoteShardStream::RemainingLowerBound(std::vector<double>* lo) const {
  if (!has_bound_) return false;
  *lo = bound_;
  return true;
}

}  // namespace progxe
