// WorkerPool: cached, handshake-verified coordinator connections to shard
// workers.
//
// The coordinator side of distribution checks a connection out of the pool
// per shard open, speaks the session protocol over it (open/pump/close) and
// returns it on a clean close so the next query reuses the warm link —
// the postgres_fdw model of one long-lived connection per remote, not one
// dial per RPC. A checkout liveness-probes cached links (a severed worker
// is detected before any RPC is risked on it) and dials fresh when the
// cache is dry. Broken connections are simply dropped, never returned.
//
// An RPC is split in halves: WorkerConnection::Send writes the request and
// Await claims its reply, so a coordinator can send on every shard's link
// before it waits on any (at most one request outstanding per link). A link
// whose reply is still unclaimed is never pooled.
//
// Failure detection is deadline-based: Await bounds the reply wait, and a
// missed deadline synthesizes a retryable kUnavailable. kHeartbeat frames
// from a busy worker reset the clock, so the deadline measures peer
// *liveness*, not RPC duration. Every completed RPC records its time from
// Send until its reply was read into the process-wide net stats histogram.
#pragma once

#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "net/wire.h"

namespace progxe {

/// Dial + handshake budget for one connection attempt.
inline constexpr std::chrono::milliseconds kConnectTimeout{2000};
/// Reply budget for kOpenShard (covers slice deserialization + the whole
/// prepare phase; heartbeats reset it).
inline constexpr std::chrono::milliseconds kOpenTimeout{30000};
/// Reply budget for kPump/kClose (heartbeats reset it). This is the
/// worker-failure detection horizon: a worker silent for this long is
/// declared dead (kUnavailable) and the shard retries elsewhere.
inline constexpr std::chrono::milliseconds kPumpTimeout{10000};

/// Endpoint-health tunables of a WorkerPool. The reply deadlines above are
/// constants; only the breaker is configurable, because tests need short
/// cooldowns.
struct NetOptions {
  /// Per-endpoint circuit breaker: this many *consecutive* transport
  /// failures (dial, handshake, open or pump) open the endpoint's circuit
  /// and shard placement routes around it for a cooldown. <= 0 disables
  /// the breaker.
  int circuit_failure_threshold = 3;
  /// Cooldown after the circuit first opens; doubles on every re-open
  /// (capped at 32x) and a success closes the circuit and resets the
  /// decay — a flapping worker is sidelined progressively longer, a
  /// recovered one rejoins after a single successful probe.
  std::chrono::milliseconds circuit_cooldown{1000};
};

/// Splits a comma-separated "host:port,host:port,..." worker list,
/// validating each endpoint. Empty input yields an empty list (meaning
/// in-process execution).
Result<std::vector<std::string>> ParseWorkerList(std::string_view list);

/// One handshaken coordinator->worker link. Not thread-safe: a connection
/// serves one shard stream at a time (the pool hands out exclusive
/// ownership).
class WorkerConnection {
 public:
  ~WorkerConnection();

  /// Sends `payload` as a `request` frame whose reply must be an
  /// `expected` frame. The reply stays unclaimed until Await; a second Send
  /// before then fails (one request outstanding per link).
  Status Send(MsgType request, const std::string& payload, MsgType expected);

  /// Claims the reply to the outstanding request, waiting within `deadline`
  /// of the last sign of life (kHeartbeat frames reset the clock). A kError
  /// reply surfaces as its decoded Status; a missed deadline or connection
  /// failure as kUnavailable.
  Status Await(std::string* reply, std::chrono::milliseconds deadline);

  /// Send followed by Await. After any failure of either half the link is
  /// poisoned (healthy() turns false) and must be dropped, not returned to
  /// the pool.
  Status Call(MsgType request, const std::string& payload, MsgType expected,
              std::string* reply, std::chrono::milliseconds deadline);

  const std::string& endpoint() const { return endpoint_; }
  /// False once any exchange on this link failed or desynced.
  bool healthy() const { return healthy_; }
  /// True between a successful Send and its Await: the link holds an
  /// unclaimed reply and must be drained or dropped, never pooled.
  bool awaiting() const { return awaiting_; }

  WorkerConnection(const WorkerConnection&) = delete;
  WorkerConnection& operator=(const WorkerConnection&) = delete;

 private:
  friend class WorkerPool;
  WorkerConnection(int fd, std::string endpoint)
      : fd_(fd), endpoint_(std::move(endpoint)) {}

  int fd_;
  std::string endpoint_;
  bool healthy_ = true;
  bool awaiting_ = false;
  MsgType expected_ = MsgType::kError;
  std::chrono::steady_clock::time_point sent_at_{};
};

class WorkerPool {
 public:
  explicit WorkerPool(NetOptions options = {});
  ~WorkerPool();

  /// A ready-to-use connection to `endpoint`: a liveness-checked cached one
  /// when available, else a fresh dial + kHello handshake.
  Result<std::unique_ptr<WorkerConnection>> Checkout(
      const std::string& endpoint);

  /// Returns a healthy, idle connection to the cache for reuse. Unhealthy
  /// connections, and ones still awaiting a reply, are closed and dropped.
  void Return(std::unique_ptr<WorkerConnection> conn);

  /// Endpoint health tracking (circuit breaker). Checkout reports dial and
  /// handshake outcomes itself; RPC users (RemoteShardStream) report
  /// transport-level open/pump outcomes. A run of
  /// `circuit_failure_threshold` consecutive failures opens the endpoint's
  /// circuit for a cooldown that doubles per re-open; any success closes it
  /// and resets the decay.
  void ReportFailure(const std::string& endpoint);
  void ReportSuccess(const std::string& endpoint);
  /// True while the endpoint's circuit is open *and* inside its cooldown —
  /// shard placement (ShardedStream::StartOpenShard) routes around such
  /// endpoints. Past the cooldown this returns false (half-open): the next
  /// caller probes the endpoint and its success or failure settles the
  /// circuit.
  bool IsOpen(const std::string& endpoint) const;
  /// Endpoints currently in the open state (including half-open ones not
  /// yet probed) — the progxe_net_endpoint_open_circuits gauge.
  int open_circuits() const;

  /// Fresh dials over the pool's lifetime (diagnostic).
  uint64_t connections_created() const;
  /// Checkouts served from cache (diagnostic).
  uint64_t reuses() const;

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

 private:
  struct EndpointHealth {
    int consecutive_failures = 0;
    int opens = 0;  ///< Circuit-open episodes since the last success.
    bool open = false;
    std::chrono::steady_clock::time_point open_until{};
  };

  NetOptions options_;
  mutable std::mutex mtx_;
  std::unordered_map<std::string,
                     std::vector<std::unique_ptr<WorkerConnection>>>
      cache_;
  std::unordered_map<std::string, EndpointHealth> health_;
  uint64_t created_ = 0;
  uint64_t reuses_ = 0;
};

}  // namespace progxe
