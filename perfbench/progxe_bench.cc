// progxe_bench: the engine side of the repository benchmark (perfbench/).
//
// Runs one named workload against the public engine API for a fixed wall
// budget and writes every raw measurement as one JSON document; run.py turns
// that into the named end-to-end and per-layer metrics. Usage:
//
//   progxe_bench --workload=solo_anti --seed=1 --seconds=30 --trace=0
//                --out=run.json [--trace_out=trace.json] [--tiny] [--corrupt]
//
// Every workload follows the same shape:
//
//   1. Set-up: generate the seeded datasets and compute an independent
//      reference for each (JF-SL over the materialized join). Nothing here is
//      timed as part of a query.
//   2. Warm-up: one untimed query (served_mix: every pooled query opened
//      three times), so lazy set-up and allocator growth are paid before
//      timing.
//   3. Timed phase (untraced): passes over the workload's fixed query
//      sequence (closed loop: one query per dataset; served_mix: one arrival
//      schedule) for --seconds (half that with --trace=1); every delivered
//      set is compared to its reference. CPU time and peak RSS cover this
//      phase only.
//   4. With --trace=1 only: same-run comparison drains (solo, per-slice,
//      in-process sharded) for the shard and net ledgers, then the workload
//      again with span tracing on. The benchmark's own spans ("bench.*")
//      bracket each call into the engine so the ledger can attribute time the
//      engine has no span for (RegionLoop construction inside the open).
//
// --tiny shrinks every dataset tenfold (self-test); --corrupt drops one tuple
// from the first timed query's delivered set, which must trip the gate.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "harness/experiment.h"
#include "harness/workload.h"
#include "net/net_stats.h"
#include "net/worker_pool.h"
#include "net/worker_service.h"
#include "obs/trace.h"
#include "progxe/stream.h"
#include "service/scheduler.h"
#include "shard/shard_planner.h"
#include "shard/sharded_stream.h"

namespace progxe {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using IdPair = std::pair<RowId, RowId>;

constexpr char kBenchCat[] = "bench";
constexpr int kShards = 4;
constexpr int kWorkers = 2;
// Per-thread trace ring: large enough that a traced phase drops nothing
// (a solo query records ~15k events). Pages are touched only as used.
constexpr size_t kTraceEventsPerThread = size_t{1} << 21;
// served_mix offered load: arrivals per second and the mix shares. With the
// light queries at ~50-100 ms and the heavy ones at ~0.7 s this offers about
// half of one core. The timed phase repeats one schedule of kServedPassSeconds
// (80 arrivals) on a fresh scheduler per pass.
constexpr double kServedRate = 8.0;
constexpr double kServedPassSeconds = 10.0;
constexpr double kHeavyShare = 0.01;
constexpr double kLightAntiShare = 0.25;
constexpr double kFirstPageShare = 0.30;
constexpr size_t kFirstPageResults = 10;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// Process user+sys CPU seconds so far.
double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto tv = [](const timeval& v) {
    return static_cast<double>(v.tv_sec) + 1e-6 * static_cast<double>(v.tv_usec);
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool corrupt = false;
  std::string out;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string val = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--workload") {
      args->workload = val;
    } else if (key == "--seed") {
      args->seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      args->trace = val == "1";
    } else if (key == "--out") {
      args->out = val;
    } else if (key == "--trace_out") {
      args->trace_out = val;
    } else if (key == "--tiny") {
      args->tiny = true;
    } else if (key == "--corrupt") {
      args->corrupt = true;
    } else {
      std::fprintf(stderr, "progxe_bench: unknown flag %s\n", arg.c_str());
      return false;
    }
  }
  if (args->workload.empty() || args->out.empty() || args->seconds <= 0.0 ||
      (args->trace && args->trace_out.empty())) {
    std::fprintf(stderr,
                 "usage: progxe_bench --workload=<name> --seed=<n> "
                 "--seconds=<s> --trace=<0|1> --out=<json> "
                 "[--trace_out=<json>] [--tiny] [--corrupt]\n");
    return false;
  }
  return true;
}

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// ---------------------------------------------------------------------------
// Datasets and the reference oracle.

struct Dataset {
  WorkloadParams params;
  std::optional<Workload> data;
  std::vector<IdPair> oracle;  // sorted (r_id, t_id) of the JF-SL skyline
  SkyMapJoinQuery query() const { return data->query(); }
};

// Generates the dataset and its reference; exits on failure (set-up must
// not fail on any workload).
std::unique_ptr<Dataset> MakeDataset(Distribution dist, size_t n,
                                     double sigma, uint64_t seed, bool tiny) {
  auto d = std::make_unique<Dataset>();
  d->params.distribution = dist;
  d->params.cardinality = tiny ? std::max<size_t>(n / 10, 200) : n;
  d->params.dims = 4;
  d->params.sigma = sigma;
  d->params.seed = seed;
  Result<Workload> made = Workload::Make(d->params);
  if (!made.ok()) {
    std::fprintf(stderr, "dataset %s: %s\n", d->params.ToString().c_str(),
                 made.status().ToString().c_str());
    std::exit(1);
  }
  d->data.emplace(made.MoveValue());
  Result<ExperimentRun> ref = RunAlgorithm(Algo::kJfSl, *d->data);
  if (!ref.ok()) {
    std::fprintf(stderr, "reference %s: %s\n", d->params.ToString().c_str(),
                 ref.status().ToString().c_str());
    std::exit(1);
  }
  d->oracle = CanonicalIdPairs(ref->results);
  return d;
}

// "ok", or why `ids` is not the reference answer. `cap` > 0 is a
// first-page query: exactly min(cap, |reference|) distinct reference
// members.
std::string Verdict(std::vector<IdPair> ids, const std::vector<IdPair>& oracle,
                    size_t cap) {
  std::sort(ids.begin(), ids.end());
  if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
    return "duplicate result delivered";
  }
  if (cap == 0) {
    if (ids == oracle) return "ok";
    return "result set differs from reference (" + std::to_string(ids.size()) +
           " delivered, " + std::to_string(oracle.size()) + " expected)";
  }
  const size_t want = std::min(cap, oracle.size());
  if (ids.size() != want) {
    return "first page has " + std::to_string(ids.size()) + " results, " +
           std::to_string(want) + " expected";
  }
  if (!std::includes(oracle.begin(), oracle.end(), ids.begin(), ids.end())) {
    return "first page holds a non-skyline result";
  }
  return "ok";
}

// ---------------------------------------------------------------------------
// Per-query measurements.

struct QueryRecord {
  std::string phase;  // warmup | timed | traced | compare
  std::string kind;
  int dataset = -1;
  // Position in the workload's repeated query sequence: the dataset (closed
  // loop) or the arrival's index in the schedule (served_mix). Repetitions
  // of one slot are the same query in the same context.
  int slot = -1;
  size_t cap = 0;
  double late_s = 0.0;    // send time minus due time (served_mix)
  double open_s = -1.0;   // stream-open wall time (closed loop)
  double cpu_s = -1.0;    // process CPU over the query (closed loop)
  double ttfr_s = -1.0;
  double t50_s = -1.0;
  double makespan_s = -1.0;
  size_t results = 0;
  std::string verdict = "ok";
  ProgXeStats stats;
  bool sharded = false;
  double merge_s = 0.0;
  uint64_t merge_comparisons = 0;
  size_t held_peak = 0;
};

// Fills ttfr/t50/makespan from the cumulative delivery curve (seconds since
// the query's start, results so far).
void FinishCurve(const std::vector<std::pair<double, size_t>>& curve,
                 double end_s, QueryRecord* rec) {
  rec->makespan_s = end_s;
  rec->ttfr_s = curve.empty() ? end_s : curve.front().first;
  rec->t50_s = end_s;
  const size_t total = curve.empty() ? 0 : curve.back().second;
  for (const auto& [t, n] : curve) {
    if (2 * n >= total) {
      rec->t50_s = t;
      break;
    }
  }
}

void DropOneTuple(std::vector<IdPair>* ids) {
  if (!ids->empty()) ids->pop_back();
}

// Opens `query` through OpenProgXeStream and drains it unbudgeted, timing
// the open and every delivery. `oracle` null skips the gate (slice drains).
QueryRecord RunClosed(const SkyMapJoinQuery& query, const ShardOptions& shards,
                      const std::vector<IdPair>* oracle, std::string kind,
                      std::string phase, int dataset, bool corrupt) {
  QueryRecord rec;
  rec.kind = std::move(kind);
  rec.phase = std::move(phase);
  rec.dataset = dataset;
  rec.slot = dataset;
  const double cpu0 = CpuSeconds();
  const Clock::time_point t0 = Clock::now();
  Result<std::unique_ptr<ProgXeStream>> opened = [&] {
    TraceSpan span(kBenchCat, "bench.open");
    return OpenProgXeStream(query, ProgXeOptions(), shards);
  }();
  rec.open_s = Seconds(Clock::now() - t0);
  if (!opened.ok()) {
    rec.verdict = "open failed: " + opened.status().ToString();
    return rec;
  }
  std::unique_ptr<ProgXeStream> stream = opened.MoveValue();
  std::vector<ResultTuple> batch;
  std::vector<IdPair> ids;
  std::vector<std::pair<double, size_t>> curve;
  while (!stream->Finished()) {
    size_t n = 0;
    {
      TraceSpan span(kBenchCat, "bench.next_batch");
      n = stream->NextBatch(0, 0, &batch);
    }
    if (n == 0) continue;
    const double t = Seconds(Clock::now() - t0);
    for (const ResultTuple& r : batch) ids.emplace_back(r.r_id, r.t_id);
    curve.emplace_back(t, ids.size());
  }
  FinishCurve(curve, Seconds(Clock::now() - t0), &rec);
  rec.cpu_s = CpuSeconds() - cpu0;
  rec.results = ids.size();
  rec.stats = stream->stats();
  if (const auto* sharded = dynamic_cast<const ShardedStream*>(stream.get())) {
    rec.sharded = true;
    rec.merge_s = sharded->merge_seconds();
    rec.merge_comparisons = sharded->merge_comparisons();
    rec.held_peak = sharded->held_peak();
  }
  const Status status = stream->last_status();
  const ShardCoverage coverage = stream->coverage();
  stream.reset();  // teardown is not part of the query's latency
  if (!status.ok()) {
    rec.verdict = "stream failed: " + status.ToString();
  } else if (!coverage.complete()) {
    rec.verdict = "partial coverage " + coverage.ToString();
  } else if (oracle != nullptr) {
    if (corrupt) DropOneTuple(&ids);
    rec.verdict = Verdict(std::move(ids), *oracle, 0);
  } else {
    rec.verdict = "unchecked";
  }
  return rec;
}

// ---------------------------------------------------------------------------
// Served queries: a sink per query records delivery times from its due time.

class TimedSink : public QuerySink {
 public:
  explicit TimedSink(Clock::time_point due) : due_(due) {}

  void OnBatch(const std::vector<ResultTuple>& batch) override {
    const double t = Seconds(Clock::now() - due_);
    std::lock_guard<std::mutex> lock(mu_);
    for (const ResultTuple& r : batch) ids_.emplace_back(r.r_id, r.t_id);
    curve_.emplace_back(t, ids_.size());
  }

  void OnDone(QueryState state, const Status& status,
              const ProgXeStats& stats) override {
    const double t = Seconds(Clock::now() - due_);
    std::lock_guard<std::mutex> lock(mu_);
    end_s_ = t;
    state_ = state;
    status_ = status;
    stats_ = stats;
  }

  // Called after QueryScheduler::Drain, so OnDone has run.
  void Fill(const std::vector<IdPair>& oracle, bool corrupt,
            QueryRecord* rec) {
    std::lock_guard<std::mutex> lock(mu_);
    FinishCurve(curve_, end_s_, rec);
    rec->results = ids_.size();
    rec->stats = stats_;
    if (state_ != QueryState::kFinished) {
      rec->verdict = std::string("query ended ") + QueryStateName(state_) +
                     ": " + status_.ToString();
      return;
    }
    if (corrupt) DropOneTuple(&ids_);
    rec->verdict = Verdict(ids_, oracle, rec->cap);
  }

 private:
  const Clock::time_point due_;
  std::mutex mu_;
  std::vector<IdPair> ids_;
  std::vector<std::pair<double, size_t>> curve_;
  double end_s_ = 0.0;
  QueryState state_ = QueryState::kQueued;
  Status status_;
  ProgXeStats stats_;
};

// ---------------------------------------------------------------------------
// Process-level probes.

// Resets the RSS high-water mark to the current RSS; false if unsupported.
bool ResetPeakRss() {
  std::ofstream f("/proc/self/clear_refs");
  if (!f) return false;
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

double PeakRssMib() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

uint64_t Spin(uint64_t iters, uint64_t seed) {
  uint64_t x = seed | 1;
  for (uint64_t i = 0; i < iters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

// Parallel capacity the box delivers right now: a fixed spin on every
// hardware thread (capped at 4) against the same spin on one thread.
double ParallelCapacity() {
  constexpr uint64_t kIters = 20'000'000;
  const int threads = std::clamp<int>(
      static_cast<int>(std::thread::hardware_concurrency()), 1, 4);
  std::atomic<uint64_t> sink{0};
  std::vector<double> solo;
  for (int rep = 0; rep < 3; ++rep) {
    const Clock::time_point t0 = Clock::now();
    sink += Spin(kIters, rep + 1);
    solo.push_back(Seconds(Clock::now() - t0));
  }
  std::sort(solo.begin(), solo.end());
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> pool;
  for (int i = 0; i < threads; ++i) {
    pool.emplace_back([&sink, i] { sink += Spin(kIters, i + 7); });
  }
  for (std::thread& t : pool) t.join();
  const double parallel = Seconds(Clock::now() - t0);
  return parallel > 0.0 ? threads * solo[1] / parallel : 0.0;
}

NetStatsSnapshot NetDelta(const NetStatsSnapshot& after,
                          const NetStatsSnapshot& before) {
  NetStatsSnapshot d;
  d.bytes_sent = after.bytes_sent - before.bytes_sent;
  d.bytes_received = after.bytes_received - before.bytes_received;
  d.frames_sent = after.frames_sent - before.frames_sent;
  d.frames_received = after.frames_received - before.frames_received;
  d.rtt_count = after.rtt_count - before.rtt_count;
  for (size_t b = 0; b < kNetRttBuckets; ++b) {
    d.rtt_us_log2[b] = after.rtt_us_log2[b] - before.rtt_us_log2[b];
  }
  return d;
}

// ---------------------------------------------------------------------------
// JSON output.

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string RecordJson(const QueryRecord& r) {
  const ProgXeStats& s = r.stats;
  std::ostringstream os;
  os << "{\"phase\":" << Quote(r.phase) << ",\"kind\":" << Quote(r.kind)
     << ",\"dataset\":" << r.dataset << ",\"slot\":" << r.slot
     << ",\"cap\":" << r.cap
     << ",\"late_s\":" << Num(r.late_s) << ",\"open_s\":" << Num(r.open_s)
     << ",\"cpu_s\":" << Num(r.cpu_s)
     << ",\"ttfr_s\":" << Num(r.ttfr_s) << ",\"t50_s\":" << Num(r.t50_s)
     << ",\"makespan_s\":" << Num(r.makespan_s) << ",\"results\":" << r.results
     << ",\"verdict\":" << Quote(r.verdict)
     << ",\"join_pairs\":" << s.join_pairs_generated
     << ",\"dominance_comparisons\":" << s.dominance_comparisons
     << ",\"regions_created\":" << s.regions_created
     << ",\"regions_pruned_lookahead\":" << s.regions_pruned_lookahead
     << ",\"regions_processed\":" << s.regions_processed
     << ",\"regions_discarded\":"
     << s.regions_discarded_runtime + s.regions_discarded_seed
     << ",\"elgraph_disabled\":" << (s.elgraph_disabled ? 1 : 0)
     << ",\"partition_pairs_total\":" << s.partition_pairs_total
     << ",\"partition_pairs_skipped\":" << s.partition_pairs_skipped
     << ",\"results_emitted\":" << s.results_emitted
     << ",\"results_emitted_early\":" << s.results_emitted_early
     << ",\"sharded\":" << (r.sharded ? "true" : "false")
     << ",\"merge_s\":" << Num(r.merge_s)
     << ",\"merge_comparisons\":" << r.merge_comparisons
     << ",\"held_peak\":" << r.held_peak << "}";
  return os.str();
}

// Everything one run measured; serialized once at the end.
struct RunReport {
  std::vector<QueryRecord> queries;
  double timed_cpu_s = 0.0;
  double peak_rss_mib = 0.0;
  bool rss_reset = false;
  std::vector<double> capacity;
  uint64_t trace_dropped = 0;
  std::vector<double> setup_opens_s;  // served_mix: fastest open per dataset
  std::optional<SchedulerStats> sched;
  std::optional<NetStatsSnapshot> net;
  size_t net_queries = 0;
  std::vector<double> worker_start_s;
};

bool WriteReport(const Args& args, const RunReport& rep) {
  std::ofstream f(args.out);
  if (!f) return false;
  f << "{\"workload\":" << Quote(args.workload) << ",\"seed\":" << args.seed
    << ",\"trace\":" << (args.trace ? 1 : 0)
    << ",\"timed_cpu_s\":" << Num(rep.timed_cpu_s)
    << ",\"peak_rss_mib\":" << Num(rep.peak_rss_mib)
    << ",\"rss_reset\":" << (rep.rss_reset ? "true" : "false")
    << ",\"trace_dropped\":" << rep.trace_dropped
    << ",\"capacity\":[";
  for (size_t i = 0; i < rep.capacity.size(); ++i) {
    f << (i ? "," : "") << Num(rep.capacity[i]);
  }
  f << "],\"setup_opens_s\":[";
  for (size_t i = 0; i < rep.setup_opens_s.size(); ++i) {
    f << (i ? "," : "") << Num(rep.setup_opens_s[i]);
  }
  f << "],\"worker_start_s\":[";
  for (size_t i = 0; i < rep.worker_start_s.size(); ++i) {
    f << (i ? "," : "") << Num(rep.worker_start_s[i]);
  }
  f << "]";
  if (rep.sched.has_value()) {
    const SchedulerStats& s = *rep.sched;
    f << ",\"sched\":{\"slices\":" << s.slices
      << ",\"slice_p50_us\":" << s.SliceLatencyQuantileUs(0.5)
      << ",\"slice_p99_us\":" << s.SliceLatencyQuantileUs(0.99)
      << ",\"prepare_hits\":" << s.prepare_hits
      << ",\"prepare_misses\":" << s.prepare_misses
      << ",\"prepare_evictions\":" << s.prepare_evictions << "}";
  }
  if (rep.net.has_value()) {
    const NetStatsSnapshot& n = *rep.net;
    f << ",\"net\":{\"queries\":" << rep.net_queries
      << ",\"bytes_sent\":" << n.bytes_sent
      << ",\"frames_sent\":" << n.frames_sent
      << ",\"rtt_count\":" << n.rtt_count
      << ",\"rtt_p50_us\":" << n.RttQuantileUs(0.5)
      << ",\"rtt_p99_us\":" << n.RttQuantileUs(0.99) << "}";
  }
  f << ",\"queries\":[\n";
  for (size_t i = 0; i < rep.queries.size(); ++i) {
    f << (i ? ",\n" : "") << RecordJson(rep.queries[i]);
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

// ---------------------------------------------------------------------------
// Workloads.

// Brackets the timed (untraced) phase, or one pass of it: adds its CPU time
// and records its peak RSS. The heap the set-up freed (the reference joins)
// goes back to the system first, so the high-water mark starts from what the
// timed phase actually holds.
class TimedPhase {
 public:
  explicit TimedPhase(RunReport* rep) : rep_(rep) {
    malloc_trim(0);
    rep_->rss_reset = ResetPeakRss();
    cpu0_ = CpuSeconds();
  }
  void End() {
    rep_->timed_cpu_s += CpuSeconds() - cpu0_;
    rep_->peak_rss_mib = PeakRssMib();
  }

 private:
  RunReport* rep_;
  double cpu0_ = 0.0;
};

// Ends a traced phase (begun with Tracing::Start) and writes its trace.
bool StopTrace(const std::string& path, RunReport* rep) {
  Tracing::Stop();
  rep->trace_dropped = Tracing::dropped();
  const Status st = Tracing::WriteJson(path);
  if (!st.ok()) {
    std::fprintf(stderr, "trace: %s\n", st.ToString().c_str());
    return false;
  }
  return true;
}

// Loopback shard workers plus the connection pool every query shares.
struct WorkerFleet {
  std::vector<std::unique_ptr<WorkerServer>> servers;
  ShardOptions shards;

  static WorkerFleet Start(RunReport* rep) {
    WorkerFleet fleet;
    fleet.shards.num_shards = kShards;
    fleet.shards.worker_pool = std::make_shared<WorkerPool>();
    for (int i = 0; i < kWorkers; ++i) {
      const Clock::time_point t0 = Clock::now();
      Result<std::unique_ptr<WorkerServer>> server = [] {
        TraceSpan span(kBenchCat, "bench.worker_start");
        return WorkerServer::Start(WorkerServerOptions());
      }();
      rep->worker_start_s.push_back(Seconds(Clock::now() - t0));
      if (!server.ok()) {
        std::fprintf(stderr, "worker start: %s\n",
                     server.status().ToString().c_str());
        std::exit(1);
      }
      fleet.shards.workers.push_back("127.0.0.1:" +
                                     std::to_string((*server)->port()));
      fleet.servers.push_back(server.MoveValue());
    }
    return fleet;
  }
};

struct ClosedLoopSpec {
  const char* kind;
  size_t n;
  double sigma;
  bool distributed;
  int shards;
};

// Closed loop with one client: passes of one query per dataset, in order,
// until `seconds` have passed (at least one pass; the in-flight pass
// completes, so every dataset is repeated equally often).
size_t ClosedLoop(const std::vector<std::unique_ptr<Dataset>>& data,
                  const ShardOptions& shards, const char* kind,
                  const char* phase, double seconds, bool corrupt_first,
                  RunReport* rep) {
  const Clock::time_point t0 = Clock::now();
  size_t ran = 0;
  do {
    for (size_t i = 0; i < data.size(); ++i) {
      rep->queries.push_back(RunClosed(data[i]->query(), shards,
                                       &data[i]->oracle, kind, phase,
                                       static_cast<int>(i),
                                       corrupt_first && ran == 0));
      ++ran;
    }
  } while (Seconds(Clock::now() - t0) < seconds);
  return ran;
}

// Same-run comparison drains for the shard ledger on dataset 0: solo, each
// PlanShards slice alone, and the in-process sharded stream.
void ShardComparison(const Dataset& d, RunReport* rep) {
  const SkyMapJoinQuery query = d.query();
  ShardOptions solo;
  ShardOptions sharded;
  sharded.num_shards = kShards;
  for (int rep_i = 0; rep_i < 2; ++rep_i) {
    rep->queries.push_back(
        RunClosed(query, solo, &d.oracle, "solo", "compare", 0, false));
    std::vector<QueryShard> slices = [&] {
      TraceSpan span(kBenchCat, "bench.plan_shards");
      return PlanShards(*query.r, *query.t, kShards);
    }();
    for (const QueryShard& slice : slices) {
      rep->queries.push_back(RunClosed(slice.Query(query), solo, nullptr,
                                       "slice", "compare", 0, false));
    }
    rep->queries.push_back(
        RunClosed(query, sharded, &d.oracle, "sharded", "compare", 0, false));
  }
}

int RunClosedWorkload(const Args& args, const ClosedLoopSpec& spec) {
  RunReport rep;
  std::vector<std::unique_ptr<Dataset>> data;
  constexpr int kDatasets = 3;
  for (int i = 0; i < kDatasets; ++i) {
    data.push_back(MakeDataset(Distribution::kAntiCorrelated, spec.n,
                               spec.sigma, Mix(args.seed * 64 + i), args.tiny));
  }
  std::optional<WorkerFleet> fleet;
  ShardOptions shards;
  shards.num_shards = spec.shards;
  if (spec.distributed) {
    fleet.emplace(WorkerFleet::Start(&rep));
    shards = fleet->shards;
  }
  rep.capacity.push_back(ParallelCapacity());
  // Warm-up, untimed but gated.
  rep.queries.push_back(RunClosed(data[0]->query(), shards, &data[0]->oracle,
                                  spec.kind, "warmup", 0, false));

  const double timed_seconds = args.trace ? args.seconds / 2 : args.seconds;
  const NetStatsSnapshot net0 = SnapshotNetStats();
  TimedPhase timed(&rep);
  const size_t ran = ClosedLoop(data, shards, spec.kind, "timed",
                                timed_seconds, args.corrupt, &rep);
  timed.End();
  if (spec.distributed) {
    rep.net = NetDelta(SnapshotNetStats(), net0);
    rep.net_queries = ran;
  }
  rep.capacity.push_back(ParallelCapacity());

  if (args.trace) {
    if (spec.shards > 1) ShardComparison(*data[0], &rep);
    if (spec.distributed) {
      // Same query in process, for the wire + RTT share of makespan.
      ShardOptions local;
      local.num_shards = kShards;
      for (int i = 0; i < 2; ++i) {
        rep.queries.push_back(RunClosed(data[0]->query(), local,
                                        &data[0]->oracle, "sharded",
                                        "compare", 0, false));
        rep.queries.push_back(RunClosed(data[0]->query(), shards,
                                        &data[0]->oracle, spec.kind,
                                        "compare", 0, false));
      }
    }
    Tracing::Start(kTraceEventsPerThread);
    if (spec.distributed) {
      // A fresh fleet inside the trace, so worker start-up is recorded.
      fleet.reset();
      fleet.emplace(WorkerFleet::Start(&rep));
      shards = fleet->shards;
    }
    ClosedLoop(data, shards, spec.kind, "traced", args.seconds / 2, false,
               &rep);
    if (!StopTrace(args.trace_out, &rep)) return 1;
  }
  fleet.reset();
  return WriteReport(args, rep) ? 0 : 1;
}

// One round of served_mix's set-up probe: opens (and closes) every pooled
// query outside the scheduler and without a cache, keeping each dataset's
// fastest open so far.
bool ProbeOpens(const std::vector<std::unique_ptr<Dataset>>& data,
                std::vector<double>* fastest_open) {
  fastest_open->resize(data.size(), std::numeric_limits<double>::infinity());
  for (size_t i = 0; i < data.size(); ++i) {
    const Clock::time_point t0 = Clock::now();
    auto stream = OpenProgXeStream(data[i]->query(), ProgXeOptions());
    (*fastest_open)[i] =
        std::min((*fastest_open)[i], Seconds(Clock::now() - t0));
    if (!stream.ok()) {
      std::fprintf(stderr, "open %s: %s\n", data[i]->params.ToString().c_str(),
                   stream.status().ToString().c_str());
      return false;
    }
  }
  return true;
}

// served_mix: open-loop arrivals into one QueryScheduler.
struct Arrival {
  double due_s;
  std::string kind;
  int dataset;
  size_t cap;
};

// The arrival schedule: n = rate x window arrivals at a fixed interval,
// with stratified kind counts in a seeded order, so every seed offers the
// same load and mix. (Poisson arrivals made the latency tail swing with the
// seed's bursts; see README.md.) The few heavy queries sit at evenly spread
// slots so a seed cannot pile them up. A first-page query re-issues the
// sources of the most recent full query before it.
std::vector<Arrival> MakeSchedule(uint64_t seed, double seconds, int light_pool,
                                  int heavy_pool) {
  const size_t n = std::max<size_t>(
      8, static_cast<size_t>(std::lround(kServedRate * seconds)));
  const size_t heavy = std::max<size_t>(1, std::lround(kHeavyShare * n));
  const size_t anti = std::lround(kLightAntiShare * n);
  const size_t first_page = std::lround(kFirstPageShare * n);
  std::vector<std::string> kinds;
  kinds.insert(kinds.end(), anti, "light_anti");
  kinds.insert(kinds.end(), first_page, "first_page");
  kinds.resize(n - heavy, "light_indep");
  std::mt19937_64 rng(Mix(seed ^ 0x5e7ed));
  std::shuffle(kinds.begin(), kinds.end(), rng);
  for (size_t h = 0; h < heavy; ++h) {
    const size_t slot = (2 * h + 1) * n / (2 * heavy);
    kinds.insert(kinds.begin() + static_cast<std::ptrdiff_t>(slot), "heavy");
  }
  std::vector<std::pair<double, std::string>> slots;
  for (size_t i = 0; i < n; ++i) {
    slots.emplace_back((static_cast<double>(i) + 0.5) * seconds /
                           static_cast<double>(n),
                       std::move(kinds[i]));
  }

  // Dataset index layout: [indep pool][anti pool][heavy pool]. Each kind
  // cycles through its pool, so the prepare cache sees the same reuse
  // pattern under every seed.
  std::vector<Arrival> out;
  int last_full = -1;
  size_t indep_i = 0, anti_i = 0, heavy_i = 0;
  for (const auto& [due, kind] : slots) {
    Arrival a{due, kind, 0, 0};
    if (a.kind == "first_page" && last_full < 0) a.kind = "light_indep";
    if (a.kind == "light_indep") {
      a.dataset = static_cast<int>(indep_i++ % light_pool);
    } else if (a.kind == "light_anti") {
      a.dataset = light_pool + static_cast<int>(anti_i++ % light_pool);
    } else if (a.kind == "heavy") {
      a.dataset = 2 * light_pool + static_cast<int>(heavy_i++ % heavy_pool);
    } else {
      a.dataset = last_full;
      a.cap = kFirstPageResults;
    }
    if (a.cap == 0) last_full = a.dataset;
    out.push_back(a);
  }
  return out;
}

// Submits `schedule` on time into a fresh scheduler and waits for all of
// it; appends one record per query.
SchedulerStats Serve(const std::vector<std::unique_ptr<Dataset>>& data,
                     const std::vector<Arrival>& schedule, const char* phase,
                     bool corrupt_first, RunReport* rep) {
  ServiceOptions service;
  service.num_workers = 2;
  QueryScheduler scheduler(service);
  std::vector<std::unique_ptr<TimedSink>> sinks;
  std::vector<QueryRecord> records;
  sinks.reserve(schedule.size());
  const Clock::time_point t0 = Clock::now();
  for (size_t slot = 0; slot < schedule.size(); ++slot) {
    const Arrival& a = schedule[slot];
    const Clock::time_point due =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(a.due_s));
    std::this_thread::sleep_until(due);
    QueryRecord rec;
    rec.phase = phase;
    rec.kind = a.kind;
    rec.dataset = a.dataset;
    rec.slot = static_cast<int>(slot);
    rec.cap = a.cap;
    rec.late_s = Seconds(Clock::now() - due);
    sinks.push_back(std::make_unique<TimedSink>(due));
    ProgXeOptions options;
    options.max_results = a.cap;
    {
      TraceSpan span(kBenchCat, "bench.submit");
      Result<QueryHandle> handle = scheduler.Submit(
          data[a.dataset]->query(), options, sinks.back().get(),
          SubmitOptions());
      if (handle.ok()) {
        span.arg("query", static_cast<int64_t>(handle->id()));
      } else {
        rec.verdict = "submit failed: " + handle.status().ToString();
      }
    }
    records.push_back(std::move(rec));
  }
  scheduler.Drain();
  for (size_t i = 0; i < records.size(); ++i) {
    if (records[i].verdict == "ok") {
      sinks[i]->Fill(data[records[i].dataset]->oracle,
                     corrupt_first && i == 0, &records[i]);
    }
    rep->queries.push_back(std::move(records[i]));
  }
  return scheduler.stats();
}

int RunServedMix(const Args& args) {
  RunReport rep;
  // Pools larger than the default 8-entry prepare cache, so a full query
  // almost always misses it and the first-page re-issues hit.
  constexpr int kLightPool = 8;
  constexpr int kHeavyPool = 2;
  std::vector<std::unique_ptr<Dataset>> data;
  for (int i = 0; i < kLightPool; ++i) {
    data.push_back(MakeDataset(Distribution::kIndependent,
                               10000, 0.001, Mix(args.seed * 64 + i),
                               args.tiny));
  }
  for (int i = 0; i < kLightPool; ++i) {
    data.push_back(MakeDataset(Distribution::kAntiCorrelated,
                               10000, 0.002, Mix(args.seed * 64 + 16 + i),
                               args.tiny));
  }
  for (int i = 0; i < kHeavyPool; ++i) {
    data.push_back(MakeDataset(Distribution::kAntiCorrelated, 20000,
                               0.005, Mix(args.seed * 64 + 32 + i),
                               args.tiny));
  }
  // Set-up probe and warm-up: two rounds of opens now and one before each
  // timed pass, so each dataset's fastest open is taken across the run.
  for (int round = 0; round < 2; ++round) {
    if (!ProbeOpens(data, &rep.setup_opens_s)) return 1;
  }
  rep.capacity.push_back(ParallelCapacity());

  // Passes of one schedule, each on a fresh scheduler (and so a cold
  // prepare cache) with its own RSS high-water mark; the run reports the
  // lowest, since which queries overlap the heavy one shifts with host speed.
  const double timed_seconds = args.trace ? args.seconds / 2 : args.seconds;
  const int passes = std::max(
      1, static_cast<int>(std::floor(timed_seconds / kServedPassSeconds)));
  const std::vector<Arrival> schedule = MakeSchedule(
      args.seed, timed_seconds / passes, kLightPool, kHeavyPool);
  std::vector<double> pass_peaks;
  for (int pass = 0; pass < passes; ++pass) {
    if (!ProbeOpens(data, &rep.setup_opens_s)) return 1;
    TimedPhase timed(&rep);
    rep.sched = Serve(data, schedule, "timed", args.corrupt && pass == 0, &rep);
    timed.End();
    pass_peaks.push_back(rep.peak_rss_mib);
  }
  rep.peak_rss_mib = *std::min_element(pass_peaks.begin(), pass_peaks.end());
  rep.capacity.push_back(ParallelCapacity());

  if (args.trace) {
    const std::vector<Arrival> traced_schedule =
        MakeSchedule(args.seed + 1, args.seconds / 2, kLightPool, kHeavyPool);
    Tracing::Start(kTraceEventsPerThread);
    Serve(data, traced_schedule, "traced", false, &rep);
    if (!StopTrace(args.trace_out, &rep)) return 1;
  }
  return WriteReport(args, rep) ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace progxe

int main(int argc, char** argv) {
  using namespace progxe::perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  progxe::SetLogLevel(progxe::LogLevel::kWarn);  // per-shard open lines
  if (args.workload == "solo_anti") {
    return RunClosedWorkload(args, {"solo", 30000, 0.002, false, 1});
  }
  if (args.workload == "sharded_anti") {
    return RunClosedWorkload(args, {"sharded", 30000, 0.002, false, kShards});
  }
  if (args.workload == "distributed_anti") {
    return RunClosedWorkload(args, {"distributed", 20000, 0.002, true, kShards});
  }
  if (args.workload == "served_mix") return RunServedMix(args);
  std::fprintf(stderr, "progxe_bench: unknown workload %s\n",
               args.workload.c_str());
  return 2;
}
