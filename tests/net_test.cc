// Distributed shard transport tests: the wire protocol's serde must be a
// lossless involution (and reject truncated/corrupted payloads with a clean
// Status, never a crash), and a ShardedStream served by real loopback
// worker processes must deliver a result set *bit-identical* to the
// in-process run — through clean runs, worker death mid-stream (retry on a
// surviving worker) and retry exhaustion (exact kPartial coverage).
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "common/rng.h"
#include "equivalence_common.h"
#include "net/net_stats.h"
#include "net/remote_shard.h"
#include "net/socket.h"
#include "net/wire.h"
#include "progxe/checkpoint.h"
#include "net/worker_pool.h"
#include "net/worker_service.h"
#include "progxe/session.h"
#include "progxe/stream.h"
#include "shard/shard_planner.h"
#include "shard/sharded_stream.h"

namespace progxe {
namespace {

using test::Config;
using test::ExpectSameStats;
using test::MakeConfig;

using IdSet = std::vector<std::pair<RowId, RowId>>;

IdSet SortedIds(const std::vector<ResultTuple>& results) {
  IdSet ids;
  ids.reserve(results.size());
  for (const ResultTuple& res : results) ids.emplace_back(res.r_id, res.t_id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<ResultTuple> DrainStream(ProgXeStream* stream, size_t max_results,
                                     size_t max_pairs) {
  std::vector<ResultTuple> all;
  std::vector<ResultTuple> batch;
  while (!stream->Finished()) {
    const size_t n = stream->NextBatch(max_results, max_pairs, &batch);
    if (n == 0) {
      if (max_pairs == 0) break;
      continue;
    }
    for (ResultTuple& res : batch) all.push_back(std::move(res));
  }
  return all;
}

// --- Wire serde -------------------------------------------------------------

TEST(Wire, PrimitiveRoundTripIsBitLossless) {
  std::string buf;
  WireWriter w(&buf);
  w.PutU8(0xab);
  w.PutU16(0xbeef);
  w.PutU32(0xdeadbeefu);
  w.PutU64(0x0123456789abcdefull);
  w.PutI64(-42);
  // The doubles that break naive text round-trips: NaN (payload bits),
  // infinities, signed zero, denormal, and a full-precision value.
  const std::vector<double> specials = {
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      0.1 + 0.2};
  for (double d : specials) w.PutDouble(d);
  w.PutString("hello \0 wire");  // embedded NUL truncates the literal: fine
  w.PutDoubles(specials);

  WireReader r(buf);
  uint8_t u8;
  uint16_t u16;
  uint32_t u32;
  uint64_t u64;
  int64_t i64;
  EXPECT_TRUE(r.GetU8(&u8));
  EXPECT_EQ(u8, 0xab);
  EXPECT_TRUE(r.GetU16(&u16));
  EXPECT_EQ(u16, 0xbeef);
  EXPECT_TRUE(r.GetU32(&u32));
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_TRUE(r.GetU64(&u64));
  EXPECT_EQ(u64, 0x0123456789abcdefull);
  EXPECT_TRUE(r.GetI64(&i64));
  EXPECT_EQ(i64, -42);
  for (double expected : specials) {
    double d;
    EXPECT_TRUE(r.GetDouble(&d));
    // Bit equality, not value equality: NaN != NaN but its bits round-trip.
    EXPECT_EQ(std::memcmp(&d, &expected, sizeof d), 0);
  }
  std::string s;
  EXPECT_TRUE(r.GetString(&s));
  EXPECT_EQ(s, "hello ");
  std::vector<double> ds;
  EXPECT_TRUE(r.GetDoubles(&ds));
  ASSERT_EQ(ds.size(), specials.size());
  EXPECT_EQ(std::memcmp(ds.data(), specials.data(),
                        ds.size() * sizeof(double)),
            0);
  EXPECT_TRUE(r.AtEnd());
  EXPECT_TRUE(r.ok());
}

/// One encoded payload per field group of the session protocol, built from
/// a randomized query so coverage does not depend on hand-picked shapes.
std::vector<std::string> EncodeFieldGroups(const Config& cfg) {
  std::vector<std::string> payloads;
  {
    std::string buf;
    WireWriter w(&buf);
    WriteRelation(cfg.r, &w);
    payloads.push_back(std::move(buf));
  }
  {
    std::string buf;
    WireWriter w(&buf);
    WriteMapSpec(cfg.map, &w);
    payloads.push_back(std::move(buf));
  }
  {
    std::string buf;
    WireWriter w(&buf);
    WritePreference(cfg.pref, &w);
    payloads.push_back(std::move(buf));
  }
  {
    ProgXeOptions options;
    options.seed = 0xfeed;
    auto seed = std::make_shared<RefinementSeed>();
    seed->k = 2;
    seed->canonical = {0.25, -1.5};
    options.refinement_seed = std::move(seed);
    std::string buf;
    WireWriter w(&buf);
    WriteOptions(options, &w);
    payloads.push_back(std::move(buf));
  }
  {
    ProgXeStats stats;
    stats.join_pairs_generated = 12345;
    stats.results_emitted = 678;
    stats.dominance_comparisons = 91011;
    std::string buf;
    WireWriter w(&buf);
    WriteStats(stats, &w);
    payloads.push_back(std::move(buf));
  }
  {
    std::vector<ResultTuple> batch(3);
    for (size_t i = 0; i < batch.size(); ++i) {
      batch[i].r_id = static_cast<RowId>(i);
      batch[i].t_id = static_cast<RowId>(i + 10);
      batch[i].values = {1.5 * static_cast<double>(i), -0.0};
    }
    std::string buf;
    WireWriter w(&buf);
    WriteResultBatch(batch, 2, &w);
    payloads.push_back(std::move(buf));
  }
  {
    std::string buf;
    WireWriter w(&buf);
    WriteWatermark(true, {0.0, std::numeric_limits<double>::infinity()}, &w);
    payloads.push_back(std::move(buf));
  }
  {
    std::string buf;
    WireWriter w(&buf);
    WriteStatusPayload(Status::Unavailable("worker died"), &w);
    payloads.push_back(std::move(buf));
  }
  {
    SessionCheckpoint checkpoint;
    checkpoint.k = 2;
    checkpoint.frontier_epoch = 17;
    checkpoint.delivered = 23;
    checkpoint.region_count = 64;
    checkpoint.replay_pairs_saved = 4096;
    checkpoint.skip_regions = {0, 3, 9, 41};
    checkpoint.stats.join_pairs_generated = 4242;
    checkpoint.stats.results_emitted = 23;
    std::string buf;
    WireWriter w(&buf);
    WriteCheckpoint(checkpoint, &w);
    payloads.push_back(std::move(buf));
  }
  return payloads;
}

/// Decodes payload i of EncodeFieldGroups' order; returns the decode
/// Status. Used both for the round-trip direction and the fuzz direction.
Status DecodeFieldGroup(size_t index, const std::string& payload) {
  WireReader r(payload);
  Status st;
  switch (index) {
    case 0: {
      Relation rel{Schema::Anonymous(0)};
      st = ReadRelation(&r, &rel);
      break;
    }
    case 1: {
      MapSpec spec;
      st = ReadMapSpec(&r, &spec);
      break;
    }
    case 2: {
      Preference pref;
      st = ReadPreference(&r, &pref);
      break;
    }
    case 3: {
      ProgXeOptions options;
      st = ReadOptions(&r, &options);
      break;
    }
    case 4: {
      ProgXeStats stats;
      st = ReadStats(&r, &stats);
      break;
    }
    case 5: {
      std::vector<ResultTuple> batch;
      st = ReadResultBatch(&r, &batch);
      break;
    }
    case 6: {
      bool has_bound;
      std::vector<double> bound;
      st = ReadWatermark(&r, &has_bound, &bound);
      break;
    }
    case 7: {
      Status decoded;
      st = ReadStatusPayload(&r, &decoded);
      break;
    }
    default: {
      SessionCheckpoint checkpoint;
      st = ReadCheckpoint(&r, &checkpoint);
      break;
    }
  }
  if (st.ok() && !r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after field group");
  }
  return st;
}

TEST(Wire, FieldGroupsRoundTrip) {
  Rng rng(0x11e7);
  const Config cfg = MakeConfig(&rng, false, false);
  const std::vector<std::string> payloads = EncodeFieldGroups(cfg);
  for (size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_TRUE(DecodeFieldGroup(i, payloads[i]).ok())
        << "group " << i << ": "
        << DecodeFieldGroup(i, payloads[i]).ToString();
  }

  // The v4 options group: five u8 fields (ordering, push_through,
  // partitioning, signature_mode, has_seed) and five 8-byte fields
  // (input/output cells per dim, sigma_hint, seed, fault_instance). Every
  // one round-trips; max_results stays with the merge and decodes as 0.
  ProgXeOptions options;
  options.ordering = OrderingMode::kRandom;
  options.push_through = true;
  options.partitioning = PartitioningScheme::kKdTree;
  options.input_cells_per_dim = 6;
  options.output_cells_per_dim = 9;
  options.signature_mode = SignatureMode::kBloom;
  options.sigma_hint = 0.125;
  options.seed = 0xfeed;
  options.fault_instance = 3;
  options.max_results = 50;
  std::string buf;
  WireWriter w(&buf);
  WriteOptions(options, &w);
  EXPECT_EQ(buf.size(), 5u + 5u * 8u);
  WireReader r(buf);
  ProgXeOptions decoded;
  ASSERT_TRUE(ReadOptions(&r, &decoded).ok()) << r.status().ToString();
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(decoded.ordering, options.ordering);
  EXPECT_EQ(decoded.push_through, options.push_through);
  EXPECT_EQ(decoded.partitioning, options.partitioning);
  EXPECT_EQ(decoded.input_cells_per_dim, options.input_cells_per_dim);
  EXPECT_EQ(decoded.output_cells_per_dim, options.output_cells_per_dim);
  EXPECT_EQ(decoded.signature_mode, options.signature_mode);
  EXPECT_EQ(decoded.sigma_hint, options.sigma_hint);
  EXPECT_EQ(decoded.seed, options.seed);
  EXPECT_EQ(decoded.fault_instance, options.fault_instance);
  EXPECT_EQ(decoded.max_results, 0u);
  EXPECT_EQ(decoded.refinement_seed, nullptr);
}

TEST(Wire, RelationRoundTripPreservesEveryBit) {
  Rng rng(0x11e8);
  const Config cfg = MakeConfig(&rng, true, true);
  std::string buf;
  WireWriter w(&buf);
  WriteRelation(cfg.r, &w);
  WireReader r(buf);
  Relation decoded{Schema::Anonymous(0)};
  ASSERT_TRUE(ReadRelation(&r, &decoded).ok()) << r.status().ToString();
  EXPECT_TRUE(r.AtEnd());
  ASSERT_EQ(decoded.size(), cfg.r.size());
  ASSERT_EQ(decoded.num_attributes(), cfg.r.num_attributes());
  for (RowId i = 0; i < static_cast<RowId>(cfg.r.size()); ++i) {
    EXPECT_EQ(decoded.join_key(i), cfg.r.join_key(i));
    for (int a = 0; a < cfg.r.num_attributes(); ++a) {
      const double lhs = decoded.attr(i, a);
      const double rhs = cfg.r.attr(i, a);
      EXPECT_EQ(std::memcmp(&lhs, &rhs, sizeof lhs), 0);
    }
  }
}

// Every truncation of every field group must decode to a non-OK Status —
// straight-line decoders over a bounds-checked reader can't crash, and a
// short payload must never pass as a complete one.
TEST(Wire, TruncatedPayloadsFailCleanly) {
  Rng rng(0x11e9);
  const Config cfg = MakeConfig(&rng, false, true);
  const std::vector<std::string> payloads = EncodeFieldGroups(cfg);
  for (size_t i = 0; i < payloads.size(); ++i) {
    const std::string& whole = payloads[i];
    // Dense sweep for small payloads, strided for relation-sized ones.
    const size_t step = whole.size() > 512 ? whole.size() / 257 + 1 : 1;
    for (size_t cut = 0; cut < whole.size(); cut += step) {
      const Status st = DecodeFieldGroup(i, whole.substr(0, cut));
      EXPECT_FALSE(st.ok()) << "group " << i << " cut at " << cut << " of "
                            << whole.size();
    }
  }
}

// Deterministic byte-flip fuzz: a corrupted payload may still decode (a
// flipped double bit is a different valid double) but must never crash,
// over-allocate on a forged element count, or leave the reader claiming OK
// with bytes unconsumed.
TEST(Wire, CorruptedPayloadsNeverCrash) {
  Rng rng(0x11ea);
  const Config cfg = MakeConfig(&rng, false, false);
  const std::vector<std::string> payloads = EncodeFieldGroups(cfg);
  Rng fuzz(0xfa22);
  for (size_t i = 0; i < payloads.size(); ++i) {
    for (int round = 0; round < 200; ++round) {
      std::string mutated = payloads[i];
      const int flips = 1 + static_cast<int>(fuzz.NextBelow(4));
      for (int f = 0; f < flips; ++f) {
        const size_t pos = fuzz.NextBelow(mutated.size());
        mutated[pos] = static_cast<char>(
            static_cast<uint8_t>(mutated[pos]) ^
            (1u << fuzz.NextBelow(8)));
      }
      // The only requirement: a Status comes back, OK or not, sans crash.
      (void)DecodeFieldGroup(i, mutated);
    }
  }
  // Forged count: a batch claiming 2^31 tuples backed by 8 bytes must be
  // rejected before any allocation proportional to the claim.
  std::string forged;
  WireWriter w(&forged);
  w.PutU32(2);            // k
  w.PutU32(0x80000000u);  // count
  w.PutU64(0);
  const Status st = DecodeFieldGroup(5, forged);
  EXPECT_FALSE(st.ok());
}

// A forged row count chosen so rows * (width+1) * 8 wraps uint64 to 0 must
// still be rejected — the bounds check has to divide, not multiply, or the
// wrapped product sails past it into a gigantic allocation.
TEST(Wire, OverflowedRowCountRejectedBeforeAllocation) {
  std::string forged;
  WireWriter w(&forged);
  w.PutU32(3);  // width: per-row cost 32 bytes
  for (const char* name : {"a", "b", "c"}) w.PutString(name);
  w.PutString("k");                 // join attribute
  w.PutU64(1ull << 61);             // rows: 2^61 * 32 == 2^66 ≡ 0 (mod 2^64)
  WireReader r(forged);
  Relation rel{Schema::Anonymous(0)};
  EXPECT_FALSE(ReadRelation(&r, &rel).ok());
  EXPECT_FALSE(r.status().ok());
}

/// A kOpenShard options group written field by field, so a test can forge
/// values WriteOptions would never produce.
struct OptionsFrame {
  int64_t input_cells_per_dim = 0;
  int64_t output_cells_per_dim = 0;
  int64_t fault_instance = 0;
  double sigma_hint = 0.0;
  bool has_seed = false;
  int64_t seed_k = 2;
  std::vector<double> seed_canonical = {1.0, 2.0};

  Status Decode() const {
    std::string buf;
    WireWriter w(&buf);
    w.PutU8(0);  // ordering
    w.PutU8(0);  // push_through
    w.PutU8(0);  // partitioning
    w.PutI64(input_cells_per_dim);
    w.PutI64(output_cells_per_dim);
    w.PutU8(0);         // signature_mode
    w.PutDouble(sigma_hint);
    w.PutU64(0x5eed);   // seed
    w.PutI64(fault_instance);
    w.PutU8(has_seed ? 1 : 0);
    if (has_seed) {
      w.PutI64(seed_k);
      w.PutDoubles(seed_canonical);
    }
    WireReader r(buf);
    ProgXeOptions options;
    Status st = ReadOptions(&r, &options);
    if (st.ok() && !r.AtEnd()) return Status::Internal("trailing bytes");
    return st;
  }
};

// int-typed option fields travel as i64; a value the field cannot hold
// must be rejected, not truncated (2^32+5 would otherwise become 5), and
// negative cell counts are meaningless. A refinement seed must hold whole
// points, and a selectivity hint must be a finite, non-negative number.
TEST(Wire, OutOfRangeOptionFieldsRejected) {
  constexpr int64_t kWrapsToFive = (int64_t{1} << 32) + 5;
  const OptionsFrame valid{.input_cells_per_dim = 8,
                           .output_cells_per_dim =
                               std::numeric_limits<int>::max(),
                           .fault_instance = -3,
                           .sigma_hint = 0.25,
                           .has_seed = true};
  ASSERT_TRUE(valid.Decode().ok()) << valid.Decode().ToString();

  std::vector<std::pair<const char*, OptionsFrame>> forged;
  forged.push_back({"input_cells_per_dim 2^32+5", valid});
  forged.back().second.input_cells_per_dim = kWrapsToFive;
  forged.push_back({"output_cells_per_dim 2^32+5", valid});
  forged.back().second.output_cells_per_dim = kWrapsToFive;
  forged.push_back({"negative input_cells_per_dim", valid});
  forged.back().second.input_cells_per_dim = -1;
  forged.push_back({"negative output_cells_per_dim", valid});
  forged.back().second.output_cells_per_dim = -4;
  forged.push_back({"fault_instance 2^32+5", valid});
  forged.back().second.fault_instance = kWrapsToFive;
  forged.push_back({"fault_instance below INT_MIN", valid});
  forged.back().second.fault_instance =
      int64_t{std::numeric_limits<int>::min()} - 1;
  forged.push_back({"seed k 2^32+5", valid});
  forged.back().second.seed_k = kWrapsToFive;
  forged.push_back({"negative seed k", valid});
  forged.back().second.seed_k = -2;
  forged.push_back({"seed length not a multiple of k", valid});
  forged.back().second.seed_canonical = {1.0, 2.0, 3.0};
  forged.push_back({"seed values with k 0", valid});
  forged.back().second.seed_k = 0;
  forged.push_back({"NaN sigma_hint", valid});
  forged.back().second.sigma_hint = std::numeric_limits<double>::quiet_NaN();
  forged.push_back({"infinite sigma_hint", valid});
  forged.back().second.sigma_hint = std::numeric_limits<double>::infinity();
  forged.push_back({"negative sigma_hint", valid});
  forged.back().second.sigma_hint = -0.5;
  for (const auto& [label, frame] : forged) {
    const Status st = frame.Decode();
    EXPECT_TRUE(st.IsInvalidArgument()) << label << ": " << st.ToString();
  }
}

TEST(Net, ParseWorkerListValidates) {
  auto list = ParseWorkerList("127.0.0.1:9000, localhost:9001 ,[::1]:9002");
  ASSERT_TRUE(list.ok()) << list.status().ToString();
  EXPECT_EQ(list->size(), 3u);
  EXPECT_EQ((*list)[0], "127.0.0.1:9000");

  EXPECT_TRUE(ParseWorkerList("")->empty());
  EXPECT_FALSE(ParseWorkerList("no-port").ok());
  EXPECT_FALSE(ParseWorkerList("host:notaport").ok());
  EXPECT_FALSE(ParseWorkerList("host:70000").ok());
  // Stray commas are tolerated, not endpoints.
  auto gaps = ParseWorkerList("host:9000,,host:9001");
  ASSERT_TRUE(gaps.ok());
  EXPECT_EQ(gaps->size(), 2u);
}

// --- Loopback distributed execution ----------------------------------------

std::string Endpoint(const WorkerServer& server) {
  return "127.0.0.1:" + std::to_string(server.port());
}

std::unique_ptr<WorkerServer> MustStartWorker() {
  WorkerServerOptions options;
  options.port = 0;
  // Small slices + fast heartbeats so the kill tests cross many pump
  // boundaries and the soak stays quick.
  options.pump_slice_pairs = 1024;
  options.heartbeat_interval = std::chrono::milliseconds(50);
  auto server = WorkerServer::Start(options);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  return server.MoveValue();
}

// A clean distributed run over two loopback workers is bit-identical to the
// in-process sharded run: same delivered set, same summed ProgXeStats, full
// remote coverage, zero retries — and the transport actually carried it
// (net counters moved).
TEST(Net, DistributedRunIsBitIdenticalToInProcess) {
  Rng rng(0xd157);
  const Config cfg = MakeConfig(&rng, false, true);
  ProgXeOptions options;
  options.seed = 0xfeed;
  constexpr int kShards = 4;

  ShardOptions local;
  local.num_shards = kShards;
  auto in_process = OpenProgXeStream(cfg.query(), options, local);
  ASSERT_TRUE(in_process.ok());
  const IdSet reference = SortedIds(DrainStream(in_process->get(), 0, 0));
  const ProgXeStats reference_stats = (*in_process)->stats();

  auto worker_a = MustStartWorker();
  auto worker_b = MustStartWorker();
  const NetStatsSnapshot before = SnapshotNetStats();

  ShardOptions distributed;
  distributed.num_shards = kShards;
  distributed.workers = {Endpoint(*worker_a), Endpoint(*worker_b)};
  auto stream = OpenProgXeStream(cfg.query(), options, distributed);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  // Budgeted drain: slicing must stay invisible over the wire too.
  const IdSet delivered = SortedIds(DrainStream(stream->get(), 7, 96));
  EXPECT_EQ(delivered, reference);
  EXPECT_TRUE((*stream)->last_status().ok());
  ExpectSameStats((*stream)->stats(), reference_stats, "distributed");

  const ShardCoverage coverage = (*stream)->coverage();
  EXPECT_TRUE(coverage.complete());
  EXPECT_EQ(coverage.shards, kShards);
  EXPECT_EQ(coverage.completed, kShards);
  EXPECT_EQ(coverage.remote, kShards);
  EXPECT_EQ(coverage.retries, 0u);

  const NetStatsSnapshot after = SnapshotNetStats();
  EXPECT_GT(after.frames_sent, before.frames_sent);
  EXPECT_GT(after.bytes_received, before.bytes_received);
  EXPECT_GT(after.rtt_count, before.rtt_count);
}

// The pool caches handshaken links across streams: a second query against
// the same workers reuses connections instead of redialing.
TEST(Net, WorkerPoolReusesConnectionsAcrossStreams) {
  Rng rng(0xd158);
  const Config cfg = MakeConfig(&rng, false, false);
  ProgXeOptions options;
  options.seed = 0xfeed;
  auto worker = MustStartWorker();
  auto pool = std::make_shared<WorkerPool>();

  ShardOptions distributed;
  distributed.num_shards = 2;
  distributed.workers = {Endpoint(*worker)};
  distributed.worker_pool = pool;
  for (int round = 0; round < 2; ++round) {
    auto stream = OpenProgXeStream(cfg.query(), options, distributed);
    ASSERT_TRUE(stream.ok()) << stream.status().ToString();
    (void)DrainStream(stream->get(), 0, 0);
    EXPECT_TRUE((*stream)->last_status().ok());
  }
  EXPECT_GT(pool->reuses(), 0u);
  EXPECT_LE(pool->connections_created(), 2u);
}

// Worker death mid-stream: severed connections surface as retryable
// kUnavailable, the shards re-open on the *surviving* worker (endpoint
// rotation) and idempotent replay keeps the delivered set bit-identical —
// zero retractions, zero duplicates.
TEST(Net, WorkerKillMidStreamRecoversOnSurvivor) {
  Rng rng(0xd159);
  // Low sigma: many join-key classes, so every shard owns real work and the
  // kill below is guaranteed to hit shards that still have pumps ahead.
  const Config cfg = MakeConfig(&rng, false, false);
  ProgXeOptions options;
  options.seed = 0xfeed;
  constexpr int kShards = 4;

  ShardOptions local;
  local.num_shards = kShards;
  auto in_process = OpenProgXeStream(cfg.query(), options, local);
  ASSERT_TRUE(in_process.ok());
  const IdSet reference = SortedIds(DrainStream(in_process->get(), 0, 0));

  auto doomed = MustStartWorker();
  auto survivor = MustStartWorker();
  ShardOptions distributed;
  distributed.num_shards = kShards;
  distributed.workers = {Endpoint(*doomed), Endpoint(*survivor)};
  distributed.max_retries = 8;
  distributed.retry_backoff = std::chrono::milliseconds(1);
  auto stream = OpenProgXeStream(cfg.query(), options, distributed);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  // Kill after open, before any pump: every shard the doomed worker held
  // must fail its first pump and replay from scratch elsewhere.
  doomed->Stop();

  const IdSet delivered = SortedIds(DrainStream(stream->get(), 0, 128));
  EXPECT_EQ(delivered, reference);
  EXPECT_TRUE((*stream)->last_status().ok());
  const ShardCoverage coverage = (*stream)->coverage();
  EXPECT_TRUE(coverage.complete());
  EXPECT_EQ(coverage.completed, kShards);
  EXPECT_GT(coverage.retries, 0u);
}

// Retry exhaustion against a dead endpoint under allow_partial: the stream
// completes as a *partial* with exact per-shard accounting, and delivers
// exactly the covered shards' skyline (the same contract as local
// abandonment — transport failures ride the same path).
TEST(Net, RemoteRetryExhaustionYieldsExactPartialCoverage) {
  Rng rng(0xd15a);
  const Config cfg = MakeConfig(&rng, false, true);
  ProgXeOptions options;
  options.seed = 0xfeed;
  constexpr int kShards = 2;

  // Covered-only reference: drop every row whose key hashes to shard 1
  // (the shard that will dial the dead endpoint), run unsharded, map the
  // renumbered ids back.
  std::vector<RowId> keep_r, keep_t;
  for (RowId i = 0; i < static_cast<RowId>(cfg.r.size()); ++i) {
    if (ShardOfKey(cfg.r.join_key(i), kShards) != 1) keep_r.push_back(i);
  }
  for (RowId i = 0; i < static_cast<RowId>(cfg.t.size()); ++i) {
    if (ShardOfKey(cfg.t.join_key(i), kShards) != 1) keep_t.push_back(i);
  }
  ASSERT_LT(keep_r.size(), cfg.r.size());
  std::vector<RowId> r_orig, t_orig;
  Config covered;
  covered.r = cfg.r.Select(keep_r, &r_orig);
  covered.t = cfg.t.Select(keep_t, &t_orig);
  covered.map = cfg.map;
  covered.pref = cfg.pref;
  auto covered_session = ProgXeSession::Open(covered.query(), options);
  ASSERT_TRUE(covered_session.ok());
  IdSet reference;
  for (const auto& [r_id, t_id] :
       SortedIds(DrainStream(covered_session->get(), 0, 0))) {
    reference.emplace_back(r_orig[r_id], t_orig[t_id]);
  }
  std::sort(reference.begin(), reference.end());

  auto live = MustStartWorker();
  // A port that *was* bound and no longer is: connection refused, fast.
  auto dead = MustStartWorker();
  const std::string dead_endpoint = Endpoint(*dead);
  dead->Stop();
  dead.reset();

  // Shard i dials workers[i % 2]: shard 0 -> live, shard 1 -> dead; with
  // max_retries=0 there is no rotation onto the live worker, so shard 1 is
  // deterministically abandoned.
  ShardOptions distributed;
  distributed.num_shards = kShards;
  distributed.workers = {Endpoint(*live), dead_endpoint};
  distributed.max_retries = 0;
  distributed.allow_partial = true;
  auto stream = OpenProgXeStream(cfg.query(), options, distributed);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  const IdSet delivered = SortedIds(DrainStream(stream->get(), 0, 0));
  EXPECT_EQ(delivered, reference);
  EXPECT_TRUE((*stream)->last_status().ok());

  const ShardCoverage coverage = (*stream)->coverage();
  EXPECT_FALSE(coverage.complete());
  EXPECT_EQ(coverage.shards, kShards);
  EXPECT_EQ(coverage.completed, kShards - 1);
  EXPECT_EQ(coverage.abandoned, 1);
  ASSERT_EQ(coverage.abandoned_shards.size(), 1u);
  EXPECT_EQ(coverage.abandoned_shards[0], 1);
  EXPECT_EQ(coverage.remote, kShards);
}

// Without allow_partial the same dead endpoint kills the stream with the
// transport's synthesized kUnavailable — the coordinator-side failure
// detector, observable end to end.
TEST(Net, DeadWorkerWithoutPartialFailsWithUnavailable) {
  Rng rng(0xd15b);
  const Config cfg = MakeConfig(&rng, false, false);
  ProgXeOptions options;
  options.seed = 0xfeed;

  auto dead = MustStartWorker();
  const std::string dead_endpoint = Endpoint(*dead);
  dead->Stop();
  dead.reset();

  ShardOptions distributed;
  distributed.num_shards = 2;
  distributed.workers = {dead_endpoint};
  distributed.max_retries = 1;
  distributed.retry_backoff = std::chrono::milliseconds(0);
  auto stream = OpenProgXeStream(cfg.query(), options, distributed);
  ASSERT_TRUE(stream.ok())
      << "transient open failures must not fail Open itself";
  std::vector<ResultTuple> batch;
  EXPECT_EQ((*stream)->NextBatch(0, 0, &batch), 0u);
  EXPECT_TRUE((*stream)->Finished());
  const Status death = (*stream)->last_status();
  ASSERT_FALSE(death.ok());
  EXPECT_TRUE(death.IsUnavailable());
}

// A worker survives a *semantic* open failure (bad query) with the link
// intact: the error comes back as a Status, not a severed connection, and
// the very same connection then serves a healthy session.
TEST(Net, SemanticOpenFailureKeepsTheLinkUsable) {
  Rng rng(0xd15c);
  const Config cfg = MakeConfig(&rng, false, false);
  auto worker = MustStartWorker();
  auto pool = std::make_shared<WorkerPool>();

  // Dimensionality mismatch: preference arity != map arity.
  std::vector<Direction> dirs(cfg.map.output_dimensions() + 1,
                              Direction::kLowest);
  ProgXeOptions options;
  options.seed = 0xfeed;
  auto bad = RemoteShardStream::Open(pool, Endpoint(*worker), 0, cfg.r,
                                     cfg.t, cfg.map, Preference(dirs),
                                     options);
  EXPECT_FALSE(bad.ok());
  EXPECT_FALSE(bad.status().IsUnavailable())
      << "semantic failures must not masquerade as transport death: "
      << bad.status().ToString();

  auto good = RemoteShardStream::Open(pool, Endpoint(*worker), 0, cfg.r,
                                      cfg.t, cfg.map, cfg.pref, options);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(pool->connections_created(), 1u)
      << "the post-failure open must reuse the surviving link";
  (*good)->Close();
}

// A link whose reply is still unclaimed is never pooled. The fake worker
// handshakes and then never answers, so the pending reply cannot show up
// as bytes the checkout's liveness probe would catch: only the pool's own
// rule keeps the next checkout from inheriting the outstanding request.
TEST(Net, LinkWithUnclaimedReplyIsNeverPooled) {
  auto listener = ListenTcp(0);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  std::vector<int> accepted;
  std::thread fake_worker([fd = listener->fd, &accepted] {
    for (int i = 0; i < 2; ++i) {
      auto conn = AcceptTcp(fd);
      if (!conn.ok()) return;
      accepted.push_back(*conn);
      MsgType type;
      std::string payload;
      if (!RecvFrame(*conn, &type, &payload, std::chrono::milliseconds(2000))
               .ok()) {
        return;
      }
      std::string ack;
      WireWriter w(&ack);
      w.PutU32(kWireMagic);
      w.PutU16(kWireVersion);
      (void)SendFrame(*conn, MsgType::kHelloAck, ack);
    }
  });
  auto pool = std::make_shared<WorkerPool>();
  const std::string endpoint = "127.0.0.1:" + std::to_string(listener->port);
  auto first = pool->Checkout(endpoint);
  const bool sent =
      first.ok() && (*first)->Send(MsgType::kPing, {}, MsgType::kPong).ok();
  const bool awaiting = first.ok() && (*first)->awaiting();
  if (first.ok()) pool->Return(std::move(*first));
  auto second = pool->Checkout(endpoint);
  // Wakes the fake worker if the checkout reused the link instead of
  // dialing the second connection it waits for.
  ::shutdown(listener->fd, SHUT_RDWR);
  fake_worker.join();
  ASSERT_TRUE(sent);
  EXPECT_TRUE(awaiting);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(pool->reuses(), 0u);
  EXPECT_EQ(pool->connections_created(), 2u);
  // One request outstanding per link: a second Send poisons it.
  ASSERT_TRUE((*second)->Send(MsgType::kPing, {}, MsgType::kPong).ok());
  EXPECT_FALSE((*second)->Send(MsgType::kPing, {}, MsgType::kPong).ok());
  EXPECT_FALSE((*second)->healthy());
  for (int fd : accepted) CloseFd(fd);
  CloseFd(listener->fd);
}

// The handshake is an exact match: a kHello with a foreign magic or any
// other version (the previous layouts 2 and 3 included) gets kError and a
// closed link, and the worker goes on serving well-formed pools.
TEST(Net, HandshakeRejectsWrongMagicAndVersion) {
  auto worker = MustStartWorker();
  const std::string endpoint = Endpoint(*worker);
  struct Hello {
    const char* label;
    uint32_t magic;
    uint16_t version;
  };
  for (const Hello& hello : {Hello{"wrong magic", kWireMagic ^ 1u, kWireVersion},
                             Hello{"version 2", kWireMagic, 2},
                             Hello{"version 3", kWireMagic, 3}}) {
    auto fd = DialTcp(endpoint, std::chrono::milliseconds(2000));
    ASSERT_TRUE(fd.ok()) << fd.status().ToString();
    std::string payload;
    WireWriter w(&payload);
    w.PutU32(hello.magic);
    w.PutU16(hello.version);
    ASSERT_TRUE(SendFrame(*fd, MsgType::kHello, payload).ok());
    MsgType type;
    std::string reply;
    ASSERT_TRUE(
        RecvFrame(*fd, &type, &reply, std::chrono::milliseconds(2000)).ok())
        << hello.label;
    EXPECT_EQ(type, MsgType::kError) << hello.label;
    WireReader r(reply);
    Status error;
    ASSERT_TRUE(ReadStatusPayload(&r, &error).ok()) << hello.label;
    EXPECT_TRUE(error.IsInvalidArgument()) << hello.label;
    EXPECT_FALSE(
        RecvFrame(*fd, &type, &reply, std::chrono::milliseconds(2000)).ok())
        << hello.label << ": the worker must close the link";
    CloseFd(*fd);
  }

  Rng rng(0xd15b);
  const Config cfg = MakeConfig(&rng, false, false);
  ProgXeOptions options;
  options.seed = 0xfeed;
  auto pool = std::make_shared<WorkerPool>();
  auto stream = RemoteShardStream::Open(pool, endpoint, 0, cfg.r, cfg.t,
                                        cfg.map, cfg.pref, options);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  std::vector<ResultTuple> remote;
  std::vector<ResultTuple> batch;
  std::vector<double> bound;
  do {
    (*stream)->StartPump(0);
    (*stream)->FinishPump(&batch);
    remote.insert(remote.end(), batch.begin(), batch.end());
  } while ((*stream)->last_status().ok() &&
           (*stream)->RemainingLowerBound(&bound));
  EXPECT_TRUE((*stream)->last_status().ok());
  auto session = ProgXeSession::Open(cfg.query(), options);
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(SortedIds(remote), SortedIds(DrainStream(session->get(), 0, 0)));
  (*stream)->Close();
}

// A coordinator facing a worker that acks another version refuses the link
// with InvalidArgument before any session frame is sent, and counts it as
// an endpoint failure (a threshold of 1 opens the circuit at once).
TEST(Net, PoolRejectsMismatchedHelloAck) {
  auto listener = ListenTcp(0);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  std::thread fake_worker([fd = listener->fd] {
    auto conn = AcceptTcp(fd);
    if (!conn.ok()) return;
    MsgType type;
    std::string payload;
    if (RecvFrame(*conn, &type, &payload, std::chrono::milliseconds(2000))
            .ok()) {
      std::string ack;
      WireWriter w(&ack);
      w.PutU32(kWireMagic);
      w.PutU16(2);
      (void)SendFrame(*conn, MsgType::kHelloAck, ack);
    }
    CloseFd(*conn);
  });
  NetOptions net;
  net.circuit_failure_threshold = 1;
  auto pool = std::make_shared<WorkerPool>(net);
  const std::string endpoint =
      "127.0.0.1:" + std::to_string(listener->port);
  auto conn = pool->Checkout(endpoint);
  fake_worker.join();
  CloseFd(listener->fd);
  ASSERT_FALSE(conn.ok());
  EXPECT_TRUE(conn.status().IsInvalidArgument()) << conn.status().ToString();
  EXPECT_TRUE(pool->IsOpen(endpoint));
}

// --- Checkpointed remote recovery + transport chaos -------------------------

std::shared_ptr<FaultInjector> MustParseFaults(const std::string& spec,
                                               uint64_t seed) {
  auto injector = FaultInjector::Parse(spec, seed);
  EXPECT_TRUE(injector.ok()) << injector.status().ToString();
  return injector.MoveValue();
}

/// Installs a net.* chaos injector for the enclosing scope; the nullptr
/// reset on destruction keeps chaos from leaking into later tests.
class ScopedNetChaos {
 public:
  explicit ScopedNetChaos(std::shared_ptr<FaultInjector> injector)
      : injector_(std::move(injector)) {
    SetNetFaultInjectorForTest(injector_.get());
  }
  ~ScopedNetChaos() { SetNetFaultInjectorForTest(nullptr); }

 private:
  std::shared_ptr<FaultInjector> injector_;
};

// Kill a worker after real pump progress: the displaced shards re-open on
// the survivor *with their wire-shipped checkpoints*, so across the sweep
// at least one resume must skip processed regions (replay_pairs_saved > 0)
// — and every delivered set stays bit-identical to the in-process run.
TEST(Net, WorkerKillMidStreamResumesFromCheckpoint) {
  uint64_t total_retries = 0;
  uint64_t total_saved = 0;
  for (uint64_t seed : {uint64_t{1}, uint64_t{4}, uint64_t{12}}) {
    Rng rng(0xd15d + seed);
    const Config cfg = MakeConfig(&rng, false, seed % 2 == 0);
    ProgXeOptions options;
    options.seed = 0xfeed;
    constexpr int kShards = 4;

    ShardOptions local;
    local.num_shards = kShards;
    auto in_process = OpenProgXeStream(cfg.query(), options, local);
    ASSERT_TRUE(in_process.ok());
    const IdSet reference = SortedIds(DrainStream(in_process->get(), 0, 0));

    auto doomed = MustStartWorker();
    auto survivor = MustStartWorker();
    ShardOptions distributed;
    distributed.num_shards = kShards;
    distributed.workers = {Endpoint(*doomed), Endpoint(*survivor)};
    distributed.max_retries = 8;
    distributed.retry_backoff = std::chrono::milliseconds(1);
    auto stream = OpenProgXeStream(cfg.query(), options, distributed);
    ASSERT_TRUE(stream.ok()) << stream.status().ToString();

    // Pump a couple of budgeted rounds so the doomed worker's shards have
    // checkpoints on the coordinator, then pull the plug mid-stream.
    std::vector<ResultTuple> batch;
    IdSet delivered;
    int pumps = 0;
    while (!(*stream)->Finished()) {
      (*stream)->NextBatch(0, 160, &batch);
      for (const ResultTuple& res : batch) {
        delivered.emplace_back(res.r_id, res.t_id);
      }
      if (++pumps == 2 && doomed != nullptr) {
        doomed->Stop();
        doomed.reset();
      }
    }
    std::sort(delivered.begin(), delivered.end());
    EXPECT_EQ(delivered, reference) << "seed=" << seed;
    EXPECT_TRUE((*stream)->last_status().ok());
    const ShardCoverage coverage = (*stream)->coverage();
    EXPECT_TRUE(coverage.complete()) << "seed=" << seed;
    total_retries += coverage.retries;
    total_saved += coverage.replay_pairs_saved;
  }
  // The kill schedule must actually displace shards, and at least one
  // re-open must resume from a checkpoint instead of replaying from
  // scratch, or the remote resume path went untested.
  EXPECT_GT(total_retries, 0u);
  EXPECT_GT(total_saved, 0u);
}

// With checkpoint_retry off the coordinator never ships checkpoints: the
// same kill choreography still recovers bit-identically, but via full
// replay (replay_pairs_saved stays 0) — the replay path must remain sound.
TEST(Net, NoCheckpointRetryRecoversViaFullReplay) {
  Rng rng(0xd15e);
  const Config cfg = MakeConfig(&rng, false, false);
  ProgXeOptions options;
  options.seed = 0xfeed;
  constexpr int kShards = 4;

  ShardOptions local;
  local.num_shards = kShards;
  auto in_process = OpenProgXeStream(cfg.query(), options, local);
  ASSERT_TRUE(in_process.ok());
  const IdSet reference = SortedIds(DrainStream(in_process->get(), 0, 0));

  auto doomed = MustStartWorker();
  auto survivor = MustStartWorker();
  ShardOptions distributed;
  distributed.num_shards = kShards;
  distributed.workers = {Endpoint(*doomed), Endpoint(*survivor)};
  distributed.checkpoint_retry = false;
  distributed.max_retries = 8;
  distributed.retry_backoff = std::chrono::milliseconds(1);
  auto stream = OpenProgXeStream(cfg.query(), options, distributed);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();

  std::vector<ResultTuple> batch;
  IdSet delivered;
  int pumps = 0;
  while (!(*stream)->Finished()) {
    (*stream)->NextBatch(0, 160, &batch);
    for (const ResultTuple& res : batch) {
      delivered.emplace_back(res.r_id, res.t_id);
    }
    if (++pumps == 2 && doomed != nullptr) {
      doomed->Stop();
      doomed.reset();
    }
  }
  std::sort(delivered.begin(), delivered.end());
  EXPECT_EQ(delivered, reference);
  EXPECT_TRUE((*stream)->last_status().ok());
  const ShardCoverage coverage = (*stream)->coverage();
  EXPECT_TRUE(coverage.complete());
  EXPECT_GT(coverage.retries, 0u) << "the kill must displace shards";
  EXPECT_EQ(coverage.replay_pairs_saved, 0u)
      << "checkpoint_retry=false must not ship checkpoints";
}

// Loopback leg of the tie-replay check: a twin-heavy query (every R row
// duplicated, so local skylines hold distinct pairs with equal points) on
// two workers, one killed mid-stream. The survivor's replays are dropped by
// their own keys and every tie twin is delivered exactly once.
TEST(Net, WorkerKillWithTiesDeliversEveryTwinOnce) {
  Rng rng(0x71e6);
  const Config cfg = test::MakeTwinConfig(&rng, /*high_sigma=*/false);
  const IdSet reference = test::SkylineOracle(cfg);
  ProgXeOptions options;
  options.seed = 0xfeed;

  auto doomed = MustStartWorker();
  auto survivor = MustStartWorker();
  ShardOptions distributed;
  distributed.num_shards = 4;
  distributed.workers = {Endpoint(*doomed), Endpoint(*survivor)};
  distributed.max_retries = 8;
  distributed.retry_backoff = std::chrono::milliseconds(1);
  auto stream = OpenProgXeStream(cfg.query(), options, distributed);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();

  // Kill once a third of the answer is out, so the displaced shards have
  // delivered (tied) pairs that their replays re-derive.
  std::vector<ResultTuple> batch;
  IdSet delivered;
  while (!(*stream)->Finished()) {
    (*stream)->NextBatch(0, 128, &batch);
    for (const ResultTuple& res : batch) {
      delivered.emplace_back(res.r_id, res.t_id);
    }
    if (doomed != nullptr && delivered.size() * 3 >= reference.size()) {
      doomed->Stop();
      doomed.reset();
    }
  }
  std::sort(delivered.begin(), delivered.end());
  EXPECT_EQ(delivered, reference);
  EXPECT_TRUE((*stream)->last_status().ok());
  EXPECT_TRUE((*stream)->coverage().complete());
  EXPECT_GT((*stream)->coverage().retries, 0u) << "the kill must displace shards";
}

/// A relay between a coordinator and a real worker that plays a worker
/// which is killed once and then lies. Link 0 is severed at the first
/// kPump after it delivered a pair (the kill). On link 1, the replaying
/// incarnation, the first checkpoint shipped while both links together
/// carried more distinct pairs than link 1 alone gets `delivered` inflated
/// to that distinct count and `frontier_epoch` set to kLieEpoch; link 1 is
/// then severed at its next kPump. Every later kOpenShard is inspected for
/// the lie.
class LyingRelay {
 public:
  static constexpr uint64_t kLieEpoch = 0x11e11e11e;

  LyingRelay(ListenSocket listener, std::string worker)
      : worker_(std::move(worker)),
        listen_fd_(listener.fd),
        port_(listener.port),
        thread_([this] { Run(); }) {}
  ~LyingRelay() { Stop(); }
  LyingRelay(const LyingRelay&) = delete;
  LyingRelay& operator=(const LyingRelay&) = delete;

  /// Stops accepting and waits for the relay thread (call after the
  /// coordinator's pool has closed its links). Idempotent.
  void Stop() {
    if (!thread_.joinable()) return;
    ::shutdown(listen_fd_, SHUT_RDWR);
    thread_.join();
    CloseFd(listen_fd_);
  }

  std::string endpoint() const { return "127.0.0.1:" + std::to_string(port_); }
  int links() const { return links_; }
  bool lied() const { return lie_sent_; }
  bool lie_reshipped() const { return lie_reshipped_; }

 private:
  void Run() {
    while (true) {
      auto client = AcceptTcp(listen_fd_);
      if (!client.ok()) return;
      auto upstream = DialTcp(worker_, std::chrono::milliseconds(2000));
      if (upstream.ok()) {
        Relay(links_, *client, *upstream);
        CloseFd(*upstream);
      }
      CloseFd(*client);
      ++links_;
    }
  }

  void Relay(int link, int client, int upstream) {
    constexpr std::chrono::milliseconds kDeadline{10000};
    uint64_t sent = 0;  // pairs this link delivered
    while (true) {
      MsgType type;
      std::string payload;
      if (!RecvFrame(client, &type, &payload, kDeadline).ok()) return;
      if (type == MsgType::kPump &&
          ((link == 0 && sent > 0) || (link == 1 && lie_sent_))) {
        return;
      }
      if (type == MsgType::kOpenShard && ShipsTheLie(payload)) {
        lie_reshipped_ = true;
      }
      if (!SendFrame(upstream, type, payload).ok()) return;
      MsgType reply_type;
      std::string reply;
      do {
        if (!RecvFrame(upstream, &reply_type, &reply, kDeadline).ok()) return;
        if (reply_type == MsgType::kPumpResult) {
          MaybeLie(link, &reply, &sent);
        }
        if (!SendFrame(client, reply_type, reply).ok()) return;
      } while (reply_type == MsgType::kHeartbeat);
    }
  }

  /// Records the batch of a kPumpResult and, on link 1, rewrites its
  /// checkpoint into the lie.
  void MaybeLie(int link, std::string* reply, uint64_t* sent) {
    WireReader r(*reply);
    Status remote;
    std::vector<ResultTuple> batch;
    bool has_bound = false;
    std::vector<double> bound;
    ProgXeStats stats;
    uint8_t has_checkpoint = 0;
    if (!ReadStatusPayload(&r, &remote).ok() || !remote.ok() ||
        !ReadResultBatch(&r, &batch).ok() ||
        !ReadWatermark(&r, &has_bound, &bound).ok() ||
        !ReadStats(&r, &stats).ok() || !r.GetU8(&has_checkpoint)) {
      return;
    }
    for (const ResultTuple& res : batch) seen_.emplace(res.r_id, res.t_id);
    *sent += batch.size();
    if (link != 1 || lie_sent_ || has_checkpoint == 0 ||
        seen_.size() <= *sent) {
      return;
    }
    // The checkpoint group opens with u32 k, u64 frontier_epoch, u64
    // delivered: patch the two u64 fields in place.
    const size_t at = reply->size() - r.remaining();
    PatchU64(reply, at + 4, kLieEpoch);
    PatchU64(reply, at + 12, seen_.size());
    lie_sent_ = true;
  }

  static void PatchU64(std::string* buf, size_t at, uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      (*buf)[at + static_cast<size_t>(i)] =
          static_cast<char>((v >> (8 * i)) & 0xff);
    }
  }

  /// True iff a kOpenShard payload resumes from the lie.
  static bool ShipsTheLie(const std::string& payload) {
    WireReader r(payload);
    uint32_t shard = 0;
    ProgXeOptions options;
    MapSpec map;
    Preference pref;
    Relation rel_r{Schema::Anonymous(0)};
    Relation rel_t{Schema::Anonymous(0)};
    uint8_t has_resume = 0;
    SessionCheckpoint resume;
    return r.GetU32(&shard) && ReadOptions(&r, &options).ok() &&
           ReadMapSpec(&r, &map).ok() && ReadPreference(&r, &pref).ok() &&
           ReadRelation(&r, &rel_r).ok() && ReadRelation(&r, &rel_t).ok() &&
           r.GetU8(&has_resume) && has_resume != 0 &&
           ReadCheckpoint(&r, &resume).ok() &&
           resume.frontier_epoch == kLieEpoch;
  }

  // Relay-thread state, read by the test only after Stop().
  std::set<std::pair<RowId, RowId>> seen_;
  int links_ = 0;
  bool lie_sent_ = false;
  bool lie_reshipped_ = false;
  const std::string worker_;
  const int listen_fd_;
  const int port_;
  std::thread thread_;  // last: it uses every member above
};

// A checkpoint may claim at most the deliveries of the incarnation that
// shipped it. After a replay, a worker claiming more (here: every distinct
// pair the shard ever delivered, which a count across incarnations would
// accept) is inconsistent: the coordinator must drop that checkpoint, never
// resume a later incarnation from it, and still finish bit-identically.
TEST(Net, InflatedCheckpointAfterReplayIsDropped) {
  Rng rng(0xd160);
  const Config cfg = MakeConfig(&rng, false, false);
  ProgXeOptions options;
  options.seed = 0xfeed;
  auto session = ProgXeSession::Open(cfg.query(), options);
  ASSERT_TRUE(session.ok());
  const IdSet reference = SortedIds(DrainStream(session->get(), 0, 0));

  auto worker = MustStartWorker();
  auto listener = ListenTcp(0);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  LyingRelay relay(*listener, Endpoint(*worker));
  ShardOptions distributed;
  distributed.num_shards = 1;
  distributed.workers = {relay.endpoint()};
  distributed.max_retries = 4;
  distributed.retry_backoff = std::chrono::milliseconds(0);
  auto stream = OpenProgXeStream(cfg.query(), options, distributed);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  const IdSet delivered = SortedIds(DrainStream(stream->get(), 0, 128));
  const Status status = (*stream)->last_status();
  const uint64_t retries = (*stream)->coverage().retries;
  stream->reset();  // closes the pooled link, ending the relay's last link
  relay.Stop();

  EXPECT_EQ(delivered, reference);
  EXPECT_TRUE(status.ok()) << status.ToString();
  ASSERT_TRUE(relay.lied()) << "link 1 never shipped a checkpoint to inflate";
  EXPECT_EQ(retries, 2u);
  EXPECT_GE(relay.links(), 3);
  EXPECT_FALSE(relay.lie_reshipped())
      << "the inflated checkpoint was adopted and resumed from";
}

// Loopback run under seeded net.send/net.recv/net.frame chaos: torn
// writes, dropped reads and corrupt length prefixes on both sides of the
// link. The schedules are bounded (max=), so with enough retry budget the
// stream must complete bit-identically — no hangs, no retractions.
TEST(Net, TransportChaosLoopbackStaysExact) {
  Rng rng(0xd15f);
  const Config cfg = MakeConfig(&rng, false, true);
  ProgXeOptions options;
  options.seed = 0xfeed;
  constexpr int kShards = 4;

  ShardOptions local;
  local.num_shards = kShards;
  auto in_process = OpenProgXeStream(cfg.query(), options, local);
  ASSERT_TRUE(in_process.ok());
  const IdSet reference = SortedIds(DrainStream(in_process->get(), 0, 0));

  // The chaos scope must outlive the workers: their handler threads consult
  // the process-wide injector on every RecvFrame, so it is installed before
  // the first worker starts and removed only after the last one has joined.
  ScopedNetChaos chaos(MustParseFaults(
      "net.send:p=0.2,max=4;net.recv:p=0.2,max=4;net.frame:p=0.2,max=3",
      0xc4a05));
  auto worker_a = MustStartWorker();
  auto worker_b = MustStartWorker();
  NetOptions net;
  net.circuit_cooldown = std::chrono::milliseconds(5);
  auto pool = std::make_shared<WorkerPool>(net);

  ShardOptions distributed;
  distributed.num_shards = kShards;
  distributed.workers = {Endpoint(*worker_a), Endpoint(*worker_b)};
  distributed.worker_pool = pool;
  distributed.max_retries = 16;
  distributed.retry_backoff = std::chrono::milliseconds(1);
  auto stream = OpenProgXeStream(cfg.query(), options, distributed);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  const IdSet delivered = SortedIds(DrainStream(stream->get(), 0, 128));
  EXPECT_EQ(delivered, reference);
  EXPECT_TRUE((*stream)->last_status().ok());
  EXPECT_TRUE((*stream)->coverage().complete());
}

// The circuit breaker: a dead endpoint accumulates consecutive transport
// failures, its circuit opens (gauge + counter move), and shard placement
// routes around it onto the live worker — the stream still delivers the
// full bit-identical skyline.
TEST(Net, CircuitBreakerRoutesAroundDeadEndpoint) {
  Rng rng(0xd160);
  const Config cfg = MakeConfig(&rng, false, false);
  ProgXeOptions options;
  options.seed = 0xfeed;
  constexpr int kShards = 2;

  ShardOptions local;
  local.num_shards = kShards;
  auto in_process = OpenProgXeStream(cfg.query(), options, local);
  ASSERT_TRUE(in_process.ok());
  const IdSet reference = SortedIds(DrainStream(in_process->get(), 0, 0));

  auto live = MustStartWorker();
  auto dead = MustStartWorker();
  const std::string dead_endpoint = Endpoint(*dead);
  dead->Stop();
  dead.reset();

  NetOptions net;
  net.circuit_failure_threshold = 1;
  net.circuit_cooldown = std::chrono::seconds(60);  // stays open to the end
  auto pool = std::make_shared<WorkerPool>(net);
  const NetStatsSnapshot before = SnapshotNetStats();

  // Shard 0 dials workers[0] (the dead endpoint) first; the breaker must
  // open on the dial failure and the retry must route onto the live one.
  ShardOptions distributed;
  distributed.num_shards = kShards;
  distributed.workers = {dead_endpoint, Endpoint(*live)};
  distributed.worker_pool = pool;
  distributed.max_retries = 6;
  distributed.retry_backoff = std::chrono::milliseconds(0);
  auto stream = OpenProgXeStream(cfg.query(), options, distributed);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  const IdSet delivered = SortedIds(DrainStream(stream->get(), 0, 0));
  EXPECT_EQ(delivered, reference);
  EXPECT_TRUE((*stream)->last_status().ok());
  EXPECT_TRUE((*stream)->coverage().complete());

  EXPECT_TRUE(pool->IsOpen(dead_endpoint));
  EXPECT_EQ(pool->open_circuits(), 1);
  const NetStatsSnapshot after = SnapshotNetStats();
  EXPECT_GT(after.circuits_opened, before.circuits_opened);
  EXPECT_GT(after.open_circuits, before.open_circuits);
  // Drop every co-owner (stream, options copy, local handle): the last
  // teardown must release the open-circuits gauge.
  stream->reset();
  distributed.worker_pool.reset();
  pool.reset();
  EXPECT_EQ(SnapshotNetStats().open_circuits, before.open_circuits);
}

// --- Scatter/gather rounds -------------------------------------------------

/// ShardedStream::Open over `workers` (through `pool`) for the K=4 runs
/// below, with `faults` as the programmatic injector.
std::unique_ptr<ShardedStream> OpenDistributed(
    const Config& cfg, const std::vector<std::string>& workers,
    std::shared_ptr<WorkerPool> pool, int max_retries,
    const std::string& faults = "") {
  ProgXeOptions options;
  options.seed = 0xfeed;
  if (!faults.empty()) options.faults = MustParseFaults(faults, 7);
  ShardOptions distributed;
  distributed.num_shards = 4;
  distributed.workers = workers;
  distributed.worker_pool = std::move(pool);
  distributed.max_retries = max_retries;
  distributed.retry_backoff = std::chrono::milliseconds(0);
  auto stream = ShardedStream::Open(cfg.query(), options, distributed);
  EXPECT_TRUE(stream.ok()) << stream.status().ToString();
  return stream.ok() ? stream.MoveValue() : nullptr;
}

IdSet InProcessReference(const Config& cfg) {
  ProgXeOptions options;
  options.seed = 0xfeed;
  ShardOptions local;
  local.num_shards = 4;
  auto stream = OpenProgXeStream(cfg.query(), options, local);
  EXPECT_TRUE(stream.ok());
  return SortedIds(DrainStream(stream->get(), 0, 0));
}

// The coordinator sends every shard's open, and every round's pumps,
// before it awaits any reply: K=4 shards over 2 workers have 4 requests in
// flight at the first await of the open scatter and of a pump round (a
// serial coordinator would have 1).
TEST(Net, RoundsScatterEveryRequestBeforeTheFirstAwait) {
  Rng rng(0xd161);
  const Config cfg = MakeConfig(&rng, false, false);
  auto worker_a = MustStartWorker();
  auto worker_b = MustStartWorker();
  auto stream =
      OpenDistributed(cfg, {Endpoint(*worker_a), Endpoint(*worker_b)},
                      std::make_shared<WorkerPool>(), 0);
  ASSERT_NE(stream, nullptr);
  EXPECT_EQ(stream->round_fanout(), 4u) << "opens";
  std::vector<ResultTuple> batch;
  stream->NextBatch(0, 64, &batch);
  EXPECT_EQ(stream->round_fanout(), 4u) << "pumps";
  EXPECT_TRUE(stream->last_status().ok());

  ShardOptions local;
  local.num_shards = 4;
  auto in_process = ShardedStream::Open(cfg.query(), ProgXeOptions(), local);
  ASSERT_TRUE(in_process.ok());
  (*in_process)->NextBatch(0, 64, &batch);
  EXPECT_EQ((*in_process)->round_fanout(), 0u) << "local engines send none";
}

// A shard.next_batch fault on shard 2 fires while shards 0, 1 and 3 have
// pumps in flight. With a retry the round recovers bit-identically; without
// one the stream fails, and failing drains the in-flight replies, so every
// link goes back to the pool idle and the next query reuses all four.
TEST(Net, NextBatchFaultAmidInFlightPumpsKeepsLinksReusable) {
  Rng rng(0xd162);
  const Config cfg = MakeConfig(&rng, false, false);
  const IdSet reference = InProcessReference(cfg);
  auto worker_a = MustStartWorker();
  auto worker_b = MustStartWorker();
  const std::vector<std::string> workers = {Endpoint(*worker_a),
                                            Endpoint(*worker_b)};
  auto recovered =
      OpenDistributed(cfg, workers, std::make_shared<WorkerPool>(), 2,
                      "shard.next_batch:shard=2,max=1");
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(SortedIds(DrainStream(recovered.get(), 0, 128)), reference);
  EXPECT_TRUE(recovered->last_status().ok());
  EXPECT_EQ(recovered->coverage().retries, 1u);
  recovered.reset();

  auto pool = std::make_shared<WorkerPool>();
  auto failing = OpenDistributed(cfg, workers, pool, 0,
                                 "shard.next_batch:shard=2");
  ASSERT_NE(failing, nullptr);
  std::vector<ResultTuple> batch;
  EXPECT_EQ(failing->NextBatch(0, 128, &batch), 0u);
  EXPECT_EQ(failing->round_fanout(), 3u) << "shards 0, 1 and 3 in flight";
  EXPECT_TRUE(failing->last_status().IsUnavailable())
      << failing->last_status().ToString();
  failing.reset();
  ASSERT_EQ(pool->connections_created(), 4u);
  ASSERT_EQ(pool->reuses(), 0u);

  auto clean = OpenDistributed(cfg, workers, pool, 0);
  ASSERT_NE(clean, nullptr);
  EXPECT_EQ(SortedIds(DrainStream(clean.get(), 0, 128)), reference);
  EXPECT_TRUE(clean->last_status().ok());
  EXPECT_EQ(pool->connections_created(), 4u)
      << "the drained links must be reused, not redialed";
  EXPECT_EQ(pool->reuses(), 4u);
}

// A worker dies while the survivor's shards have pumps in flight. With
// retries the displaced shards re-open on the survivor and the delivered
// set stays bit-identical; without, the first dead shard fails the stream
// and the survivor's two in-flight pumps are drained, so a later query on
// the same pool reuses exactly those two links.
TEST(Net, WorkerKillAmidInFlightPumpsKeepsSurvivorLinks) {
  Rng rng(0xd163);
  const Config cfg = MakeConfig(&rng, false, false);
  const IdSet reference = InProcessReference(cfg);
  auto survivor = MustStartWorker();
  auto pool = std::make_shared<WorkerPool>();

  for (const int max_retries : {8, 0}) {
    auto doomed = MustStartWorker();
    // Shards 0 and 2 run on the doomed worker, 1 and 3 on the survivor.
    auto stream = OpenDistributed(
        cfg, {Endpoint(*doomed), Endpoint(*survivor)},
        max_retries > 0 ? std::make_shared<WorkerPool>() : pool,
        max_retries);
    ASSERT_NE(stream, nullptr);
    std::vector<ResultTuple> batch;
    IdSet delivered;
    for (int round = 0; round < 2 && !stream->Finished(); ++round) {
      stream->NextBatch(0, 160, &batch);
      for (const ResultTuple& res : batch) {
        delivered.emplace_back(res.r_id, res.t_id);
      }
    }
    ASSERT_FALSE(stream->Finished()) << "the kill must land mid-stream";
    doomed->Stop();
    while (!stream->Finished()) {
      stream->NextBatch(0, 160, &batch);
      for (const ResultTuple& res : batch) {
        delivered.emplace_back(res.r_id, res.t_id);
      }
    }
    if (max_retries > 0) {
      std::sort(delivered.begin(), delivered.end());
      EXPECT_EQ(delivered, reference);
      EXPECT_TRUE(stream->last_status().ok());
      EXPECT_GT(stream->coverage().retries, 0u);
    } else {
      EXPECT_TRUE(stream->last_status().IsUnavailable())
          << stream->last_status().ToString();
      EXPECT_GE(stream->round_fanout(), 2u) << "shards 1 and 3 in flight";
    }
  }

  ASSERT_EQ(pool->reuses(), 0u);
  auto clean = OpenDistributed(cfg, {Endpoint(*survivor)}, pool, 0);
  ASSERT_NE(clean, nullptr);
  EXPECT_EQ(SortedIds(DrainStream(clean.get(), 0, 128)), reference);
  EXPECT_TRUE(clean->last_status().ok());
  EXPECT_EQ(pool->reuses(), 2u)
      << "the survivor's two drained links must be reused";
}

}  // namespace
}  // namespace progxe
