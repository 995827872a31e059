// Micro-benchmarks (google-benchmark): per-component costs that back the
// scenario benches — SQL parsing/rewriting (the middleware's per-statement
// tax), engine transaction primitives, writeset capture/apply,
// certification throughput, the durable binlog (CRC framing, append,
// ship cursor, checkpoint) and the simulator's event queue. These are
// wall-clock benchmarks of the actual implementation (no simulated time).
// The ship codec and binlog append cases also report heap allocations per
// item, counted by the operator new below.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "binlog/format.h"
#include "binlog/log_store.h"
#include "binlog/segmented_log.h"
#include "common/rng.h"
#include "engine/rdbms.h"
#include "middleware/recovery_log.h"
#include "ship/codec.h"
#include "sim/simulator.h"
#include "sql/determinism.h"
#include "sql/parser.h"

namespace {
uint64_t g_allocs = 0;  // operator new calls; the benchmarks run on one thread.
}  // namespace

// Counting allocator (this binary only). The library's array, nothrow and
// sized forms forward to these. Not inlined: GCC would see the free() of a
// pointer it knows came from operator new and warn of a mismatch.
[[gnu::noinline]] void* operator new(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace replidb {
namespace {

/// Reports heap allocations per item as the "allocs_per_item" counter:
/// call with g_allocs read just before the timed loop.
void ReportAllocsPerItem(benchmark::State& state, uint64_t allocs_before,
                         int64_t items) {
  state.counters["allocs_per_item"] =
      items > 0 ? static_cast<double>(g_allocs - allocs_before) /
                      static_cast<double>(items)
                : 0;
}

// --- SQL layer --------------------------------------------------------------

void BM_ParsePointSelect(benchmark::State& state) {
  for (auto _ : state) {
    auto r = sql::Parse("SELECT balance, owner FROM accounts WHERE id = 12345");
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ParsePointSelect);

void BM_ParseComplexUpdate(benchmark::State& state) {
  for (auto _ : state) {
    auto r = sql::Parse(
        "UPDATE foo SET keyvalue = 'x', ts = NOW(), n = n + 1 WHERE id IN "
        "(SELECT id FROM foo WHERE keyvalue = NULL ORDER BY id LIMIT 10) "
        "AND n < 100");
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ParseComplexUpdate);

void BM_ParseTxnControl(benchmark::State& state) {
  const std::string sql = "COMMIT";
  for (auto _ : state) {
    auto r = sql::Parse(sql);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ParseTxnControl);

// The setup batches every workload loads its tables with: 200 rows of
// three literals each.
void BM_ParseInsertBatch200(benchmark::State& state) {
  std::string sql = "INSERT INTO inventory VALUES ";
  for (int i = 0; i < 200; ++i) {
    if (i > 0) sql += ", ";
    sql += "(" + std::to_string(i) + ", 1000, " + std::to_string(50 + i) +
           ".0)";
  }
  for (auto _ : state) {
    auto r = sql::Parse(sql);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ParseInsertBatch200)->Unit(benchmark::kMicrosecond);

void BM_AnalyzeDeterminism(benchmark::State& state) {
  sql::Statement stmt =
      sql::Parse("UPDATE t SET x = RAND(), ts = NOW() WHERE id = 5").TakeValue();
  for (auto _ : state) {
    auto report = sql::Analyze(stmt);
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_AnalyzeDeterminism);

void BM_RewriteAndSerialize(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    sql::Statement stmt =
        sql::Parse("INSERT INTO t (a, b, c) VALUES (NOW(), RAND(), 7)")
            .TakeValue();
    sql::RewriteForStatementReplication(&stmt, sql::Value::Int(123), &rng);
    std::string text = sql::ToSql(stmt);
    benchmark::DoNotOptimize(text);
  }
}
BENCHMARK(BM_RewriteAndSerialize);

// --- Engine -----------------------------------------------------------------

struct EngineFixture {
  engine::Rdbms db;
  engine::SessionId session;

  explicit EngineFixture(int rows) : db(engine::RdbmsOptions{}) {
    session = db.Connect().value();
    db.Execute(session, "CREATE TABLE accounts (id INT PRIMARY KEY, v INT)");
    std::string batch;
    for (int i = 0; i < rows; ++i) {
      batch += batch.empty() ? "INSERT INTO accounts VALUES " : ", ";
      batch += "(" + std::to_string(i) + ", 0)";
      if ((i + 1) % 500 == 0 || i + 1 == rows) {
        db.Execute(session, batch);
        batch.clear();
      }
    }
  }
};

void BM_EnginePointRead(benchmark::State& state) {
  EngineFixture f(10000);
  int64_t i = 0;
  for (auto _ : state) {
    auto r = f.db.Execute(f.session, "SELECT v FROM accounts WHERE id = " +
                                         std::to_string(i++ % 10000));
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_EnginePointRead);

void BM_EnginePointUpdate(benchmark::State& state) {
  EngineFixture f(10000);
  int64_t i = 0;
  for (auto _ : state) {
    auto r = f.db.Execute(
        f.session, "UPDATE accounts SET v = v + 1 WHERE id = " +
                       std::to_string(i++ % 10000));
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_EnginePointUpdate);

// Random keys over range(0) rows: sequential keys (above) walk
// neighbouring index entries and hide the cache misses of a cold lookup.
std::vector<int64_t> RandomKeys(int64_t rows) {
  Rng rng(13);
  std::vector<int64_t> keys(4096);
  for (int64_t& k : keys) k = rng.UniformRange(0, rows - 1);
  return keys;
}

void BM_EnginePointReadRandom(benchmark::State& state) {
  EngineFixture f(static_cast<int>(state.range(0)));
  std::vector<int64_t> keys = RandomKeys(state.range(0));
  size_t i = 0;
  for (auto _ : state) {
    auto r = f.db.Execute(f.session, "SELECT v FROM accounts WHERE id = " +
                                         std::to_string(keys[i++ % 4096]));
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_EnginePointReadRandom)->Arg(1000)->Arg(20000);

void BM_EnginePointUpdateRandom(benchmark::State& state) {
  EngineFixture f(static_cast<int>(state.range(0)));
  std::vector<int64_t> keys = RandomKeys(state.range(0));
  size_t i = 0;
  for (auto _ : state) {
    auto r = f.db.Execute(f.session,
                          "UPDATE accounts SET v = v + 1 WHERE id = " +
                              std::to_string(keys[i++ % 4096]));
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_EnginePointUpdateRandom)->Arg(1000)->Arg(20000);

void BM_EngineInsert(benchmark::State& state) {
  EngineFixture f(0);
  int64_t i = 0;
  for (auto _ : state) {
    auto r = f.db.Execute(f.session, "INSERT INTO accounts VALUES (" +
                                         std::to_string(i++) + ", 0)");
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_EngineInsert);

void BM_EngineScan1k(benchmark::State& state) {
  EngineFixture f(1000);
  for (auto _ : state) {
    auto r = f.db.Execute(f.session, "SELECT SUM(v) FROM accounts");
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_EngineScan1k);

void BM_EngineTransaction3Stmts(benchmark::State& state) {
  EngineFixture f(10000);
  int64_t i = 0;
  for (auto _ : state) {
    f.db.Execute(f.session, "BEGIN");
    f.db.Execute(f.session, "SELECT v FROM accounts WHERE id = " +
                                std::to_string(i % 10000));
    f.db.Execute(f.session, "UPDATE accounts SET v = v + 1 WHERE id = " +
                                std::to_string(i % 10000));
    auto r = f.db.Execute(f.session, "COMMIT");
    benchmark::DoNotOptimize(r);
    ++i;
  }
}
BENCHMARK(BM_EngineTransaction3Stmts);

// --- Writeset capture and apply ------------------------------------------------

void BM_WritesetApply(benchmark::State& state) {
  EngineFixture source(1000);
  EngineFixture target(1000);
  // Capture one writeset of `ops` row updates.
  int ops = static_cast<int>(state.range(0));
  source.db.Execute(source.session, "BEGIN");
  source.db.Execute(source.session,
                    "UPDATE accounts SET v = v + 1 WHERE id < " +
                        std::to_string(ops));
  engine::Writeset ws = *source.db.CurrentWriteset(source.session);
  source.db.Execute(source.session, "COMMIT");
  for (auto _ : state) {
    auto r = target.db.ApplyWriteset(ws);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * ops);
}
BENCHMARK(BM_WritesetApply)->Arg(1)->Arg(10)->Arg(100);

// One-row update writesets at random keys over range(0) rows: the replica
// apply path of a point write (PK lookup, version append, commit).
void BM_WritesetApplyRandom(benchmark::State& state) {
  EngineFixture target(static_cast<int>(state.range(0)));
  std::vector<engine::Writeset> writesets;
  for (int64_t k : RandomKeys(state.range(0))) {
    engine::WriteOp op;
    op.kind = engine::WriteOpKind::kUpdate;
    op.database = "main";
    op.table = "accounts";
    op.primary_key = sql::Value::Int(k);
    op.after = {sql::Value::Int(k), sql::Value::Int(k % 7)};
    writesets.emplace_back().ops.push_back(std::move(op));
  }
  size_t i = 0;
  for (auto _ : state) {
    auto r = target.db.ApplyWriteset(writesets[i++ % writesets.size()]);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_WritesetApplyRandom)->Arg(1000)->Arg(20000);

// --- Certification ----------------------------------------------------------------

void BM_CertifierThroughput(benchmark::State& state) {
  // Certification = key lookups in the last-writer map, the certifier's
  // hot loop (§3.2's centralized certifier).
  std::unordered_map<std::string, uint64_t> last_writer;
  for (int i = 0; i < 100000; ++i) {
    last_writer["main.accounts/" + std::to_string(i)] = i;
  }
  uint64_t version = 100000;
  int64_t i = 0;
  std::vector<std::string> keys = {"main.accounts/42", "main.accounts/77",
                                   "main.accounts/99999"};
  for (auto _ : state) {
    bool ok = true;
    uint64_t begin = version - 5;
    for (const std::string& k : keys) {
      auto it = last_writer.find(k);
      if (it != last_writer.end() && it->second > begin) ok = false;
    }
    benchmark::DoNotOptimize(ok);
    last_writer[keys[static_cast<size_t>(i++) % keys.size()]] = ++version;
  }
}
BENCHMARK(BM_CertifierThroughput);

void BM_RecoveryLogAppendAndRange(benchmark::State& state) {
  middleware::RecoveryLog log;
  middleware::GlobalVersion v = 0;
  for (auto _ : state) {
    middleware::ReplicationEntry entry;
    entry.version = ++v;
    entry.statements = {"UPDATE accounts SET v = v + 1 WHERE id = 1"};
    entry.use_statements = true;
    log.Append(std::move(entry));
    if (v % 1024 == 0) {
      auto range = log.Range(v - 1024, v);
      benchmark::DoNotOptimize(range);
    }
  }
}
BENCHMARK(BM_RecoveryLogAppendAndRange);

// --- Durable binlog -----------------------------------------------------------

/// Gives a BinlogBenchEntry the fields of version `v`. Only integers
/// change, so refreshing an entry in place allocates nothing.
void SetBinlogBenchVersion(middleware::GlobalVersion v,
                           middleware::ReplicationEntry* e) {
  e->version = v;
  e->origin_commit_us = static_cast<int64_t>(v) * 137;
  engine::WriteOp& op = e->writeset.ops[0];
  op.primary_key = sql::Value::Int(static_cast<int64_t>(v % 20000));
  op.after[0] = op.primary_key;
  op.after[1] = sql::Value::Int(static_cast<int64_t>(v));
}

middleware::ReplicationEntry BinlogBenchEntry(middleware::GlobalVersion v) {
  middleware::ReplicationEntry e;
  engine::WriteOp op;
  op.kind = engine::WriteOpKind::kUpdate;
  op.database = "bank";
  op.table = "accounts";
  op.after = {sql::Value::Null(), sql::Value::Null(),
              sql::Value::String("account holder")};
  e.writeset.ops.push_back(std::move(op));
  SetBinlogBenchVersion(v, &e);
  return e;
}

void BM_Crc32(benchmark::State& state) {
  std::string data(static_cast<size_t>(state.range(0)), '\0');
  Rng rng(3);
  for (char& c : data) c = static_cast<char>(rng.Uniform(256));
  for (auto _ : state) {
    uint32_t crc = binlog::Crc32(data);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
// A small entry frame, and the size of a 20k-row checkpoint image.
BENCHMARK(BM_Crc32)->Arg(128)->Arg(380 * 1024);

/// Segment-encoded append with CRC framing and rollover at the replica
/// default segment size (entries are fsynced per append, as by default).
void BM_BinlogAppend(benchmark::State& state) {
  binlog::MemLogStore store;
  binlog::SegmentedBinlog log(&store, binlog::SegmentedLogOptions{});
  middleware::GlobalVersion v = 0;
  middleware::ReplicationEntry entry = BinlogBenchEntry(0);
  const uint64_t allocs = g_allocs;
  for (auto _ : state) {
    SetBinlogBenchVersion(++v, &entry);
    auto s = log.Append(entry);
    benchmark::DoNotOptimize(s);
    // Bound memory: drop sealed segments as a checkpointing replica would.
    if (v % 4096 == 0) log.TruncateThrough(v - 1024);
  }
  state.SetItemsProcessed(state.iterations());
  ReportAllocsPerItem(state, allocs, state.iterations());
}
BENCHMARK(BM_BinlogAppend);

/// One ship tick: append k entries, then read everything new. Arg 1 = 0
/// resumes one cursor across ticks (the shipper); 1 reopens
/// Cursor(last shipped) each tick, which walks the active segment from its
/// start.
void BM_ShipCursorTick(benchmark::State& state) {
  const auto k = static_cast<middleware::GlobalVersion>(state.range(0));
  const bool reopen = state.range(1) != 0;
  binlog::MemLogStore store;
  binlog::SegmentedLogOptions opts;
  opts.segment_max_bytes = 512 * 1024;
  binlog::SegmentedBinlog log(&store, opts);
  binlog::LogCursor cursor = log.Cursor(0);
  middleware::GlobalVersion shipped = 0;
  middleware::ReplicationEntry entry;
  for (auto _ : state) {
    middleware::GlobalVersion head = log.head_version();
    for (middleware::GlobalVersion v = head + 1; v <= head + k; ++v) {
      (void)log.Append(BinlogBenchEntry(v));
    }
    if (reopen) cursor = log.Cursor(shipped);
    while (cursor.Next(&entry)) shipped = entry.version;
    if (log.segments().size() > 8) log.TruncateThrough(shipped - 1);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ShipCursorTick)->Args({11, 0})->Args({11, 1});

/// A replica checkpoint of 20k rows, the engine image plus its log record,
/// after Arg(0) single-row updates, which are not timed. The table patches
/// its kept image with the rows they changed: 512 is ms_durable_write's
/// boundary, and more updates than rows drop the kept image, so each
/// checkpoint encodes every row afresh.
void BM_Checkpoint20k(benchmark::State& state) {
  constexpr int kRows = 20000;
  EngineFixture f(kRows);
  binlog::MemLogStore store;
  binlog::SegmentedBinlog log(&store, binlog::SegmentedLogOptions{});
  engine::BackupOptions bo;
  bo.include_metadata = true;
  bo.include_sequences = true;
  middleware::GlobalVersion v = 0;
  int64_t next_row = 0;
  for (auto _ : state) {
    state.PauseTiming();
    for (int64_t i = 0; i < state.range(0); ++i) {
      f.db.Execute(f.session, "UPDATE accounts SET v = v + 1 WHERE id = " +
                                  std::to_string(next_row++ % kRows));
    }
    state.ResumeTiming();
    // An entry gives the checkpoint's segment a version span, so the next
    // checkpoint's truncation releases it and memory stays flat.
    (void)log.Append(BinlogBenchEntry(++v));
    binlog::CheckpointRecord cp;
    cp.version = v;
    cp.digests = f.db.TableDigests();
    cp.image = f.db.Backup(bo).TakeValue();
    auto s = log.AppendCheckpoint(cp);
    benchmark::DoNotOptimize(s);
    log.TruncateThrough(v);
  }
}
BENCHMARK(BM_Checkpoint20k)
    ->Arg(0)
    ->Arg(512)
    ->Arg(24000)
    ->Unit(benchmark::kMicrosecond);

void BM_ContentHash(benchmark::State& state) {
  EngineFixture f(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    uint64_t h = f.db.ContentHash();
    benchmark::DoNotOptimize(h);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ContentHash)->Arg(1000)->Arg(10000);

// --- Simulator event queue --------------------------------------------------

/// A callback capturing a small message, as network deliveries do.
std::function<void()> SimBenchCallback(const std::string& message) {
  return [message] { benchmark::DoNotOptimize(message.data()); };
}

/// Steady state of N live events under the request-timeout pattern: N/2
/// in-flight requests, each with one pending step and one armed 10 ms
/// timeout. Every dispatch cancels its request's timeout, arms a new one
/// and schedules the next step 1-1000 us later, as Driver::Submit and
/// the Controller's request timer do per transaction, so timeouts are
/// cancelled long before they are due. Items are dispatches.
void BM_SimScheduleStep(benchmark::State& state) {
  const auto requests = static_cast<size_t>(state.range(0)) / 2;
  sim::Simulator sim;
  Rng rng(7);
  const std::string message(48, 'm');
  std::vector<sim::EventId> timeout(requests, 0);
  std::function<void(size_t)> dispatch = [&](size_t i) {
    sim.Cancel(timeout[i]);
    timeout[i] =
        sim.Schedule(10 * sim::kMillisecond, SimBenchCallback(message));
    sim.Schedule(rng.UniformRange(1, 1000), [&dispatch, i, message] {
      benchmark::DoNotOptimize(message.data());
      dispatch(i);
    });
  };
  for (size_t i = 0; i < requests; ++i) dispatch(i);
  // Past one timeout period, so a queue that keeps cancelled entries
  // holds its steady-state backlog of them.
  sim.RunFor(20 * sim::kMillisecond);
  for (auto _ : state) {
    bool ran = sim.Step();
    benchmark::DoNotOptimize(ran);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimScheduleStep)->Arg(1000)->Arg(20000);

/// Arming and cancelling one 5 s timeout next to N pending events that
/// are far in the future. Every 4096 timeouts the clock passes their
/// deadlines, so a queue that defers cancellation pays for discarding
/// them inside the measured loop. Items are timeouts.
void BM_SimCancel(benchmark::State& state) {
  const auto pending = static_cast<size_t>(state.range(0));
  sim::Simulator sim;
  Rng rng(11);
  const std::string message(48, 'm');
  for (size_t i = 0; i < pending; ++i) {
    sim.Schedule(sim::kDay * 10000 + rng.UniformRange(0, sim::kSecond),
                 SimBenchCallback(message));
  }
  uint64_t n = 0;
  for (auto _ : state) {
    sim.Cancel(sim.Schedule(5 * sim::kSecond, SimBenchCallback(message)));
    if (++n % 4096 == 0) sim.RunFor(5 * sim::kSecond + 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimCancel)->Arg(1000)->Arg(20000);

// --- Ship wire codec --------------------------------------------------------

std::vector<middleware::ReplicationEntry> ShipBenchBatch(int n) {
  std::vector<middleware::ReplicationEntry> batch;
  for (int i = 0; i < n; ++i) {
    middleware::ReplicationEntry e;
    e.version = static_cast<uint64_t>(i + 1);
    e.origin_commit_us = 1000000 + i * 137;
    engine::WriteOp op;
    op.kind = engine::WriteOpKind::kUpdate;
    op.database = "bank";
    op.table = "accounts";
    op.primary_key = sql::Value::Int(i);
    op.after = {sql::Value::Int(i), sql::Value::Int(1000 + i),
                sql::Value::String("account holder " + std::to_string(i % 7))};
    e.writeset.ops.push_back(std::move(op));
    batch.push_back(std::move(e));
  }
  return batch;
}

void BM_ShipEncodeBatch(benchmark::State& state) {
  auto batch = ShipBenchBatch(static_cast<int>(state.range(0)));
  int64_t raw = 0, wire = 0;
  const uint64_t allocs = g_allocs;
  for (auto _ : state) {
    ship::EncodedBatch enc = ship::EncodeBatch(batch, ship::CodecOptions{});
    raw = enc.raw_size_bytes;
    wire = enc.encoded_size_bytes;
    benchmark::DoNotOptimize(enc);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  ReportAllocsPerItem(state, allocs, state.iterations() * state.range(0));
  state.counters["compression"] =
      wire > 0 ? static_cast<double>(raw) / static_cast<double>(wire) : 0;
}
BENCHMARK(BM_ShipEncodeBatch)->Arg(1)->Arg(16)->Arg(256);

void BM_ShipDecodeBatch(benchmark::State& state) {
  auto batch = ShipBenchBatch(static_cast<int>(state.range(0)));
  ship::EncodedBatch enc = ship::EncodeBatch(batch, ship::CodecOptions{});
  const uint64_t allocs = g_allocs;
  for (auto _ : state) {
    auto dec = ship::DecodeBatch(enc.payload);
    benchmark::DoNotOptimize(dec);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  ReportAllocsPerItem(state, allocs, state.iterations() * state.range(0));
}
BENCHMARK(BM_ShipDecodeBatch)->Arg(1)->Arg(16)->Arg(256);

}  // namespace
}  // namespace replidb

BENCHMARK_MAIN();
