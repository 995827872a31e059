// Per-layer trace hooks for replibench_traced.
//
// Each layer's cross-translation-unit entry point is intercepted with GNU
// ld's --wrap: a call from another object file to symbol S resolves to
// __wrap_S below, which times the call and forwards to __real_S (the
// original definition). Nothing under src/ changes. CMakeLists.txt scans
// this file for "__wrap_<mangled>" labels and passes one --wrap per symbol,
// so this file is the single list of wrapped functions. A changed
// signature leaves __real_<old> undefined and fails the link loudly.
//
// Calls made inside the defining translation unit are not seen (e.g.
// Controller::Certify, which controller.cc calls directly); their time
// stays in the residual `middleware.rest`.

#include <cstdlib>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include "binlog/segmented_log.h"
#include "binlog/writeset_table.h"
#include "client/driver.h"
#include "engine/rdbms.h"
#include "layers.h"
#include "middleware/apply_scheduler.h"
#include "middleware/recovery_log.h"
#include "net/network.h"
#include "obs/slo.h"
#include "ship/codec.h"
#include "ship/pipeline.h"
#include "sim/simulator.h"
#include "sql/determinism.h"
#include "sql/parser.h"

namespace replibench::layers {
namespace {

enum Id {
  kEngineBackup,
  kBinlogCheckpoint,
  kSqlParse,
  kSqlRewrite,
  kEngineExecute,
  kEngineApplyWriteset,
  kApplyScheduler,
  kShipEnqueue,
  kShipEncode,
  kShipDecode,
  kBinlogAppend,
  kWritesetTable,
  kRecoveryLog,
  kNetSend,
  kSimSchedule,
  kClientSubmit,
  kObsSlo,
  kIdCount,
};
static_assert(kIdCount == kBoundaryCount, "Id and kBoundaryNames diverged");

struct Counters {
  uint64_t calls = 0;
  uint64_t self_ns = 0;
  uint64_t allocs = 0;
};

// The harness is single-threaded, so plain globals suffice.
bool g_armed = false;
uint64_t g_allocs = 0;
uint64_t g_wire_bytes = 0;
Counters g_counters[kIdCount];

/// Time and allocations spent in wrapped calls nested inside the current one.
struct Frame {
  uint64_t child_ns = 0;
  uint64_t child_allocs = 0;
};
Frame* g_top = nullptr;

/// One armed wrapped call: charges its inclusive span minus its wrapped
/// children to `id`, and its inclusive span to the enclosing call.
class Scope {
 public:
  explicit Scope(Id id)
      : id_(id), parent_(g_top), allocs0_(g_allocs), t0_(MonotonicNs()) {
    g_top = &frame_;
  }
  ~Scope() {
    uint64_t incl_ns = MonotonicNs() - t0_;
    uint64_t incl_allocs = g_allocs - allocs0_;
    Counters& c = g_counters[id_];
    ++c.calls;
    c.self_ns += incl_ns - frame_.child_ns;
    c.allocs += incl_allocs - frame_.child_allocs;
    g_top = parent_;
    if (parent_ != nullptr) {
      parent_->child_ns += incl_ns;
      parent_->child_allocs += incl_allocs;
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Id id_;
  Frame* parent_;
  Frame frame_;
  uint64_t allocs0_;
  uint64_t t0_;
};

template <class F>
decltype(auto) Timed(Id id, F&& call) {
  if (!g_armed) return call();
  Scope scope(id);
  return call();
}

}  // namespace

bool Available() { return true; }

void Arm(bool on) { g_armed = on; }

void Reset() {
  for (Counters& c : g_counters) c = Counters{};
  g_allocs = 0;
  g_wire_bytes = 0;
}

std::vector<Boundary> Snapshot() {
  std::vector<Boundary> out;
  for (int i = 0; i < kIdCount; ++i) {
    Boundary b{kBoundaryNames[i]};
    b.calls = g_counters[i].calls;
    b.self_ns = g_counters[i].self_ns;
    b.allocs = g_counters[i].allocs;
    out.push_back(b);
  }
  return out;
}

uint64_t WireBytes() { return g_wire_bytes; }

uint64_t TotalAllocs() { return g_allocs; }

}  // namespace replibench::layers

// ---------------------------------------------------------------------------
// Counting allocator (this binary only). The library's array, nothrow and
// sized forms forward to these two.

void* operator new(std::size_t n) {
  if (replibench::layers::g_armed) ++replibench::layers::g_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

// ---------------------------------------------------------------------------
// Wrappers. Member functions take `this` as the first parameter; a class
// return value uses the same hidden return slot as for a free function, so
// each pair below matches the Itanium C++ ABI of the wrapped symbol.

using replibench::layers::Timed;
using namespace replidb;  // NOLINT(google-build-using-namespace)
namespace L = replibench::layers;

// engine.backup
Result<engine::BackupImage> RealBackup(const engine::Rdbms*,
                                       const engine::BackupOptions&)
    __asm__("__real__ZNK7replidb6engine5Rdbms6BackupERKNS0_13BackupOptionsE");
Result<engine::BackupImage> WrapBackup(const engine::Rdbms* self,
                                       const engine::BackupOptions& opts)
    __asm__("__wrap__ZNK7replidb6engine5Rdbms6BackupERKNS0_13BackupOptionsE");
Result<engine::BackupImage> WrapBackup(const engine::Rdbms* self,
                                       const engine::BackupOptions& opts) {
  return Timed(L::kEngineBackup, [&] { return RealBackup(self, opts); });
}

// binlog.checkpoint
Status RealAppendCheckpoint(binlog::SegmentedBinlog*,
                            const binlog::CheckpointRecord&)
    __asm__("__real__ZN7replidb6binlog15SegmentedBinlog16AppendCheckpointERKNS0_16CheckpointRecordE");
Status WrapAppendCheckpoint(binlog::SegmentedBinlog* self,
                            const binlog::CheckpointRecord& cp)
    __asm__("__wrap__ZN7replidb6binlog15SegmentedBinlog16AppendCheckpointERKNS0_16CheckpointRecordE");
Status WrapAppendCheckpoint(binlog::SegmentedBinlog* self,
                            const binlog::CheckpointRecord& cp) {
  return Timed(L::kBinlogCheckpoint,
               [&] { return RealAppendCheckpoint(self, cp); });
}

// sql.parse
Result<sql::Statement> RealParse(const std::string&)
    __asm__("__real__ZN7replidb3sql5ParseERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE");
Result<sql::Statement> WrapParse(const std::string& text)
    __asm__("__wrap__ZN7replidb3sql5ParseERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE");
Result<sql::Statement> WrapParse(const std::string& text) {
  return Timed(L::kSqlParse, [&] { return RealParse(text); });
}

// sql.rewrite
sql::DeterminismReport RealRewrite(sql::Statement*, const sql::Value&, Rng*)
    __asm__("__real__ZN7replidb3sql30RewriteForStatementReplicationEPNS0_9StatementERKNS0_5ValueEPNS_3RngE");
sql::DeterminismReport WrapRewrite(sql::Statement* stmt, const sql::Value& now,
                                   Rng* rng)
    __asm__("__wrap__ZN7replidb3sql30RewriteForStatementReplicationEPNS0_9StatementERKNS0_5ValueEPNS_3RngE");
sql::DeterminismReport WrapRewrite(sql::Statement* stmt, const sql::Value& now,
                                   Rng* rng) {
  return Timed(L::kSqlRewrite, [&] { return RealRewrite(stmt, now, rng); });
}

// engine.execute
engine::ExecResult RealExecute(engine::Rdbms*, engine::SessionId,
                               const std::string&)
    __asm__("__real__ZN7replidb6engine5Rdbms7ExecuteEmRKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE");
engine::ExecResult WrapExecute(engine::Rdbms* self, engine::SessionId session,
                               const std::string& text)
    __asm__("__wrap__ZN7replidb6engine5Rdbms7ExecuteEmRKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE");
engine::ExecResult WrapExecute(engine::Rdbms* self, engine::SessionId session,
                               const std::string& text) {
  return Timed(L::kEngineExecute,
               [&] { return RealExecute(self, session, text); });
}

// engine.apply_writeset
Result<engine::CommitSeq> RealApplyWriteset(engine::Rdbms*,
                                            const engine::Writeset&)
    __asm__("__real__ZN7replidb6engine5Rdbms13ApplyWritesetERKNS0_8WritesetE");
Result<engine::CommitSeq> WrapApplyWriteset(engine::Rdbms* self,
                                            const engine::Writeset& ws)
    __asm__("__wrap__ZN7replidb6engine5Rdbms13ApplyWritesetERKNS0_8WritesetE");
Result<engine::CommitSeq> WrapApplyWriteset(engine::Rdbms* self,
                                            const engine::Writeset& ws) {
  return Timed(L::kEngineApplyWriteset,
               [&] { return RealApplyWriteset(self, ws); });
}

// middleware.apply_scheduler
middleware::ApplyEntryTiming RealSchedule(middleware::ApplyScheduler*,
                                          middleware::GlobalVersion,
                                          sim::TimePoint, int64_t,
                                          const std::vector<std::string>&)
    __asm__("__real__ZN7replidb10middleware14ApplyScheduler8ScheduleEmllRKSt6vectorINSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEESaIS8_EE");
middleware::ApplyEntryTiming WrapSchedule(
    middleware::ApplyScheduler* self, middleware::GlobalVersion version,
    sim::TimePoint now, int64_t cost, const std::vector<std::string>& keys)
    __asm__("__wrap__ZN7replidb10middleware14ApplyScheduler8ScheduleEmllRKSt6vectorINSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEESaIS8_EE");
middleware::ApplyEntryTiming WrapSchedule(
    middleware::ApplyScheduler* self, middleware::GlobalVersion version,
    sim::TimePoint now, int64_t cost, const std::vector<std::string>& keys) {
  return Timed(L::kApplyScheduler,
               [&] { return RealSchedule(self, version, now, cost, keys); });
}

// ship.enqueue
void RealEnqueue(ship::ShipPipeline*, net::NodeId,
                 const middleware::ReplicationEntry&, bool)
    __asm__("__real__ZN7replidb4ship12ShipPipeline7EnqueueEiRKNS_10middleware16ReplicationEntryEb");
void WrapEnqueue(ship::ShipPipeline* self, net::NodeId peer,
                 const middleware::ReplicationEntry& entry, bool ack)
    __asm__("__wrap__ZN7replidb4ship12ShipPipeline7EnqueueEiRKNS_10middleware16ReplicationEntryEb");
void WrapEnqueue(ship::ShipPipeline* self, net::NodeId peer,
                 const middleware::ReplicationEntry& entry, bool ack) {
  Timed(L::kShipEnqueue, [&] { RealEnqueue(self, peer, entry, ack); });
}

// ship.encode (also totals the encoded wire bytes)
ship::EncodedBatch RealEncodeBatch(
    const std::vector<middleware::ReplicationEntry>&, const ship::CodecOptions&)
    __asm__("__real__ZN7replidb4ship11EncodeBatchERKSt6vectorINS_10middleware16ReplicationEntryESaIS3_EERKNS0_12CodecOptionsE");
ship::EncodedBatch WrapEncodeBatch(
    const std::vector<middleware::ReplicationEntry>& entries,
    const ship::CodecOptions& options)
    __asm__("__wrap__ZN7replidb4ship11EncodeBatchERKSt6vectorINS_10middleware16ReplicationEntryESaIS3_EERKNS0_12CodecOptionsE");
ship::EncodedBatch WrapEncodeBatch(
    const std::vector<middleware::ReplicationEntry>& entries,
    const ship::CodecOptions& options) {
  ship::EncodedBatch batch = Timed(
      L::kShipEncode, [&] { return RealEncodeBatch(entries, options); });
  if (L::g_armed) {
    L::g_wire_bytes += static_cast<uint64_t>(batch.encoded_size_bytes);
  }
  return batch;
}

// ship.decode
Result<std::vector<middleware::ReplicationEntry>> RealDecodeBatch(
    std::string_view)
    __asm__("__real__ZN7replidb4ship11DecodeBatchESt17basic_string_viewIcSt11char_traitsIcEE");
Result<std::vector<middleware::ReplicationEntry>> WrapDecodeBatch(
    std::string_view payload)
    __asm__("__wrap__ZN7replidb4ship11DecodeBatchESt17basic_string_viewIcSt11char_traitsIcEE");
Result<std::vector<middleware::ReplicationEntry>> WrapDecodeBatch(
    std::string_view payload) {
  return Timed(L::kShipDecode, [&] { return RealDecodeBatch(payload); });
}

// binlog.append
Status RealBinlogAppend(binlog::SegmentedBinlog*,
                        const middleware::ReplicationEntry&,
                        binlog::LogPosition*)
    __asm__("__real__ZN7replidb6binlog15SegmentedBinlog6AppendERKNS_10middleware16ReplicationEntryEPNS0_11LogPositionE");
Status WrapBinlogAppend(binlog::SegmentedBinlog* self,
                        const middleware::ReplicationEntry& entry,
                        binlog::LogPosition* pos)
    __asm__("__wrap__ZN7replidb6binlog15SegmentedBinlog6AppendERKNS_10middleware16ReplicationEntryEPNS0_11LogPositionE");
Status WrapBinlogAppend(binlog::SegmentedBinlog* self,
                        const middleware::ReplicationEntry& entry,
                        binlog::LogPosition* pos) {
  return Timed(L::kBinlogAppend,
               [&] { return RealBinlogAppend(self, entry, pos); });
}

// binlog.writeset_table
void RealWritesetTableAdd(binlog::WritesetTable*, middleware::GlobalVersion,
                          const engine::Writeset&)
    __asm__("__real__ZN7replidb6binlog13WritesetTable3AddEmRKNS_6engine8WritesetE");
void WrapWritesetTableAdd(binlog::WritesetTable* self,
                          middleware::GlobalVersion version,
                          const engine::Writeset& ws)
    __asm__("__wrap__ZN7replidb6binlog13WritesetTable3AddEmRKNS_6engine8WritesetE");
void WrapWritesetTableAdd(binlog::WritesetTable* self,
                          middleware::GlobalVersion version,
                          const engine::Writeset& ws) {
  Timed(L::kWritesetTable, [&] { RealWritesetTableAdd(self, version, ws); });
}

// middleware.recovery_log
void RealRecoveryLogAppend(middleware::RecoveryLog*,
                           middleware::ReplicationEntry)
    __asm__("__real__ZN7replidb10middleware11RecoveryLog6AppendENS0_16ReplicationEntryE");
void WrapRecoveryLogAppend(middleware::RecoveryLog* self,
                           middleware::ReplicationEntry entry)
    __asm__("__wrap__ZN7replidb10middleware11RecoveryLog6AppendENS0_16ReplicationEntryE");
void WrapRecoveryLogAppend(middleware::RecoveryLog* self,
                           middleware::ReplicationEntry entry) {
  Timed(L::kRecoveryLog,
        [&] { RealRecoveryLogAppend(self, std::move(entry)); });
}

// net.send
bool RealSend(net::Network*, net::NodeId, net::NodeId, std::string, std::any,
              int64_t, uint64_t)
    __asm__("__real__ZN7replidb3net7Network4SendEiiNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEESt3anylm");
bool WrapSend(net::Network* self, net::NodeId from, net::NodeId to,
              std::string type, std::any body, int64_t size_bytes,
              uint64_t txn)
    __asm__("__wrap__ZN7replidb3net7Network4SendEiiNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEESt3anylm");
bool WrapSend(net::Network* self, net::NodeId from, net::NodeId to,
              std::string type, std::any body, int64_t size_bytes,
              uint64_t txn) {
  return Timed(L::kNetSend, [&] {
    return RealSend(self, from, to, std::move(type), std::move(body),
                    size_bytes, txn);
  });
}

// sim.schedule: Schedule, ScheduleAt and Cancel share one layer.
sim::EventId RealSimSchedule(sim::Simulator*, sim::Duration,
                             std::function<void()>)
    __asm__("__real__ZN7replidb3sim9Simulator8ScheduleElSt8functionIFvvEE");
sim::EventId WrapSimSchedule(sim::Simulator* self, sim::Duration delay,
                             std::function<void()> fn)
    __asm__("__wrap__ZN7replidb3sim9Simulator8ScheduleElSt8functionIFvvEE");
sim::EventId WrapSimSchedule(sim::Simulator* self, sim::Duration delay,
                             std::function<void()> fn) {
  return Timed(L::kSimSchedule,
               [&] { return RealSimSchedule(self, delay, std::move(fn)); });
}

sim::EventId RealSimScheduleAt(sim::Simulator*, sim::TimePoint,
                               std::function<void()>)
    __asm__("__real__ZN7replidb3sim9Simulator10ScheduleAtElSt8functionIFvvEE");
sim::EventId WrapSimScheduleAt(sim::Simulator* self, sim::TimePoint when,
                               std::function<void()> fn)
    __asm__("__wrap__ZN7replidb3sim9Simulator10ScheduleAtElSt8functionIFvvEE");
sim::EventId WrapSimScheduleAt(sim::Simulator* self, sim::TimePoint when,
                               std::function<void()> fn) {
  return Timed(L::kSimSchedule,
               [&] { return RealSimScheduleAt(self, when, std::move(fn)); });
}

void RealSimCancel(sim::Simulator*, sim::EventId)
    __asm__("__real__ZN7replidb3sim9Simulator6CancelEm");
void WrapSimCancel(sim::Simulator* self, sim::EventId id)
    __asm__("__wrap__ZN7replidb3sim9Simulator6CancelEm");
void WrapSimCancel(sim::Simulator* self, sim::EventId id) {
  Timed(L::kSimSchedule, [&] { RealSimCancel(self, id); });
}

// client.submit
void RealSubmit(client::Driver*, middleware::TxnRequest,
                client::Driver::Callback)
    __asm__("__real__ZN7replidb6client6Driver6SubmitENS_10middleware10TxnRequestESt8functionIFvRKNS2_9TxnResultEEE");
void WrapSubmit(client::Driver* self, middleware::TxnRequest request,
                client::Driver::Callback cb)
    __asm__("__wrap__ZN7replidb6client6Driver6SubmitENS_10middleware10TxnRequestESt8functionIFvRKNS2_9TxnResultEEE");
void WrapSubmit(client::Driver* self, middleware::TxnRequest request,
                client::Driver::Callback cb) {
  Timed(L::kClientSubmit,
        [&] { RealSubmit(self, std::move(request), std::move(cb)); });
}

// obs.slo
void RealSloObserve(obs::SloTracker*, int64_t, double)
    __asm__("__real__ZN7replidb3obs10SloTracker7ObserveEld");
void WrapSloObserve(obs::SloTracker* self, int64_t ts_us, double value)
    __asm__("__wrap__ZN7replidb3obs10SloTracker7ObserveEld");
void WrapSloObserve(obs::SloTracker* self, int64_t ts_us, double value) {
  Timed(L::kObsSlo, [&] { RealSloObserve(self, ts_us, value); });
}
