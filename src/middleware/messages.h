#ifndef REPLIDB_MIDDLEWARE_MESSAGES_H_
#define REPLIDB_MIDDLEWARE_MESSAGES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/rdbms.h"
#include "engine/types.h"
#include "middleware/common.h"

namespace replidb::middleware {

/// Wire messages between controller and replica nodes. Bodies travel in
/// net::Message::body as std::any (everything is in-process); sizes are
/// modelled explicitly for the bandwidth cost.

/// Message type tags.
inline constexpr char kMsgExec[] = "rep.exec";
inline constexpr char kMsgExecReply[] = "rep.exec.r";
inline constexpr char kMsgFinish[] = "rep.finish";
inline constexpr char kMsgFinishReply[] = "rep.finish.r";
inline constexpr char kMsgShipAck[] = "rep.ship.ack";
inline constexpr char kMsgProgress[] = "rep.progress";
inline constexpr char kMsgBackup[] = "rep.backup";
inline constexpr char kMsgBackupReply[] = "rep.backup.r";
inline constexpr char kMsgRestore[] = "rep.restore";
inline constexpr char kMsgRestoreReply[] = "rep.restore.r";
inline constexpr char kMsgAuditBarrier[] = "audit.barrier";
inline constexpr char kMsgAuditReport[] = "audit.report";

/// Modeled wire sizes of the fixed-shape frames below. replicheck's
/// send-size rule rejects a bare integer literal as a Send size (a
/// literal is how a size silently stops tracking its message); fixed-size
/// frames pass one of these named constants, variable-size ones compute
/// their size from the payload.
inline constexpr int64_t kAckWireBytes = 48;        ///< Bare version/seq acks.
inline constexpr int64_t kControlWireBytes = 64;    ///< Finish/abort/barrier frames.
inline constexpr int64_t kAdminWireBytes = 128;     ///< Backup/restore admin + error replies.
inline constexpr int64_t kRowsReplyWireBytes = 256; ///< Client replies carrying rows.

/// Controller -> replica: execute a transaction.
struct ExecTxnMsg {
  uint64_t req_id = 0;
  std::vector<std::string> statements;
  bool read_only = false;
  /// Ordered execution slot for statement-mode writes; 0 = unordered.
  GlobalVersion order = 0;
  /// Keep the transaction open and return its writeset without committing
  /// (certification mode). A later FinishTxnMsg decides the outcome.
  bool hold_commit = false;
  /// 2-safe support: how many ship-acks the replica must collect before
  /// replying success for this write (0 = reply at local commit, 1-safe).
  int sync_ack_count = 0;
  /// Collect rows from the last SELECT into the reply.
  bool collect_rows = true;
  /// Freshness gate: the replica defers execution until its applied
  /// version reaches this (session PCSI / strong SI routing).
  GlobalVersion min_version = 0;
  /// Tables this transaction touches (memory-aware cache model).
  std::vector<std::string> tables;
  /// Trace identity of the originating client transaction (0 = untraced).
  uint64_t trace_id = 0;
};

/// Wire size of a statement-carrying request: per-statement SQL text plus
/// a fixed header. Used by every exec/client-txn sender so request sizes
/// track the actual SQL instead of a hard-coded constant.
inline int64_t StatementsWireSize(const std::vector<std::string>& statements) {
  int64_t bytes = 64;
  for (const std::string& s : statements) {
    bytes += static_cast<int64_t>(s.size()) + 4;
  }
  return bytes;
}

inline int64_t ExecMsgWireSize(const ExecTxnMsg& m) {
  int64_t bytes = StatementsWireSize(m.statements);
  for (const std::string& t : m.tables) {
    bytes += static_cast<int64_t>(t.size()) + 4;
  }
  return bytes;
}

/// Client driver -> controller: run a transaction.
struct ClientTxnMsg {
  uint64_t req_id = 0;
  TxnRequest request;
  /// The session's last observed version (read-your-writes).
  GlobalVersion last_seen_version = 0;
};

/// Controller -> client driver.
struct ClientTxnReply {
  uint64_t req_id = 0;
  TxnResult result;
};

inline constexpr char kMsgClientTxn[] = "mw.txn";
inline constexpr char kMsgClientTxnReply[] = "mw.txn.r";

/// Active controller -> standby controller: durable-state mirroring
/// (recovery-log entry + version counter). §3.2: replicating the
/// stateful middleware costs "extra communication and synchronization".
struct MirrorMsg {
  uint64_t seq = 0;
  ReplicationEntry entry;
  GlobalVersion global_version = 0;
};

struct MirrorAckMsg {
  uint64_t seq = 0;
};

inline constexpr char kMsgMirror[] = "mw.mirror";
inline constexpr char kMsgMirrorAck[] = "mw.mirror.ack";

/// Replica -> controller: transaction outcome.
struct ExecTxnReply {
  uint64_t req_id = 0;
  Status status;
  engine::Writeset writeset;          ///< Captured writes (hold or commit).
  std::vector<std::string> statements; ///< Binlogged statement texts.
  /// Versions this replica assigned while committing (master-slave mode:
  /// the master is the version authority). 0 when hold_commit or read.
  GlobalVersion committed_version = 0;
  uint64_t replica_applied_version = 0;  ///< Freshness at execution time.
  std::vector<sql::Row> rows;            ///< Last SELECT's rows.
  int64_t cost_us = 0;
};

/// Controller -> replica: resolve a held transaction (certification).
struct FinishTxnMsg {
  uint64_t req_id = 0;   ///< Matches the ExecTxnMsg that held the txn.
  bool commit = false;
  GlobalVersion version = 0;  ///< Slot in the global order when committing.
  /// The certified entry (commit only): if the origin's held transaction
  /// died meanwhile (killed by a conflicting apply, crash recovery), the
  /// origin applies these row images instead — a certified transaction
  /// must commit everywhere.
  ReplicationEntry entry;
  /// Trace identity of the originating client transaction (0 = untraced);
  /// lets the replica attribute its ordered-release wait to the client's
  /// critical path (cert_order).
  uint64_t trace_id = 0;
};

struct FinishTxnReply {
  uint64_t req_id = 0;
  Status status;
  GlobalVersion version = 0;
};

struct ShipAckMsg {
  GlobalVersion version = 0;
};

/// Replica -> controller freshness beacon.
struct ProgressMsg {
  GlobalVersion applied_version = 0;
};

struct BackupMsg {
  uint64_t req_id = 0;
  engine::BackupOptions options;
};

struct BackupReplyMsg {
  uint64_t req_id = 0;
  Status status;
  engine::BackupImage image;
  GlobalVersion as_of_version = 0;
};

struct RestoreMsg {
  uint64_t req_id = 0;
  engine::BackupImage image;
  GlobalVersion as_of_version = 0;
};

struct RestoreReplyMsg {
  uint64_t req_id = 0;
  Status status;
};

/// Controller -> replica: content-audit barrier for `epoch`. The replica
/// answers once its replication stream reaches `version`.
struct AuditBarrierMsg {
  uint64_t epoch = 0;
  GlobalVersion version = 0;
};

/// Replica -> controller: per-table incremental digests captured when the
/// barrier passed. `captured_version` is the replica's actual stream
/// position at capture — it can exceed the barrier version if the replica
/// was already ahead, and the auditor only compares equal positions.
struct AuditReportMsg {
  uint64_t epoch = 0;
  GlobalVersion captured_version = 0;
  engine::CommitSeq last_applied_seq = 0;
  /// "database.table" -> digest.
  std::vector<std::pair<std::string, uint64_t>> digests;
};

}  // namespace replidb::middleware

#endif  // REPLIDB_MIDDLEWARE_MESSAGES_H_
