#ifndef REPLIDB_ENGINE_RDBMS_H_
#define REPLIDB_ENGINE_RDBMS_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include "common/hashing.h"
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "engine/options.h"
#include "engine/table.h"
#include "engine/types.h"
#include "sql/ast.h"

namespace replidb::engine {

class Rdbms;

/// \brief Context handed to native stored procedures. A procedure can run
/// further SQL inside the caller's session and transaction — and, true to
/// the paper (§4.2.1), there is no schema describing which tables it will
/// touch or whether it is deterministic.
class ProcedureContext {
 public:
  ProcedureContext(Rdbms* rdbms, SessionId session,
                   std::vector<sql::Value> args)
      : rdbms_(rdbms), session_(session), args_(std::move(args)) {}

  Rdbms* rdbms() { return rdbms_; }
  SessionId session() const { return session_; }
  const std::vector<sql::Value>& args() const { return args_; }

  /// Executes SQL inside the caller's transaction.
  ExecResult Exec(const std::string& sql);

 private:
  Rdbms* rdbms_;
  SessionId session_;
  std::vector<sql::Value> args_;
};

/// Stored procedure body.
using Procedure = std::function<Status(ProcedureContext*)>;

/// \brief Trigger definition: fires after a row event on a table and may
/// run more SQL in the same transaction (e.g. updating a reporting
/// database instance — the paper's §4.1.1 example). `only_for_user`
/// reproduces §4.1.5: the same statement can behave differently depending
/// on who executes it.
struct TriggerDef {
  std::string name;
  std::string database;
  std::string table;
  WriteOpKind event = WriteOpKind::kInsert;
  std::string only_for_user;  ///< Empty = fires for every user.
  std::function<Status(Rdbms*, SessionId, const WriteOp&)> action;
};

/// \brief Options for Backup (§4.4.1 / §4.1.5).
struct BackupOptions {
  /// Capture users, triggers and stored-procedure registrations. Typical
  /// backup tools do not ("capture only data, without user-related
  /// information"), which breaks replica cloning.
  bool include_metadata = false;
  /// Capture sequence positions and auto-increment counters — these live
  /// outside the transactional log (§4.2.3), so default tools miss them.
  bool include_sequences = false;
};

/// \brief A point-in-time backup image of an Rdbms.
///
/// Table rows are held encoded, in the row encoding of image_codec.h,
/// which is also how a binlog checkpoint record stores them: writing a
/// checkpoint copies the bytes, and only Restore decodes them. Backup
/// takes each table's bytes from the image the table keeps, re-encoding
/// only the rows committed since its previous image (DESIGN §9).
struct BackupImage {
  std::string source_name;
  CommitSeq as_of = 0;
  bool has_metadata = false;
  bool has_sequences = false;

  struct TableImage {
    TableSchema schema;
    uint64_t row_count = 0;
    /// The row_count rows visible at as_of, encoded, in the source's
    /// physical order.
    std::string row_bytes;
    int64_t auto_increment = 1;  ///< Only meaningful if has_sequences.
  };
  struct DatabaseImage {
    std::string name;
    std::vector<TableImage> tables;
    std::map<std::string, int64_t> sequences;  ///< Only if has_sequences.
  };
  std::vector<DatabaseImage> databases;
  std::vector<std::string> users;          ///< Only if has_metadata.
  std::vector<std::string> trigger_names;  ///< Only if has_metadata.

  /// Approximate size in bytes (drives transfer/restore cost models).
  int64_t SizeBytes() const;
};

/// \brief Aggregate engine counters exposed for benches and tests.
struct RdbmsStats {
  uint64_t transactions_committed = 0;
  uint64_t transactions_aborted = 0;
  uint64_t statements_executed = 0;
  uint64_t statement_errors = 0;
  uint64_t conflicts = 0;   ///< SI first-updater-wins aborts.
  uint64_t deadlocks = 0;   ///< No-wait lock conflicts.
  uint64_t rows_scanned = 0;  ///< Row-version visits across all statements.
  uint64_t rows_written = 0;
};

/// \brief An in-memory multi-database SQL engine with MVCC.
///
/// One Rdbms models one database server process (a replica). It hosts
/// multiple named database instances, sequences, users, triggers, and
/// stored procedures, executes the replidb SQL dialect under three
/// isolation levels, captures per-transaction writesets, writes a binlog,
/// and supports hot backup/restore — everything the replication middleware
/// in `src/middleware` needs from a backend, built from scratch.
///
/// The engine is synchronous and single-threaded: callers (the simulated
/// cluster) charge its CostModel-derived service times against simulated
/// replica capacity instead of wall-clock time.
class Rdbms {
 public:
  explicit Rdbms(RdbmsOptions options);
  Rdbms(const Rdbms&) = delete;
  Rdbms& operator=(const Rdbms&) = delete;

  const RdbmsOptions& options() const { return options_; }
  const std::string& name() const { return options_.name; }

  // --- Connections --------------------------------------------------------

  /// Opens a session as `user` against database `database` (created
  /// implicitly if it is the default "main"). Fails when authentication is
  /// enforced and the user is unknown — which happens to cloned replicas
  /// restored from metadata-less backups (§4.1.5).
  Result<SessionId> Connect(const std::string& user = "admin",
                            const std::string& database = "main");
  /// Closes the session; rolls back any open transaction and drops the
  /// session's temporary tables (§4.1.4).
  void Disconnect(SessionId session);

  bool HasSession(SessionId session) const;

  // --- Execution ----------------------------------------------------------

  /// Parses and executes one statement. The result carries status, rows,
  /// affected count, execution stats, and `cost_us` of simulated service
  /// time.
  ExecResult Execute(SessionId session, const std::string& sql);

  /// Executes a pre-parsed statement (the text is re-serialized for the
  /// binlog when needed).
  ExecResult ExecuteStmt(SessionId session, const sql::Statement& stmt);

  /// Session isolation control.
  Status SetIsolation(SessionId session, IsolationLevel level);
  IsolationLevel EffectiveIsolation(SessionId session) const;

  bool InTransaction(SessionId session) const;

  /// Writeset accumulated by the session's open transaction so far
  /// (transaction replication reads this before COMMIT). Null if no
  /// transaction is open.
  const Writeset* CurrentWriteset(SessionId session) const;

  // --- Replication hooks ----------------------------------------------------

  /// Committed-transaction log. Entries carry statement texts and/or
  /// writesets per RdbmsOptions.
  const std::vector<BinlogEntry>& binlog() const { return binlog_; }
  CommitSeq last_commit_seq() const { return commit_seq_; }

  /// Applies a writeset as one transaction (slave apply / certified
  /// commit). Bypasses triggers like real log apply; does NOT advance
  /// sequences (§4.3.2 — the divergence the paper warns about).
  Result<CommitSeq> ApplyWriteset(const Writeset& ws);

  /// Order-insensitive hash of all committed user data across databases.
  /// Two replicas with equal hashes hold the same logical content.
  uint64_t ContentHash() const;

  /// Hash that also covers sequences and auto-increment counters —
  /// diverges between replicas even when data matches (§4.2.3).
  uint64_t ContentHashWithSequences() const;

  /// Incremental per-table digests of committed content, keyed
  /// "database.table". O(#tables): the engine maintains each digest at
  /// commit time, so the audit subsystem never scans (temp tables are
  /// session-scoped and excluded by construction — they live on sessions,
  /// not databases).
  std::vector<std::pair<std::string, uint64_t>> TableDigests() const;

  // --- Administration --------------------------------------------------------

  void CreateUser(const std::string& user);
  bool HasUser(const std::string& user) const;

  void RegisterProcedure(const std::string& name, Procedure body);
  bool HasProcedure(const std::string& name) const;

  void RegisterTrigger(TriggerDef trigger);
  size_t trigger_count() const { return triggers_.size(); }

  Result<BackupImage> Backup(const BackupOptions& opts) const;

  /// Bytes the tables hold between Backups: their kept images and change
  /// records (replica.<id>.image_bytes gauge).
  int64_t ImageCacheBytes() const;

  /// Distinct keys across the tables' primary-key indexes
  /// (replica.<id>.pk_index_keys gauge).
  int64_t PkIndexKeys() const;

  /// Replaces this engine's entire contents with the image (replica
  /// cloning / restore). Sessions must be closed first.
  Status Restore(const BackupImage& image);

  /// Injected resource exhaustion: all writes fail with kDiskFull until
  /// cleared (§4.4.2: "a replica might stop working because its log is
  /// full or its data partition ran out of space").
  void set_disk_full(bool full) { disk_full_ = full; }
  bool disk_full() const { return disk_full_; }

  /// Current sequence position (tests/benches); 0 if missing.
  int64_t SequenceValue(const std::string& database,
                        const std::string& sequence) const;

  /// Number of committed live rows in a table; 0 if missing.
  uint64_t TableRowCount(const std::string& database,
                         const std::string& table) const;

  const RdbmsStats& stats() const { return stats_; }

 private:
  friend class StatementExecutor;

  struct Txn {
    TxnId id = 0;
    CommitSeq snapshot = 0;
    IsolationLevel level = IsolationLevel::kReadCommitted;
    bool failed = false;  ///< PostgreSQL-style poisoned transaction state.
    bool explicit_txn = false;
    Writeset writeset;
    std::vector<std::string> statements;  ///< Write-statement texts.
    std::set<std::string> touched_tables;  ///< "db.table" keys for locks.
    std::set<std::string> temp_tables_used;
  };

  struct Session {
    SessionId id = 0;
    std::string user;
    std::string database;
    IsolationLevel isolation;
    std::optional<Txn> txn;
    /// §4.1.4: temporary tables are connection-scoped.
    std::map<std::string, std::unique_ptr<VersionedTable>> temp_tables;
  };

  struct Database {
    std::string name;
    std::map<std::string, std::unique_ptr<VersionedTable>> tables;
    std::map<std::string, int64_t> sequences;
  };

  struct TableLocks {
    std::set<TxnId> readers;
    std::set<TxnId> writers;
  };

  // Transaction plumbing (used by the executor).
  Status BeginTxn(Session* session, bool explicit_txn);
  Status CommitTxn(Session* session);
  void RollbackTxn(Session* session);
  TxnView ViewFor(Session* session);

  // Lock manager for serializable mode (no-wait, table granularity).
  Status AcquireRead(Txn* txn, const std::string& table_key);
  Status AcquireWrite(Txn* txn, const std::string& table_key);
  void ReleaseLocks(TxnId txn);

  Database* FindDatabase(const std::string& name);
  const Database* FindDatabase(const std::string& name) const;
  Session* FindSession(SessionId id);
  const Session* FindSession(SessionId id) const;

  /// Resolves a table reference for a session: temporary tables shadow
  /// database tables; qualified names select the database instance.
  Result<VersionedTable*> ResolveTable(Session* session,
                                       const sql::TableRef& ref);

  void FireTriggers(Session* session, const WriteOp& op, int depth);

  RdbmsOptions options_;
  Rng rand_rng_;

  std::map<std::string, Database> databases_;
  std::set<std::string> users_;
  std::map<std::string, Procedure> procedures_;
  std::vector<TriggerDef> triggers_;

  HashMap<SessionId, Session> sessions_;
  SessionId next_session_ = 1;
  TxnId next_txn_ = 1;
  CommitSeq commit_seq_ = 0;

  std::map<std::string, TableLocks> locks_;

  std::vector<BinlogEntry> binlog_;
  bool disk_full_ = false;
  int trigger_depth_ = 0;
  RdbmsStats stats_;
};

}  // namespace replidb::engine

#endif  // REPLIDB_ENGINE_RDBMS_H_
