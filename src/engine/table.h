#ifndef REPLIDB_ENGINE_TABLE_H_
#define REPLIDB_ENGINE_TABLE_H_

#include <optional>
#include <string>
#include <unordered_map>
#include "common/hashing.h"
#include <vector>

#include "common/result.h"
#include "engine/types.h"
#include "sql/ast.h"
#include "sql/value.h"

namespace replidb::engine {

/// \brief Resolved table schema.
struct TableSchema {
  std::string name;
  std::vector<sql::ColumnDef> columns;
  int primary_key_index = -1;  ///< -1 if no PK.
  bool temporary = false;

  /// Builds from a parsed CREATE TABLE.
  static Result<TableSchema> FromCreate(const sql::CreateTableStmt& stmt);

  /// Index of a column by name, -1 if absent.
  int ColumnIndex(const std::string& name) const;
};

/// \brief The transaction's view used for visibility and conflict checks.
struct TxnView {
  TxnId id = 0;
  CommitSeq snapshot = 0;  ///< Committed-as-of horizon for reads.
  IsolationLevel level = IsolationLevel::kReadCommitted;
};

/// \brief MVCC storage for one table.
///
/// Each logical row (RowId) carries a version chain. Versions created by a
/// transaction become visible to others only after CommitTxn stamps them
/// with a commit sequence number. Conflict detection is eager and no-wait:
///  - under SI, writing a row whose newest version committed after the
///    writer's snapshot, or is uncommitted by another transaction, aborts
///    the writer (first-updater-wins, like PostgreSQL);
///  - under read-committed, only uncommitted-by-other conflicts abort (a
///    real engine would block on the row lock; no-wait models the lock
///    timeout and keeps the simulator synchronous);
///  - serializable-mode table locks live in the Rdbms lock manager, not
///    here.
class VersionedTable {
 public:
  VersionedTable(TableSchema schema, uint64_t physical_seed);

  const TableSchema& schema() const { return schema_; }

  /// Inserts a row (must match schema width). Enforces PK/unique
  /// constraints against all live or pending rows.
  Result<RowId> Insert(const TxnView& txn, sql::Row row, ExecStats* stats);

  /// Replaces the visible version of `row_id` with `new_row`.
  Status Update(const TxnView& txn, RowId row_id, sql::Row new_row,
                ExecStats* stats);

  /// Deletes the visible version of `row_id`.
  Status Delete(const TxnView& txn, RowId row_id, ExecStats* stats);

  /// Reverts the newest pending delete mark `txn` holds on `row_id`
  /// (statement-level atomicity support; see executor undo path).
  void UndoDelete(TxnId txn, RowId row_id);

  /// Appends every row visible to `txn` to `out`, in this replica's
  /// physical order (seeded hash of RowId — deliberately not the same on
  /// every replica; see RdbmsOptions::physical_seed).
  void Scan(const TxnView& txn,
            std::vector<std::pair<RowId, sql::Row>>* out,
            ExecStats* stats) const;

  /// Appends the rows visible at `latest`, which must be the engine's
  /// latest commit sequence, to `out` in Scan's physical order and in the
  /// image row encoding (image_codec.h), and returns how many there are.
  /// The table keeps the encoded rows, and a later call re-encodes only
  /// the rows commits changed in between (DESIGN §9).
  uint64_t EncodeImage(CommitSeq latest, std::string* out) const;

  /// Bytes held by the kept image and its change record: encoded rows,
  /// 16 per imaged row and 8 per recorded change (memory census).
  int64_t image_cache_bytes() const;

  /// Fetches the version of `row_id` visible to `txn`.
  Result<sql::Row> Get(const TxnView& txn, RowId row_id) const;

  /// Point lookup by primary key over rows visible to `txn`.
  /// Returns nullopt if not found. Requires a PK.
  std::optional<RowId> LookupPk(const TxnView& txn, const sql::Value& pk,
                                ExecStats* stats) const;

  /// Makes txn's pending changes durable at `commit_seq`. `gc_horizon` is
  /// the oldest snapshot any live transaction can read (vacuum): committed
  /// versions deleted at or before it are unreachable and are pruned from
  /// the touched chains.
  void CommitTxn(TxnId txn, CommitSeq commit_seq, CommitSeq gc_horizon = 0);

  /// Discards txn's pending changes.
  void RollbackTxn(TxnId txn);

  /// True if `txn` has pending (uncommitted) changes here.
  bool HasPending(TxnId txn) const { return pending_.count(txn) > 0; }

  /// Next auto-increment value; non-transactional, never rolled back
  /// (§4.3.2: holes are expected).
  int64_t NextAutoIncrement() { return auto_increment_++; }
  int64_t auto_increment_counter() const { return auto_increment_; }
  /// Raises the counter to at least `v` (used when inserts provide
  /// explicit values, like MySQL does).
  void BumpAutoIncrement(int64_t v) {
    if (v >= auto_increment_) auto_increment_ = v + 1;
  }

  /// Number of committed live rows as of `snapshot` (diagnostics).
  uint64_t CountVisible(const TxnView& txn) const;

  /// Order-insensitive content hash of the rows visible to `txn`
  /// (replica divergence detection).
  uint64_t ContentHash(const TxnView& txn) const;

  /// Incremental digest of the committed live row set: the XOR fold of
  /// per-row hashes, updated in CommitTxn as versions become (in)visible,
  /// so reading it is O(1) instead of an O(table) scan. Always equals
  /// ContentHash at a snapshot of the latest commit (audit subsystem).
  uint64_t digest() const { return digest_; }

  /// Distinct keys in the primary-key index: the keys some version of some
  /// row still carries (memory census).
  size_t pk_index_keys() const { return pk_index_.size(); }

 private:
  struct Version {
    sql::Row data;
    TxnId creator = 0;
    CommitSeq created = 0;               ///< 0 while uncommitted.
    TxnId deleter = 0;                   ///< 0 if not deleted.
    CommitSeq deleted = 0;               ///< 0 while delete uncommitted.
  };
  struct Chain {
    std::vector<Version> versions;  ///< Oldest first.
  };
  /// The rows one primary-key value indexes, in ascending RowId order.
  /// Nearly every key has exactly one, which is held inline; RowIds start
  /// at 1, so 0 marks an empty slot.
  class RowIdSet {
   public:
    const RowId* begin() const { return many_.empty() ? &one_ : many_.data(); }
    const RowId* end() const {
      return many_.empty() ? &one_ + (one_ != 0) : many_.data() + many_.size();
    }
    bool empty() const { return one_ == 0 && many_.empty(); }
    void Insert(RowId rid);
    void Erase(RowId rid);

   private:
    RowId one_ = 0;            ///< The only row, while many_ is empty.
    std::vector<RowId> many_;  ///< Two or more rows, ascending.
  };
  /// One visible row and its physical-order sort key.
  struct ScanHit {
    uint64_t order = 0;
    RowId row_id = 0;
    const sql::Row* row = nullptr;
  };
  /// One row of the kept image: its physical-order key and the length of
  /// its encoding in image_bytes_.
  struct ImageRow {
    uint64_t order = 0;
    uint32_t bytes = 0;
  };

  /// Physical-order sort key of a row (a seeded shuffle of RowIds).
  uint64_t PhysicalKey(RowId rid) const;

  /// The rows visible to `txn`, sorted into physical order.
  std::vector<ScanHit> PhysicalOrder(const TxnView& txn,
                                     ExecStats* stats) const;

  /// Brings the kept image from its snapshot to `latest` by merging the
  /// recorded changes into it.
  void PatchImage(const TxnView& latest) const;
  /// Forgets the kept image and its change record, releasing both.
  void DropImage() const;

  /// Visibility of one version for `txn`.
  bool Visible(const TxnView& txn, const Version& v) const;
  /// Returns the visible version index in the chain, or -1.
  int VisibleIndex(const TxnView& txn, const Chain& chain) const;
  /// Newest version that is committed or pending (conflict anchor), or -1.
  int NewestActive(const Chain& chain) const;

  /// Checks `row`'s PK and UNIQUE columns for clashes. `pk_rows` is the
  /// PK's index entry when the caller has already looked it up.
  Status CheckUnique(const TxnView& txn, const sql::Row& row,
                     std::optional<RowId> exclude_row,
                     const RowIdSet* pk_rows = nullptr);
  /// Records that `txn` has a pending version on `rid`.
  void MarkPending(TxnId txn, RowId rid);

  /// Removes the versions of chain `rit` that `dead` selects, unindexes the
  /// keys no remaining version carries, and erases a chain left empty.
  template <typename Dead>
  void EraseVersions(HashMap<RowId, Chain>::iterator rit, Dead dead);
  /// Drops `rid` from `key`'s index entry, and the key with its last row.
  void Unindex(const sql::Value& key, RowId rid);
  /// The chain of a row the index names. The index is exact, so a missing
  /// chain is a bug: it aborts.
  const Chain& IndexedChain(RowId rid) const;

  TableSchema schema_;
  uint64_t physical_seed_;
  /// RowId -> version chain. Loops over it must not let hash order
  /// escape (DESIGN §2, "Engine storage").
  HashMap<RowId, Chain> rows_;
  /// PK value -> every row with a version that carries it (Compare
  /// equality, so INT 5, DOUBLE 5.0 share a key). Exact: an entry goes when
  /// the last version carrying its key leaves the chain. Lookups still
  /// check the visible version, which may carry another key. Never
  /// iterated, so no order can escape it (replicheck flags any loop over
  /// it); it hashes by KeyHash alone, unseeded, which keeps neighbouring
  /// integer keys in neighbouring buckets for a bulk load in key order.
  std::unordered_map<sql::Value, RowIdSet> pk_index_;
  RowId next_row_id_ = 1;
  int64_t auto_increment_ = 1;
  /// Running XOR fold over committed live rows; see digest().
  uint64_t digest_ = 0;
  /// txn -> row ids with pending versions (for commit/rollback), in the
  /// order touched. A row touched again after another one repeats, which
  /// is harmless: stamping, vacuum and rollback of a row are idempotent.
  HashMap<TxnId, std::vector<RowId>> pending_;

  // The last image EncodeImage returned, kept between images (a const
  // operation's cache, hence mutable; the engine is single-threaded).
  mutable bool has_image_ = false;
  /// The image's rows, encoded, in physical order.
  mutable std::string image_bytes_;
  mutable std::vector<ImageRow> image_rows_;
  /// Rows whose committed version CommitTxn has changed since the image;
  /// unsorted, with repeats. Recorded only while an image is kept, and
  /// never longer than the table has rows: past that, DropImage.
  mutable std::vector<RowId> image_changes_;
};

}  // namespace replidb::engine

#endif  // REPLIDB_ENGINE_TABLE_H_
