#include "engine/table.h"

#include <algorithm>

#include "common/logging.h"
#include "engine/image_codec.h"

namespace replidb::engine {

namespace {
uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}
}  // namespace

Result<TableSchema> TableSchema::FromCreate(const sql::CreateTableStmt& stmt) {
  if (stmt.columns.empty()) {
    return Status::InvalidArgument("table needs at least one column");
  }
  TableSchema s;
  s.name = stmt.table.table;
  s.columns = stmt.columns;
  s.temporary = stmt.temporary;
  for (size_t i = 0; i < s.columns.size(); ++i) {
    const sql::ColumnDef& c = s.columns[i];
    for (size_t j = 0; j < i; ++j) {
      if (s.columns[j].name == c.name) {
        return Status::InvalidArgument("duplicate column " + c.name);
      }
    }
    if (c.primary_key) {
      if (s.primary_key_index >= 0) {
        return Status::InvalidArgument("multiple primary keys");
      }
      s.primary_key_index = static_cast<int>(i);
    }
    if (c.auto_increment && c.type != sql::ValueType::kInt) {
      return Status::InvalidArgument("AUTO_INCREMENT requires INT column");
    }
  }
  return s;
}

int TableSchema::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

VersionedTable::VersionedTable(TableSchema schema, uint64_t physical_seed)
    : schema_(std::move(schema)), physical_seed_(physical_seed) {}

bool VersionedTable::Visible(const TxnView& txn, const Version& v) const {
  bool created_visible = (v.created != 0 && v.created <= txn.snapshot) ||
                         (txn.id != 0 && v.creator == txn.id);
  if (!created_visible) return false;
  if (v.deleter != 0 && v.deleter == txn.id) return false;  // Deleted by self.
  if (v.deleted != 0 && v.deleted <= txn.snapshot) return false;
  return true;
}

int VersionedTable::VisibleIndex(const TxnView& txn, const Chain& chain) const {
  for (int i = static_cast<int>(chain.versions.size()) - 1; i >= 0; --i) {
    if (Visible(txn, chain.versions[i])) return i;
  }
  return -1;
}

int VersionedTable::NewestActive(const Chain& chain) const {
  return chain.versions.empty() ? -1
                                : static_cast<int>(chain.versions.size()) - 1;
}

void VersionedTable::RowIdSet::Insert(RowId rid) {
  if (many_.empty()) {
    if (one_ == 0 || one_ == rid) {
      one_ = rid;
      return;
    }
    many_ = {std::min(one_, rid), std::max(one_, rid)};
    one_ = 0;
    return;
  }
  auto it = std::lower_bound(many_.begin(), many_.end(), rid);
  if (it == many_.end() || *it != rid) many_.insert(it, rid);
}

void VersionedTable::RowIdSet::Erase(RowId rid) {
  if (many_.empty()) {
    if (one_ == rid) one_ = 0;
    return;
  }
  auto it = std::lower_bound(many_.begin(), many_.end(), rid);
  if (it != many_.end() && *it == rid) many_.erase(it);
  if (many_.size() == 1) {
    one_ = many_[0];
    std::vector<RowId>().swap(many_);
  }
}

const VersionedTable::Chain& VersionedTable::IndexedChain(RowId rid) const {
  auto it = rows_.find(rid);
  REPLIDB_CHECK(it != rows_.end(), "primary-key index names a missing row");
  return it->second;
}

void VersionedTable::Unindex(const sql::Value& key, RowId rid) {
  auto it = pk_index_.find(key);
  if (it == pk_index_.end()) return;
  it->second.Erase(rid);
  if (it->second.empty()) pk_index_.erase(it);
}

template <typename Dead>
void VersionedTable::EraseVersions(HashMap<RowId, Chain>::iterator rit,
                                   Dead dead) {
  std::vector<Version>& versions = rit->second.versions;
  // Survivors move to the front, keeping their order; the dead collect
  // behind them.
  size_t kept = 0;
  for (size_t i = 0; i < versions.size(); ++i) {
    if (dead(versions[i])) continue;
    if (i != kept) std::swap(versions[kept], versions[i]);
    ++kept;
  }
  if (kept == versions.size()) return;
  if (schema_.primary_key_index >= 0) {
    size_t pki = static_cast<size_t>(schema_.primary_key_index);
    for (size_t i = kept; i < versions.size(); ++i) {
      const sql::Value& key = versions[i].data[pki];
      bool carried = false;
      for (size_t j = 0; j < kept && !carried; ++j) {
        carried = versions[j].data[pki] == key;
      }
      if (!carried) Unindex(key, rit->first);
    }
  }
  versions.erase(versions.begin() + static_cast<ptrdiff_t>(kept),
                 versions.end());
  if (versions.empty()) rows_.erase(rit);
}

void VersionedTable::MarkPending(TxnId txn, RowId rid) {
  std::vector<RowId>& rows = pending_[txn];
  if (rows.empty() || rows.back() != rid) rows.push_back(rid);
}

Status VersionedTable::CheckUnique(const TxnView& txn, const sql::Row& row,
                                   std::optional<RowId> exclude_row,
                                   const RowIdSet* pk_rows) {
  // Columns that must be unique: PK + UNIQUE.
  for (size_t ci = 0; ci < schema_.columns.size(); ++ci) {
    const sql::ColumnDef& col = schema_.columns[ci];
    bool must_be_unique =
        col.unique || static_cast<int>(ci) == schema_.primary_key_index;
    if (!must_be_unique) continue;
    const sql::Value& candidate = row[ci];
    if (candidate.is_null()) continue;

    // Checks one chain for a conflicting version; returns non-OK on clash.
    auto check_chain = [&](RowId rid, const Chain& chain) -> Status {
      if (exclude_row && *exclude_row == rid) return Status::OK();
      for (const Version& v : chain.versions) {
        if (v.data[ci].Compare(candidate) != 0) continue;
        // A version this transaction itself is deleting frees the value.
        if (v.deleter == txn.id && v.deleted == 0) continue;
        bool create_pending = (v.created == 0);
        bool committed_live =
            (v.created != 0 && v.deleted == 0 && v.deleter == 0);
        bool delete_pending = (v.deleter != 0 && v.deleted == 0);
        if (create_pending && v.creator != txn.id) {
          return Status::Deadlock("uncommitted row with duplicate " +
                                  col.name);
        }
        if (create_pending && v.creator == txn.id) {
          return Status::ConstraintViolation("duplicate value for " +
                                             col.name);
        }
        if (committed_live) {
          return Status::ConstraintViolation("duplicate value for " +
                                             col.name);
        }
        if (delete_pending && v.deleter != txn.id) {
          // Another transaction is deleting the conflicting row; a real
          // engine would block on its outcome.
          return Status::Deadlock("conflicting row being deleted");
        }
        // Deleted-and-committed, or being deleted by us: no conflict.
      }
      return Status::OK();
    };

    // The PK column has an index; other UNIQUE columns fall back to a scan.
    if (static_cast<int>(ci) == schema_.primary_key_index) {
      if (pk_rows == nullptr) {
        auto iit = pk_index_.find(candidate);
        if (iit == pk_index_.end()) continue;
        pk_rows = &iit->second;
      }
      for (RowId rid : *pk_rows) {
        REPLIDB_RETURN_NOT_OK(check_chain(rid, IndexedChain(rid)));
      }
    } else {
      // The clash of the lowest RowId wins, as a walk in RowId order would
      // find it.
      Status first;
      RowId first_rid = 0;
      // replicheck:allow(unordered-iter) keeps the lowest RowId's clash; no order escapes
      for (const auto& [rid, chain] : rows_) {
        if (first_rid != 0 && rid > first_rid) continue;
        Status st = check_chain(rid, chain);
        if (!st.ok()) {
          first = std::move(st);
          first_rid = rid;
        }
      }
      REPLIDB_RETURN_NOT_OK(first);
    }
  }
  return Status::OK();
}

Result<RowId> VersionedTable::Insert(const TxnView& txn, sql::Row row,
                                     ExecStats* stats) {
  if (row.size() != schema_.columns.size()) {
    return Status::InvalidArgument("row width mismatch for " + schema_.name);
  }
  for (size_t i = 0; i < row.size(); ++i) {
    const sql::ColumnDef& col = schema_.columns[i];
    if (row[i].is_null() && col.not_null) {
      return Status::ConstraintViolation("NULL in NOT NULL column " +
                                         col.name);
    }
    // Numeric coercion into DOUBLE columns.
    if (col.type == sql::ValueType::kDouble &&
        row[i].type() == sql::ValueType::kInt) {
      row[i] = sql::Value::Double(static_cast<double>(row[i].AsInt()));
    }
  }
  // One probe finds the key's index entry for both the check and the
  // insert; a failed check drops the entry again if it made it.
  const int pki = schema_.primary_key_index;
  RowIdSet* pk_rows = pki >= 0 ? &pk_index_[row[pki]] : nullptr;
  Status unique = CheckUnique(txn, row, std::nullopt, pk_rows);
  if (!unique.ok()) {
    if (pk_rows != nullptr && pk_rows->empty()) pk_index_.erase(row[pki]);
    return unique;
  }

  if (pki >= 0 && row[pki].type() == sql::ValueType::kInt &&
      schema_.columns[pki].auto_increment) {
    BumpAutoIncrement(row[pki].AsInt());
  }

  RowId rid = next_row_id_++;
  if (pk_rows != nullptr) pk_rows->Insert(rid);
  Version v;
  v.data = std::move(row);
  v.creator = txn.id;
  rows_[rid].versions.push_back(std::move(v));
  MarkPending(txn.id, rid);
  if (stats) {
    stats->rows_written += 1;
    stats->bytes_processed += 64;
  }
  return rid;
}

Status VersionedTable::Update(const TxnView& txn, RowId row_id,
                              sql::Row new_row, ExecStats* stats) {
  auto it = rows_.find(row_id);
  if (it == rows_.end()) return Status::NotFound("row");
  Chain& chain = it->second;
  int idx = VisibleIndex(txn, chain);
  if (idx < 0) return Status::NotFound("row not visible");
  Version& cur = chain.versions[idx];

  // Conflict checks (no-wait).
  const Version& newest = chain.versions.back();
  if (newest.created == 0 && newest.creator != txn.id) {
    return Status::Deadlock("row locked by uncommitted writer");
  }
  if (cur.deleter != 0 && cur.deleter != txn.id && cur.deleted == 0) {
    return Status::Deadlock("row locked by uncommitted deleter");
  }
  if (txn.level == IsolationLevel::kSnapshot) {
    // First-updater-wins: the visible version must still be the newest.
    if (idx != static_cast<int>(chain.versions.size()) - 1 ||
        (cur.deleted != 0 && cur.deleted > txn.snapshot)) {
      return Status::Conflict("row updated by concurrent transaction");
    }
  }

  if (new_row.size() != schema_.columns.size()) {
    return Status::InvalidArgument("row width mismatch");
  }
  for (size_t i = 0; i < new_row.size(); ++i) {
    const sql::ColumnDef& col = schema_.columns[i];
    if (new_row[i].is_null() && col.not_null) {
      return Status::ConstraintViolation("NULL in NOT NULL column " +
                                         col.name);
    }
    if (col.type == sql::ValueType::kDouble &&
        new_row[i].type() == sql::ValueType::kInt) {
      new_row[i] = sql::Value::Double(static_cast<double>(new_row[i].AsInt()));
    }
  }
  // Uniqueness only needs rechecking for changed unique values.
  for (size_t ci = 0; ci < schema_.columns.size(); ++ci) {
    bool uniq = schema_.columns[ci].unique ||
                static_cast<int>(ci) == schema_.primary_key_index;
    if (uniq && cur.data[ci].Compare(new_row[ci]) != 0) {
      REPLIDB_RETURN_NOT_OK(CheckUnique(txn, new_row, row_id));
      break;
    }
  }

  // If this txn already created the visible version, rewrite in place.
  bool in_place = cur.creator == txn.id && cur.created == 0;
  if (schema_.primary_key_index >= 0) {
    int pki = schema_.primary_key_index;
    if (cur.data[pki].Compare(new_row[pki]) != 0) {
      pk_index_[new_row[pki]].Insert(row_id);
      // A rewrite drops the old key from the chain unless an older
      // version still carries it.
      bool carried = !in_place;
      for (int i = 0; i < static_cast<int>(chain.versions.size()); ++i) {
        carried = carried || (i != idx && chain.versions[i].data[pki] ==
                                              cur.data[pki]);
      }
      if (!carried) Unindex(cur.data[pki], row_id);
    }
  }

  if (in_place) {
    cur.data = std::move(new_row);
  } else {
    cur.deleter = txn.id;
    Version nv;
    nv.data = std::move(new_row);
    nv.creator = txn.id;
    chain.versions.push_back(std::move(nv));
  }
  MarkPending(txn.id, row_id);
  if (stats) {
    stats->rows_written += 1;
    stats->bytes_processed += 64;
  }
  return Status::OK();
}

Status VersionedTable::Delete(const TxnView& txn, RowId row_id,
                              ExecStats* stats) {
  auto it = rows_.find(row_id);
  if (it == rows_.end()) return Status::NotFound("row");
  Chain& chain = it->second;
  int idx = VisibleIndex(txn, chain);
  if (idx < 0) return Status::NotFound("row not visible");
  Version& cur = chain.versions[idx];

  const Version& newest = chain.versions.back();
  if (newest.created == 0 && newest.creator != txn.id) {
    return Status::Deadlock("row locked by uncommitted writer");
  }
  if (cur.deleter != 0 && cur.deleter != txn.id && cur.deleted == 0) {
    return Status::Deadlock("row locked by uncommitted deleter");
  }
  if (txn.level == IsolationLevel::kSnapshot) {
    if (idx != static_cast<int>(chain.versions.size()) - 1 ||
        (cur.deleted != 0 && cur.deleted > txn.snapshot)) {
      return Status::Conflict("row updated by concurrent transaction");
    }
  }

  // Mark rather than erase, even for rows this txn inserted: commit stamps
  // created == deleted (never visible) and rollback removes the version;
  // marking keeps deletes undoable for statement-level atomicity.
  cur.deleter = txn.id;
  MarkPending(txn.id, row_id);
  if (stats) stats->rows_written += 1;
  return Status::OK();
}

void VersionedTable::UndoDelete(TxnId txn, RowId row_id) {
  auto it = rows_.find(row_id);
  if (it == rows_.end()) return;
  auto& versions = it->second.versions;
  // Clear only the newest pending delete mark owned by txn: older marks
  // belong to earlier statements of the same transaction and must stand.
  for (int i = static_cast<int>(versions.size()) - 1; i >= 0; --i) {
    if (versions[i].deleter == txn && versions[i].deleted == 0) {
      versions[i].deleter = 0;
      return;
    }
  }
}

uint64_t VersionedTable::PhysicalKey(RowId rid) const {
  return Mix64(rid ^ physical_seed_);
}

std::vector<VersionedTable::ScanHit> VersionedTable::PhysicalOrder(
    const TxnView& txn, ExecStats* stats) const {
  std::vector<ScanHit> hits;
  hits.reserve(rows_.size());
  // replicheck:allow(unordered-iter) sorted below by the unique PhysicalKey
  for (const auto& [rid, chain] : rows_) {
    if (stats) stats->rows_scanned += chain.versions.size();
    int idx = VisibleIndex(txn, chain);
    if (idx >= 0) {
      hits.push_back({PhysicalKey(rid), rid, &chain.versions[idx].data});
    }
  }
  // "Physical" order: a seeded shuffle standing in for page layout. Two
  // replicas with different seeds return unordered scans differently —
  // which is legal SQL, and the root of the LIMIT divergence of §4.3.2.
  std::sort(hits.begin(), hits.end(), [](const ScanHit& a, const ScanHit& b) {
    return a.order < b.order;
  });
  return hits;
}

void VersionedTable::Scan(const TxnView& txn,
                          std::vector<std::pair<RowId, sql::Row>>* out,
                          ExecStats* stats) const {
  std::vector<ScanHit> hits = PhysicalOrder(txn, stats);
  out->reserve(out->size() + hits.size());
  for (const ScanHit& h : hits) {
    out->emplace_back(h.row_id, *h.row);
    if (stats) stats->rows_returned += 1;
  }
}

uint64_t VersionedTable::EncodeImage(CommitSeq latest,
                                     std::string* out) const {
  TxnView view;
  view.snapshot = latest;
  view.level = IsolationLevel::kSnapshot;
  if (!has_image_) {
    for (const ScanHit& h : PhysicalOrder(view, nullptr)) {
      size_t start = image_bytes_.size();
      PutImageRow(*h.row, &image_bytes_);
      image_rows_.push_back(
          {h.order, static_cast<uint32_t>(image_bytes_.size() - start)});
    }
    has_image_ = true;
  } else if (!image_changes_.empty()) {
    PatchImage(view);
  }
  out->append(image_bytes_);
  return image_rows_.size();
}

void VersionedTable::PatchImage(const TxnView& latest) const {
  // Each changed row's version at `latest`, looked up in RowId order
  // (neighbouring chains sit near each other), then sorted into physical
  // order for the merge. A row with no visible version leaves the image.
  std::sort(image_changes_.begin(), image_changes_.end());
  image_changes_.erase(
      std::unique(image_changes_.begin(), image_changes_.end()),
      image_changes_.end());
  std::vector<ScanHit> changed;
  changed.reserve(image_changes_.size());
  for (RowId rid : image_changes_) {
    const sql::Row* row = nullptr;
    auto it = rows_.find(rid);
    int idx = it == rows_.end() ? -1 : VisibleIndex(latest, it->second);
    if (idx >= 0) row = &it->second.versions[idx].data;
    changed.push_back({PhysicalKey(rid), rid, row});
  }
  image_changes_.clear();
  std::sort(changed.begin(), changed.end(),
            [](const ScanHit& a, const ScanHit& b) {
              return a.order < b.order;
            });

  // One pass over the old image: runs of unchanged rows are copied whole,
  // changed rows are re-encoded, gone rows are skipped. Keys are unique,
  // since PhysicalKey is a bijection of RowIds.
  size_t mean_row =
      image_bytes_.size() / std::max<size_t>(image_rows_.size(), 1);
  std::string bytes;
  bytes.reserve(image_bytes_.size() + changed.size() * (mean_row + 1));
  std::vector<ImageRow> rows;
  rows.reserve(image_rows_.size() + changed.size());
  size_t next = 0;     // Next old row, and its offset in image_bytes_.
  size_t offset = 0;
  size_t run = 0;      // First old row of the run not yet copied, and its
  size_t run_at = 0;   // offset.
  for (const ScanHit& c : changed) {
    while (next < image_rows_.size() && image_rows_[next].order < c.order) {
      offset += image_rows_[next++].bytes;
    }
    rows.insert(rows.end(), image_rows_.begin() + run,
                image_rows_.begin() + next);
    bytes.append(image_bytes_, run_at, offset - run_at);
    if (next < image_rows_.size() && image_rows_[next].order == c.order) {
      offset += image_rows_[next++].bytes;  // The old encoding goes.
    }
    run = next;
    run_at = offset;
    if (c.row != nullptr) {
      size_t start = bytes.size();
      PutImageRow(*c.row, &bytes);
      rows.push_back({c.order, static_cast<uint32_t>(bytes.size() - start)});
    }
  }
  rows.insert(rows.end(), image_rows_.begin() + run, image_rows_.end());
  bytes.append(image_bytes_, run_at);
  image_bytes_.swap(bytes);
  image_rows_.swap(rows);
}

void VersionedTable::DropImage() const {
  has_image_ = false;
  std::string().swap(image_bytes_);
  std::vector<ImageRow>().swap(image_rows_);
  std::vector<RowId>().swap(image_changes_);
}

int64_t VersionedTable::image_cache_bytes() const {
  return static_cast<int64_t>(image_bytes_.size() +
                              image_rows_.size() * sizeof(ImageRow) +
                              image_changes_.size() * sizeof(RowId));
}

Result<sql::Row> VersionedTable::Get(const TxnView& txn, RowId row_id) const {
  auto it = rows_.find(row_id);
  if (it == rows_.end()) return Status::NotFound("row");
  int idx = VisibleIndex(txn, it->second);
  if (idx < 0) return Status::NotFound("row not visible");
  return it->second.versions[idx].data;
}

std::optional<RowId> VersionedTable::LookupPk(const TxnView& txn,
                                              const sql::Value& pk,
                                              ExecStats* stats) const {
  if (schema_.primary_key_index < 0) return std::nullopt;
  int pki = schema_.primary_key_index;
  auto iit = pk_index_.find(pk);
  if (iit == pk_index_.end()) return std::nullopt;
  for (RowId rid : iit->second) {
    const Chain& chain = IndexedChain(rid);
    if (stats) stats->rows_scanned += 1;
    int idx = VisibleIndex(txn, chain);
    if (idx >= 0 && chain.versions[idx].data[pki].Compare(pk) == 0) {
      if (stats) stats->used_index = true;
      return rid;
    }
  }
  return std::nullopt;
}

void VersionedTable::CommitTxn(TxnId txn, CommitSeq commit_seq,
                               CommitSeq gc_horizon) {
  auto it = pending_.find(txn);
  if (it == pending_.end()) return;
  // Stamping is the only change to which version the latest snapshot
  // sees, so a kept image is current again once these rows are patched.
  // A record longer than the table would cost more to merge than a
  // fresh image costs to build: then both go.
  if (has_image_) {
    if (image_changes_.size() + it->second.size() > rows_.size()) {
      DropImage();
    } else {
      image_changes_.insert(image_changes_.end(), it->second.begin(),
                            it->second.end());
    }
  }
  for (RowId rid : it->second) {
    auto rit = rows_.find(rid);
    if (rit == rows_.end()) continue;
    auto& versions = rit->second.versions;
    for (Version& v : versions) {
      // Digest maintenance: a version enters the committed live set when
      // its pending create commits without a pending delete, and leaves it
      // when a pending delete on a previously committed version commits.
      // Insert-then-delete inside one transaction nets to no change.
      bool create_pending = (v.creator == txn && v.created == 0);
      bool delete_pending = (v.deleter == txn && v.deleted == 0);
      if (create_pending != delete_pending &&
          (create_pending || v.created != 0)) {
        digest_ ^= Mix64(sql::HashRow(v.data));
      }
      if (create_pending) v.created = commit_seq;
      if (delete_pending) v.deleted = commit_seq;
    }
    // Inline vacuum: committed-dead versions below the horizon are
    // invisible to every live and future snapshot.
    if (gc_horizon > 0) {
      EraseVersions(rit, [gc_horizon](const Version& v) {
        return v.created != 0 && v.deleted != 0 && v.deleted <= gc_horizon;
      });
    }
  }
  pending_.erase(it);
}

void VersionedTable::RollbackTxn(TxnId txn) {
  auto it = pending_.find(txn);
  if (it == pending_.end()) return;
  for (RowId rid : it->second) {
    auto rit = rows_.find(rid);
    if (rit == rows_.end()) continue;
    for (Version& v : rit->second.versions) {
      if (v.deleter == txn && v.deleted == 0) v.deleter = 0;  // Undo intent.
    }
    EraseVersions(rit, [txn](const Version& v) {
      return v.creator == txn && v.created == 0;
    });
  }
  pending_.erase(it);
}

uint64_t VersionedTable::CountVisible(const TxnView& txn) const {
  uint64_t n = 0;
  // replicheck:allow(unordered-iter) a count; no order escapes
  for (const auto& [rid, chain] : rows_) {
    (void)rid;
    if (VisibleIndex(txn, chain) >= 0) ++n;
  }
  return n;
}

uint64_t VersionedTable::ContentHash(const TxnView& txn) const {
  // Order-insensitive: XOR of row hashes, so physical order differences do
  // not register as divergence — only actual data differences do.
  uint64_t h = 0;
  // replicheck:allow(unordered-iter) XOR fold; no order escapes
  for (const auto& [rid, chain] : rows_) {
    (void)rid;
    int idx = VisibleIndex(txn, chain);
    if (idx >= 0) h ^= Mix64(sql::HashRow(chain.versions[idx].data));
  }
  return h;
}

const char* IsolationLevelName(IsolationLevel level) {
  switch (level) {
    case IsolationLevel::kReadCommitted:
      return "read-committed";
    case IsolationLevel::kSnapshot:
      return "snapshot";
    case IsolationLevel::kSerializable:
      return "serializable";
  }
  return "?";
}

}  // namespace replidb::engine
