#ifndef REPLIDB_BINLOG_SEGMENTED_LOG_H_
#define REPLIDB_BINLOG_SEGMENTED_LOG_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "binlog/format.h"
#include "binlog/log_store.h"
#include "common/result.h"
#include "common/status.h"
#include "middleware/common.h"

namespace replidb::binlog {

struct SegmentedLogOptions {
  /// Active segment rolls over once its size reaches this (a record is
  /// never split: the segment holding the boundary record may exceed it).
  int64_t segment_max_bytes = 256 * 1024;
  /// fsync after every record (true) or only at rollover/checkpoint
  /// (false — bigger torn-tail window after a crash, cheaper appends).
  bool sync_every_append = true;
};

/// Byte address of a record: segment number + offset of its frame.
struct LogPosition {
  uint64_t segment = 0;
  uint64_t offset = 0;
};

/// Bookkeeping for one segment (the bl_ctx-style index/offset pair: the
/// version span lets truncation and cursor seeks skip whole segments
/// without reading them).
struct SegmentInfo {
  uint64_t segment = 0;
  middleware::GlobalVersion base_version = 0;  ///< First entry version, 0 = none.
  middleware::GlobalVersion last_version = 0;  ///< Last entry version.
  uint64_t bytes = 0;
  uint64_t records = 0;
  bool has_checkpoint = false;
};

/// Point-in-time log health (SHOW REPLICA STATUS / Prometheus).
struct BinlogStats {
  uint64_t segments = 0;
  uint64_t active_segment_bytes = 0;
  uint64_t total_bytes = 0;
  uint64_t records = 0;
  middleware::GlobalVersion last_version = 0;
  middleware::GlobalVersion checkpoint_version = 0;
  int64_t checkpoint_at_us = -1;  ///< -1 = no checkpoint yet.
  middleware::GlobalVersion truncate_watermark = 0;
};

/// What Recover() found on disk.
struct RecoveryInfo {
  middleware::GlobalVersion last_version = 0;
  uint64_t records = 0;
  uint64_t segments = 0;
  /// Bytes discarded because the first bad frame (CRC / torn tail) ended
  /// the valid log there.
  uint64_t truncated_bytes = 0;
  /// Segments after the truncation point, dropped wholesale.
  uint64_t dropped_segments = 0;
  bool have_checkpoint = false;
  CheckpointRecord checkpoint;  ///< Latest valid checkpoint, if any.
  /// Apply watermark persisted via PersistWatermark (0 when absent).
  middleware::GlobalVersion meta_watermark = 0;
};

class SegmentedBinlog;

/// \brief Forward iterator over entry records with version > `after`,
/// decoding frames straight from the LogStore segment bytes (shipping and
/// resync read the log through this — never through in-memory vectors).
///
/// The cursor is resumable: its position is a segment *number* plus the
/// offset of the next unread frame, and Next() after end-of-log picks up
/// whatever was appended since, reading only those new bytes. A cursor
/// kept across appends yields exactly what a fresh Cursor(v) would, where
/// v is the highest version it has returned (or `after` if none), on a log
/// whose entry versions increase in log order (SegmentedBinlog::Append's
/// contract):
///  - rollover: it moves to the next segment once its own is sealed;
///  - TruncateThrough deleting its segment: it continues at the start of
///    the next surviving segment;
///  - Recover(): the log's bytes may have been cut under it, so it seeks
///    afresh, as Cursor(v).
class LogCursor {
 public:
  /// Advances to the next entry, decoding it into `*out` and reusing the
  /// capacity of its vectors and strings, so a caller keeps one entry
  /// across its loop. False at end-of-log or on a decode error (check
  /// status()), and `*out` then holds no meaningful entry. Checkpoint
  /// records are skipped. After a false return, a later call resumes at
  /// the same position.
  bool Next(middleware::ReplicationEntry* out);
  const Status& status() const { return status_; }

 private:
  friend class SegmentedBinlog;
  LogCursor(const SegmentedBinlog* log, middleware::GlobalVersion after);

  /// Positions at the first segment that can hold a version > after_
  /// (the bl_ctx idiom: skip whole segments by their version span).
  void Seek();
  /// The index entry of the segment holding position_, moving position_
  /// to the start of the next surviving segment when its own was deleted.
  /// Null when no such segment exists.
  const SegmentInfo* Locate();

  const SegmentedBinlog* log_ = nullptr;
  middleware::GlobalVersion after_ = 0;
  middleware::GlobalVersion highest_ = 0;  ///< Highest version returned.
  uint64_t generation_ = 0;  ///< log_->generation_ at the last seek.
  LogPosition position_;     ///< Next unread frame.
  std::string buffer_;       ///< Segment bytes read from buffer_start_ on.
  uint64_t buffer_start_ = 0;
  Status status_;
};

/// \brief A segmented, checksummed, append-only replication log over a
/// LogStore: rollover at a size threshold, per-segment version index,
/// checkpoint records carrying engine digests + image, truncation at
/// segment granularity, and CRC-validated crash recovery that truncates
/// at the first bad record.
class SegmentedBinlog {
 public:
  SegmentedBinlog(LogStore* store, SegmentedLogOptions options);

  /// Appends one entry. Versions must be strictly increasing; an append
  /// at or below the current head is a duplicate and is ignored (OK).
  /// `pos_out`, when given, receives the record's address.
  Status Append(const middleware::ReplicationEntry& entry,
                LogPosition* pos_out = nullptr);

  /// Appends an entry record even when its version is at or below the
  /// current head — a superseding rewrite. The physical log keeps both
  /// records (append-only storage never edits in place); the caller owns
  /// pointing its version index at the returned position. A cursor walk
  /// yields both records in log order, so cursor consumers must dedupe
  /// by version (RecoveryLog reads through its index instead).
  Status AppendSuperseding(const middleware::ReplicationEntry& entry,
                           LogPosition* pos_out = nullptr);

  /// Appends a checkpoint record (always fsynced) and remembers it as the
  /// latest. The checkpoint does not advance the entry head.
  Status AppendCheckpoint(const CheckpointRecord& cp);

  /// Reads one entry record at an exact address.
  Result<middleware::ReplicationEntry> ReadAt(const LogPosition& pos) const;

  /// Entries with version > after, in log order.
  LogCursor Cursor(middleware::GlobalVersion after) const {
    return LogCursor(this, after);
  }

  /// Scans every segment, validates CRCs, truncates the log at the first
  /// bad frame (and drops everything after it), rebuilds the in-memory
  /// segment index, and returns the latest valid checkpoint. Call after
  /// a crash, before reading.
  Result<RecoveryInfo> Recover();

  /// Deletes sealed segments from the front while their entire version
  /// span is <= `version` (segment-granular GC: a segment straddling the
  /// watermark survives). The latest checkpoint's segment always stays; a
  /// segment holding only a superseded checkpoint spans no versions and
  /// goes. Returns the number of records dropped.
  size_t TruncateThrough(middleware::GlobalVersion version);

  /// Persists the caller's apply watermark in the store's meta area.
  Status PersistWatermark(middleware::GlobalVersion version);

  middleware::GlobalVersion head_version() const { return head_version_; }
  middleware::GlobalVersion truncate_watermark() const {
    return truncate_watermark_;
  }
  const std::vector<SegmentInfo>& segments() const { return segments_; }
  BinlogStats Stats() const;

  LogStore* store() { return store_; }

  /// Meta key used by PersistWatermark.
  static constexpr const char* kWatermarkKey = "apply_watermark";

 private:
  friend class LogCursor;

  /// Writes the one frame held in frame_ to the active segment, rolling
  /// over first if it is full.
  Status WriteFrame(bool force_sync, LogPosition* pos_out);
  /// Frames and writes an entry record and indexes its version.
  Status AppendEntryRecord(const middleware::ReplicationEntry& entry,
                           LogPosition* pos_out);
  Status RollOver();

  LogStore* store_;
  SegmentedLogOptions options_;
  std::vector<SegmentInfo> segments_;  ///< Ascending; back() is active.
  middleware::GlobalVersion head_version_ = 0;
  middleware::GlobalVersion truncate_watermark_ = 0;
  /// Only the latest checkpoint's version and time stay in memory: the
  /// image lives in the log, and Recover() reads it back from there.
  bool have_checkpoint_ = false;
  middleware::GlobalVersion checkpoint_version_ = 0;
  int64_t checkpoint_at_us_ = -1;
  uint64_t next_segment_ = 0;
  /// Bumped by Recover(): cursors re-seek, since the bytes under their
  /// positions may have been truncated.
  uint64_t generation_ = 0;
  /// Every record is framed here before it is written. Reusing the buffer
  /// saves an allocation per record once it has grown to the largest
  /// record (a checkpoint).
  std::string frame_;
};

}  // namespace replidb::binlog

#endif  // REPLIDB_BINLOG_SEGMENTED_LOG_H_
