#ifndef REPLIDB_BINLOG_FORMAT_H_
#define REPLIDB_BINLOG_FORMAT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "engine/rdbms.h"
#include "middleware/common.h"

namespace replidb::binlog {

/// \brief On-disk record framing for the segmented binlog.
///
/// Every record is framed as
///
///   +-------+------+-------+---------+---------+-----------------+
///   | magic | type | flags | len u32 | crc u32 | payload (len B) |
///   |  u32  |  u8  |  u8   |         |         |                 |
///   +-------+------+-------+---------+---------+-----------------+
///
/// all integers little-endian. The CRC covers type, flags, len and the
/// payload — a torn tail, a bit flip, or a partially-fsynced record all
/// fail the check, and recovery truncates the log at the first bad frame
/// (it must never apply garbage; see DESIGN.md "Durability & recovery").

/// CRC-32 (IEEE 802.3 polynomial, reflected). Deterministic and
/// hash-seed-independent: segment bytes must be byte-identical across
/// runs for the determinism harness to compare them.
uint32_t Crc32(std::string_view data);

/// Continues a CRC-32 over more bytes: Crc32Extend(Crc32(a), b) equals
/// Crc32(a + b), and Crc32Extend(0, b) equals Crc32(b). Lets a frame's
/// checksum cover header and payload in place, without concatenating them.
uint32_t Crc32Extend(uint32_t crc, std::string_view data);

enum class RecordType : uint8_t {
  kEntry = 1,       ///< One middleware::ReplicationEntry.
  kCheckpoint = 2,  ///< Engine snapshot + per-table digests.
};

/// Fixed frame header size in bytes (magic+type+flags+len+crc).
inline constexpr size_t kRecordHeaderBytes = 14;
inline constexpr uint32_t kRecordMagic = 0x52424c47;  // "RBLG".

/// Appends one framed record to `out`.
void PutRecord(RecordType type, std::string_view payload, std::string* out);

/// Frames a payload already written in place: `out` holds a
/// kRecordHeaderBytes placeholder at `frame_start` followed by the payload,
/// which runs to the end of `out`. Fills in the header. PutRecord is this
/// plus the copy of the payload.
void SealRecord(RecordType type, size_t frame_start, std::string* out);

/// Frame size (header + payload) announced by the record header at the
/// head of `data`, or 0 when `data` is shorter than a header or does not
/// start with the magic. The frame itself is not validated.
size_t RecordFrameBytes(std::string_view data);

/// A parsed frame pointing into the caller's buffer.
struct RecordView {
  RecordType type = RecordType::kEntry;
  std::string_view payload;
  size_t frame_bytes = 0;  ///< Header + payload: offset of the next record.
};

/// Parses the record at the head of `data`. Any truncation, bad magic,
/// unknown type or CRC mismatch returns an error status — the caller
/// treats that offset as the end of valid log.
Status ParseRecord(std::string_view data, RecordView* out);

// ---------------------------------------------------------------------------
// Payload codecs
// ---------------------------------------------------------------------------

/// Appends one replication entry's payload to `out`: the ship codec's
/// encoding of a one-entry batch, so log bytes and wire bytes share one
/// deterministic format. The log encodes straight into its frame buffer.
void AppendEntryPayload(const middleware::ReplicationEntry& entry,
                        std::string* out);
/// Decodes an entry payload into `*out`, reusing the capacity of its
/// vectors and strings (ship::DecodeEntry).
Status DecodeEntryPayload(std::string_view payload,
                          middleware::ReplicationEntry* out);

/// \brief A checkpoint record: everything needed to rebuild the engine at
/// `version` without replaying the log prefix. Digests are recorded at
/// capture time so recovery can verify the restored state byte-for-byte
/// before trusting it (the paper's silent-divergence gap, §4).
struct CheckpointRecord {
  middleware::GlobalVersion version = 0;
  /// Per-table digests of the engine at `version`, sorted by table name.
  std::vector<std::pair<std::string, uint64_t>> digests;
  /// Full engine image (metadata + sequences included: a checkpoint that
  /// forgets users or auto-increment counters rebuilds a diverged replica,
  /// §4.1.5 / §4.2.3).
  engine::BackupImage image;
  int64_t taken_at_us = 0;  ///< Virtual capture time (checkpoint age).
};

std::string EncodeCheckpointPayload(const CheckpointRecord& cp);
/// Appends the checkpoint payload to `out` (EncodeCheckpointPayload's
/// bytes), so a caller can encode straight into a frame buffer.
void AppendCheckpointPayload(const CheckpointRecord& cp, std::string* out);
Result<CheckpointRecord> DecodeCheckpointPayload(std::string_view payload);

}  // namespace replidb::binlog

#endif  // REPLIDB_BINLOG_FORMAT_H_
