#ifndef REPLIDB_SHIP_CODEC_H_
#define REPLIDB_SHIP_CODEC_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "middleware/common.h"

namespace replidb::ship {

/// Codec knobs. Both transforms are lossless; they only trade CPU for
/// bytes-on-wire (the paper's WAN links are the scarce resource, §2.2).
struct CodecOptions {
  /// Shared string dictionary: repeated strings (table names, SQL text,
  /// hot values) within one batch encode as a small back-reference.
  bool dictionary = true;
  /// XOR-delta row encoding: integer columns encode as the XOR against
  /// the previous shipped row of the same table, which is tiny for
  /// monotonic counters and mostly-unchanged rows.
  bool xor_delta = true;
};

/// Result of encoding a batch of replication entries.
struct EncodedBatch {
  std::string payload;
  /// Size of the in-memory structs (ReplicationEntry::SizeBytes sum) —
  /// the bytes a naive struct-shipping transport would put on the wire.
  int64_t raw_size_bytes = 0;
  /// True encoded wire size (== payload.size()).
  int64_t encoded_size_bytes = 0;
};

/// Binary-serializes a batch of replication entries (writesets and/or
/// statement batches). Versions and commit timestamps are delta-encoded
/// across the batch; strings go through the optional dictionary; integer
/// row values optionally XOR-delta against the previous row of the same
/// table. The payload is AppendBatch's bytes.
EncodedBatch EncodeBatch(const std::vector<middleware::ReplicationEntry>& entries,
                         const CodecOptions& options);

/// Appends the encoding of `entries` to `out`, reserved once. The
/// dictionary holds views into `entries` and an XOR delta reads its
/// reference row where it lies in `entries`, so nothing is copied. The
/// durable log encodes an entry record straight into its frame buffer.
void AppendBatch(std::span<const middleware::ReplicationEntry> entries,
                 const CodecOptions& options, std::string* out);

/// Decodes a batch produced by EncodeBatch. Never crashes on malformed
/// input: any truncation, bad tag or bound violation yields an error
/// status instead.
Result<std::vector<middleware::ReplicationEntry>> DecodeBatch(
    std::string_view payload);

/// Decodes a one-entry batch into `*out`, reusing the capacity of its
/// vectors and strings. It runs the per-entry decoder DecodeBatch loops
/// over, and rejects what DecodeBatch rejects plus a batch of other than
/// one entry; after an error `*out` holds no meaningful entry.
Status DecodeEntry(std::string_view payload,
                   middleware::ReplicationEntry* out);

}  // namespace replidb::ship

#endif  // REPLIDB_SHIP_CODEC_H_
