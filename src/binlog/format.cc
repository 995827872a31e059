#include "binlog/format.h"

#include <array>

#include "engine/image_codec.h"
#include "ship/codec.h"

namespace replidb::binlog {
namespace {

// The payload primitives and the row encoding are the engine's image
// codec (engine/image_codec.h): a checkpoint stores a BackupImage's rows as
// the bytes the image already holds. Both are independent of the ship
// codec, so the segment format stays stable if the wire format evolves.
using engine::ImageReader;
using engine::PutFixed64;
using engine::PutString;
using engine::PutVarint;

void SetFixed32(uint32_t v, char* p) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

uint32_t GetFixed32(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

constexpr uint32_t kCrcTableSeed = 0xedb88320u;  // Reflected IEEE poly.

/// Slicing-by-8 tables: table[0] is the classic byte-at-a-time table, and
/// table[k][b] advances the CRC of byte b over k more zero bytes, so
/// eight lookups fold eight input bytes at once.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

const CrcTables& Crc32Tables() {
  static const CrcTables tables = [] {
    CrcTables t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (kCrcTableSeed ^ (c >> 1)) : (c >> 1);
      }
      t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (size_t k = 1; k < 8; ++k) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
      }
    }
    return t;
  }();
  return tables;
}

// Frame header field offsets (see format.h).
constexpr size_t kTypeOffset = 4;
constexpr size_t kLenOffset = 6;
constexpr size_t kCrcOffset = 10;
/// The CRC covers type+flags+len+payload, i.e. everything after the crc
/// field itself; magic is a frame-sync aid, not integrity data.
constexpr size_t kCoveredHeaderBytes = kCrcOffset - kTypeOffset;

uint32_t FrameCrc(std::string_view frame_header, std::string_view payload) {
  return Crc32Extend(
      Crc32(frame_header.substr(kTypeOffset, kCoveredHeaderBytes)), payload);
}

}  // namespace

uint32_t Crc32(std::string_view data) { return Crc32Extend(0, data); }

uint32_t Crc32Extend(uint32_t crc, std::string_view data) {
  const CrcTables& t = Crc32Tables();
  const char* p = data.data();
  size_t n = data.size();
  uint32_t c = crc ^ 0xffffffffu;
  for (; n >= 8; p += 8, n -= 8) {
    uint32_t lo = GetFixed32(p) ^ c;
    uint32_t hi = GetFixed32(p + 4);
    c = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
        t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
        t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ static_cast<unsigned char>(*p)) & 0xff] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

void PutRecord(RecordType type, std::string_view payload, std::string* out) {
  size_t start = out->size();
  out->append(kRecordHeaderBytes, '\0');
  out->append(payload.data(), payload.size());
  SealRecord(type, start, out);
}

void SealRecord(RecordType type, size_t frame_start, std::string* out) {
  char* frame = out->data() + frame_start;
  size_t len = out->size() - frame_start - kRecordHeaderBytes;
  SetFixed32(kRecordMagic, frame);
  frame[kTypeOffset] = static_cast<char>(type);
  frame[kTypeOffset + 1] = 0;  // flags
  SetFixed32(static_cast<uint32_t>(len), frame + kLenOffset);
  std::string_view header(frame, kRecordHeaderBytes);
  std::string_view payload(frame + kRecordHeaderBytes, len);
  SetFixed32(FrameCrc(header, payload), frame + kCrcOffset);
}

size_t RecordFrameBytes(std::string_view data) {
  if (data.size() < kRecordHeaderBytes) return 0;
  if (GetFixed32(data.data()) != kRecordMagic) return 0;
  return kRecordHeaderBytes + GetFixed32(data.data() + kLenOffset);
}

Status ParseRecord(std::string_view data, RecordView* out) {
  if (data.size() < kRecordHeaderBytes) {
    return Status::InvalidArgument("binlog record: truncated header");
  }
  if (GetFixed32(data.data()) != kRecordMagic) {
    return Status::InvalidArgument("binlog record: bad magic");
  }
  uint8_t type = static_cast<uint8_t>(data[kTypeOffset]);
  uint32_t len = GetFixed32(data.data() + kLenOffset);
  uint32_t crc = GetFixed32(data.data() + kCrcOffset);
  if (data.size() < kRecordHeaderBytes + len) {
    return Status::InvalidArgument("binlog record: torn payload");
  }
  if (FrameCrc(data, data.substr(kRecordHeaderBytes, len)) != crc) {
    return Status::InvalidArgument("binlog record: CRC mismatch");
  }
  if (type != static_cast<uint8_t>(RecordType::kEntry) &&
      type != static_cast<uint8_t>(RecordType::kCheckpoint)) {
    return Status::InvalidArgument("binlog record: unknown type");
  }
  out->type = static_cast<RecordType>(type);
  out->payload = data.substr(kRecordHeaderBytes, len);
  out->frame_bytes = kRecordHeaderBytes + len;
  return Status::OK();
}

void AppendEntryPayload(const middleware::ReplicationEntry& entry,
                        std::string* out) {
  // A one-entry batch through the ship codec: the log and the wire share a
  // deterministic format, and the decoder's hardening against malformed
  // input carries over to log recovery for free.
  ship::AppendBatch({&entry, 1}, ship::CodecOptions{}, out);
}

Status DecodeEntryPayload(std::string_view payload,
                          middleware::ReplicationEntry* out) {
  return ship::DecodeEntry(payload, out);
}

std::string EncodeCheckpointPayload(const CheckpointRecord& cp) {
  std::string out;
  AppendCheckpointPayload(cp, &out);
  return out;
}

void AppendCheckpointPayload(const CheckpointRecord& cp, std::string* out) {
  PutVarint(cp.version, out);
  PutFixed64(static_cast<uint64_t>(cp.taken_at_us), out);
  PutVarint(cp.digests.size(), out);
  for (const auto& [table, digest] : cp.digests) {
    PutString(table, out);
    PutFixed64(digest, out);
  }
  const engine::BackupImage& img = cp.image;
  PutString(img.source_name, out);
  PutVarint(img.as_of, out);
  out->push_back(img.has_metadata ? 1 : 0);
  out->push_back(img.has_sequences ? 1 : 0);
  PutVarint(img.databases.size(), out);
  for (const auto& db : img.databases) {
    PutString(db.name, out);
    PutVarint(db.tables.size(), out);
    for (const auto& t : db.tables) {
      PutString(t.schema.name, out);
      PutVarint(t.schema.columns.size(), out);
      for (const sql::ColumnDef& c : t.schema.columns) {
        PutString(c.name, out);
        out->push_back(static_cast<char>(c.type));
        uint8_t bits = (c.primary_key ? 1 : 0) | (c.auto_increment ? 2 : 0) |
                       (c.unique ? 4 : 0) | (c.not_null ? 8 : 0);
        out->push_back(static_cast<char>(bits));
      }
      PutFixed64(static_cast<uint64_t>(t.schema.primary_key_index), out);
      out->push_back(t.schema.temporary ? 1 : 0);
      PutFixed64(static_cast<uint64_t>(t.auto_increment), out);
      PutVarint(t.row_count, out);
      out->append(t.row_bytes);
    }
    PutVarint(db.sequences.size(), out);
    for (const auto& [name, next] : db.sequences) {
      PutString(name, out);
      PutFixed64(static_cast<uint64_t>(next), out);
    }
  }
  PutVarint(img.users.size(), out);
  for (const std::string& u : img.users) PutString(u, out);
  PutVarint(img.trigger_names.size(), out);
  for (const std::string& t : img.trigger_names) PutString(t, out);
}

Result<CheckpointRecord> DecodeCheckpointPayload(std::string_view payload) {
  ImageReader r(payload);
  CheckpointRecord cp;
  cp.version = r.Varint();
  cp.taken_at_us = static_cast<int64_t>(r.Fixed64());
  uint64_t ndig = r.Varint();
  for (uint64_t i = 0; i < ndig && r.ok(); ++i) {
    std::string table = r.String();
    uint64_t digest = r.Fixed64();
    cp.digests.emplace_back(std::move(table), digest);
  }
  engine::BackupImage& img = cp.image;
  img.source_name = r.String();
  img.as_of = r.Varint();
  img.has_metadata = r.Byte() != 0;
  img.has_sequences = r.Byte() != 0;
  uint64_t ndb = r.Varint();
  for (uint64_t d = 0; d < ndb && r.ok(); ++d) {
    engine::BackupImage::DatabaseImage db;
    db.name = r.String();
    uint64_t nt = r.Varint();
    for (uint64_t ti = 0; ti < nt && r.ok(); ++ti) {
      engine::BackupImage::TableImage t;
      t.schema.name = r.String();
      uint64_t nc = r.Varint();
      for (uint64_t ci = 0; ci < nc && r.ok(); ++ci) {
        sql::ColumnDef c;
        c.name = r.String();
        c.type = static_cast<sql::ValueType>(r.Byte());
        uint8_t bits = r.Byte();
        c.primary_key = (bits & 1) != 0;
        c.auto_increment = (bits & 2) != 0;
        c.unique = (bits & 4) != 0;
        c.not_null = (bits & 8) != 0;
        t.schema.columns.push_back(std::move(c));
      }
      t.schema.primary_key_index = static_cast<int>(r.Fixed64());
      t.schema.temporary = r.Byte() != 0;
      t.auto_increment = static_cast<int64_t>(r.Fixed64());
      t.row_count = r.Varint();
      t.row_bytes = r.Rows(t.row_count);
      db.tables.push_back(std::move(t));
    }
    uint64_t ns = r.Varint();
    for (uint64_t si = 0; si < ns && r.ok(); ++si) {
      std::string name = r.String();
      int64_t next = static_cast<int64_t>(r.Fixed64());
      db.sequences[name] = next;
    }
    img.databases.push_back(std::move(db));
  }
  uint64_t nu = r.Varint();
  for (uint64_t i = 0; i < nu && r.ok(); ++i) img.users.push_back(r.String());
  uint64_t ntr = r.Varint();
  for (uint64_t i = 0; i < ntr && r.ok(); ++i) {
    img.trigger_names.push_back(r.String());
  }
  if (!r.ok()) {
    return Status::InvalidArgument("checkpoint payload: truncated");
  }
  return cp;
}

}  // namespace replidb::binlog
