#include "ship/codec.h"

#include <bit>
#include <functional>

#include "engine/types.h"
#include "ship/wire.h"
#include "sql/value.h"

namespace replidb::ship {
namespace {

// Frame header: two magic bytes, a format version, and a flags byte the
// decoder uses to mirror the encoder's dictionary / delta state machines.
constexpr uint8_t kMagic0 = 0xD5;
constexpr uint8_t kMagic1 = 0x5B;
constexpr uint8_t kFormatVersion = 1;
constexpr uint8_t kFlagDictionary = 0x01;
constexpr uint8_t kFlagXorDelta = 0x02;

// Per-entry flags.
constexpr uint8_t kEntryUseStatements = 0x01;
constexpr uint8_t kEntryIncomplete = 0x02;

// Value tags.
constexpr uint8_t kValNull = 0;
constexpr uint8_t kValInt = 1;
constexpr uint8_t kValDouble = 2;
constexpr uint8_t kValString = 3;
constexpr uint8_t kValTrue = 4;
constexpr uint8_t kValFalse = 5;
// Integer XOR'd against the same column of the previously shipped row of
// the same table (tiny varints for counters and mostly-unchanged rows).
constexpr uint8_t kValIntXor = 6;

// The dictionary is self-describing: a string is either a back-reference
// varint(index*2+1) to a previously seen string, or an inline literal
// varint(len*2)+bytes that both sides append to their tables in lockstep.
// Indices follow first appearance, so the bytes do not depend on how either
// side stores its table.

/// Encoder side: an open-addressing table of views into the entries being
/// encoded, sized once for every string the batch holds.
class StringDict {
 public:
  StringDict(bool enabled, size_t max_strings) {
    if (enabled && max_strings > 0) {
      slots_.resize(std::bit_ceil(2 * max_strings + 1));
    }
  }

  void Encode(WireWriter* w, std::string_view s) {
    if (!slots_.empty()) {
      const size_t mask = slots_.size() - 1;
      for (size_t i = std::hash<std::string_view>{}(s) & mask;;
           i = (i + 1) & mask) {
        Slot& slot = slots_[i];
        if (slot.index_plus_one == 0) {
          slot = Slot{s, ++size_};
          break;
        }
        if (slot.text == s) {
          w->PutVarint((slot.index_plus_one - 1) * 2 + 1);
          return;
        }
      }
    }
    w->PutVarint(static_cast<uint64_t>(s.size()) * 2);
    w->PutRaw(s);
  }

 private:
  struct Slot {
    std::string_view text;
    uint64_t index_plus_one = 0;  ///< 0 marks a free slot.
  };
  std::vector<Slot> slots_;
  uint64_t size_ = 0;
};

/// Decoder side: the literals read so far, as views into the payload.
class StringUndict {
 public:
  /// Reserves room for as many distinct literals as `bytes` can hold: the
  /// empty string takes one byte and any other at least two.
  void Enable(size_t bytes) {
    enabled_ = true;
    table_.reserve(bytes / 2 + 1);
  }

  bool Decode(WireReader* r, std::string_view* out) {
    uint64_t head;
    if (!r->GetVarint(&head)) return false;
    if (head & 1) {
      uint64_t idx = head >> 1;
      if (!enabled_ || idx >= table_.size()) return false;
      *out = table_[idx];
      return true;
    }
    if (!r->GetRaw(head >> 1, out)) return false;
    if (enabled_) table_.push_back(*out);
    return true;
  }

 private:
  bool enabled_ = false;
  std::vector<std::string_view> table_;
};

/// The XOR-delta reference of op `i` of `batch[e]`: the row of the last op
/// before it in the batch on the same (database, table) whose row is not
/// empty, or null. The encoder and the decoder both search the batch's own
/// ops, so no reference is stored or copied. Only an op with a row looks
/// one up, and its walk back passes only ops of other tables and deletes:
/// short for a batch of few tables.
const sql::Row* ReferenceRow(
    std::span<const middleware::ReplicationEntry> batch, size_t e, size_t i) {
  const engine::WriteOp& op = batch[e].writeset.ops[i];
  for (size_t be = e + 1; be-- > 0;) {
    const std::vector<engine::WriteOp>& ops = batch[be].writeset.ops;
    for (size_t bi = be == e ? i : ops.size(); bi-- > 0;) {
      const engine::WriteOp& prev = ops[bi];
      if (!prev.after.empty() && prev.table == op.table &&
          prev.database == op.database) {
        return &prev.after;
      }
    }
  }
  return nullptr;
}

/// Sizes for one batch: every string the dictionary may have to hold, and
/// an estimate of the encoded bytes (exact for strings, typical widths for
/// varints) that the output is reserved for.
struct BatchSize {
  size_t strings = 0;
  size_t bytes = 8;  // Header and entry count.

  void AddString(std::string_view s) {
    ++strings;
    bytes += 2 + s.size();
  }
  void AddValue(const sql::Value& v) {
    if (v.type() == sql::ValueType::kString) {
      AddString(v.AsString());
      ++bytes;  // Tag.
    } else {
      bytes += v.type() == sql::ValueType::kDouble ? 9 : 6;
    }
  }
};

BatchSize MeasureBatch(std::span<const middleware::ReplicationEntry> entries) {
  BatchSize size;
  for (const middleware::ReplicationEntry& entry : entries) {
    size.bytes += 16;  // Version and commit deltas, flags, two counts.
    for (const std::string& s : entry.statements) size.AddString(s);
    for (const engine::WriteOp& op : entry.writeset.ops) {
      size.bytes += 2;  // Kind and row width.
      size.AddString(op.database);
      size.AddString(op.table);
      size.AddValue(op.primary_key);
      for (const sql::Value& v : op.after) size.AddValue(v);
    }
  }
  return size;
}

void EncodeValue(WireWriter* w, StringDict* dict, const sql::Value& v,
                 const sql::Value* prev) {
  switch (v.type()) {
    case sql::ValueType::kNull:
      w->PutByte(kValNull);
      break;
    case sql::ValueType::kInt:
      if (prev != nullptr && prev->type() == sql::ValueType::kInt) {
        w->PutByte(kValIntXor);
        w->PutVarint(static_cast<uint64_t>(v.AsInt()) ^
                     static_cast<uint64_t>(prev->AsInt()));
      } else {
        w->PutByte(kValInt);
        w->PutZigzag(v.AsInt());
      }
      break;
    case sql::ValueType::kDouble:
      w->PutByte(kValDouble);
      w->PutDouble(v.AsDouble());
      break;
    case sql::ValueType::kString:
      w->PutByte(kValString);
      dict->Encode(w, v.AsString());
      break;
    case sql::ValueType::kBool:
      w->PutByte(v.AsBool() ? kValTrue : kValFalse);
      break;
  }
}

bool DecodeValue(WireReader* r, StringUndict* dict, const sql::Value* prev,
                 sql::Value* out) {
  uint8_t tag;
  if (!r->GetByte(&tag)) return false;
  switch (tag) {
    case kValNull:
      *out = sql::Value::Null();
      return true;
    case kValInt: {
      int64_t i;
      if (!r->GetZigzag(&i)) return false;
      *out = sql::Value::Int(i);
      return true;
    }
    case kValIntXor: {
      uint64_t x;
      if (!r->GetVarint(&x)) return false;
      if (prev == nullptr || prev->type() != sql::ValueType::kInt) return false;
      *out = sql::Value::Int(
          static_cast<int64_t>(x ^ static_cast<uint64_t>(prev->AsInt())));
      return true;
    }
    case kValDouble: {
      double d;
      if (!r->GetDouble(&d)) return false;
      *out = sql::Value::Double(d);
      return true;
    }
    case kValString: {
      std::string_view s;
      if (!dict->Decode(r, &s)) return false;
      *out = sql::Value::String(std::string(s));
      return true;
    }
    case kValTrue:
      *out = sql::Value::Bool(true);
      return true;
    case kValFalse:
      *out = sql::Value::Bool(false);
      return true;
    default:
      return false;
  }
}

/// Decoder state for one batch: the reader, the dictionary's literals as
/// views into the payload, whether rows are XOR-deltas, and the running
/// version and commit time. DecodeBatch and DecodeEntry both run Next per
/// entry.
class BatchDecoder {
 public:
  explicit BatchDecoder(std::string_view payload) : r_(payload) {}

  /// Reads the batch header into `*count`.
  Status Open(uint64_t* count) {
    uint8_t m0, m1, fmt, flags;
    if (!r_.GetByte(&m0) || !r_.GetByte(&m1) || m0 != kMagic0 ||
        m1 != kMagic1) {
      return Status::InvalidArgument("ship codec: bad magic");
    }
    if (!r_.GetByte(&fmt) || fmt != kFormatVersion) {
      return Status::InvalidArgument("ship codec: unsupported format version");
    }
    if (!r_.GetByte(&flags)) {
      return Status::InvalidArgument("ship codec: truncated header");
    }
    if (!r_.GetVarint(count) || *count > r_.remaining()) {
      // Each entry takes >= 1 byte, so count can never exceed the bytes left.
      return Status::InvalidArgument("ship codec: bad entry count");
    }
    if ((flags & kFlagDictionary) != 0) dict_.Enable(r_.remaining());
    xor_delta_ = (flags & kFlagXorDelta) != 0;
    return Status::OK();
  }

  /// Decodes the next entry into `batch[e]`, reusing its capacity. The
  /// entries before it are the batch decoded so far: they hold the rows
  /// XOR deltas refer to.
  Status Next(std::span<middleware::ReplicationEntry> batch, size_t e) {
    middleware::ReplicationEntry* out = &batch[e];
    int64_t version_delta, commit_delta;
    uint8_t eflags;
    if (!r_.GetZigzag(&version_delta) || !r_.GetZigzag(&commit_delta) ||
        !r_.GetByte(&eflags)) {
      return Status::InvalidArgument("ship codec: truncated entry header");
    }
    prev_version_ += static_cast<uint64_t>(version_delta);
    out->version = prev_version_;
    prev_commit_us_ += commit_delta;
    out->origin_commit_us = prev_commit_us_;
    out->use_statements = (eflags & kEntryUseStatements) != 0;
    out->writeset.incomplete = (eflags & kEntryIncomplete) != 0;

    uint64_t n_stmts;
    if (!r_.GetVarint(&n_stmts) || n_stmts > r_.remaining()) {
      return Status::InvalidArgument("ship codec: bad statement count");
    }
    out->statements.resize(n_stmts);
    for (std::string& s : out->statements) {
      std::string_view text;
      if (!dict_.Decode(&r_, &text)) {
        return Status::InvalidArgument("ship codec: bad statement string");
      }
      s.assign(text);
    }

    uint64_t n_ops;
    if (!r_.GetVarint(&n_ops) || n_ops > r_.remaining()) {
      return Status::InvalidArgument("ship codec: bad op count");
    }
    out->writeset.ops.resize(n_ops);
    for (size_t i = 0; i < n_ops; ++i) {
      engine::WriteOp& op = out->writeset.ops[i];
      uint8_t kind;
      if (!r_.GetByte(&kind) ||
          kind > static_cast<uint8_t>(engine::WriteOpKind::kDelete)) {
        return Status::InvalidArgument("ship codec: bad op kind");
      }
      op.kind = static_cast<engine::WriteOpKind>(kind);
      std::string_view database, table;
      if (!dict_.Decode(&r_, &database) || !dict_.Decode(&r_, &table)) {
        return Status::InvalidArgument("ship codec: bad op table name");
      }
      op.database.assign(database);
      op.table.assign(table);
      if (!DecodeValue(&r_, &dict_, nullptr, &op.primary_key)) {
        return Status::InvalidArgument("ship codec: bad primary key");
      }

      uint64_t n_vals;
      if (!r_.GetVarint(&n_vals) || n_vals > r_.remaining()) {
        return Status::InvalidArgument("ship codec: bad row width");
      }
      const sql::Row* prev_row =
          xor_delta_ && n_vals > 0 ? ReferenceRow(batch, e, i) : nullptr;
      op.after.resize(n_vals);
      for (uint64_t c = 0; c < n_vals; ++c) {
        const sql::Value* prev =
            (prev_row != nullptr && c < prev_row->size()) ? &(*prev_row)[c]
                                                          : nullptr;
        if (!DecodeValue(&r_, &dict_, prev, &op.after[c])) {
          return Status::InvalidArgument("ship codec: bad row value");
        }
      }
    }
    return Status::OK();
  }

  /// Fails unless the payload ends after the last entry.
  Status Close() const {
    if (!r_.done()) return Status::InvalidArgument("ship codec: trailing bytes");
    return Status::OK();
  }

 private:
  WireReader r_;
  StringUndict dict_;
  bool xor_delta_ = false;
  uint64_t prev_version_ = 0;
  int64_t prev_commit_us_ = 0;
};

}  // namespace

EncodedBatch EncodeBatch(
    const std::vector<middleware::ReplicationEntry>& entries,
    const CodecOptions& options) {
  EncodedBatch out;
  for (const middleware::ReplicationEntry& entry : entries) {
    out.raw_size_bytes += entry.SizeBytes();
  }
  AppendBatch(entries, options, &out.payload);
  out.encoded_size_bytes = static_cast<int64_t>(out.payload.size());
  return out;
}

void AppendBatch(std::span<const middleware::ReplicationEntry> entries,
                 const CodecOptions& options, std::string* out) {
  const BatchSize size = MeasureBatch(entries);
  out->reserve(out->size() + size.bytes);
  WireWriter w(out);
  w.PutByte(kMagic0);
  w.PutByte(kMagic1);
  w.PutByte(kFormatVersion);
  uint8_t flags = (options.dictionary ? kFlagDictionary : 0) |
                  (options.xor_delta ? kFlagXorDelta : 0);
  w.PutByte(flags);
  w.PutVarint(entries.size());

  StringDict dict(options.dictionary, size.strings);
  uint64_t prev_version = 0;
  int64_t prev_commit_us = 0;

  for (size_t e = 0; e < entries.size(); ++e) {
    const middleware::ReplicationEntry& entry = entries[e];
    w.PutZigzag(static_cast<int64_t>(entry.version) -
                static_cast<int64_t>(prev_version));
    prev_version = entry.version;
    w.PutZigzag(entry.origin_commit_us - prev_commit_us);
    prev_commit_us = entry.origin_commit_us;
    uint8_t eflags = (entry.use_statements ? kEntryUseStatements : 0) |
                     (entry.writeset.incomplete ? kEntryIncomplete : 0);
    w.PutByte(eflags);

    w.PutVarint(entry.statements.size());
    for (const std::string& s : entry.statements) dict.Encode(&w, s);

    w.PutVarint(entry.writeset.ops.size());
    for (size_t i = 0; i < entry.writeset.ops.size(); ++i) {
      const engine::WriteOp& op = entry.writeset.ops[i];
      w.PutByte(static_cast<uint8_t>(op.kind));
      dict.Encode(&w, op.database);
      dict.Encode(&w, op.table);
      // Primary keys are unique by construction, so never delta-encoded.
      EncodeValue(&w, &dict, op.primary_key, nullptr);

      const sql::Row* prev_row = options.xor_delta && !op.after.empty()
                                     ? ReferenceRow(entries, e, i)
                                     : nullptr;
      w.PutVarint(op.after.size());
      for (size_t c = 0; c < op.after.size(); ++c) {
        const sql::Value* prev =
            (prev_row != nullptr && c < prev_row->size()) ? &(*prev_row)[c]
                                                          : nullptr;
        EncodeValue(&w, &dict, op.after[c], prev);
      }
    }
  }
}

Result<std::vector<middleware::ReplicationEntry>> DecodeBatch(
    std::string_view payload) {
  BatchDecoder decoder(payload);
  uint64_t count;
  REPLIDB_RETURN_NOT_OK(decoder.Open(&count));
  // Sized up front: an entry's XOR-delta references are rows of the
  // entries decoded before it.
  std::vector<middleware::ReplicationEntry> entries(count);
  for (size_t e = 0; e < entries.size(); ++e) {
    REPLIDB_RETURN_NOT_OK(decoder.Next(entries, e));
  }
  REPLIDB_RETURN_NOT_OK(decoder.Close());
  return entries;
}

Status DecodeEntry(std::string_view payload,
                   middleware::ReplicationEntry* out) {
  BatchDecoder decoder(payload);
  uint64_t count;
  REPLIDB_RETURN_NOT_OK(decoder.Open(&count));
  if (count != 1) {
    return Status::InvalidArgument("ship codec: not a one-entry batch");
  }
  REPLIDB_RETURN_NOT_OK(decoder.Next({out, 1}, 0));
  return decoder.Close();
}

}  // namespace replidb::ship
