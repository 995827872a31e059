#ifndef REPLIDB_SHIP_WIRE_H_
#define REPLIDB_SHIP_WIRE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace replidb::ship {

/// Zigzag mapping folds signed integers into unsigned ones so small
/// magnitudes (positive or negative) encode as short varints.
inline uint64_t ZigzagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
inline int64_t ZigzagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

/// Appends primitives to a caller's byte buffer in the ship wire format:
/// LEB128 varints, zigzag-mapped signed ints, raw little-endian doubles,
/// and length-prefixed byte strings. The caller owns the buffer and sizes
/// it, so an encoder can write into a frame that already holds a header.
class WireWriter {
 public:
  explicit WireWriter(std::string* out) : out_(out) {}

  void PutByte(uint8_t b) { out_->push_back(static_cast<char>(b)); }

  void PutVarint(uint64_t v) {
    while (v >= 0x80) {
      PutByte(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    PutByte(static_cast<uint8_t>(v));
  }

  void PutZigzag(int64_t v) { PutVarint(ZigzagEncode(v)); }

  void PutDouble(double v) {
    char buf[sizeof(double)];
    std::memcpy(buf, &v, sizeof(double));
    out_->append(buf, sizeof(double));
  }

  void PutRaw(std::string_view bytes) { out_->append(bytes); }

 private:
  std::string* out_;
};

/// Bounds-checked reader over an encoded buffer. Every Get* returns false
/// on truncation or malformed input instead of reading out of range, so
/// arbitrary (fuzzed) bytes can never crash the decoder.
class WireReader {
 public:
  explicit WireReader(std::string_view data) : data_(data) {}

  bool GetByte(uint8_t* out) {
    if (pos_ >= data_.size()) return false;
    *out = static_cast<uint8_t>(data_[pos_++]);
    return true;
  }

  bool GetVarint(uint64_t* out) {
    uint64_t result = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      uint8_t b;
      if (!GetByte(&b)) return false;
      result |= static_cast<uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) {
        *out = result;
        return true;
      }
    }
    return false;  // > 10 bytes: malformed
  }

  bool GetZigzag(int64_t* out) {
    uint64_t raw;
    if (!GetVarint(&raw)) return false;
    *out = ZigzagDecode(raw);
    return true;
  }

  bool GetDouble(double* out) {
    if (remaining() < sizeof(double)) return false;
    std::memcpy(out, data_.data() + pos_, sizeof(double));
    pos_ += sizeof(double);
    return true;
  }

  bool GetRaw(size_t len, std::string_view* out) {
    if (len > remaining()) return false;
    *out = data_.substr(pos_, len);
    pos_ += len;
    return true;
  }

  size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace replidb::ship

#endif  // REPLIDB_SHIP_WIRE_H_
