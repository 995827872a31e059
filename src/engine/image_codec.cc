#include "engine/image_codec.h"

#include <cstring>

namespace replidb::engine {

void PutFixed64(uint64_t v, std::string* out) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out->append(buf, 8);
}

void PutVarint(uint64_t v, std::string* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

void PutString(std::string_view s, std::string* out) {
  PutVarint(s.size(), out);
  out->append(s.data(), s.size());
}

void PutImageRow(const sql::Row& row, std::string* out) {
  PutVarint(row.size(), out);
  for (const sql::Value& v : row) {
    out->push_back(static_cast<char>(v.type()));
    switch (v.type()) {
      case sql::ValueType::kNull:
        break;
      case sql::ValueType::kInt:
        PutFixed64(static_cast<uint64_t>(v.AsInt()), out);
        break;
      case sql::ValueType::kDouble: {
        uint64_t bits = 0;
        double d = v.AsDouble();
        std::memcpy(&bits, &d, sizeof(bits));
        PutFixed64(bits, out);
        break;
      }
      case sql::ValueType::kString:
        PutString(v.AsString(), out);
        break;
      case sql::ValueType::kBool:
        out->push_back(v.AsBool() ? 1 : 0);
        break;
    }
  }
}

uint64_t ImageReader::Fail() {
  ok_ = false;
  pos_ = data_.size();
  return 0;
}

uint64_t ImageReader::Varint() {
  uint64_t v = 0;
  int shift = 0;
  while (true) {
    if (pos_ >= data_.size() || shift > 63) return Fail();
    uint8_t b = static_cast<uint8_t>(data_[pos_++]);
    v |= static_cast<uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
  }
}

uint64_t ImageReader::Fixed64() {
  if (data_.size() - pos_ < 8) return Fail();
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

uint8_t ImageReader::Byte() {
  if (pos_ >= data_.size()) return static_cast<uint8_t>(Fail());
  return static_cast<uint8_t>(data_[pos_++]);
}

std::string ImageReader::String() {
  uint64_t n = Varint();
  // Against the bytes left, not pos_ + n: a declared length near 2^64
  // would wrap that sum and pass.
  if (!ok_ || n > data_.size() - pos_) {
    Fail();
    return std::string();
  }
  std::string s(data_.substr(pos_, n));
  pos_ += n;
  return s;
}

sql::Row ImageReader::Row() {
  sql::Row row;
  uint64_t n = Varint();
  for (uint64_t i = 0; i < n && ok_; ++i) {
    switch (static_cast<sql::ValueType>(Byte())) {
      case sql::ValueType::kNull:
        row.push_back(sql::Value::Null());
        break;
      case sql::ValueType::kInt:
        row.push_back(sql::Value::Int(static_cast<int64_t>(Fixed64())));
        break;
      case sql::ValueType::kDouble: {
        uint64_t bits = Fixed64();
        double d = 0;
        std::memcpy(&d, &bits, sizeof(d));
        row.push_back(sql::Value::Double(d));
        break;
      }
      case sql::ValueType::kString:
        row.push_back(sql::Value::String(String()));
        break;
      case sql::ValueType::kBool:
        row.push_back(sql::Value::Bool(Byte() != 0));
        break;
      default:
        Fail();
    }
  }
  return row;
}

std::string_view ImageReader::Rows(uint64_t n) {
  size_t start = pos_;
  for (uint64_t i = 0; i < n && ok_; ++i) Row();
  return ok_ ? data_.substr(start, pos_ - start) : std::string_view();
}

}  // namespace replidb::engine
