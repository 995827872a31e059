#ifndef REPLIDB_ENGINE_IMAGE_CODEC_H_
#define REPLIDB_ENGINE_IMAGE_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "sql/value.h"

namespace replidb::engine {

/// \brief The byte encoding of backup image rows, and the primitives the
/// binlog's checkpoint record is written in.
///
/// Integers are little-endian fixed64 or LEB128 varints; strings are a
/// varint length and the bytes. A row is a varint column count, then per
/// value a ValueType byte and its payload: nothing for NULL, fixed64 for
/// INT and for DOUBLE's bits, a string, or one byte for BOOL.
/// BackupImage rows are stored in this encoding, so a checkpoint copies
/// them into its record without re-encoding (DESIGN §9).

void PutFixed64(uint64_t v, std::string* out);
void PutVarint(uint64_t v, std::string* out);
void PutString(std::string_view s, std::string* out);

/// Appends `row` in the row encoding.
void PutImageRow(const sql::Row& row, std::string* out);

/// \brief Bounded reader over the encoding; every getter fails sticky on
/// overrun or malformed input, returning a zero value.
class ImageReader {
 public:
  explicit ImageReader(std::string_view data) : data_(data) {}

  bool ok() const { return ok_; }

  uint64_t Varint();
  uint64_t Fixed64();
  uint8_t Byte();
  std::string String();

  /// Decodes one row (PutImageRow's bytes). An unknown value type fails.
  sql::Row Row();

  /// Decodes and checks `n` rows, and returns the bytes they span.
  std::string_view Rows(uint64_t n);

 private:
  uint64_t Fail();

  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace replidb::engine

#endif  // REPLIDB_ENGINE_IMAGE_CODEC_H_
