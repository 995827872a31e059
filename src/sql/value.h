#ifndef REPLIDB_SQL_VALUE_H_
#define REPLIDB_SQL_VALUE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <variant>
#include <vector>

namespace replidb::sql {

/// Column types supported by the engine dialect.
enum class ValueType { kNull, kInt, kDouble, kString, kBool };

const char* ValueTypeName(ValueType t);

/// \brief A typed SQL value (NULL, INT, DOUBLE, STRING, BOOL).
///
/// Values are small, copyable, and totally ordered: NULL sorts first, then
/// every number (INT, DOUBLE and BOOL as 0/1, compared exactly by value,
/// NaN equal to NaN and above every other number, as in PostgreSQL), then
/// strings.
class Value {
 public:
  /// NULL value.
  Value() : v_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Int(int64_t i) { return Value(i); }
  static Value Double(double d) { return Value(d); }
  static Value String(std::string s) { return Value(std::move(s)); }
  static Value Bool(bool b) { return Value(b); }

  ValueType type() const;
  bool is_null() const { return type() == ValueType::kNull; }

  /// Accessors; behaviour is undefined if the type does not match
  /// (call type() or the As* coercions first).
  int64_t AsInt() const;
  double AsDouble() const;
  const std::string& AsString() const;
  bool AsBool() const;

  /// Numeric coercion: int/double/bool -> double; others -> 0.
  double NumericValue() const;

  /// True if the value is "truthy" (non-null, non-zero, non-empty).
  bool Truthy() const;

  /// SQL literal rendering ('quoted' strings, NULL keyword).
  std::string ToSqlLiteral() const;
  /// Plain rendering for result display.
  std::string ToString() const;

  /// Total order used by ORDER BY and index keys.
  /// Returns <0, 0, >0. NULL < numbers < strings; numbers compare by exact
  /// value whatever their types, and NaN sorts above every other number.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// Stable 64-bit hash (used for replica content checksums). Typed: INT 5
  /// and DOUBLE 5.0 hash apart, so use KeyHash to look values up.
  uint64_t Hash() const;

  /// Hash consistent with Compare: values that compare equal hash equal.
  /// Integral numbers hash by their int64 value (BOOL as 0/1), other
  /// doubles by their bits (every NaN alike), strings by their bytes.
  /// Feeds only in-memory indexes; never persisted or compared across
  /// builds.
  uint64_t KeyHash() const;

 private:
  explicit Value(int64_t i) : v_(i) {}
  explicit Value(double d) : v_(d) {}
  explicit Value(std::string s) : v_(std::move(s)) {}
  explicit Value(bool b) : v_(b) {}

  std::variant<std::monostate, int64_t, double, std::string, bool> v_;
};

/// A tuple of values: one table row or one result row.
using Row = std::vector<Value>;

/// Stable hash of a whole row (order-sensitive).
uint64_t HashRow(const Row& row);

}  // namespace replidb::sql

/// Hashes by KeyHash, so equality (Compare == 0) and the hash agree and a
/// Value can key an unordered container.
template <>
struct std::hash<replidb::sql::Value> {
  size_t operator()(const replidb::sql::Value& v) const {
    return static_cast<size_t>(v.KeyHash());
  }
};

#endif  // REPLIDB_SQL_VALUE_H_
