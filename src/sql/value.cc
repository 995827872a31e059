#include "sql/value.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string_view>

namespace replidb::sql {

const char* ValueTypeName(ValueType t) {
  switch (t) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt:
      return "INT";
    case ValueType::kDouble:
      return "DOUBLE";
    case ValueType::kString:
      return "STRING";
    case ValueType::kBool:
      return "BOOL";
  }
  return "?";
}

ValueType Value::type() const {
  switch (v_.index()) {
    case 0:
      return ValueType::kNull;
    case 1:
      return ValueType::kInt;
    case 2:
      return ValueType::kDouble;
    case 3:
      return ValueType::kString;
    case 4:
      return ValueType::kBool;
  }
  return ValueType::kNull;
}

int64_t Value::AsInt() const { return std::get<int64_t>(v_); }
double Value::AsDouble() const { return std::get<double>(v_); }
const std::string& Value::AsString() const { return std::get<std::string>(v_); }
bool Value::AsBool() const { return std::get<bool>(v_); }

double Value::NumericValue() const {
  switch (type()) {
    case ValueType::kInt:
      return static_cast<double>(AsInt());
    case ValueType::kDouble:
      return AsDouble();
    case ValueType::kBool:
      return AsBool() ? 1.0 : 0.0;
    default:
      return 0.0;
  }
}

bool Value::Truthy() const {
  switch (type()) {
    case ValueType::kNull:
      return false;
    case ValueType::kInt:
      return AsInt() != 0;
    case ValueType::kDouble:
      return AsDouble() != 0.0;
    case ValueType::kString:
      return !AsString().empty();
    case ValueType::kBool:
      return AsBool();
  }
  return false;
}

std::string Value::ToSqlLiteral() const {
  switch (type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kString: {
      std::string out = "'";
      for (char c : AsString()) {
        if (c == '\'') out += "''";
        else out += c;
      }
      out += "'";
      return out;
    }
    case ValueType::kBool:
      return AsBool() ? "TRUE" : "FALSE";
    default:
      return ToString();
  }
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt:
      return std::to_string(AsInt());
    case ValueType::kDouble: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.6g", AsDouble());
      return buf;
    }
    case ValueType::kString:
      return AsString();
    case ValueType::kBool:
      return AsBool() ? "TRUE" : "FALSE";
  }
  return "?";
}

namespace {
bool IsNumeric(ValueType t) {
  return t == ValueType::kInt || t == ValueType::kDouble ||
         t == ValueType::kBool;
}

/// Sort class: NULL, then every number, then strings.
int Rank(ValueType t) {
  if (t == ValueType::kNull) return 0;
  return IsNumeric(t) ? 1 : 2;
}

template <typename T>
int Sign(T x, T y) {
  return x < y ? -1 : (x > y ? 1 : 0);
}

// 2^63 as a double: the first value above every int64.
constexpr double kTwo63 = 9223372036854775808.0;

/// Exact comparison of an int64 with a double (NaN above every number).
/// Going through double would round ints past 2^53 onto their neighbours.
int CompareIntDouble(int64_t x, double y) {
  if (std::isnan(y) || y >= kTwo63) return -1;
  if (y < -kTwo63) return 1;
  double t = std::trunc(y);  // In [-2^63, 2^63): converts exactly.
  int c = Sign(x, static_cast<int64_t>(t));
  return c != 0 ? c : Sign(t, y);
}

/// The int value of an INT or BOOL (0 or 1).
int64_t IntOf(const Value& v) {
  return v.type() == ValueType::kBool ? (v.AsBool() ? 1 : 0) : v.AsInt();
}

int CompareDoubles(double x, double y) {
  bool nx = std::isnan(x), ny = std::isnan(y);
  if (nx || ny) return Sign(nx, ny);
  return Sign(x, y);
}
}  // namespace

int Value::Compare(const Value& other) const {
  ValueType a = type(), b = other.type();
  if (a == ValueType::kInt && b == ValueType::kInt) {
    return Sign(AsInt(), other.AsInt());
  }
  if (Rank(a) != Rank(b) || a == ValueType::kNull) {
    return Sign(Rank(a), Rank(b));
  }
  if (a == ValueType::kString) {
    int c = AsString().compare(other.AsString());
    return Sign(c, 0);
  }
  // Two numbers. BOOL counts as the int 0 or 1.
  bool da = a == ValueType::kDouble, db = b == ValueType::kDouble;
  if (da && db) return CompareDoubles(AsDouble(), other.AsDouble());
  if (da) return -CompareIntDouble(IntOf(other), AsDouble());
  if (db) return CompareIntDouble(IntOf(*this), other.AsDouble());
  return Sign(IntOf(*this), IntOf(other));
}

uint64_t Value::Hash() const {
  uint64_t h = 0xcbf29ce484222325ULL ^ static_cast<uint64_t>(type());
  auto mix = [&h](uint64_t x) {
    h ^= x;
    h *= 0x100000001b3ULL;
    h ^= h >> 29;
  };
  switch (type()) {
    case ValueType::kNull:
      mix(0);
      break;
    case ValueType::kInt:
      mix(static_cast<uint64_t>(AsInt()));
      break;
    case ValueType::kDouble: {
      double d = AsDouble();
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(d));
      __builtin_memcpy(&bits, &d, sizeof(bits));
      mix(bits);
      break;
    }
    case ValueType::kString:
      for (char c : AsString()) mix(static_cast<uint64_t>(static_cast<unsigned char>(c)));
      break;
    case ValueType::kBool:
      mix(AsBool() ? 1 : 2);
      break;
  }
  return h;
}

uint64_t Value::KeyHash() const {
  switch (type()) {
    case ValueType::kNull:
      return 0;
    case ValueType::kInt:
    case ValueType::kBool:
      return static_cast<uint64_t>(IntOf(*this));
    case ValueType::kDouble: {
      double d = AsDouble();
      if (std::isnan(d)) return 0x7ff8000000000000ULL;
      if (d >= -kTwo63 && d < kTwo63 && std::trunc(d) == d) {
        return static_cast<uint64_t>(static_cast<int64_t>(d));
      }
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      return bits;
    }
    case ValueType::kString:
      return std::hash<std::string_view>{}(AsString());
  }
  return 0;
}

uint64_t HashRow(const Row& row) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const Value& v : row) {
    h ^= v.Hash() + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

}  // namespace replidb::sql
