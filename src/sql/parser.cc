#include "sql/parser.h"

#include <cctype>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <string_view>
#include <utility>

namespace replidb::sql {

namespace {

// ---------------------------------------------------------------------------
// Lexer

enum class TokKind : uint8_t { kEof, kIdent, kInt, kDouble, kString, kSym };

/// A token is a view of the statement text, which outlives the parse; the
/// lexer copies nothing. Keywords are matched against the view ignoring
/// case.
struct Token {
  TokKind kind = TokKind::kEof;
  bool escaped = false;   ///< kString: the body holds '' escapes.
  std::string_view text;  ///< Ident, number, symbol, or string body.
  union {
    int64_t int_val = 0;
    double dbl_val;
  };
};

/// `word` (an identifier) equals the upper-case keyword `kw`, ignoring case.
bool EqualsKeyword(std::string_view word, std::string_view kw) {
  if (word.size() != kw.size()) return false;
  for (size_t i = 0; i < word.size(); ++i) {
    char c = word[i];
    if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
    if (c != kw[i]) return false;
  }
  return true;
}

/// A string token's value: its body with each '' unescaped.
std::string StringValue(const Token& t) {
  if (!t.escaped) return std::string(t.text);
  std::string out;
  out.reserve(t.text.size());
  for (size_t i = 0; i < t.text.size(); ++i) {
    out += t.text[i];
    if (t.text[i] == '\'') ++i;  // Skip the second quote of the pair.
  }
  return out;
}

/// How an error message quotes a token: a string token by its value.
std::string Quoted(const Token& t) {
  return t.kind == TokKind::kString ? StringValue(t) : std::string(t.text);
}

class Lexer {
 public:
  explicit Lexer(std::string_view input) : in_(input) {}

  /// Tokenizes the whole input before any parsing, so a lexical error wins
  /// over a syntax error earlier in the statement.
  Status Tokenize(std::vector<Token>* out) {
    // Every token spans at least one character: one allocation suffices.
    out->reserve(in_.size() + 1);
    while (true) {
      SkipSpace();
      if (pos_ >= in_.size()) break;
      char c = in_[pos_];
      Status st;
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        out->push_back(LexIdent());
      } else if (std::isdigit(static_cast<unsigned char>(c))) {
        st = LexNumber(out);
      } else if (c == '\'') {
        st = LexString(out);
      } else {
        st = LexSymbol(out);
      }
      if (!st.ok()) return st;
    }
    out->push_back(Token{});  // EOF.
    return Status::OK();
  }

 private:
  bool IsDigitAt(size_t i) const {
    return i < in_.size() && std::isdigit(static_cast<unsigned char>(in_[i]));
  }
  void SkipDigits() {
    while (IsDigitAt(pos_)) ++pos_;
  }

  void SkipSpace() {
    while (pos_ < in_.size()) {
      char c = in_[pos_];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '-' && pos_ + 1 < in_.size() && in_[pos_ + 1] == '-') {
        while (pos_ < in_.size() && in_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  Token LexIdent() {
    size_t start = pos_;
    while (pos_ < in_.size() &&
           (std::isalnum(static_cast<unsigned char>(in_[pos_])) ||
            in_[pos_] == '_')) {
      ++pos_;
    }
    Token t;
    t.kind = TokKind::kIdent;
    t.text = in_.substr(start, pos_ - start);
    return t;
  }

  /// digits [. digits] [(e|E) [+|-] digits]; a fraction or an exponent
  /// makes it a double. Converted from the token's own characters.
  Status LexNumber(std::vector<Token>* out) {
    size_t start = pos_;
    bool is_double = false;
    SkipDigits();
    if (pos_ < in_.size() && in_[pos_] == '.') {
      is_double = true;
      ++pos_;
      SkipDigits();
    }
    if (pos_ < in_.size() && (in_[pos_] == 'e' || in_[pos_] == 'E')) {
      size_t digits = pos_ + 1;
      if (digits < in_.size() && (in_[digits] == '+' || in_[digits] == '-')) {
        ++digits;
      }
      if (IsDigitAt(digits)) {
        is_double = true;
        pos_ = digits;
        SkipDigits();
      }
    }
    Token t;
    t.text = in_.substr(start, pos_ - start);
    const char* first = t.text.data();
    const char* last = first + t.text.size();
    if (is_double) {
      t.kind = TokKind::kDouble;
      if (std::from_chars(first, last, t.dbl_val).ec != std::errc()) {
        // Out of range: keep strtod's inf, zero or subnormal.
        t.dbl_val = std::strtod(std::string(t.text).c_str(), nullptr);
      }
    } else {
      t.kind = TokKind::kInt;
      if (std::from_chars(first, last, t.int_val).ec != std::errc()) {
        return Status::InvalidArgument("integer literal out of range: '" +
                                       std::string(t.text) + "'");
      }
    }
    out->push_back(t);
    return Status::OK();
  }

  Status LexString(std::vector<Token>* out) {
    size_t start = ++pos_;  // Skip opening quote.
    Token t;
    t.kind = TokKind::kString;
    while (pos_ < in_.size()) {
      if (in_[pos_] != '\'') {
        ++pos_;
        continue;
      }
      if (pos_ + 1 < in_.size() && in_[pos_ + 1] == '\'') {
        t.escaped = true;
        pos_ += 2;
        continue;
      }
      t.text = in_.substr(start, pos_ - start);
      ++pos_;
      out->push_back(t);
      return Status::OK();
    }
    return Status::InvalidArgument("unterminated string literal");
  }

  Status LexSymbol(std::vector<Token>* out) {
    Token t;
    t.kind = TokKind::kSym;
    std::string_view two = in_.substr(pos_, 2);
    if (two == "<=" || two == ">=" || two == "<>" || two == "!=") {
      t.text = two == "!=" ? std::string_view("<>") : two;
      pos_ += 2;
      out->push_back(t);
      return Status::OK();
    }
    char c = in_[pos_];
    static constexpr std::string_view kSingles = "(),.=<>+-*/%;";
    if (kSingles.find(c) == std::string_view::npos) {
      return Status::InvalidArgument(std::string("unexpected character '") + c +
                                     "' in SQL");
    }
    t.text = in_.substr(pos_++, 1);
    out->push_back(t);
    return Status::OK();
  }

  std::string_view in_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Parser

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : toks_(std::move(tokens)) {}

  Result<Statement> ParseStatement() {
    Result<Statement> r = ParseStatementInner();
    if (!r.ok()) return r;
    // Optional trailing semicolon, then EOF.
    if (PeekSym(";")) Advance();
    if (!AtEof()) {
      return Status::InvalidArgument("trailing input after statement: '" +
                                     Quoted(Peek()) + "'");
    }
    return r;
  }

 private:
  Result<Statement> ParseStatementInner() {
    if (AtEof()) return Status::InvalidArgument("empty statement");
    if (PeekKeyword("CREATE")) return ParseCreate();
    if (PeekKeyword("DROP")) return ParseDrop();
    if (PeekKeyword("INSERT")) return ParseInsert();
    if (PeekKeyword("UPDATE")) return ParseUpdate();
    if (PeekKeyword("DELETE")) return ParseDelete();
    if (PeekKeyword("SELECT")) {
      Result<SelectStmt> s = ParseSelect();
      if (!s.ok()) return s.status();
      Statement st;
      st.node = std::move(s.value());
      return st;
    }
    if (PeekKeyword("BEGIN") || PeekKeyword("START")) {
      if (PeekKeyword("START")) {
        Advance();
        if (!ConsumeKeyword("TRANSACTION")) {
          return Status::InvalidArgument("expected TRANSACTION after START");
        }
      } else {
        Advance();
      }
      Statement st;
      st.node = BeginStmt{};
      return st;
    }
    if (PeekKeyword("COMMIT")) {
      Advance();
      Statement st;
      st.node = CommitStmt{};
      return st;
    }
    if (PeekKeyword("ROLLBACK") || PeekKeyword("ABORT")) {
      Advance();
      Statement st;
      st.node = RollbackStmt{};
      return st;
    }
    if (PeekKeyword("CALL")) return ParseCall();
    return Status::InvalidArgument("unrecognized statement start: '" +
                                   Quoted(Peek()) + "'");
  }

  Result<Statement> ParseCreate() {
    Advance();  // CREATE
    bool temporary = false;
    if (PeekKeyword("TEMPORARY") || PeekKeyword("TEMP")) {
      temporary = true;
      Advance();
    }
    if (PeekKeyword("DATABASE")) {
      Advance();
      CreateDatabaseStmt s;
      s.if_not_exists = ConsumeIfNotExists();
      Result<std::string> name = ExpectIdent();
      if (!name.ok()) return name.status();
      s.name = name.TakeValue();
      Statement st;
      st.node = std::move(s);
      return st;
    }
    if (PeekKeyword("SEQUENCE")) {
      Advance();
      CreateSequenceStmt s;
      Result<std::string> name = ExpectIdent();
      if (!name.ok()) return name.status();
      s.name = name.TakeValue();
      if (PeekKeyword("START")) {
        Advance();
        if (PeekKeyword("WITH")) Advance();
        if (Peek().kind != TokKind::kInt) {
          return Status::InvalidArgument("expected integer after START");
        }
        s.start = Peek().int_val;
        Advance();
      }
      Statement st;
      st.node = std::move(s);
      return st;
    }
    if (!ConsumeKeyword("TABLE")) {
      return Status::InvalidArgument("expected DATABASE, SEQUENCE or TABLE");
    }
    CreateTableStmt s;
    s.temporary = temporary;
    s.if_not_exists = ConsumeIfNotExists();
    Result<TableRef> tr = ExpectTableRef();
    if (!tr.ok()) return tr.status();
    s.table = tr.TakeValue();
    if (!ConsumeSym("(")) return Status::InvalidArgument("expected (");
    while (true) {
      ColumnDef col;
      Result<std::string> name = ExpectIdent();
      if (!name.ok()) return name.status();
      col.name = name.TakeValue();
      Result<ValueType> ty = ExpectType();
      if (!ty.ok()) return ty.status();
      col.type = ty.TakeValue();
      while (true) {
        if (PeekKeyword("PRIMARY")) {
          Advance();
          if (!ConsumeKeyword("KEY")) {
            return Status::InvalidArgument("expected KEY after PRIMARY");
          }
          col.primary_key = true;
        } else if (PeekKeyword("AUTO_INCREMENT") || PeekKeyword("AUTOINCREMENT")) {
          Advance();
          col.auto_increment = true;
        } else if (PeekKeyword("UNIQUE")) {
          Advance();
          col.unique = true;
        } else if (PeekKeyword("NOT")) {
          Advance();
          if (!ConsumeKeyword("NULL")) {
            return Status::InvalidArgument("expected NULL after NOT");
          }
          col.not_null = true;
        } else {
          break;
        }
      }
      s.columns.push_back(std::move(col));
      if (ConsumeSym(",")) continue;
      break;
    }
    if (!ConsumeSym(")")) return Status::InvalidArgument("expected )");
    Statement st;
    st.node = std::move(s);
    return st;
  }

  Result<Statement> ParseDrop() {
    Advance();  // DROP
    if (!ConsumeKeyword("TABLE")) {
      return Status::InvalidArgument("only DROP TABLE is supported");
    }
    DropTableStmt s;
    if (PeekKeyword("IF")) {
      Advance();
      if (!ConsumeKeyword("EXISTS")) {
        return Status::InvalidArgument("expected EXISTS after IF");
      }
      s.if_exists = true;
    }
    Result<TableRef> tr = ExpectTableRef();
    if (!tr.ok()) return tr.status();
    s.table = tr.TakeValue();
    Statement st;
    st.node = std::move(s);
    return st;
  }

  Result<Statement> ParseInsert() {
    Advance();  // INSERT
    if (!ConsumeKeyword("INTO")) return Status::InvalidArgument("expected INTO");
    InsertStmt s;
    Result<TableRef> tr = ExpectTableRef();
    if (!tr.ok()) return tr.status();
    s.table = tr.TakeValue();
    if (PeekSym("(")) {
      Advance();
      while (true) {
        Result<std::string> c = ExpectIdent();
        if (!c.ok()) return c.status();
        s.columns.push_back(c.TakeValue());
        if (ConsumeSym(",")) continue;
        break;
      }
      if (!ConsumeSym(")")) return Status::InvalidArgument("expected )");
    }
    if (!ConsumeKeyword("VALUES")) {
      return Status::InvalidArgument("expected VALUES");
    }
    while (true) {
      if (!ConsumeSym("(")) return Status::InvalidArgument("expected (");
      std::vector<ExprPtr> row;
      while (true) {
        Result<ExprPtr> e = ParseExpr();
        if (!e.ok()) return e.status();
        row.push_back(e.TakeValue());
        if (ConsumeSym(",")) continue;
        break;
      }
      if (!ConsumeSym(")")) return Status::InvalidArgument("expected )");
      s.rows.push_back(std::move(row));
      if (ConsumeSym(",")) continue;
      break;
    }
    Statement st;
    st.node = std::move(s);
    return st;
  }

  Result<Statement> ParseUpdate() {
    Advance();  // UPDATE
    UpdateStmt s;
    Result<TableRef> tr = ExpectTableRef();
    if (!tr.ok()) return tr.status();
    s.table = tr.TakeValue();
    if (!ConsumeKeyword("SET")) return Status::InvalidArgument("expected SET");
    while (true) {
      Result<std::string> col = ExpectIdent();
      if (!col.ok()) return col.status();
      if (!ConsumeSym("=")) return Status::InvalidArgument("expected =");
      Result<ExprPtr> e = ParseExpr();
      if (!e.ok()) return e.status();
      s.sets.emplace_back(col.TakeValue(), e.TakeValue());
      if (ConsumeSym(",")) continue;
      break;
    }
    if (PeekKeyword("WHERE")) {
      Advance();
      Result<ExprPtr> e = ParseExpr();
      if (!e.ok()) return e.status();
      s.where = e.TakeValue();
    }
    Statement st;
    st.node = std::move(s);
    return st;
  }

  Result<Statement> ParseDelete() {
    Advance();  // DELETE
    if (!ConsumeKeyword("FROM")) return Status::InvalidArgument("expected FROM");
    DeleteStmt s;
    Result<TableRef> tr = ExpectTableRef();
    if (!tr.ok()) return tr.status();
    s.table = tr.TakeValue();
    if (PeekKeyword("WHERE")) {
      Advance();
      Result<ExprPtr> e = ParseExpr();
      if (!e.ok()) return e.status();
      s.where = e.TakeValue();
    }
    Statement st;
    st.node = std::move(s);
    return st;
  }

  Result<SelectStmt> ParseSelect() {
    Advance();  // SELECT
    SelectStmt s;
    if (PeekSym("*")) {
      Advance();
      s.star = true;
    } else {
      while (true) {
        SelectItem item;
        if (PeekAgg(&item.agg)) {
          Advance();
          if (!ConsumeSym("(")) return Status::InvalidArgument("expected (");
          if (item.agg == AggFunc::kCount && PeekSym("*")) {
            Advance();
          } else {
            Result<ExprPtr> e = ParseExpr();
            if (!e.ok()) return e.status();
            item.expr = e.TakeValue();
          }
          if (!ConsumeSym(")")) return Status::InvalidArgument("expected )");
        } else {
          Result<ExprPtr> e = ParseExpr();
          if (!e.ok()) return e.status();
          item.expr = e.TakeValue();
        }
        s.items.push_back(std::move(item));
        if (ConsumeSym(",")) continue;
        break;
      }
    }
    if (!ConsumeKeyword("FROM")) return Status::InvalidArgument("expected FROM");
    Result<TableRef> tr = ExpectTableRef();
    if (!tr.ok()) return tr.status();
    s.table = tr.TakeValue();
    if (PeekKeyword("WHERE")) {
      Advance();
      Result<ExprPtr> e = ParseExpr();
      if (!e.ok()) return e.status();
      s.where = e.TakeValue();
    }
    if (PeekKeyword("ORDER")) {
      Advance();
      if (!ConsumeKeyword("BY")) return Status::InvalidArgument("expected BY");
      while (true) {
        OrderKey key;
        Result<std::string> c = ExpectIdent();
        if (!c.ok()) return c.status();
        key.column = c.TakeValue();
        if (PeekKeyword("DESC")) {
          Advance();
          key.descending = true;
        } else if (PeekKeyword("ASC")) {
          Advance();
        }
        s.order_by.push_back(std::move(key));
        if (ConsumeSym(",")) continue;
        break;
      }
    }
    if (PeekKeyword("LIMIT")) {
      Advance();
      if (Peek().kind != TokKind::kInt) {
        return Status::InvalidArgument("expected integer after LIMIT");
      }
      s.limit = Peek().int_val;
      Advance();
    }
    if (PeekKeyword("FOR")) {
      Advance();
      if (!ConsumeKeyword("UPDATE")) {
        return Status::InvalidArgument("expected UPDATE after FOR");
      }
      s.for_update = true;
    }
    return s;
  }

  Result<Statement> ParseCall() {
    Advance();  // CALL
    CallStmt s;
    Result<std::string> name = ExpectIdent();
    if (!name.ok()) return name.status();
    s.procedure = name.TakeValue();
    if (!ConsumeSym("(")) return Status::InvalidArgument("expected (");
    if (!PeekSym(")")) {
      while (true) {
        Result<ExprPtr> e = ParseExpr();
        if (!e.ok()) return e.status();
        s.args.push_back(e.TakeValue());
        if (ConsumeSym(",")) continue;
        break;
      }
    }
    if (!ConsumeSym(")")) return Status::InvalidArgument("expected )");
    Statement st;
    st.node = std::move(s);
    return st;
  }

  // --- Expressions (precedence climbing) ---------------------------------

  Result<ExprPtr> ParseExpr() { return ParseOr(); }

  Result<ExprPtr> ParseOr() {
    Result<ExprPtr> lhs = ParseAnd();
    if (!lhs.ok()) return lhs;
    ExprPtr e = lhs.TakeValue();
    while (PeekKeyword("OR")) {
      Advance();
      Result<ExprPtr> rhs = ParseAnd();
      if (!rhs.ok()) return rhs;
      e = Expr::Binary(BinaryOp::kOr, std::move(e), rhs.TakeValue());
    }
    return e;
  }

  Result<ExprPtr> ParseAnd() {
    Result<ExprPtr> lhs = ParseNot();
    if (!lhs.ok()) return lhs;
    ExprPtr e = lhs.TakeValue();
    while (PeekKeyword("AND")) {
      Advance();
      Result<ExprPtr> rhs = ParseNot();
      if (!rhs.ok()) return rhs;
      e = Expr::Binary(BinaryOp::kAnd, std::move(e), rhs.TakeValue());
    }
    return e;
  }

  Result<ExprPtr> ParseNot() {
    if (PeekKeyword("NOT")) {
      Advance();
      Result<ExprPtr> arg = ParseNot();
      if (!arg.ok()) return arg;
      return Expr::Unary(UnaryOp::kNot, arg.TakeValue());
    }
    return ParseComparison();
  }

  Result<ExprPtr> ParseComparison() {
    Result<ExprPtr> lhs = ParseAdditive();
    if (!lhs.ok()) return lhs;
    ExprPtr e = lhs.TakeValue();
    if (PeekKeyword("IS")) {
      Advance();
      bool negate = false;
      if (PeekKeyword("NOT")) {
        Advance();
        negate = true;
      }
      if (!ConsumeKeyword("NULL")) {
        return Status::InvalidArgument("expected NULL after IS");
      }
      // col IS NULL  ==>  col = NULL (engine compares NULL equal to NULL
      // here, a documented dialect simplification).
      ExprPtr cmp =
          Expr::Binary(BinaryOp::kEq, std::move(e), Expr::Lit(Value::Null()));
      if (negate) cmp = Expr::Unary(UnaryOp::kNot, std::move(cmp));
      return cmp;
    }
    if (PeekKeyword("IN")) {
      Advance();
      if (!ConsumeSym("(")) return Status::InvalidArgument("expected ( after IN");
      if (PeekKeyword("SELECT")) {
        Result<SelectStmt> sub = ParseSelect();
        if (!sub.ok()) return sub.status();
        if (!ConsumeSym(")")) return Status::InvalidArgument("expected )");
        auto subp = std::make_unique<SelectStmt>(std::move(sub.value()));
        return Expr::InSubquery(std::move(e), std::move(subp));
      }
      // Value list: expand to an OR chain over equality tests.
      ExprPtr chain;
      while (true) {
        Result<ExprPtr> v = ParseExpr();
        if (!v.ok()) return v.status();
        ExprPtr cmp = Expr::Binary(BinaryOp::kEq, e->Clone(), v.TakeValue());
        chain = chain ? Expr::Binary(BinaryOp::kOr, std::move(chain),
                                     std::move(cmp))
                      : std::move(cmp);
        if (ConsumeSym(",")) continue;
        break;
      }
      if (!ConsumeSym(")")) return Status::InvalidArgument("expected )");
      return chain;
    }
    static constexpr std::pair<std::string_view, BinaryOp> kCmps[] = {
        {"=", BinaryOp::kEq},  {"<>", BinaryOp::kNe}, {"<=", BinaryOp::kLe},
        {">=", BinaryOp::kGe}, {"<", BinaryOp::kLt},  {">", BinaryOp::kGt},
    };
    for (const auto& [sym, op] : kCmps) {
      if (PeekSym(sym)) {
        Advance();
        Result<ExprPtr> rhs = ParseAdditive();
        if (!rhs.ok()) return rhs;
        return Expr::Binary(op, std::move(e), rhs.TakeValue());
      }
    }
    return e;
  }

  Result<ExprPtr> ParseAdditive() {
    Result<ExprPtr> lhs = ParseMultiplicative();
    if (!lhs.ok()) return lhs;
    ExprPtr e = lhs.TakeValue();
    while (PeekSym("+") || PeekSym("-")) {
      BinaryOp op = PeekSym("+") ? BinaryOp::kAdd : BinaryOp::kSub;
      Advance();
      Result<ExprPtr> rhs = ParseMultiplicative();
      if (!rhs.ok()) return rhs;
      e = Expr::Binary(op, std::move(e), rhs.TakeValue());
    }
    return e;
  }

  Result<ExprPtr> ParseMultiplicative() {
    Result<ExprPtr> lhs = ParseUnary();
    if (!lhs.ok()) return lhs;
    ExprPtr e = lhs.TakeValue();
    while (PeekSym("*") || PeekSym("/") || PeekSym("%")) {
      BinaryOp op = PeekSym("*") ? BinaryOp::kMul
                                 : (PeekSym("/") ? BinaryOp::kDiv : BinaryOp::kMod);
      Advance();
      Result<ExprPtr> rhs = ParseUnary();
      if (!rhs.ok()) return rhs;
      e = Expr::Binary(op, std::move(e), rhs.TakeValue());
    }
    return e;
  }

  Result<ExprPtr> ParseUnary() {
    if (PeekSym("-")) {
      Advance();
      Result<ExprPtr> arg = ParseUnary();
      if (!arg.ok()) return arg;
      return Expr::Unary(UnaryOp::kNeg, arg.TakeValue());
    }
    return ParsePrimary();
  }

  Result<ExprPtr> ParsePrimary() {
    const Token& t = Peek();
    switch (t.kind) {
      case TokKind::kInt: {
        int64_t v = t.int_val;
        Advance();
        return Expr::Lit(Value::Int(v));
      }
      case TokKind::kDouble: {
        double v = t.dbl_val;
        Advance();
        return Expr::Lit(Value::Double(v));
      }
      case TokKind::kString: {
        std::string v = StringValue(t);
        Advance();
        return Expr::Lit(Value::String(std::move(v)));
      }
      case TokKind::kSym:
        if (t.text == "(") {
          Advance();
          Result<ExprPtr> e = ParseExpr();
          if (!e.ok()) return e;
          if (!ConsumeSym(")")) return Status::InvalidArgument("expected )");
          return e;
        }
        return Status::InvalidArgument("unexpected symbol '" +
                                       std::string(t.text) + "'");
      case TokKind::kIdent:
        return ParseIdentExpr();
      case TokKind::kEof:
        return Status::InvalidArgument("unexpected end of input in expression");
    }
    return Status::InvalidArgument("unexpected token");
  }

  Result<ExprPtr> ParseIdentExpr() {
    const Token& t = Peek();
    if (EqualsKeyword(t.text, "NULL")) {
      Advance();
      return Expr::Lit(Value::Null());
    }
    if (EqualsKeyword(t.text, "TRUE")) {
      Advance();
      return Expr::Lit(Value::Bool(true));
    }
    if (EqualsKeyword(t.text, "FALSE")) {
      Advance();
      return Expr::Lit(Value::Bool(false));
    }
    if (EqualsKeyword(t.text, "CURRENT_TIMESTAMP")) {
      Advance();
      // Parenless form allowed, like in standard SQL.
      if (PeekSym("(")) {
        Advance();
        if (!ConsumeSym(")")) return Status::InvalidArgument("expected )");
      }
      return Expr::Func0(FuncKind::kNow);
    }
    static constexpr std::pair<std::string_view, FuncKind> kFuncs[] = {
        {"NOW", FuncKind::kNow},     {"RAND", FuncKind::kRand},
        {"RANDOM", FuncKind::kRand}, {"ABS", FuncKind::kAbs},
        {"LOWER", FuncKind::kLower}, {"UPPER", FuncKind::kUpper},
    };
    for (const auto& [name, fk] : kFuncs) {
      if (EqualsKeyword(t.text, name) && PeekSymAt(1, "(")) {
        Advance();  // name
        Advance();  // (
        auto e = Expr::Func0(fk);
        if (!PeekSym(")")) {
          while (true) {
            Result<ExprPtr> arg = ParseExpr();
            if (!arg.ok()) return arg;
            e->children.push_back(arg.TakeValue());
            if (ConsumeSym(",")) continue;
            break;
          }
        }
        if (!ConsumeSym(")")) return Status::InvalidArgument("expected )");
        return e;
      }
    }
    if (EqualsKeyword(t.text, "NEXTVAL") && PeekSymAt(1, "(")) {
      Advance();
      Advance();
      std::string seq;
      if (Peek().kind == TokKind::kString) {
        seq = StringValue(Peek());
        Advance();
      } else if (Peek().kind == TokKind::kIdent) {
        seq = std::string(Peek().text);
        Advance();
      } else {
        return Status::InvalidArgument("expected sequence name in NEXTVAL");
      }
      if (!ConsumeSym(")")) return Status::InvalidArgument("expected )");
      return Expr::Nextval(std::move(seq));
    }
    // Plain column reference.
    Advance();
    return Expr::Col(std::string(t.text));
  }

  // --- Token helpers ------------------------------------------------------

  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < toks_.size() ? toks_[i] : toks_.back();
  }
  void Advance() {
    if (pos_ < toks_.size() - 1) ++pos_;
  }
  bool AtEof() const { return Peek().kind == TokKind::kEof; }
  bool PeekKeyword(std::string_view kw) const {
    return Peek().kind == TokKind::kIdent && EqualsKeyword(Peek().text, kw);
  }
  bool PeekSym(std::string_view s) const { return PeekSymAt(0, s); }
  bool PeekSymAt(size_t ahead, std::string_view s) const {
    return Peek(ahead).kind == TokKind::kSym && Peek(ahead).text == s;
  }
  bool ConsumeKeyword(std::string_view kw) {
    if (PeekKeyword(kw)) {
      Advance();
      return true;
    }
    return false;
  }
  bool ConsumeSym(std::string_view s) {
    if (PeekSym(s)) {
      Advance();
      return true;
    }
    return false;
  }
  bool ConsumeIfNotExists() {
    if (PeekKeyword("IF")) {
      Advance();
      ConsumeKeyword("NOT");
      ConsumeKeyword("EXISTS");
      return true;
    }
    return false;
  }
  bool PeekAgg(AggFunc* out) const {
    if (Peek().kind != TokKind::kIdent || !PeekSymAt(1, "(")) return false;
    std::string_view u = Peek().text;
    if (EqualsKeyword(u, "COUNT")) *out = AggFunc::kCount;
    else if (EqualsKeyword(u, "SUM")) *out = AggFunc::kSum;
    else if (EqualsKeyword(u, "MIN")) *out = AggFunc::kMin;
    else if (EqualsKeyword(u, "MAX")) *out = AggFunc::kMax;
    else if (EqualsKeyword(u, "AVG")) *out = AggFunc::kAvg;
    else return false;
    return true;
  }

  Result<std::string> ExpectIdent() {
    if (Peek().kind != TokKind::kIdent) {
      return Status::InvalidArgument("expected identifier, got '" +
                                     Quoted(Peek()) + "'");
    }
    std::string s(Peek().text);
    Advance();
    return s;
  }

  Result<TableRef> ExpectTableRef() {
    Result<std::string> first = ExpectIdent();
    if (!first.ok()) return first.status();
    TableRef tr;
    if (PeekSym(".")) {
      Advance();
      Result<std::string> second = ExpectIdent();
      if (!second.ok()) return second.status();
      tr.database = first.TakeValue();
      tr.table = second.TakeValue();
    } else {
      tr.table = first.TakeValue();
    }
    return tr;
  }

  Result<ValueType> ExpectType() {
    if (Peek().kind != TokKind::kIdent) {
      return Status::InvalidArgument("expected type name");
    }
    auto is = [u = Peek().text](std::string_view kw) {
      return EqualsKeyword(u, kw);
    };
    ValueType t;
    if (is("INT") || is("INTEGER") || is("BIGINT")) {
      t = ValueType::kInt;
    } else if (is("DOUBLE") || is("FLOAT") || is("REAL") || is("DECIMAL")) {
      t = ValueType::kDouble;
    } else if (is("TEXT") || is("VARCHAR") || is("CHAR") || is("STRING") ||
               is("CLOB") || is("BLOB")) {
      t = ValueType::kString;
    } else if (is("BOOL") || is("BOOLEAN")) {
      t = ValueType::kBool;
    } else {
      return Status::InvalidArgument("unknown type '" +
                                     std::string(Peek().text) + "'");
    }
    Advance();
    // Optional (n) length suffix, ignored (VARCHAR(255)).
    if (PeekSym("(")) {
      Advance();
      if (Peek().kind == TokKind::kInt) Advance();
      if (!ConsumeSym(")")) return Status::InvalidArgument("expected )");
    }
    return t;
  }

  std::vector<Token> toks_;
  size_t pos_ = 0;
};

}  // namespace

Result<Statement> Parse(const std::string& sql) {
  std::vector<Token> toks;
  Status lexed = Lexer(sql).Tokenize(&toks);
  if (!lexed.ok()) return lexed;
  Parser parser(std::move(toks));
  return parser.ParseStatement();
}

}  // namespace replidb::sql
