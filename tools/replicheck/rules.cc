#include "rules.h"

namespace replicheck {
namespace {

void CheckRng(SourceFile& f, Reporter& rep) {
  if (f.rel_path == "src/common/rng.h") return;
  static const std::set<std::string> kBanned = {
      "rand",          "srand",      "rand_r",
      "random_device", "mt19937",    "mt19937_64",
      "minstd_rand",   "minstd_rand0", "default_random_engine",
  };
  const auto& t = f.tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Token::kIdent || !kBanned.count(t[i].text)) continue;
    // `rand`/`srand` must look like a call; the std engines are flagged on
    // any mention (declaration or construction).
    bool call_like = i + 1 < t.size() && t[i + 1].text == "(";
    bool engine = t[i].text != "rand" && t[i].text != "srand" &&
                  t[i].text != "rand_r";
    if (!call_like && !engine) continue;
    // Member access (foo.rand(), rng->rand()) is someone's API, not libc.
    if (i > 0 && (t[i - 1].text == "." || t[i - 1].text == ">")) continue;
    rep.Flag(f.rel_path, t[i].line, "raw-rng",
             "'" + t[i].text +
                 "' — all randomness goes through replidb::Rng "
                 "(src/common/rng.h) with a seed plumbed from scenario "
                 "config");
  }
}

void CheckClock(SourceFile& f, Reporter& rep) {
  if (!StartsWith(f.rel_path, "src/")) return;
  static const std::set<std::string> kBannedClocks = {
      "system_clock", "steady_clock", "high_resolution_clock",
      "gettimeofday", "clock_gettime", "timespec_get", "ftime",
  };
  const auto& t = f.tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Token::kIdent) continue;
    const std::string& id = t[i].text;
    if (kBannedClocks.count(id)) {
      if (i > 0 && (t[i - 1].text == ".")) continue;
      rep.Flag(f.rel_path, t[i].line, "wall-clock",
               "'" + id +
                   "' — simulation code runs on sim::Simulator virtual "
                   "time; wall clocks diverge across replicas (paper §4, "
                   "NOW())");
      continue;
    }
    // Argless time() / clock(): time(), time(0), time(nullptr), time(NULL).
    if ((id == "time" || id == "clock") && i + 1 < t.size() &&
        t[i + 1].text == "(") {
      if (i > 0 && (t[i - 1].text == "." || t[i - 1].text == ">" ||
                    t[i - 1].text == ":" || t[i - 1].kind == Token::kIdent)) {
        continue;  // Member access, qualified name, or a declaration.
      }
      size_t j = i + 2;
      bool argless =
          j < t.size() &&
          (t[j].text == ")" ||
           ((t[j].text == "0" || t[j].text == "nullptr" ||
             t[j].text == "NULL") &&
            j + 1 < t.size() && t[j + 1].text == ")"));
      if (!argless) continue;
      rep.Flag(f.rel_path, t[i].line, "wall-clock",
               "'" + id +
                   "()' — wall-clock reads are nondeterministic; use the "
                   "simulator clock");
    }
  }
}

void CheckAddrIdentity(SourceFile& f, Reporter& rep) {
  if (!StartsWith(f.rel_path, "src/")) return;
  for (const auto& [line, content] : f.strings_by_line) {
    if (content.find("%p") != std::string::npos) {
      rep.Flag(f.rel_path, line, "addr-identity",
               "\"%p\" formats an address — run-local identity must never "
               "reach logs or replicated output");
    }
  }
  // std::map / std::set keyed by a pointer: comparison order is address
  // order, i.e. per-run.
  static const std::set<std::string> kOrdered = {"map", "set", "multimap",
                                                 "multiset"};
  const auto& t = f.tokens;
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != Token::kIdent || !kOrdered.count(t[i].text)) continue;
    if (t[i + 1].text != "<") continue;
    // First top-level template argument.
    int depth = 1;
    bool ptr_key = false;
    size_t j = i + 2;
    std::string prev;
    for (; j < t.size() && depth > 0; ++j) {
      const std::string& x = t[j].text;
      if (x == "<" || x == "(") ++depth;
      else if (x == ">" || x == ")") --depth;
      else if (depth == 1 && x == ",") break;
      if (depth >= 1) {
        if (x == "*" && !prev.empty()) ptr_key = true;
        else if (x != "const") ptr_key = ptr_key && x == "*";
        prev = x;
      }
    }
    if (ptr_key) {
      rep.Flag(f.rel_path, t[i].line, "addr-identity",
               "ordered container keyed by a pointer — iteration order is "
               "address order, which varies run to run");
    }
  }
}

void CheckUnorderedIter(Tree& tree, SourceFile& f, Reporter& rep) {
  static const char* const kTagged[] = {"src/engine/", "src/ship/",
                                        "src/middleware/", "src/gcs/",
                                        "src/audit/"};
  bool tagged = false;
  for (const char* d : kTagged) tagged = tagged || StartsWith(f.rel_path, d);
  if (!tagged) return;
  const std::set<std::string>& names = tree.UnorderedNames(f.rel_path);
  if (names.empty()) return;
  const auto& t = f.tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    // Range-for over an unordered container: for ( ... : NAME )
    if (t[i].kind == Token::kIdent && t[i].text == "for" &&
        i + 1 < t.size() && t[i + 1].text == "(") {
      int depth = 0;
      size_t colon = 0;
      size_t close = 0;
      for (size_t j = i + 1; j < t.size(); ++j) {
        const std::string& x = t[j].text;
        if (x == "(" || x == "[" || x == "{") ++depth;
        else if (x == ")" || x == "]" || x == "}") {
          if (--depth == 0) { close = j; break; }
        } else if (x == ":" && depth == 1 && colon == 0) {
          // Skip `::` qualifications.
          if (t[j - 1].text == ":" ||
              (j + 1 < t.size() && t[j + 1].text == ":")) {
            continue;
          }
          colon = j;
        } else if (x == ";" && depth == 1) {
          colon = 0;  // Classic for; no range.
          break;
        }
      }
      if (colon != 0 && close > colon) {
        // Sequence expression: take the final identifier in the chain if
        // the whole range is an identifier chain (a.b->c_).
        size_t last = close - 1;
        if (t[last].kind == Token::kIdent && names.count(t[last].text)) {
          rep.Flag(f.rel_path, t[last].line, "unordered-iter",
                   "range-for over unordered container '" + t[last].text +
                       "' in a replication-visible file — hash order must "
                       "not reach the replication stream (sort first or use "
                       "std::map)");
        }
      }
    }
    // NAME.begin() / NAME.cbegin() / NAME.rbegin()
    if (t[i].kind == Token::kIdent && names.count(t[i].text) &&
        i + 3 < t.size() && t[i + 1].text == "." &&
        (t[i + 2].text == "begin" || t[i + 2].text == "cbegin" ||
         t[i + 2].text == "rbegin") &&
        t[i + 3].text == "(") {
      rep.Flag(f.rel_path, t[i].line, "unordered-iter",
               "iterator over unordered container '" + t[i].text +
                   "' in a replication-visible file — hash order must not "
                   "reach the replication stream");
    }
  }
}

void CheckSendSize(SourceFile& f, Reporter& rep) {
  if (!StartsWith(f.rel_path, "src/")) return;
  const auto& t = f.tokens;
  for (size_t i = 1; i + 1 < t.size(); ++i) {
    if (t[i].kind != Token::kIdent || t[i].text != "Send") continue;
    const std::string& before = t[i - 1].text;
    if (before != "." && before != ">") continue;  // obj.Send / ptr->Send
    if (t[i + 1].text != "(") continue;
    // Find the final top-level argument.
    int depth = 0;
    size_t last_arg_start = i + 2;
    size_t close = 0;
    for (size_t j = i + 1; j < t.size(); ++j) {
      const std::string& x = t[j].text;
      if (x == "(" || x == "[" || x == "{") ++depth;
      else if (x == ")" || x == "]" || x == "}") {
        if (--depth == 0) { close = j; break; }
      } else if (x == "," && depth == 1) {
        last_arg_start = j + 1;
      } else if (x == ";" && depth == 0) {
        break;
      }
    }
    if (close == 0 || close <= last_arg_start) continue;
    if (close - last_arg_start == 1 &&
        t[last_arg_start].kind == Token::kNumber) {
      rep.Flag(f.rel_path, t[last_arg_start].line, "send-size",
               "Send size_bytes is the bare literal '" +
                   t[last_arg_start].text +
                   "' — pass a named wire-size constant or compute it from "
                   "the payload so modeled bandwidth tracks the message");
    }
  }
}

void CheckMutex(SourceFile& f, Reporter& rep, TokenRuleStats* stats) {
  if (!StartsWith(f.rel_path, "src/")) return;
  if (f.rel_path == "src/common/locks.h" ||
      f.rel_path == "src/common/locks.cc") {
    return;
  }
  static const std::set<std::string> kMutexTypes = {
      "mutex", "recursive_mutex", "shared_mutex", "timed_mutex",
      "recursive_timed_mutex"};
  const auto& t = f.tokens;
  for (size_t i = 2; i < t.size(); ++i) {
    if (t[i].kind != Token::kIdent || !kMutexTypes.count(t[i].text)) continue;
    if (!(t[i - 1].text == ":" && t[i - 2].text == ":")) continue;
    if (i >= 3 && t[i - 3].text != "std") continue;
    // std::lock_guard<std::mutex> as a *type argument* is still a raw-mutex
    // mention; after migration every guard names OrderedMutex, so any
    // std::mutex token in src/ outside locks.h is a violation.
    rep.Flag(f.rel_path, t[i].line, "raw-mutex",
             "raw std::" + t[i].text +
                 " — declare a rank in the lock-order table and use "
                 "common::OrderedMutex (src/common/locks.h)");
  }
  // Count acquisition sites for the report.
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind == Token::kIdent &&
        (t[i].text == "lock_guard" || t[i].text == "scoped_lock" ||
         t[i].text == "unique_lock")) {
      ++stats->lock_sites;
    }
  }
}

void CheckLockRanks(SourceFile& f, const std::set<std::string>& declared,
                    Reporter& rep) {
  const auto& t = f.tokens;
  for (size_t i = 0; i + 3 < t.size(); ++i) {
    if (t[i].kind == Token::kIdent && t[i].text == "LockRank" &&
        t[i + 1].text == ":" && t[i + 2].text == ":" &&
        t[i + 3].kind == Token::kIdent) {
      // `LockRank::k##name` inside the X-macro expansion in locks.cc is
      // token-paste plumbing, not a rank mention.
      if (i + 4 < t.size() && t[i + 4].text == "#") continue;
      const std::string& rank = t[i + 3].text;
      if (!declared.count(rank)) {
        rep.Flag(f.rel_path, t[i].line, "lock-rank",
                 "LockRank::" + rank +
                     " is not declared in the lock-order table in "
                     "src/common/locks.h");
      }
    }
  }
}

void CheckWaitState(SourceFile& f, Reporter& rep) {
  if (!StartsWith(f.rel_path, "src/")) return;
  const auto& t = f.tokens;
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != Token::kIdent || t[i].text != "RecordWait") continue;
    if (t[i + 1].text != "(") continue;
    // String literals are blanked by StripAndRecord, so one shows up as a
    // pair of '"' punct tokens inside the argument list.
    int depth = 0;
    int bad_line = 0;
    for (size_t j = i + 1; j < t.size(); ++j) {
      const std::string& x = t[j].text;
      if (x == "(") ++depth;
      else if (x == ")") {
        if (--depth == 0) break;
      } else if (x == ";" && depth == 0) {
        break;
      } else if (x == "\"" && bad_line == 0) {
        bad_line = t[j].line;
      }
    }
    if (bad_line == 0) continue;
    rep.Flag(f.rel_path, bad_line, "wait-state",
             "string literal in a RecordWait(...) call — wait-edge sites "
             "name a typed obs::WaitState enum value so the wait-state "
             "taxonomy stays closed (see src/obs/critical_path.h)");
  }
}

void CheckRawIo(SourceFile& f, Reporter& rep) {
  // Durability is a protocol, not a convenience: every byte that claims
  // to survive a crash must flow through binlog::LogStore, where fsync
  // semantics, torn writes and partial syncs are modeled and tested. A
  // stray open/write/fsync elsewhere in src/ is durable state the crash
  // harness cannot see.
  if (!StartsWith(f.rel_path, "src/")) return;
  if (StartsWith(f.rel_path, "src/binlog/")) return;
  static const std::set<std::string> kRawIoFns = {
      "open",   "openat",    "creat",     "write",  "pwrite",
      "writev", "fsync",     "fdatasync", "ftruncate",
      "fopen",  "fwrite",    "rename",    "unlink"};
  const auto& t = f.tokens;
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != Token::kIdent || !kRawIoFns.count(t[i].text)) continue;
    if (t[i + 1].text != "(") continue;
    if (i > 0) {
      const std::string& prev = t[i - 1].text;
      // Member calls (file.open, stream->write) are not POSIX I/O.
      if (prev == ".") continue;
      if (prev == ">" && i > 1 && t[i - 2].text == "-") continue;
      if (prev == ":") {
        // Qualified: std::fopen / ::open are raw I/O; any other
        // namespace's identically-named function is not.
        bool std_or_global =
            i < 3 || t[i - 3].kind != Token::kIdent || t[i - 3].text == "std";
        if (!std_or_global) continue;
      }
    }
    rep.Flag(f.rel_path, t[i].line, "raw-io",
             "raw file I/O (" + t[i].text +
                 ") outside src/binlog — durable bytes must go through "
                 "binlog::LogStore so crash/torn-write/partial-fsync faults "
                 "cover them");
  }
}

void CheckAnyCopy(SourceFile& f, Reporter& rep) {
  // A message body is read in place: net::Dispatcher::On<T> hands the
  // handler a const T&. A by-value std::any_cast of `.body` deep-copies
  // the whole body (a writeset, a row set, a table image) on every
  // delivery, and a handler should copy only what it keeps.
  if (!StartsWith(f.rel_path, "src/")) return;
  const auto& t = f.tokens;
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != Token::kIdent || t[i].text != "any_cast" ||
        t[i + 1].text != "<") {
      continue;
    }
    int depth = 0;
    size_t close_tmpl = 0;
    for (size_t j = i + 1; j < t.size(); ++j) {
      if (t[j].text == "<") {
        ++depth;
      } else if (t[j].text == ">" && --depth == 0) {
        close_tmpl = j;
        break;
      }
    }
    if (close_tmpl == 0 || close_tmpl + 2 >= t.size() ||
        t[close_tmpl + 1].text != "(") {
      continue;
    }
    // any_cast<const T&>(...) binds a reference, and any_cast<T>(&...)
    // returns a pointer: neither copies.
    if (t[close_tmpl - 1].text == "&" || t[close_tmpl + 2].text == "&") {
      continue;
    }
    int parens = 0;
    size_t close_arg = 0;
    for (size_t j = close_tmpl + 1; j < t.size(); ++j) {
      if (t[j].text == "(") {
        ++parens;
      } else if (t[j].text == ")" && --parens == 0) {
        close_arg = j;
        break;
      }
    }
    if (close_arg == 0 || t[close_arg - 1].text != "body") continue;
    rep.Flag(f.rel_path, t[i].line, "any-copy",
             "by-value std::any_cast of a message body copies all of it — "
             "read it in place (net::Dispatcher::On<T> hands a const T&) "
             "and copy only what the handler keeps");
  }
}

void CheckCodecRegistry(Tree& tree, Reporter& rep) {
  SourceFile* msgs = tree.Find("src/middleware/messages.h");
  SourceFile* reg = tree.Find("src/middleware/wire_registry.h");
  if (msgs == nullptr) return;  // Fixture trees may not have one.
  // Registered names: X(Name, tag) entries.
  std::set<std::string> registered;
  if (reg != nullptr) {
    const auto& t = reg->tokens;
    for (size_t i = 0; i + 2 < t.size(); ++i) {
      if (t[i].kind == Token::kIdent && t[i].text == "X" &&
          t[i + 1].text == "(" && t[i + 2].kind == Token::kIdent) {
        registered.insert(t[i + 2].text);
      }
    }
  }
  const auto& t = msgs->tokens;
  for (size_t i = 0; i + 2 < t.size(); ++i) {
    if (t[i].kind == Token::kIdent && t[i].text == "struct" &&
        t[i + 1].kind == Token::kIdent && t[i + 2].text == "{") {
      const std::string& name = t[i + 1].text;
      if (!registered.count(name)) {
        rep.Flag(msgs->rel_path, t[i].line, "codec-registry",
                 "struct " + name +
                     " is not registered in REPLIDB_WIRE_MESSAGES "
                     "(src/middleware/wire_registry.h)");
      }
    }
  }
}

}  // namespace

void RunTokenRules(Tree& tree, const std::set<std::string>& declared_ranks,
                   Reporter& rep, TokenRuleStats* stats) {
  for (auto& [rel, f] : tree.files()) {
    CheckRng(f, rep);
    CheckClock(f, rep);
    CheckAddrIdentity(f, rep);
    CheckUnorderedIter(tree, f, rep);
    CheckSendSize(f, rep);
    CheckMutex(f, rep, stats);
    CheckLockRanks(f, declared_ranks, rep);
    CheckWaitState(f, rep);
    CheckRawIo(f, rep);
    CheckAnyCopy(f, rep);
  }
  CheckCodecRegistry(tree, rep);
}

}  // namespace replicheck
