// replicheck — repo-specific determinism & concurrency lint for replidb.
//
// The paper's central practical gap is *silent replica divergence*
// (Cecchet et al., SIGMOD'08 §4): nondeterminism that leaks into the
// replication stream corrupts replicas without raising any error. This
// tool enforces the repo invariants that keep our own C++ on the right
// side of that line — as a whole-tree analyzer over token streams plus
// an interprocedural function-summary index (no libclang dependency).
// It runs as a ctest and a CI gate.
//
// Token rules (per-file; each can be waived per-site with
//   `// replicheck:allow(<rule>[,<rule>...]) <reason>`
// on the flagged line or the line above; every allow is inventoried):
//
//   raw-rng        rand()/srand()/std::random_device/std::mt19937 & friends
//                  anywhere outside src/common/rng.h — all randomness goes
//                  through replidb::Rng with an explicit plumbed seed.
//   wall-clock     system_clock/steady_clock/high_resolution_clock,
//                  gettimeofday/clock_gettime/timespec_get, argless time()
//                  or clock() in src/ — simulation code runs on virtual
//                  time only.
//   addr-identity  "%p" in a format string, or std::map/std::set keyed by
//                  a pointer type — addresses vary run to run, so both are
//                  run-local identity leaking into ordered output.
//   unordered-iter iteration (range-for or .begin()) over an
//                  unordered_map/unordered_set/HashMap/HashSet in a
//                  replication-visible directory (src/engine, src/ship,
//                  src/middleware, src/gcs, src/audit) — hash order must
//                  never reach the replication stream.
//   send-size      a Send(...) call site whose size_bytes argument is a
//                  bare integer literal (outside tests/bench) — sizes must
//                  be named constants or computed from the payload.
//   codec-registry a struct declared in src/middleware/messages.h that is
//                  missing from the REPLIDB_WIRE_MESSAGES inventory in
//                  src/middleware/wire_registry.h.
//   raw-mutex      a std::mutex/recursive_mutex/shared_mutex declared
//                  outside src/common/locks.h — locks carry a declared
//                  rank via common::OrderedMutex.
//   lock-rank      a LockRank::k... mention that is not declared in the
//                  lock-order table in src/common/locks.h.
//   wait-state     a string literal among the arguments of a
//                  RecordWait(...) call in src/ — critical-path wait-edge
//                  sites name typed obs::WaitState enum values.
//   raw-io         raw POSIX/stdio file I/O outside src/binlog — durable
//                  bytes must flow through binlog::LogStore.
//   any-copy       a by-value std::any_cast<...>(....body) in src/ — a
//                  handler reads its message body in place and copies
//                  only what it keeps.
//
// Flow passes (interprocedural, over src/ function summaries; see
// lock_graph.h and det_taint.h):
//
//   lock-graph     static deadlock detection: the transitive "rank B
//                  acquired while rank A held" relation must be acyclic
//                  and consistent with the declared LockRank order, and
//                  every OrderedMutex construction must name its rank.
//   dead-rank      a LockRank declared in src/common/locks.h that no
//                  OrderedMutex anywhere in src/ is constructed with.
//   det-taint      a nondeterminism source (wall clock, raw rng, pointer
//                  cast, env read, unordered iteration) that flows —
//                  possibly across calls — into the wire, the binlog, or
//                  the engine digest.
//
// Modes: --waivers audits the allow inventory (stale or reason-less
// waivers fail), --json writes machine-readable diagnostics, --lock-dot
// exports the lock graph as DOT.
//
// Exit codes: 0 clean, 1 violations (or waiver-audit failures), 2
// usage/configuration error.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "det_taint.h"
#include "lock_graph.h"
#include "model.h"
#include "rules.h"
#include "summary.h"

namespace fs = std::filesystem;

namespace {

using replicheck::Finding;

const char* const kAllRules[] = {
    "raw-rng",    "wall-clock", "addr-identity", "unordered-iter",
    "send-size",  "codec-registry", "raw-mutex", "lock-rank",
    "wait-state", "raw-io",     "any-copy",      "lock-graph",
    "dead-rank",  "det-taint",
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

struct WaiverRow {
  std::string file;
  const replicheck::AllowDirective* d;
};

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string compile_commands;
  std::string json_path;
  std::string dot_path;
  bool verbose = false;
  bool audit_waivers = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--compile-commands" && i + 1 < argc) {
      compile_commands = argv[++i];
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--lock-dot" && i + 1 < argc) {
      dot_path = argv[++i];
    } else if (arg == "--waivers") {
      audit_waivers = true;
    } else if (arg == "--verbose" || arg == "-v") {
      verbose = true;
    } else if (arg == "--list-rules") {
      for (const char* r : kAllRules) std::printf("%s\n", r);
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: replicheck --root <repo> [--compile-commands <json>]\n"
          "                  [--waivers] [--json <out>] [--lock-dot <out>]\n"
          "                  [--verbose]\n"
          "Determinism & concurrency lint for replidb (see tool header\n"
          "comment and DESIGN.md for the rule catalogue).\n"
          "  --waivers   audit the allow inventory: stale waivers and\n"
          "              waivers without a reason fail the run\n"
          "  --json      write findings + waiver inventory + pass stats\n"
          "  --lock-dot  export the static lock-order graph as DOT\n");
      return 0;
    } else {
      std::fprintf(stderr, "replicheck: unknown argument '%s'\n", arg.c_str());
      return 2;
    }
  }
  std::error_code ec;
  if (!fs::is_directory(root, ec)) {
    std::fprintf(stderr, "replicheck: --root %s is not a directory\n",
                 root.c_str());
    return 2;
  }

  replicheck::Tree tree{fs::path(root)};
  if (!tree.Load(compile_commands)) return 2;

  replicheck::Reporter rep(&tree);
  replicheck::RankTable table = replicheck::ParseRankTable(tree);
  std::set<std::string> declared_ranks;
  for (const auto& [name, value] : table.values) declared_ranks.insert(name);

  replicheck::TokenRuleStats token_stats;
  replicheck::RunTokenRules(tree, declared_ranks, rep, &token_stats);

  replicheck::FunctionIndex idx =
      replicheck::BuildFunctionIndex(tree, {"src/"});
  replicheck::LockGraphResult lock_graph;
  if (table.valid()) {
    lock_graph = replicheck::RunLockGraph(idx, table, rep);
  }
  replicheck::TaintStats taint = replicheck::RunDetTaint(tree, idx, rep);

  // ---- report ----
  std::vector<Finding> sorted = rep.findings();
  std::sort(sorted.begin(), sorted.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  for (const Finding& v : sorted) {
    std::printf("%s:%d: [%s] %s\n", v.file.c_str(), v.line, v.rule.c_str(),
                v.message.c_str());
  }

  // Allow inventory: every waiver is a documented decision; unused ones
  // are stale, reason-less ones are undocumented, and --waivers turns
  // both into failures.
  std::vector<WaiverRow> waivers;
  int unused = 0, no_reason = 0;
  for (const auto& [rel, f] : tree.files()) {
    for (const replicheck::AllowDirective& d : f.allows) {
      waivers.push_back({rel, &d});
      if (!d.used) ++unused;
      if (d.reason.empty()) ++no_reason;
      if (verbose || audit_waivers || !d.used || d.reason.empty()) {
        std::string rules;
        for (const std::string& r : d.rules) {
          if (!rules.empty()) rules += ",";
          rules += r;
        }
        std::printf("%s:%d: allow(%s)%s%s %s\n", rel.c_str(), d.line,
                    rules.c_str(), d.used ? "" : " [UNUSED]",
                    d.reason.empty() ? " [NO REASON]" : "",
                    d.reason.c_str());
      }
    }
  }

  const int allows = static_cast<int>(waivers.size());
  std::printf(
      "replicheck: %zu violation%s, %d suppressed by %d allow directiv%s "
      "(%d unused), %zu files, %d lock sites\n",
      sorted.size(), sorted.size() == 1 ? "" : "s", rep.suppressed(), allows,
      allows == 1 ? "e" : "es", unused, tree.files().size(),
      token_stats.lock_sites);
  size_t may_edges = 0;
  for (const replicheck::LockEdge& e : lock_graph.edges) {
    if (!e.must) ++may_edges;
    if (verbose) {
      std::printf("replicheck: lock-edge %s -> %s [%s] at %s:%d%s%s\n",
                  e.from.c_str(), e.to.c_str(), e.must ? "must" : "may",
                  e.file.c_str(), e.line, e.via.empty() ? "" : " via ",
                  e.via.c_str());
    }
  }
  std::printf(
      "replicheck: lock-graph %zu ranks, %zu mutexes, %zu edges (%zu may), "
      "%s; det-taint %d functions, %d tainted flows\n",
      table.values.size(), idx.mutexes.size(), lock_graph.edges.size(),
      may_edges, lock_graph.acyclic ? "acyclic" : "CYCLIC", taint.functions,
      taint.flows);
  if (audit_waivers) {
    std::printf("replicheck: waiver audit: %d waiver%s, %d stale, %d "
                "without reason\n",
                allows, allows == 1 ? "" : "s", unused, no_reason);
  }

  if (!dot_path.empty()) {
    std::ofstream out(dot_path);
    if (!out) {
      std::fprintf(stderr, "replicheck: cannot write %s\n", dot_path.c_str());
      return 2;
    }
    out << replicheck::LockGraphDot(table, lock_graph);
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "replicheck: cannot write %s\n", json_path.c_str());
      return 2;
    }
    out << "{\n  \"violations\": [";
    for (size_t i = 0; i < sorted.size(); ++i) {
      const Finding& v = sorted[i];
      out << (i ? ",\n    " : "\n    ") << "{\"file\": \""
          << JsonEscape(v.file) << "\", \"line\": " << v.line
          << ", \"rule\": \"" << JsonEscape(v.rule) << "\", \"message\": \""
          << JsonEscape(v.message) << "\"}";
    }
    out << (sorted.empty() ? "" : "\n  ") << "],\n  \"waivers\": [";
    for (size_t i = 0; i < waivers.size(); ++i) {
      const WaiverRow& w = waivers[i];
      out << (i ? ",\n    " : "\n    ") << "{\"file\": \""
          << JsonEscape(w.file) << "\", \"line\": " << w.d->line
          << ", \"rules\": [";
      for (size_t r = 0; r < w.d->rules.size(); ++r) {
        out << (r ? ", " : "") << "\"" << JsonEscape(w.d->rules[r]) << "\"";
      }
      out << "], \"reason\": \"" << JsonEscape(w.d->reason)
          << "\", \"used\": " << (w.d->used ? "true" : "false") << "}";
    }
    out << (waivers.empty() ? "" : "\n  ") << "],\n  \"summary\": {\n"
        << "    \"files\": " << tree.files().size() << ",\n"
        << "    \"violations\": " << sorted.size() << ",\n"
        << "    \"suppressed\": " << rep.suppressed() << ",\n"
        << "    \"waivers\": " << allows << ",\n"
        << "    \"unused_waivers\": " << unused << ",\n"
        << "    \"waivers_without_reason\": " << no_reason << ",\n"
        << "    \"lock_sites\": " << token_stats.lock_sites << ",\n"
        << "    \"lock_graph\": {\"ranks\": " << table.values.size()
        << ", \"mutexes\": " << idx.mutexes.size() << ", \"edges\": "
        << lock_graph.edges.size() << ", \"may_edges\": " << may_edges
        << ", \"acyclic\": " << (lock_graph.acyclic ? "true" : "false")
        << "},\n"
        << "    \"det_taint\": {\"functions\": " << taint.functions
        << ", \"flows\": " << taint.flows << "}\n  }\n}\n";
  }

  if (!sorted.empty()) return 1;
  if (audit_waivers && (unused > 0 || no_reason > 0)) return 1;
  return 0;
}
