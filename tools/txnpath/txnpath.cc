// txnpath — offline critical-path analyzer for the wait-edge sidecar that
// benches write as wait_edges.jsonl under REPLIDB_OBS_DIR (see
// src/obs/critical_path.h).
//
// The sidecar is JSONL: a header line, then one line per closed chain.
// Retained lines carry the segmented per-stage attribution ("stages") and
// feed the aggregate tables; exemplar lines additionally carry the raw
// "edges" list and are only used for the annotated worst-path rendering,
// so a chain that appears both as a retained line and as an exemplar is
// never double counted.
//
// Usage:
//   txnpath WAIT_EDGES.jsonl
//   txnpath --self-test
//
// The worst exemplar's id is the "args.txn" tag of its spans in the
// trace.json written next to the sidecar, for finding it in Perfetto.
//
// Exit codes: 0 = ok, 2 = usage/parse/IO error.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/critical_path.h"

namespace {

using replidb::obs::ChainKind;
using replidb::obs::ChainKindName;
using replidb::obs::ChainOutcome;
using replidb::obs::ChainOutcomeName;
using replidb::obs::kNumChainKinds;
using replidb::obs::kNumChainOutcomes;
using replidb::obs::kNumWaitStates;
using replidb::obs::PathSegment;
using replidb::obs::SegmentWaitEdges;
using replidb::obs::WaitEdge;
using replidb::obs::WaitState;
using replidb::obs::WaitStateName;

std::string MsFixed(double ms) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", ms);
  return buf;
}

std::string PctFixed(double pct) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f", pct);
  return buf;
}

std::optional<WaitState> WaitStateFromName(const std::string& name) {
  for (int s = 0; s < kNumWaitStates; ++s) {
    if (name == WaitStateName(static_cast<WaitState>(s))) {
      return static_cast<WaitState>(s);
    }
  }
  return std::nullopt;
}

std::optional<ChainKind> ChainKindFromName(const std::string& name) {
  for (int k = 0; k < kNumChainKinds; ++k) {
    if (name == ChainKindName(static_cast<ChainKind>(k))) {
      return static_cast<ChainKind>(k);
    }
  }
  return std::nullopt;
}

std::optional<ChainOutcome> ChainOutcomeFromName(const std::string& name) {
  for (int o = 0; o < kNumChainOutcomes; ++o) {
    if (name == ChainOutcomeName(static_cast<ChainOutcome>(o))) {
      return static_cast<ChainOutcome>(o);
    }
  }
  return std::nullopt;
}

// --- minimal parser for one sidecar line ------------------------------------
//
// Flat object with string/integer values plus one nested "stages" object
// and an optional "edges" array of ["state",start,end] triples. Anything
// unparseable fails the whole run: a corrupt sidecar should be loud.

struct SidecarChain {
  ChainKind kind = ChainKind::kClient;
  ChainOutcome outcome = ChainOutcome::kCommit;
  uint64_t id = 0;
  uint64_t sub = 0;
  int64_t open_us = 0;
  int64_t close_us = 0;
  int64_t stage_us[replidb::obs::kNumWaitStates] = {};
  std::vector<WaitEdge> edges;  ///< Non-empty only for exemplar lines.

  int64_t TotalUs() const { return close_us - open_us; }
};

void SkipWs(const std::string& s, size_t* i) {
  while (*i < s.size() && (s[*i] == ' ' || s[*i] == '\t')) ++*i;
}

std::optional<std::string> ParseString(const std::string& s, size_t* i) {
  SkipWs(s, i);
  if (*i >= s.size() || s[*i] != '"') return std::nullopt;
  ++*i;
  std::string out;
  while (*i < s.size() && s[*i] != '"') {
    if (s[*i] == '\\' && *i + 1 < s.size()) ++*i;
    out += s[(*i)++];
  }
  if (*i >= s.size()) return std::nullopt;
  ++*i;
  return out;
}

std::optional<int64_t> ParseInt(const std::string& s, size_t* i) {
  SkipWs(s, i);
  size_t start = *i;
  if (*i < s.size() && s[*i] == '-') ++*i;
  while (*i < s.size() && s[*i] >= '0' && s[*i] <= '9') ++*i;
  if (*i == start) return std::nullopt;
  return std::strtoll(s.substr(start, *i - start).c_str(), nullptr, 10);
}

bool Expect(const std::string& s, size_t* i, char c) {
  SkipWs(s, i);
  if (*i < s.size() && s[*i] == c) {
    ++*i;
    return true;
  }
  return false;
}

std::optional<SidecarChain> ParseChainLine(const std::string& line) {
  SidecarChain c;
  size_t i = 0;
  if (!Expect(line, &i, '{')) return std::nullopt;
  while (true) {
    auto key = ParseString(line, &i);
    if (!key || !Expect(line, &i, ':')) return std::nullopt;
    if (*key == "kind") {
      auto v = ParseString(line, &i);
      if (!v) return std::nullopt;
      auto kind = ChainKindFromName(*v);
      if (!kind) return std::nullopt;
      c.kind = *kind;
    } else if (*key == "outcome") {
      auto v = ParseString(line, &i);
      if (!v) return std::nullopt;
      auto outcome = ChainOutcomeFromName(*v);
      if (!outcome) return std::nullopt;
      c.outcome = *outcome;
    } else if (*key == "id" || *key == "sub" || *key == "open_us" ||
               *key == "close_us") {
      auto v = ParseInt(line, &i);
      if (!v) return std::nullopt;
      if (*key == "id") c.id = static_cast<uint64_t>(*v);
      if (*key == "sub") c.sub = static_cast<uint64_t>(*v);
      if (*key == "open_us") c.open_us = *v;
      if (*key == "close_us") c.close_us = *v;
    } else if (*key == "stages") {
      if (!Expect(line, &i, '{')) return std::nullopt;
      SkipWs(line, &i);
      if (i < line.size() && line[i] == '}') {
        ++i;
      } else {
        while (true) {
          auto name = ParseString(line, &i);
          if (!name || !Expect(line, &i, ':')) return std::nullopt;
          auto v = ParseInt(line, &i);
          if (!v) return std::nullopt;
          auto state = WaitStateFromName(*name);
          if (!state) return std::nullopt;
          c.stage_us[static_cast<int>(*state)] = *v;
          if (Expect(line, &i, ',')) continue;
          if (!Expect(line, &i, '}')) return std::nullopt;
          break;
        }
      }
    } else if (*key == "edges") {
      if (!Expect(line, &i, '[')) return std::nullopt;
      SkipWs(line, &i);
      if (i < line.size() && line[i] == ']') {
        ++i;
      } else {
        while (true) {
          if (!Expect(line, &i, '[')) return std::nullopt;
          auto name = ParseString(line, &i);
          if (!name || !Expect(line, &i, ',')) return std::nullopt;
          auto s = ParseInt(line, &i);
          if (!s || !Expect(line, &i, ',')) return std::nullopt;
          auto e = ParseInt(line, &i);
          if (!e || !Expect(line, &i, ']')) return std::nullopt;
          auto state = WaitStateFromName(*name);
          if (!state) return std::nullopt;
          c.edges.push_back({*state, *s, *e});
          if (Expect(line, &i, ',')) continue;
          if (!Expect(line, &i, ']')) return std::nullopt;
          break;
        }
      }
    } else {
      return std::nullopt;  // Unknown key: schema drifted, fail loudly.
    }
    if (Expect(line, &i, ',')) continue;
    if (!Expect(line, &i, '}')) return std::nullopt;
    return c;
  }
}

// --- aggregation ------------------------------------------------------------

/// Per-(kind,outcome) aggregate over the retained (edge-less) lines.
/// Unlike the in-process collector, txnpath has every retained chain on
/// disk, so percentiles are exact nearest-rank rather than reservoir-based.
struct Group {
  uint64_t chains = 0;
  int64_t window_sum = 0;
  std::vector<int64_t> total;
  std::vector<int64_t> stage[kNumWaitStates];
  int64_t stage_sum[kNumWaitStates] = {};
};

double PercentileMs(std::vector<int64_t> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(p * static_cast<double>(v.size()));
  if (rank >= v.size()) rank = v.size() - 1;
  return static_cast<double>(v[rank]) / 1000.0;
}

struct Analysis {
  std::string mode;
  uint64_t closed = 0;   ///< From the header: all chains the run closed.
  uint64_t retained = 0; ///< Lines feeding the tables.
  Group groups[kNumChainKinds][kNumChainOutcomes];
  std::vector<SidecarChain> exemplars;  ///< Edge-bearing lines, any order.
};

/// Header: {"schema":1,"mode":"...","closed":N,"retained":N,"exemplars":N}
bool ParseHeader(const std::string& line, Analysis* a) {
  size_t i = 0;
  if (!Expect(line, &i, '{')) return false;
  while (true) {
    auto key = ParseString(line, &i);
    if (!key || !Expect(line, &i, ':')) return false;
    if (*key == "mode") {
      auto v = ParseString(line, &i);
      if (!v) return false;
      a->mode = *v;
    } else {
      auto v = ParseInt(line, &i);
      if (!v) return false;
      if (*key == "closed") a->closed = static_cast<uint64_t>(*v);
    }
    if (Expect(line, &i, ',')) continue;
    return Expect(line, &i, '}');
  }
}

bool Analyze(std::istream& in, Analysis* a) {
  std::string line;
  if (!std::getline(in, line) || !ParseHeader(line, a)) return false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    auto c = ParseChainLine(line);
    if (!c) return false;
    if (!c->edges.empty()) {
      a->exemplars.push_back(std::move(*c));
      continue;
    }
    Group& g = a->groups[static_cast<int>(c->kind)][static_cast<int>(c->outcome)];
    ++g.chains;
    ++a->retained;
    g.window_sum += c->TotalUs();
    g.total.push_back(c->TotalUs());
    for (int s = 0; s < kNumWaitStates; ++s) {
      g.stage_sum[s] += c->stage_us[s];
      g.stage[s].push_back(c->stage_us[s]);
    }
  }
  return true;
}

// --- rendering (same fixed layout the collector prints in-process) ----------

std::string RenderTables(const Analysis& a) {
  std::string out = "critical-path attribution";
  if (!a.mode.empty()) out += " (mode=" + a.mode + ")";
  out += "\n";
  bool any = false;
  for (int k = 0; k < kNumChainKinds; ++k) {
    for (int o = 0; o < kNumChainOutcomes; ++o) {
      const Group& g = a.groups[k][o];
      if (g.chains == 0) continue;
      any = true;
      char head[160];
      std::snprintf(head, sizeof(head),
                    "  chain=%s outcome=%s chains=%llu total_p50_ms=%s "
                    "total_p99_ms=%s\n",
                    ChainKindName(static_cast<ChainKind>(k)),
                    ChainOutcomeName(static_cast<ChainOutcome>(o)),
                    static_cast<unsigned long long>(g.chains),
                    MsFixed(PercentileMs(g.total, 0.50)).c_str(),
                    MsFixed(PercentileMs(g.total, 0.99)).c_str());
      out += head;
      char hdr[120];
      std::snprintf(hdr, sizeof(hdr), "    %-14s %8s %12s %12s\n", "stage",
                    "share%", "p50_ms", "p99_ms");
      out += hdr;
      for (int s = 0; s < kNumWaitStates; ++s) {
        if (g.stage_sum[s] == 0) continue;
        double share = g.window_sum > 0
                           ? 100.0 * static_cast<double>(g.stage_sum[s]) /
                                 static_cast<double>(g.window_sum)
                           : 0.0;
        char line[160];
        std::snprintf(line, sizeof(line), "    %-14s %8s %12s %12s\n",
                      WaitStateName(static_cast<WaitState>(s)),
                      PctFixed(share).c_str(),
                      MsFixed(PercentileMs(g.stage[s], 0.50)).c_str(),
                      MsFixed(PercentileMs(g.stage[s], 0.99)).c_str());
        out += line;
      }
    }
  }
  if (!any) out += "  (no closed chains)\n";
  return out;
}

const SidecarChain* WorstExemplar(const Analysis& a) {
  const SidecarChain* worst = nullptr;
  for (const SidecarChain& c : a.exemplars) {
    if (worst == nullptr || c.TotalUs() > worst->TotalUs()) worst = &c;
  }
  return worst;
}

std::string RenderWorst(const SidecarChain& c) {
  char head[200];
  std::snprintf(head, sizeof(head),
                "worst exemplar: chain=%s id=%llu sub=%llu outcome=%s "
                "total_ms=%s\n",
                ChainKindName(c.kind), static_cast<unsigned long long>(c.id),
                static_cast<unsigned long long>(c.sub),
                ChainOutcomeName(c.outcome),
                MsFixed(static_cast<double>(c.TotalUs()) / 1000.0).c_str());
  std::string out = head;
  std::vector<PathSegment> segs =
      SegmentWaitEdges(c.edges, c.open_us, c.close_us, nullptr);
  for (const PathSegment& s : segs) {
    char line[160];
    std::snprintf(
        line, sizeof(line), "  t+%-12s %-14s %s ms\n",
        (MsFixed(static_cast<double>(s.start_us - c.open_us) / 1000.0) + "ms")
            .c_str(),
        WaitStateName(s.state),
        MsFixed(static_cast<double>(s.end_us - s.start_us) / 1000.0).c_str());
    out += line;
  }
  return out;
}

// --- self test --------------------------------------------------------------

int Fail(const char* what) {
  std::fprintf(stderr, "self-test FAILED: %s\n", what);
  return 1;
}

int SelfTest() {
  // Two retained client chains, one retained apply chain, one exemplar
  // (a duplicate of the slow client chain — must not double count).
  const std::string sidecar =
      "{\"schema\":1,\"mode\":\"test\",\"closed\":3,\"retained\":3,"
      "\"exemplars\":1}\n"
      "{\"kind\":\"client\",\"id\":1,\"sub\":0,\"open_us\":0,"
      "\"close_us\":1000,\"outcome\":\"commit\",\"stages\":"
      "{\"queue\":600,\"service\":400}}\n"
      "{\"kind\":\"client\",\"id\":2,\"sub\":0,\"open_us\":0,"
      "\"close_us\":3000,\"outcome\":\"commit\",\"stages\":"
      "{\"queue\":2500,\"service\":500}}\n"
      "{\"kind\":\"apply\",\"id\":7,\"sub\":2,\"open_us\":100,"
      "\"close_us\":900,\"outcome\":\"applied\",\"stages\":"
      "{\"apply_backlog\":700,\"service\":100}}\n"
      "{\"kind\":\"client\",\"id\":2,\"sub\":0,\"open_us\":0,"
      "\"close_us\":3000,\"outcome\":\"commit\",\"edges\":"
      "[[\"queue\",0,2500],[\"service\",2500,3000]]}\n";
  std::istringstream in(sidecar);
  Analysis a;
  if (!Analyze(in, &a)) return Fail("parse");
  if (a.mode != "test" || a.closed != 3 || a.retained != 3 ||
      a.exemplars.size() != 1) {
    return Fail("counts");
  }
  const Group& client = a.groups[0][0];
  if (client.chains != 2 || client.window_sum != 4000 ||
      client.stage_sum[static_cast<int>(WaitState::kQueue)] != 3100) {
    return Fail("client aggregate");
  }
  std::string tables = RenderTables(a);
  if (tables.find("chain=client outcome=commit chains=2") ==
          std::string::npos ||
      tables.find("apply_backlog") == std::string::npos) {
    return Fail("tables");
  }
  // share% of apply_backlog in the apply group: 700/800 = 87.50.
  if (tables.find("87.50") == std::string::npos) return Fail("share");
  const SidecarChain* worst = WorstExemplar(a);
  if (worst == nullptr || worst->id != 2) return Fail("worst");
  std::string path = RenderWorst(*worst);
  if (path.find("t+0.000ms") == std::string::npos ||
      path.find("queue") == std::string::npos) {
    return Fail("path");
  }
  std::printf("self-test OK\n");
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: txnpath WAIT_EDGES.jsonl\n"
               "       txnpath --self-test\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string sidecar_path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--self-test") return SelfTest();
    if (!arg.empty() && arg[0] == '-') {
      return Usage();
    } else if (sidecar_path.empty()) {
      sidecar_path = arg;
    } else {
      return Usage();
    }
  }
  if (sidecar_path.empty()) return Usage();

  std::ifstream in(sidecar_path);
  if (!in) {
    std::fprintf(stderr, "txnpath: cannot open %s\n", sidecar_path.c_str());
    return 2;
  }
  Analysis a;
  if (!Analyze(in, &a)) {
    std::fprintf(stderr, "txnpath: cannot parse %s\n", sidecar_path.c_str());
    return 2;
  }
  std::printf("txnpath: %s (%llu chains closed, %llu in tables, %zu "
              "exemplars)\n\n",
              sidecar_path.c_str(),
              static_cast<unsigned long long>(a.closed),
              static_cast<unsigned long long>(a.retained),
              a.exemplars.size());
  std::printf("%s\n", RenderTables(a).c_str());

  const SidecarChain* worst = WorstExemplar(a);
  if (worst == nullptr) {
    std::printf("worst exemplar: (none)\n");
    return 0;
  }
  std::printf("%s", RenderWorst(*worst).c_str());
  return 0;
}
