#include "obs/critical_path.h"

#include <algorithm>
#include <cstdio>

namespace replidb::obs {

namespace {

/// Fixed reservoir seed: the sampled percentiles must be byte-identical
/// across runs and independent of REPLIDB_HASH_SEED perturbation.
constexpr uint64_t kReservoirSeed = 0x6372697470617468ULL;  // "critpath"

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

}  // namespace

const char* WaitStateName(WaitState s) {
  switch (s) {
    case WaitState::kQueue: return "queue";
    case WaitState::kCertOrder: return "cert_order";
    case WaitState::kCreditStall: return "credit_stall";
    case WaitState::kNetTransit: return "net_transit";
    case WaitState::kApplyBacklog: return "apply_backlog";
    case WaitState::kLock: return "lock";
    case WaitState::kGroupCommit: return "group_commit";
    case WaitState::kService: return "service";
    case WaitState::kOther: return "other";
    case WaitState::kDepWait: return "dep_wait";
  }
  return "?";
}

const char* ChainKindName(ChainKind k) {
  switch (k) {
    case ChainKind::kClient: return "client";
    case ChainKind::kApply: return "apply";
  }
  return "?";
}

const char* ChainOutcomeName(ChainOutcome o) {
  switch (o) {
    case ChainOutcome::kCommit: return "commit";
    case ChainOutcome::kAbort: return "abort";
    case ChainOutcome::kGaveUp: return "gave_up";
    case ChainOutcome::kApplied: return "applied";
  }
  return "?";
}

std::vector<PathSegment> SegmentWaitEdges(std::vector<WaitEdge> edges,
                                          int64_t open_us, int64_t close_us,
                                          int64_t* stage_us) {
  if (stage_us != nullptr) {
    std::fill(stage_us, stage_us + kNumWaitStates, 0);
  }
  std::vector<PathSegment> out;
  if (close_us <= open_us) return out;
  std::sort(edges.begin(), edges.end(),
            [](const WaitEdge& a, const WaitEdge& b) {
              if (a.start_us != b.start_us) return a.start_us < b.start_us;
              if (a.end_us != b.end_us) return a.end_us < b.end_us;
              return static_cast<int>(a.state) < static_cast<int>(b.state);
            });
  auto emit = [&](WaitState state, int64_t s, int64_t e) {
    if (e <= s) return;
    if (stage_us != nullptr) stage_us[static_cast<int>(state)] += e - s;
    // Merge adjacent same-state slices so exemplar paths stay readable.
    if (!out.empty() && out.back().state == state && out.back().end_us == s) {
      out.back().end_us = e;
    } else {
      out.push_back({state, s, e});
    }
  };
  int64_t cursor = open_us;
  for (const WaitEdge& edge : edges) {
    int64_t s = std::max(edge.start_us, cursor);
    int64_t e = std::min(edge.end_us, close_us);
    if (e <= s) continue;
    // Uncovered gap before this edge is unattributed time.
    emit(WaitState::kOther, cursor, s);
    emit(edge.state, s, e);
    cursor = e;
  }
  emit(WaitState::kOther, cursor, close_us);
  return out;
}

void CriticalPathCollector::Reservoir::Add(int64_t v, Rng* rng) {
  sum += v;
  ++seen;
  if (samples.size() < kReservoirCapacity) {
    samples.push_back(v);
    return;
  }
  // Algorithm R: keep each of the `seen` values with probability cap/seen.
  uint64_t slot = rng->Uniform(seen);
  if (slot < samples.size()) samples[slot] = v;
}

double CriticalPathCollector::Reservoir::PercentileMs(double p) const {
  if (samples.empty()) return 0;
  std::vector<int64_t> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  // Nearest-rank on the sampled set.
  size_t rank = static_cast<size_t>(p * static_cast<double>(sorted.size()));
  if (rank >= sorted.size()) rank = sorted.size() - 1;
  return static_cast<double>(sorted[rank]) / 1000.0;
}

CriticalPathCollector::CriticalPathCollector() : rng_(kReservoirSeed) {}

CriticalPathCollector& CriticalPathCollector::Global() {
  static CriticalPathCollector* collector = new CriticalPathCollector();
  return *collector;
}

void CriticalPathCollector::SetMode(const std::string& mode) {
  std::lock_guard<common::OrderedMutex> lock(mu_);
  mode_ = mode;
}

std::string CriticalPathCollector::mode() const {
  std::lock_guard<common::OrderedMutex> lock(mu_);
  return mode_;
}

void CriticalPathCollector::OpenChain(ChainKind kind, uint64_t id,
                                      uint64_t sub, int64_t open_us) {
  if (!enabled_) return;
  std::lock_guard<common::OrderedMutex> lock(mu_);
  Key key{static_cast<int>(kind), id, sub};
  if (open_.count(key) != 0) return;
  if (open_.size() >= kMaxOpenChains) {
    ++dropped_;
    return;
  }
  open_[key].open_us = open_us;
}

void CriticalPathCollector::RecordWait(ChainKind kind, uint64_t id,
                                       uint64_t sub, WaitState state,
                                       int64_t start_us, int64_t end_us) {
  if (!enabled_ || end_us <= start_us) return;
  std::lock_guard<common::OrderedMutex> lock(mu_);
  auto it = open_.find(Key{static_cast<int>(kind), id, sub});
  if (it == open_.end()) return;
  it->second.edges.push_back({state, start_us, end_us});
}

void CriticalPathCollector::CloseChain(ChainKind kind, uint64_t id,
                                       uint64_t sub, int64_t close_us,
                                       ChainOutcome outcome) {
  if (!enabled_) return;
  std::lock_guard<common::OrderedMutex> lock(mu_);
  Key key{static_cast<int>(kind), id, sub};
  auto it = open_.find(key);
  if (it == open_.end()) return;

  ChainSummary c;
  c.kind = kind;
  c.id = id;
  c.sub = sub;
  c.open_us = it->second.open_us;
  c.close_us = close_us;
  c.outcome = outcome;
  c.edges = std::move(it->second.edges);
  open_.erase(it);
  SegmentWaitEdges(c.edges, c.open_us, c.close_us, c.stage_us);
  ++closed_;

  Group& g = groups_[static_cast<int>(kind)][static_cast<int>(outcome)];
  ++g.chains;
  g.window_sum += c.TotalUs();
  g.total.Add(c.TotalUs(), &rng_);
  for (int s = 0; s < kNumWaitStates; ++s) {
    g.stage_sum[s] += c.stage_us[s];
    g.stage[s].Add(c.stage_us[s], &rng_);
  }

  // Tail-exemplar store: slowest kMaxExemplars chains, with edges.
  bool exemplar = exemplars_.size() < kMaxExemplars ||
                  c.TotalUs() > exemplars_.back().TotalUs();
  if (exemplar) {
    auto pos = std::upper_bound(
        exemplars_.begin(), exemplars_.end(), c,
        [](const ChainSummary& a, const ChainSummary& b) {
          return a.TotalUs() > b.TotalUs();
        });
    exemplars_.insert(pos, c);
    if (exemplars_.size() > kMaxExemplars) exemplars_.pop_back();
  }

  if (retained_.size() < kMaxRetainedChains) retained_.push_back(std::move(c));
}

void CriticalPathCollector::Reset() {
  std::lock_guard<common::OrderedMutex> lock(mu_);
  open_.clear();
  retained_.clear();
  exemplars_.clear();
  for (auto& per_kind : groups_) {
    for (auto& g : per_kind) g = Group();
  }
  closed_ = 0;
  dropped_ = 0;
  rng_ = Rng(kReservoirSeed);
}

size_t CriticalPathCollector::open_chains() const {
  std::lock_guard<common::OrderedMutex> lock(mu_);
  return open_.size();
}

uint64_t CriticalPathCollector::closed_chains() const {
  std::lock_guard<common::OrderedMutex> lock(mu_);
  return closed_;
}

uint64_t CriticalPathCollector::dropped_chains() const {
  std::lock_guard<common::OrderedMutex> lock(mu_);
  return dropped_;
}

std::vector<ChainSummary> CriticalPathCollector::RetainedChains() const {
  std::lock_guard<common::OrderedMutex> lock(mu_);
  return retained_;
}

std::vector<ChainSummary> CriticalPathCollector::Exemplars() const {
  std::lock_guard<common::OrderedMutex> lock(mu_);
  return exemplars_;
}

std::vector<PathStageStat> CriticalPathCollector::StageStats() const {
  std::lock_guard<common::OrderedMutex> lock(mu_);
  std::vector<PathStageStat> out;
  for (int k = 0; k < kNumChainKinds; ++k) {
    for (int o = 0; o < kNumChainOutcomes; ++o) {
      const Group& g = groups_[k][o];
      if (g.chains == 0) continue;
      for (int s = 0; s < kNumWaitStates; ++s) {
        if (g.stage_sum[s] == 0) continue;
        PathStageStat st;
        st.kind = static_cast<ChainKind>(k);
        st.outcome = static_cast<ChainOutcome>(o);
        st.state = static_cast<WaitState>(s);
        st.chains = g.chains;
        st.share_pct = g.window_sum > 0
                           ? 100.0 * static_cast<double>(g.stage_sum[s]) /
                                 static_cast<double>(g.window_sum)
                           : 0.0;
        st.p50_ms = g.stage[s].PercentileMs(0.50);
        st.p99_ms = g.stage[s].PercentileMs(0.99);
        st.total_ms = static_cast<double>(g.stage_sum[s]) / 1000.0;
        out.push_back(st);
      }
    }
  }
  return out;
}

std::string CriticalPathCollector::RenderAttributionTable() const {
  std::lock_guard<common::OrderedMutex> lock(mu_);
  std::string out = "critical-path attribution";
  if (!mode_.empty()) out += " (mode=" + mode_ + ")";
  out += "\n";
  bool any = false;
  for (int k = 0; k < kNumChainKinds; ++k) {
    for (int o = 0; o < kNumChainOutcomes; ++o) {
      const Group& g = groups_[k][o];
      if (g.chains == 0) continue;
      any = true;
      char head[160];
      std::snprintf(head, sizeof(head),
                    "  chain=%s outcome=%s chains=%llu total_p50_ms=%s "
                    "total_p99_ms=%s\n",
                    ChainKindName(static_cast<ChainKind>(k)),
                    ChainOutcomeName(static_cast<ChainOutcome>(o)),
                    static_cast<unsigned long long>(g.chains),
                    MsFixed(g.total.PercentileMs(0.50)).c_str(),
                    MsFixed(g.total.PercentileMs(0.99)).c_str());
      out += head;
      char hdr[120];
      std::snprintf(hdr, sizeof(hdr), "    %-14s %8s %12s %12s\n", "stage",
                    // replicheck:allow(addr-identity) "share%"+"p50_ms" cells read as %p per-line; no pointer formatted
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
                      MsFixed(g.stage[s].PercentileMs(0.50)).c_str(),
                      MsFixed(g.stage[s].PercentileMs(0.99)).c_str());
        out += line;
      }
    }
  }
  if (!any) out += "  (no closed chains)\n";
  return out;
}

std::string CriticalPathCollector::RenderWorstExemplar() const {
  std::vector<ChainSummary> ex = Exemplars();
  if (ex.empty()) return "worst exemplar: (none)\n";
  const ChainSummary& c = ex.front();
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

void CriticalPathCollector::AppendChainJson(const ChainSummary& c,
                                            bool with_edges,
                                            std::string* out) const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"kind\":\"%s\",\"id\":%llu,\"sub\":%llu,\"open_us\":%lld,"
                "\"close_us\":%lld,\"outcome\":\"%s\",\"stages\":{",
                ChainKindName(c.kind), static_cast<unsigned long long>(c.id),
                static_cast<unsigned long long>(c.sub),
                static_cast<long long>(c.open_us),
                static_cast<long long>(c.close_us),
                ChainOutcomeName(c.outcome));
  *out += buf;
  bool first = true;
  for (int s = 0; s < kNumWaitStates; ++s) {
    if (c.stage_us[s] == 0) continue;
    if (!first) *out += ",";
    first = false;
    std::snprintf(buf, sizeof(buf), "\"%s\":%lld",
                  WaitStateName(static_cast<WaitState>(s)),
                  static_cast<long long>(c.stage_us[s]));
    *out += buf;
  }
  *out += "}";
  if (with_edges && !c.edges.empty()) {
    *out += ",\"edges\":[";
    for (size_t i = 0; i < c.edges.size(); ++i) {
      if (i != 0) *out += ",";
      std::snprintf(buf, sizeof(buf), "[\"%s\",%lld,%lld]",
                    WaitStateName(c.edges[i].state),
                    static_cast<long long>(c.edges[i].start_us),
                    static_cast<long long>(c.edges[i].end_us));
      *out += buf;
    }
    *out += "]";
  }
  *out += "}\n";
}

std::string CriticalPathCollector::RenderWaitEdgesJsonl() const {
  std::lock_guard<common::OrderedMutex> lock(mu_);
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"schema\":1,\"mode\":\"%s\",\"closed\":%llu,"
                "\"retained\":%zu,\"exemplars\":%zu}\n",
                mode_.c_str(), static_cast<unsigned long long>(closed_),
                retained_.size(), exemplars_.size());
  out += buf;
  for (const ChainSummary& c : retained_) {
    AppendChainJson(c, /*with_edges=*/false, &out);
  }
  for (const ChainSummary& c : exemplars_) {
    AppendChainJson(c, /*with_edges=*/true, &out);
  }
  return out;
}

}  // namespace replidb::obs
