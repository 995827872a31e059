#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/locks.h"
#include "common/logging.h"
#include "faults/fault_injector.h"
#include "middleware/cluster.h"
#include "obs/critical_path.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "workload/load_generator.h"
#include "workload/workloads.h"

namespace replidb::obs {
namespace {

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, CounterIncrementsAndResets) {
  MetricsRegistry r;
  Counter* c = r.GetCounter("test.obj.events");
  EXPECT_EQ(c->value(), 0u);
  c->Increment();
  c->Increment(41);
  EXPECT_EQ(c->value(), 42u);
  c->Reset();
  EXPECT_EQ(c->value(), 0u);
}

TEST(MetricsRegistryTest, SameNameReturnsSamePointer) {
  MetricsRegistry r;
  Counter* a = r.GetCounter("test.obj.events");
  Counter* b = r.GetCounter("test.obj.events");
  EXPECT_EQ(a, b);
  EXPECT_EQ(r.size(), 1u);
}

TEST(MetricsRegistryTest, GaugeSetAddValue) {
  MetricsRegistry r;
  Gauge* g = r.GetGauge("test.queue.depth");
  g->Set(10);
  g->Add(-3);
  EXPECT_EQ(g->value(), 7);
  g->Set(-5);  // Gauges may go negative (e.g. clock-skewed lag).
  EXPECT_EQ(g->value(), -5);
}

TEST(MetricsRegistryTest, HistogramObserveAndCopy) {
  MetricsRegistry r;
  HistogramMetric* h = r.GetHistogram("test.stage.latency_ms");
  for (int i = 1; i <= 100; ++i) h->Observe(i);
  EXPECT_EQ(h->count(), 100u);
  Histogram copy = r.HistogramCopy("test.stage.latency_ms");
  EXPECT_EQ(copy.count(), 100u);
  EXPECT_DOUBLE_EQ(copy.Mean(), 50.5);
  EXPECT_DOUBLE_EQ(copy.Max(), 100.0);
}

TEST(MetricsRegistryTest, FindDoesNotCreate) {
  MetricsRegistry r;
  EXPECT_EQ(r.FindCounter("test.not.registered"), nullptr);
  EXPECT_EQ(r.FindGauge("test.not.registered"), nullptr);
  EXPECT_EQ(r.HistogramCopy("test.not.registered").count(), 0u);
  EXPECT_EQ(r.size(), 0u);
}

TEST(MetricsRegistryTest, FindRejectsWrongKind) {
  MetricsRegistry r;
  r.GetCounter("test.obj.events");
  EXPECT_EQ(r.FindGauge("test.obj.events"), nullptr);
}

TEST(MetricsRegistryDeathTest, KindMismatchAborts) {
  MetricsRegistry r;
  r.GetCounter("test.obj.events");
  EXPECT_DEATH(r.GetGauge("test.obj.events"), "different kind");
}

TEST(MetricsRegistryTest, SnapshotIsSortedByName) {
  MetricsRegistry r;
  r.GetCounter("zz.last.metric");
  r.GetGauge("aa.first.metric");
  r.GetHistogram("mm.middle.metric");
  auto snap = r.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "aa.first.metric");
  EXPECT_EQ(snap[0].kind, MetricKind::kGauge);
  EXPECT_EQ(snap[1].name, "mm.middle.metric");
  EXPECT_EQ(snap[1].kind, MetricKind::kHistogram);
  EXPECT_EQ(snap[2].name, "zz.last.metric");
  EXPECT_EQ(snap[2].kind, MetricKind::kCounter);
}

TEST(MetricsRegistryTest, SnapshotCarriesValues) {
  MetricsRegistry r;
  r.GetCounter("test.c")->Increment(7);
  r.GetGauge("test.g")->Set(-2);
  r.GetHistogram("test.h")->Observe(3.5);
  for (const MetricSample& s : r.Snapshot()) {
    if (s.name == "test.c") {
      EXPECT_EQ(s.counter, 7u);
    }
    if (s.name == "test.g") {
      EXPECT_EQ(s.gauge, -2);
    }
    if (s.name == "test.h") {
      EXPECT_EQ(s.histogram.count(), 1u);
      EXPECT_DOUBLE_EQ(s.histogram.Max(), 3.5);
    }
  }
}

TEST(MetricsRegistryTest, DumpTextMentionsEveryMetric) {
  MetricsRegistry r;
  r.GetCounter("test.c")->Increment(7);
  r.GetGauge("test.g")->Set(9);
  r.GetHistogram("test.h")->Observe(1.0);
  std::string dump = r.DumpText();
  EXPECT_NE(dump.find("test.c"), std::string::npos);
  EXPECT_NE(dump.find("test.g"), std::string::npos);
  EXPECT_NE(dump.find("test.h"), std::string::npos);
  EXPECT_NE(dump.find("7"), std::string::npos);
  EXPECT_NE(dump.find("9"), std::string::npos);
}

TEST(MetricsRegistryTest, ResetZeroesButKeepsRegistrations) {
  MetricsRegistry r;
  Counter* c = r.GetCounter("test.c");
  Gauge* g = r.GetGauge("test.g");
  HistogramMetric* h = r.GetHistogram("test.h");
  c->Increment(5);
  g->Set(5);
  h->Observe(5);
  r.Reset();
  EXPECT_EQ(r.size(), 3u);
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(g->value(), 0);
  EXPECT_EQ(h->count(), 0u);
  // Handed-out pointers survive Reset: instrumentation caches them once.
  c->Increment();
  EXPECT_EQ(r.FindCounter("test.c")->value(), 1u);
}

TEST(MetricsRegistryTest, GlobalIsASingleton) {
  EXPECT_EQ(&MetricsRegistry::Global(), &MetricsRegistry::Global());
}

// ---------------------------------------------------------------------------
// Trace rendering (RenderChromeTrace over chains and flight events)
// ---------------------------------------------------------------------------

ChainSummary Chain(ChainKind kind, uint64_t id, uint64_t sub, int64_t open_us,
                   int64_t close_us, std::vector<WaitEdge> edges,
                   ChainOutcome outcome = ChainOutcome::kCommit) {
  ChainSummary c;
  c.kind = kind;
  c.id = id;
  c.sub = sub;
  c.open_us = open_us;
  c.close_us = close_us;
  c.outcome = outcome;
  c.edges = std::move(edges);
  return c;
}

FlightEvent Flight(int64_t ts_us, int node, FlightEventKind kind,
                   std::string detail, uint64_t seq) {
  FlightEvent e;
  e.ts_us = ts_us;
  e.node = node;
  e.kind = kind;
  e.detail = std::move(detail);
  e.seq = seq;
  return e;
}

/// One event of a rendered trace, read back field by field.
struct TraceEvent {
  std::string name;
  std::string ph;
  long tid = -1;
  long ts = -1;
  long dur = -1;
  long txn = -1;
  std::string arg_name;  ///< Metadata events: the lane name.
  std::string detail;    ///< Instants.
};

std::string StringField(const std::string& obj, const std::string& field) {
  size_t p = obj.find("\"" + field + "\":\"");
  if (p == std::string::npos) return "";
  p += field.size() + 4;
  return obj.substr(p, obj.find('"', p) - p);
}

long IntField(const std::string& obj, const std::string& field) {
  size_t p = obj.find("\"" + field + "\":");
  if (p == std::string::npos) return -1;
  return std::strtol(obj.c_str() + p + field.size() + 3, nullptr, 10);
}

/// Splits the flat traceEvents array: every event object opens with
/// {"name":" right after '[' or ','. Test inputs keep details free of
/// that sequence.
std::vector<TraceEvent> ParseTrace(const std::string& json) {
  std::vector<size_t> starts;
  const std::string open = "{\"name\":\"";
  for (size_t p = json.find(open); p != std::string::npos;
       p = json.find(open, p + 1)) {
    if (json[p - 1] == '[' || json[p - 1] == ',') starts.push_back(p);
  }
  std::vector<TraceEvent> out;
  for (size_t i = 0; i < starts.size(); ++i) {
    size_t end = i + 1 < starts.size() ? starts[i + 1] : json.size();
    std::string obj = json.substr(starts[i], end - starts[i]);
    TraceEvent e;
    e.name = StringField(obj, "name");
    e.ph = StringField(obj, "ph");
    e.tid = IntField(obj, "tid");
    e.ts = IntField(obj, "ts");
    e.dur = IntField(obj, "dur");
    e.txn = IntField(obj, "txn");
    if (e.ph == "M") {
      size_t args = obj.find("\"args\":");
      e.arg_name = StringField(obj.substr(args), "name");
    }
    e.detail = StringField(obj, "detail");
    out.push_back(std::move(e));
  }
  return out;
}

/// tid -> lane name, from the thread_name metadata.
std::map<long, std::string> Lanes(const std::vector<TraceEvent>& events) {
  std::map<long, std::string> lanes;
  for (const TraceEvent& e : events) {
    if (e.ph == "M") lanes[e.tid] = e.arg_name;
  }
  return lanes;
}

TEST(TracerTest, DisabledRecordsNothing) {
  CriticalPathCollector cp;
  EXPECT_FALSE(cp.enabled());
  cp.OpenChain(ChainKind::kClient, 7, 0, 100);
  cp.RecordWait(ChainKind::kClient, 7, 0, WaitState::kQueue, 100, 120);
  cp.CloseChain(ChainKind::kClient, 7, 0, 150, ChainOutcome::kCommit);
  EXPECT_EQ(RenderChromeTrace(cp.RetainedChains(), {}),
            "{\"traceEvents\":[]}");
}

TEST(TracerTest, RendersSpansAndInstants) {
  std::string json = RenderChromeTrace(
      {Chain(ChainKind::kClient, 7, 0, 100, 150,
             {{WaitState::kQueue, 100, 130}})},
      {Flight(200, 3, FlightEventKind::kSuspicion, "replica=2", 0)});
  std::vector<TraceEvent> events = ParseTrace(json);
  int spans = 0, instants = 0;
  for (const TraceEvent& e : events) {
    spans += e.ph == "X";
    instants += e.ph == "i";
  }
  EXPECT_EQ(spans, 3) << "window + queue + other segments";
  EXPECT_EQ(instants, 1);
  EXPECT_EQ(json.find("\"ph\":\"C\""), std::string::npos)
      << "the rendering has no counter tracks";
}

TEST(TracerTest, ClearDropsEventsKeepsEnabled) {
  CriticalPathCollector cp;
  cp.Enable();
  cp.OpenChain(ChainKind::kClient, 1, 0, 0);
  cp.CloseChain(ChainKind::kClient, 1, 0, 10, ChainOutcome::kCommit);
  ASSERT_NE(RenderChromeTrace(cp.RetainedChains(), {}).find("\"ph\":\"X\""),
            std::string::npos);
  cp.Reset();
  EXPECT_EQ(RenderChromeTrace(cp.RetainedChains(), {}),
            "{\"traceEvents\":[]}");
  EXPECT_TRUE(cp.enabled());
}

TEST(TracerTest, ChromeTraceJsonStructure) {
  std::string json = RenderChromeTrace(
      {Chain(ChainKind::kApply, 7, 2, 100, 150,
             {{WaitState::kApplyBacklog, 100, 140}},
             ChainOutcome::kApplied)},
      {Flight(250, 9, FlightEventKind::kFailover, "promoted=2 \"x\"", 0)});
  // Chrome trace envelope with one span and one instant phase.
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"apply.applied\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":50,\"args\":{\"txn\":7}"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"apply_backlog\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":40,\"args\":{\"txn\":7}"), std::string::npos);
  // Flight details are JSON-escaped.
  EXPECT_NE(json.find("\"detail\":\"promoted=2 \\\"x\\\"\""),
            std::string::npos);
  // Lanes are announced as thread_name metadata, one per lane.
  std::vector<TraceEvent> events = ParseTrace(json);
  std::map<long, std::string> lanes = Lanes(events);
  ASSERT_EQ(lanes.size(), 2u);
  EXPECT_EQ(lanes.begin()->second, "replica.2");
  EXPECT_EQ(lanes.rbegin()->second, "node.9");
  for (const TraceEvent& e : events) {
    if (e.ph == "M") continue;
    EXPECT_EQ(lanes[e.tid], e.ph == "X" ? "replica.2" : "node.9") << e.name;
  }
  // Crude structural sanity: balanced braces and brackets.
  int braces = 0, brackets = 0;
  for (char ch : json) {
    if (ch == '{') ++braces;
    if (ch == '}') --braces;
    if (ch == '[') ++brackets;
    if (ch == ']') --brackets;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(TracerTest, NestedSpansShareATrackLane) {
  // Chrome-trace "X" events nest by time containment within one tid: a
  // chain's segment spans sit inside its window span on the same lane,
  // and client and apply chains get different lanes.
  std::string json = RenderChromeTrace(
      {Chain(ChainKind::kClient, 7, 0, 100, 200,
             {{WaitState::kService, 120, 160}}),
       Chain(ChainKind::kApply, 3, 1, 90, 95, {})},
      {});
  std::vector<TraceEvent> events = ParseTrace(json);
  std::map<long, std::string> lanes = Lanes(events);
  const TraceEvent* window = nullptr;
  const TraceEvent* service = nullptr;
  const TraceEvent* apply = nullptr;
  for (const TraceEvent& e : events) {
    if (e.name == "client.commit") window = &e;
    if (e.name == "service") service = &e;
    if (e.name == "apply.commit") apply = &e;
  }
  ASSERT_NE(window, nullptr);
  ASSERT_NE(service, nullptr);
  ASSERT_NE(apply, nullptr);
  EXPECT_EQ(window->tid, service->tid);
  EXPECT_NE(window->tid, apply->tid);
  EXPECT_EQ(lanes[window->tid], "client");
  EXPECT_EQ(lanes[apply->tid], "replica.1");
  EXPECT_NE(json.find("\"ts\":100,\"dur\":100"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":120,\"dur\":40"), std::string::npos);
}

TEST(TracerTest, SegmentSpansTileEachChainWindow) {
  // Overlapping, clipped and gapped edges: whatever SegmentWaitEdges
  // makes of them, each chain's segment spans must cover its window
  // contiguously and sum to close_us - open_us, all tagged with its id.
  std::vector<ChainSummary> chains = {
      Chain(ChainKind::kClient, 1, 0, 0, 1000,
            {{WaitState::kQueue, 0, 300},
             {WaitState::kNetTransit, 200, 500},
             {WaitState::kService, 700, 1200}}),
      Chain(ChainKind::kApply, 2, 4, 50, 400,
            {{WaitState::kApplyBacklog, 0, 100},
             {WaitState::kService, 300, 350}},
            ChainOutcome::kApplied),
      Chain(ChainKind::kClient, 3, 0, 500, 500, {}, ChainOutcome::kGaveUp),
  };
  std::vector<TraceEvent> events =
      ParseTrace(RenderChromeTrace(chains, {}));
  for (const ChainSummary& c : chains) {
    int windows = 0;
    long cursor = c.open_us, sum = 0;
    for (const TraceEvent& e : events) {
      if (e.ph != "X" || e.txn != static_cast<long>(c.id)) continue;
      if (e.name.find('.') != std::string::npos) {
        ++windows;
        EXPECT_EQ(e.ts, c.open_us);
        EXPECT_EQ(e.dur, c.TotalUs());
        continue;
      }
      EXPECT_EQ(e.ts, cursor) << "chain " << c.id << " segment " << e.name;
      cursor = e.ts + e.dur;
      sum += e.dur;
    }
    EXPECT_EQ(windows, 1) << "chain " << c.id;
    EXPECT_EQ(cursor, c.close_us) << "chain " << c.id;
    EXPECT_EQ(sum, c.TotalUs()) << "chain " << c.id;
  }
}

TEST(TracerTest, NextTraceIdIsUniqueAndNonZero) {
  std::set<uint64_t> ids;
  for (int i = 0; i < 100; ++i) {
    uint64_t id = NextTraceId();
    EXPECT_NE(id, 0u);
    EXPECT_TRUE(ids.insert(id).second);
  }
}

TEST(TracerTest, GlobalToggleDrivesTracingEnabled) {
  // The trace draws what the global collector holds, so its toggle is
  // the tracing switch: off by default, on records chains to render.
  auto& cp = CriticalPathCollector::Global();
  EXPECT_FALSE(CriticalPathEnabled());
  cp.Enable();
  EXPECT_TRUE(CriticalPathEnabled());
  cp.OpenChain(ChainKind::kClient, 5, 0, 0);
  cp.CloseChain(ChainKind::kClient, 5, 0, 10, ChainOutcome::kCommit);
  EXPECT_NE(RenderChromeTrace(cp.RetainedChains(), {}).find("client.commit"),
            std::string::npos);
  cp.Disable();
  cp.Reset();
  EXPECT_FALSE(CriticalPathEnabled());
}

TEST(TracerTest, ChromeTraceTimestampsMonotonicPerThread) {
  // Chains and flight events arrive out of virtual-time order; the
  // rendered trace must come out sorted so viewers do not mis-nest
  // spans, and same-timestamp flight events keep their seq order.
  std::string json = RenderChromeTrace(
      {Chain(ChainKind::kClient, 1, 0, 900, 950, {}),
       Chain(ChainKind::kApply, 2, 2, 400, 450, {}),
       Chain(ChainKind::kClient, 3, 0, 100, 200,
             {{WaitState::kQueue, 150, 200}})},
      {Flight(500, 1, FlightEventKind::kFailover, "second", 8),
       Flight(500, 1, FlightEventKind::kSuspicion, "first", 7),
       Flight(50, 1, FlightEventKind::kViewChange, "start", 9)});
  std::vector<TraceEvent> events = ParseTrace(json);
  std::map<long, std::vector<long>> per_tid;
  std::vector<std::string> flight_order;
  for (const TraceEvent& e : events) {
    if (e.ph == "M") continue;
    per_tid[e.tid].push_back(e.ts);
    if (e.ph == "i") flight_order.push_back(e.detail);
  }
  ASSERT_EQ(per_tid.size(), 3u);
  for (const auto& [tid, series] : per_tid) {
    for (size_t i = 1; i < series.size(); ++i) {
      EXPECT_LE(series[i - 1], series[i]) << "tid " << tid << " idx " << i;
    }
  }
  EXPECT_EQ(flight_order,
            (std::vector<std::string>{"start", "first", "second"}));
}

TEST(TracerTest, MasterCrashTraceShowsSuspicionFailoverAndResync) {
  // With the collector on, a master crash and rejoin under 1-safe
  // master-slave must surface in the rendered trace as the controller's
  // suspicion, failover and resync-complete instants, next to the
  // client and apply chains.
  auto& cp = CriticalPathCollector::Global();
  cp.Reset();
  cp.Enable();
  FlightRecorder::Global().Reset();
  ResetTraceIds();
  {
    middleware::ClusterOptions opts;
    opts.replicas = 3;
    opts.controller.mode = middleware::ReplicationMode::kMasterSlaveAsync;
    opts.controller.heartbeat.period = 200 * sim::kMillisecond;
    opts.controller.heartbeat.timeout = 150 * sim::kMillisecond;
    opts.controller.heartbeat.miss_threshold = 2;
    workload::MicroWorkload::Options wo;
    wo.rows = 50;
    wo.write_fraction = 0.5;
    workload::MicroWorkload w(wo);
    middleware::Cluster c(std::move(opts));
    c.Setup(w.SetupStatements());
    c.Start();
    faults::FaultInjector injector(&c.sim);
    injector.CrashAt(c.replica(0), c.sim.Now() + sim::kSecond,
                     /*repair=*/sim::kSecond);
    workload::ClosedLoopGenerator gen(&c.sim, c.driver(), &w, /*clients=*/4,
                                      /*think=*/0, /*seed=*/7);
    gen.Run(3 * sim::kSecond);
    c.sim.RunFor(10 * sim::kSecond);
    EXPECT_EQ(c.controller->stats().failovers, 1u);
    EXPECT_GE(c.controller->stats().resyncs_completed, 1u);
  }
  std::vector<TraceEvent> events = ParseTrace(RenderChromeTrace(
      cp.RetainedChains(), FlightRecorder::Global().MergedEvents()));
  cp.Disable();
  cp.Reset();
  FlightRecorder::Global().Reset();
  // The master is replica index 0, node id 1.
  std::set<std::string> names;
  bool suspected = false, detected = false, failover = false,
       resynced = false;
  for (const TraceEvent& e : events) {
    names.insert(e.name);
    if (e.ph != "i") continue;
    if (e.name == "suspicion") {
      suspected |= e.detail.rfind("replica=1 applied=", 0) == 0;
      detected |= e.detail.find(" target=1 suspect") != std::string::npos;
    }
    failover |= e.name == "failover" && e.detail.find("was=1") !=
                                            std::string::npos;
    resynced |= e.name == "resync_phase" &&
                e.detail.rfind("online: replica=1 ", 0) == 0;
  }
  EXPECT_TRUE(suspected) << "no controller suspicion instant";
  EXPECT_TRUE(detected) << "no failure-detector suspicion instant";
  EXPECT_TRUE(failover) << "no failover instant";
  EXPECT_TRUE(resynced) << "no resync-complete instant";
  EXPECT_TRUE(names.count("client.commit"));
  EXPECT_TRUE(names.count("apply.applied"));
}

// ---------------------------------------------------------------------------
// TimeSeriesHub / Series
// ---------------------------------------------------------------------------

TEST(SeriesTest, RingEvictsOldestAndCountsEvictions) {
  Series s("replica.1.lag_versions", /*capacity=*/4);
  for (int i = 0; i < 6; ++i) s.Add(/*ts_us=*/i * 1000, /*value=*/i);
  EXPECT_EQ(s.size(), 4u);
  EXPECT_EQ(s.evicted(), 2u);
  std::vector<SeriesPoint> pts = s.Points();
  ASSERT_EQ(pts.size(), 4u);
  // Oldest two samples (0, 1) are gone; order is oldest to newest.
  EXPECT_EQ(pts.front().ts_us, 2000);
  EXPECT_EQ(pts.back().ts_us, 5000);
  for (size_t i = 1; i < pts.size(); ++i) {
    EXPECT_LT(pts[i - 1].ts_us, pts[i].ts_us);
  }
  EXPECT_DOUBLE_EQ(s.Last(), 5.0);
  EXPECT_DOUBLE_EQ(s.MaxValue(), 5.0);
  EXPECT_DOUBLE_EQ(s.MinValue(), 2.0);
}

TEST(SeriesTest, EmptySeriesReadsAsZero) {
  Series s("x", 8);
  EXPECT_EQ(s.size(), 0u);
  EXPECT_DOUBLE_EQ(s.Last(), 0.0);
  EXPECT_DOUBLE_EQ(s.MaxValue(), 0.0);
  EXPECT_TRUE(s.Points().empty());
}

TEST(TimeSeriesHubTest, ProbesFeedSeriesEachSample) {
  TimeSeriesHub hub;
  double lag = 3.0;
  hub.RegisterProbe("replica.2.lag_versions", [&] { return lag; });
  hub.SampleProbes(1000);
  lag = 7.0;
  hub.SampleProbes(2000);
  EXPECT_EQ(hub.samples_taken(), 2u);
  const Series* s = hub.FindSeries("replica.2.lag_versions");
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->size(), 2u);
  EXPECT_DOUBLE_EQ(s->Points()[0].value, 3.0);
  EXPECT_DOUBLE_EQ(s->Last(), 7.0);
  EXPECT_EQ(s->Points()[1].ts_us, 2000);
}

TEST(TimeSeriesHubTest, GetSeriesIsStableAndFindDoesNotCreate) {
  TimeSeriesHub hub;
  Series* a = hub.GetSeries("a", 16);
  EXPECT_EQ(hub.GetSeries("a"), a);
  EXPECT_EQ(a->capacity(), 16u);
  EXPECT_EQ(hub.FindSeries("never"), nullptr);
  EXPECT_EQ(hub.series_count(), 1u);
}

TEST(TimeSeriesHubTest, WatchGaugeSamplesUnderLockCheck) {
  // WatchGauge resolves the gauge pointer at registration time: the probe
  // must not call into MetricsRegistry (kMetricsRegistry=20) while
  // SampleProbes holds the hub lock (kTimeSeriesHub=50) — that inversion
  // aborts under the runtime recorder, so run with checking forced on.
  const bool prev = common::LockCheckEnabled();
  common::SetLockCheckEnabled(true);
  Gauge* g = MetricsRegistry::Global().GetGauge("obs_test.watched_gauge");
  g->Set(41);
  TimeSeriesHub hub;
  hub.WatchGauge("watched", "obs_test.watched_gauge");
  hub.SampleProbes(1000);
  g->Set(43);
  hub.SampleProbes(2000);
  common::SetLockCheckEnabled(prev);
  const Series* s = hub.FindSeries("watched");
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->size(), 2u);
  EXPECT_DOUBLE_EQ(s->Points()[0].value, 41.0);
  EXPECT_DOUBLE_EQ(s->Last(), 43.0);
}

TEST(TimeSeriesHubTest, DumpJsonAndCsvCarrySamples) {
  TimeSeriesHub hub;
  hub.GetSeries("controller.pending_txns")->Add(500, 12);
  std::string json = hub.DumpJson();
  EXPECT_NE(json.find("\"controller.pending_txns\""), std::string::npos);
  EXPECT_NE(json.find("[500,12]"), std::string::npos);
  std::string csv = hub.DumpCsv();
  EXPECT_NE(csv.find("controller.pending_txns,500,12"), std::string::npos);
  hub.Reset();
  EXPECT_EQ(hub.series_count(), 0u);
}

// ---------------------------------------------------------------------------
// FlightRecorder
// ---------------------------------------------------------------------------

TEST(FlightRecorderTest, PerNodeRingsEvictIndependently) {
  FlightRecorder rec(/*per_node_capacity=*/3);
  // Node 1 is chatty; node 2 logs a single precious event early on.
  rec.Record(100, 2, FlightEventKind::kViewChange, "epoch=1");
  for (int i = 0; i < 10; ++i) {
    rec.Record(200 + i, 1, FlightEventKind::kCreditStall, "stall");
  }
  EXPECT_EQ(rec.recorded(), 11u);
  EXPECT_EQ(rec.size(), 4u);  // 3 retained for node 1 + 1 for node 2.
  ASSERT_EQ(rec.NodeEvents(2).size(), 1u);  // Survived node 1's chatter.
  EXPECT_EQ(rec.NodeEvents(2)[0].detail, "epoch=1");
  std::vector<FlightEvent> node1 = rec.NodeEvents(1);
  ASSERT_EQ(node1.size(), 3u);
  EXPECT_EQ(node1.front().ts_us, 207);  // Oldest seven evicted.
}

TEST(FlightRecorderTest, MergedEventsAreVirtualTimeOrdered) {
  FlightRecorder rec;
  rec.Record(900, 1, FlightEventKind::kFailover, "promote 2");
  rec.Record(100, 2, FlightEventKind::kSuspicion, "suspect 1");
  rec.Record(500, 3, FlightEventKind::kResyncPhase, "catch-up");
  std::vector<FlightEvent> merged = rec.MergedEvents();
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].ts_us, 100);
  EXPECT_EQ(merged[1].ts_us, 500);
  EXPECT_EQ(merged[2].ts_us, 900);
  std::string text = rec.Render();
  // Render mentions every kind by its symbolic name.
  EXPECT_NE(text.find("failover"), std::string::npos);
  EXPECT_NE(text.find("suspicion"), std::string::npos);
}

TEST(FlightRecorderDeathTest, CheckFailureDumpsFlightRecorder) {
  // A REPLIDB_CHECK failure must print the assertion and then the flight
  // recorder tail, so the post-mortem context rides along with the abort.
  FlightRecorder::InstallCheckHook();
  FlightRecorder::Global().Record(12345, 3, FlightEventKind::kCreditStall,
                                  "window=0B");
  EXPECT_DEATH(
      { REPLIDB_CHECK(1 == 2, "deliberate failure for dump-on-failure test"); },
      "CHECK failed at.*deliberate failure.*flight recorder.*credit_stall");
}

// ---------------------------------------------------------------------------
// SloTracker
// ---------------------------------------------------------------------------

TEST(SloTrackerTest, WindowsRotateOnObservationPastTheEnd) {
  SloTracker slo("commit_latency_ms", /*window_us=*/1000, /*target_p99=*/10.0);
  slo.Observe(100, 2.0);
  slo.Observe(900, 4.0);
  EXPECT_EQ(slo.windows_closed(), 0u);  // Window [0,1000) still open.
  EXPECT_EQ(slo.current_count(), 2u);
  slo.Observe(1000, 6.0);  // At the boundary: closes [0,1000) first.
  EXPECT_EQ(slo.windows_closed(), 1u);
  EXPECT_EQ(slo.current_count(), 1u);
  EXPECT_DOUBLE_EQ(slo.last_p50(), 3.0);
  EXPECT_EQ(slo.breaches(), 0u);
  ASSERT_EQ(slo.RecentWindows().size(), 1u);
  EXPECT_EQ(slo.RecentWindows()[0].start_us, 0);
  EXPECT_EQ(slo.RecentWindows()[0].end_us, 1000);
  EXPECT_EQ(slo.RecentWindows()[0].count, 2u);
}

TEST(SloTrackerTest, BreachCountedWhenP99ExceedsTarget) {
  SloTracker slo("commit_latency_ms", 1000, 10.0);
  for (int i = 0; i < 100; ++i) slo.Observe(i, 50.0);  // Way over target.
  slo.AdvanceTo(2000);  // Sampler tick closes the window with no new value.
  EXPECT_EQ(slo.windows_closed(), 1u);
  EXPECT_EQ(slo.breaches(), 1u);
  EXPECT_DOUBLE_EQ(slo.last_p99(), 50.0);
  ASSERT_EQ(slo.RecentWindows().size(), 1u);
  EXPECT_TRUE(slo.RecentWindows()[0].breached);
  // StatusLine carries the counters for SHOW REPLICA STATUS.
  std::string line = slo.StatusLine();
  EXPECT_NE(line.find("windows=1"), std::string::npos);
  EXPECT_NE(line.find("breaches=1"), std::string::npos);
}

TEST(SloTrackerTest, EmptyWindowsAreSkippedNotBreached) {
  SloTracker slo("staleness", 1000, 5.0);
  slo.Observe(500, 1.0);
  // A long quiet gap: windows [1000,2000) .. [9000,10000) saw nothing.
  slo.Observe(10500, 2.0);
  EXPECT_EQ(slo.windows_closed(), 1u);  // Only [0,1000) closed.
  EXPECT_EQ(slo.breaches(), 0u);
  // First window is aligned to a multiple of the window size even when
  // the first observation arrives mid-window.
  SloTracker aligned("x", 1000, 5.0);
  aligned.Observe(1700, 1.0);
  aligned.Observe(2100, 2.0);
  ASSERT_EQ(aligned.RecentWindows().size(), 1u);
  EXPECT_EQ(aligned.RecentWindows()[0].start_us, 1000);
}

TEST(SloTrackerTest, ResetClearsStateAndRetentionIsBounded) {
  SloTracker slo("x", 100, 1000.0);
  for (int w = 0; w < 200; ++w) {
    slo.Observe(w * 100 + 50, 1.0);
  }
  slo.AdvanceTo(100000);
  EXPECT_EQ(slo.windows_closed(), 200u);
  EXPECT_LE(slo.RecentWindows().size(), SloTracker::kRetainedWindows);
  slo.Reset();
  EXPECT_EQ(slo.windows_closed(), 0u);
  EXPECT_EQ(slo.current_count(), 0u);
  EXPECT_TRUE(slo.RecentWindows().empty());
  EXPECT_DOUBLE_EQ(slo.last_p99(), 0.0);
}

}  // namespace
}  // namespace replidb::obs
