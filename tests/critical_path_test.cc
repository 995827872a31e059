// Critical-path profiler tests: segmentation algebra, collector chain
// lifecycle, exemplar retention, render determinism — and the profiler's
// core contract as an end-to-end property: for every chain closed by a
// real cluster run, in all four replication modes, the per-stage
// attribution sums EXACTLY (integer microseconds, no epsilon) to the
// measured window, and client-chain windows are exactly the latencies the
// driver reports to the application.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "middleware/cluster.h"
#include "obs/critical_path.h"
#include "sim/simulator.h"

namespace replidb::obs {
namespace {

using middleware::Cluster;
using middleware::ClusterOptions;
using middleware::ReplicationMode;
using sim::kMillisecond;
using sim::kSecond;

int64_t SumStages(const int64_t stage_us[kNumWaitStates]) {
  int64_t total = 0;
  for (int s = 0; s < kNumWaitStates; ++s) total += stage_us[s];
  return total;
}

int64_t SumStages(const ChainSummary& c) { return SumStages(c.stage_us); }

// ---------------------------------------------------------------------------
// SegmentWaitEdges: the attribution algebra.

TEST(SegmentWaitEdgesTest, EmptyEdgesChargeWholeWindowToOther) {
  int64_t stage[kNumWaitStates] = {};
  auto segs = SegmentWaitEdges({}, 100, 200, stage);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0].state, WaitState::kOther);
  EXPECT_EQ(segs[0].start_us, 100);
  EXPECT_EQ(segs[0].end_us, 200);
  EXPECT_EQ(stage[static_cast<int>(WaitState::kOther)], 100);
  EXPECT_EQ(SumStages(stage), 100);
}

TEST(SegmentWaitEdgesTest, NonOverlappingEdgesAndGapAttributeExactly) {
  std::vector<WaitEdge> edges = {
      {WaitState::kQueue, 100, 140},
      {WaitState::kService, 140, 190},
  };
  int64_t stage[kNumWaitStates] = {};
  auto segs = SegmentWaitEdges(edges, 100, 200, stage);
  ASSERT_EQ(segs.size(), 3u);
  EXPECT_EQ(segs[0].state, WaitState::kQueue);
  EXPECT_EQ(segs[1].state, WaitState::kService);
  EXPECT_EQ(segs[2].state, WaitState::kOther);
  EXPECT_EQ(stage[static_cast<int>(WaitState::kQueue)], 40);
  EXPECT_EQ(stage[static_cast<int>(WaitState::kService)], 50);
  EXPECT_EQ(stage[static_cast<int>(WaitState::kOther)], 10);
  EXPECT_EQ(SumStages(stage), 100);
}

TEST(SegmentWaitEdgesTest, OverlapResolvesFirstComeWins) {
  // The net edge starts inside the queue edge: queue keeps [100,160); the
  // net edge is only credited its uncovered tail [160,180).
  std::vector<WaitEdge> edges = {
      {WaitState::kQueue, 100, 160},
      {WaitState::kNetTransit, 120, 180},
  };
  int64_t stage[kNumWaitStates] = {};
  auto segs = SegmentWaitEdges(edges, 100, 200, stage);
  EXPECT_EQ(stage[static_cast<int>(WaitState::kQueue)], 60);
  EXPECT_EQ(stage[static_cast<int>(WaitState::kNetTransit)], 20);
  EXPECT_EQ(stage[static_cast<int>(WaitState::kOther)], 20);
  EXPECT_EQ(SumStages(stage), 100);
  ASSERT_GE(segs.size(), 2u);
  EXPECT_EQ(segs[0].end_us, 160);
  EXPECT_EQ(segs[1].start_us, 160);
}

TEST(SegmentWaitEdgesTest, EdgesClipToWindow) {
  // One edge starts before open, another ends after close: both clip.
  std::vector<WaitEdge> edges = {
      {WaitState::kCertOrder, 50, 130},
      {WaitState::kApplyBacklog, 180, 250},
  };
  int64_t stage[kNumWaitStates] = {};
  SegmentWaitEdges(edges, 100, 200, stage);
  EXPECT_EQ(stage[static_cast<int>(WaitState::kCertOrder)], 30);
  EXPECT_EQ(stage[static_cast<int>(WaitState::kApplyBacklog)], 20);
  EXPECT_EQ(SumStages(stage), 100);
}

TEST(SegmentWaitEdgesTest, SegmentsTileTheWindowContiguously) {
  // Messy input — duplicates, overlaps, out-of-window edges — must still
  // produce a gapless tiling of [open, close] whose sums hit the window.
  std::vector<WaitEdge> edges = {
      {WaitState::kQueue, 300, 420},      {WaitState::kQueue, 300, 420},
      {WaitState::kCreditStall, 380, 500}, {WaitState::kService, 600, 700},
      {WaitState::kLock, 900, 1500},       {WaitState::kGroupCommit, 10, 20},
  };
  int64_t stage[kNumWaitStates] = {};
  auto segs = SegmentWaitEdges(edges, 250, 1000, stage);
  ASSERT_FALSE(segs.empty());
  EXPECT_EQ(segs.front().start_us, 250);
  EXPECT_EQ(segs.back().end_us, 1000);
  for (size_t i = 1; i < segs.size(); ++i) {
    EXPECT_EQ(segs[i - 1].end_us, segs[i].start_us) << "gap at segment " << i;
  }
  EXPECT_EQ(SumStages(stage), 750);
  EXPECT_EQ(stage[static_cast<int>(WaitState::kGroupCommit)], 0)
      << "edge entirely before the window must not be credited";
}

// ---------------------------------------------------------------------------
// Collector lifecycle. The collector is a process-global singleton, so
// every test scrubs it before and after.

class CollectorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto& cp = CriticalPathCollector::Global();
    cp.Reset();
    cp.Enable();
    cp.SetMode("test");
  }
  void TearDown() override {
    auto& cp = CriticalPathCollector::Global();
    cp.Disable();
    cp.Reset();
  }
};

TEST_F(CollectorTest, OpenRecordCloseAttributesAndRetains) {
  auto& cp = CriticalPathCollector::Global();
  cp.OpenChain(ChainKind::kClient, 7, 0, 1000);
  EXPECT_EQ(cp.open_chains(), 1u);
  cp.RecordWait(ChainKind::kClient, 7, 0, WaitState::kQueue, 1000, 1600);
  cp.CloseChain(ChainKind::kClient, 7, 0, 2000, ChainOutcome::kCommit);
  EXPECT_EQ(cp.open_chains(), 0u);
  EXPECT_EQ(cp.closed_chains(), 1u);

  auto retained = cp.RetainedChains();
  ASSERT_EQ(retained.size(), 1u);
  const ChainSummary& c = retained[0];
  EXPECT_EQ(c.id, 7u);
  EXPECT_EQ(c.TotalUs(), 1000);
  EXPECT_EQ(c.stage_us[static_cast<int>(WaitState::kQueue)], 600);
  EXPECT_EQ(c.stage_us[static_cast<int>(WaitState::kOther)], 400);
  EXPECT_EQ(SumStages(c), c.TotalUs());
  // Retained chains keep their edges: the rendered trace segments them.
  ASSERT_EQ(c.edges.size(), 1u);
  EXPECT_EQ(c.edges[0].start_us, 1000);
  EXPECT_EQ(c.edges[0].end_us, 1600);

  std::string table = cp.RenderAttributionTable();
  EXPECT_NE(table.find("chain=client outcome=commit"), std::string::npos);
  EXPECT_NE(table.find("queue"), std::string::npos);
}

TEST_F(CollectorTest, CloseUnknownAndWaitOnUnknownAreNoOps) {
  auto& cp = CriticalPathCollector::Global();
  cp.RecordWait(ChainKind::kClient, 99, 0, WaitState::kQueue, 0, 10);
  cp.CloseChain(ChainKind::kClient, 99, 0, 10, ChainOutcome::kCommit);
  EXPECT_EQ(cp.closed_chains(), 0u);
  EXPECT_EQ(cp.open_chains(), 0u);
}

TEST_F(CollectorTest, ReopenKeepsOriginalWindowStart) {
  auto& cp = CriticalPathCollector::Global();
  cp.OpenChain(ChainKind::kApply, 5, 2, 100);
  cp.OpenChain(ChainKind::kApply, 5, 2, 900);  // No-op: already open.
  cp.CloseChain(ChainKind::kApply, 5, 2, 1100, ChainOutcome::kApplied);
  auto retained = cp.RetainedChains();
  ASSERT_EQ(retained.size(), 1u);
  EXPECT_EQ(retained[0].open_us, 100);
  EXPECT_EQ(retained[0].sub, 2u);
  EXPECT_EQ(retained[0].TotalUs(), 1000);
}

TEST_F(CollectorTest, ExemplarsKeepSlowestChainsWithEdges) {
  auto& cp = CriticalPathCollector::Global();
  const int n = static_cast<int>(CriticalPathCollector::kMaxExemplars) + 6;
  for (int i = 0; i < n; ++i) {
    uint64_t id = static_cast<uint64_t>(i + 1);
    int64_t open = 0, close = 100 * (i + 1);  // Monotonically slower.
    cp.OpenChain(ChainKind::kClient, id, 0, open);
    cp.RecordWait(ChainKind::kClient, id, 0, WaitState::kApplyBacklog, open,
                  close / 2);
    cp.CloseChain(ChainKind::kClient, id, 0, close, ChainOutcome::kCommit);
  }
  auto ex = cp.Exemplars();
  ASSERT_EQ(ex.size(), CriticalPathCollector::kMaxExemplars);
  // Slowest first, strictly ordered, and the fast head of the run evicted.
  EXPECT_EQ(ex.front().id, static_cast<uint64_t>(n));
  for (size_t i = 1; i < ex.size(); ++i) {
    EXPECT_GE(ex[i - 1].TotalUs(), ex[i].TotalUs());
  }
  for (const ChainSummary& c : ex) {
    EXPECT_FALSE(c.edges.empty()) << "exemplars must carry their raw edges";
    EXPECT_GT(c.TotalUs(), 600) << "a fast chain survived exemplar eviction";
  }
  EXPECT_NE(cp.RenderWorstExemplar().find("apply_backlog"), std::string::npos);
}

TEST_F(CollectorTest, SidecarJsonlHasHeaderChainsAndExemplarEdges) {
  auto& cp = CriticalPathCollector::Global();
  cp.OpenChain(ChainKind::kClient, 1, 0, 0);
  cp.RecordWait(ChainKind::kClient, 1, 0, WaitState::kQueue, 0, 600);
  cp.CloseChain(ChainKind::kClient, 1, 0, 1000, ChainOutcome::kCommit);
  std::string jsonl = cp.RenderWaitEdgesJsonl();
  EXPECT_EQ(jsonl.rfind("{\"schema\":1", 0), 0u) << jsonl.substr(0, 80);
  EXPECT_NE(jsonl.find("\"mode\":\"test\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"kind\":\"client\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"queue\":600"), std::string::npos);
  EXPECT_NE(jsonl.find("\"edges\":[[\"queue\",0,600]]"), std::string::npos);
  // Edges ride only on the exemplar line, not on the retained line.
  EXPECT_EQ(jsonl.find("\"edges\""), jsonl.rfind("\"edges\""));
}

TEST_F(CollectorTest, RendersAreByteIdenticalAcrossIdenticalRuns) {
  auto& cp = CriticalPathCollector::Global();
  auto feed = [&cp]() {
    Rng rng(1234);  // Fixed workload seed; collector rng is internal.
    for (int i = 0; i < 500; ++i) {
      uint64_t id = static_cast<uint64_t>(i + 1);
      int64_t open = static_cast<int64_t>(rng.Uniform(1000));
      int64_t dur = 100 + static_cast<int64_t>(rng.Uniform(9000));
      cp.OpenChain(ChainKind::kClient, id, 0, open);
      cp.RecordWait(ChainKind::kClient, id, 0, WaitState::kQueue, open,
                    open + dur / 3);
      cp.RecordWait(ChainKind::kClient, id, 0, WaitState::kService,
                    open + dur / 3, open + dur / 2);
      cp.CloseChain(ChainKind::kClient, id, 0, open + dur,
                    i % 7 == 0 ? ChainOutcome::kAbort : ChainOutcome::kCommit);
    }
  };
  feed();
  std::string table1 = cp.RenderAttributionTable();
  std::string jsonl1 = cp.RenderWaitEdgesJsonl();
  cp.Reset();  // Reseeds the reservoir rng.
  feed();
  EXPECT_EQ(table1, cp.RenderAttributionTable())
      << "reservoir subsampling must be deterministic across Reset()";
  EXPECT_EQ(jsonl1, cp.RenderWaitEdgesJsonl());
}

TEST_F(CollectorTest, ResetDropsEverything) {
  auto& cp = CriticalPathCollector::Global();
  cp.OpenChain(ChainKind::kClient, 1, 0, 0);
  cp.CloseChain(ChainKind::kClient, 1, 0, 10, ChainOutcome::kCommit);
  cp.OpenChain(ChainKind::kClient, 2, 0, 0);
  cp.Reset();
  EXPECT_EQ(cp.open_chains(), 0u);
  EXPECT_EQ(cp.closed_chains(), 0u);
  EXPECT_TRUE(cp.RetainedChains().empty());
  EXPECT_TRUE(cp.Exemplars().empty());
  EXPECT_TRUE(cp.StageStats().empty());
}

// ---------------------------------------------------------------------------
// The sum-to-latency property, end to end, in all four replication modes:
// drive a real cluster with a closed loop, capture every latency the
// driver hands the application, and require (a) every closed chain's
// stage attribution to sum exactly to its window and (b) the multiset of
// client-chain windows to equal the multiset of reported latencies.

class SumToLatencyTest : public ::testing::TestWithParam<ReplicationMode> {};

TEST_P(SumToLatencyTest, StageAttributionSumsExactlyToMeasuredLatency) {
  auto& cp = CriticalPathCollector::Global();
  cp.Reset();
  cp.Enable();
  cp.SetMode(middleware::ReplicationModeName(GetParam()));

  ClusterOptions opts;
  opts.replicas = 3;
  opts.drivers = 1;
  opts.controller.mode = GetParam();
  opts.controller.seed = 42;
  Cluster c(std::move(opts));
  std::vector<std::string> setup;
  setup.push_back("CREATE TABLE t (id INT PRIMARY KEY, v INT)");
  for (int i = 0; i < 20; ++i) {
    setup.push_back("INSERT INTO t VALUES (" + std::to_string(i) + ", 0)");
  }
  c.Setup(setup);
  c.Start();

  // Closed loop of 6 clients; exact (microsecond) latencies captured from
  // the driver callback, not from the ms-rounded RunStats histograms.
  Rng rng(42);
  std::multiset<int64_t> latencies;
  const sim::TimePoint stop = c.sim.Now() + 2 * kSecond;
  std::function<void()> kick = [&]() {
    if (c.sim.Now() >= stop) return;
    middleware::TxnRequest req;
    uint64_t pick = rng.Uniform(10);
    if (pick < 4) {
      req.read_only = true;
      req.statements.push_back("SELECT * FROM t WHERE id = " +
                               std::to_string(rng.UniformRange(0, 19)));
    } else {
      req.read_only = false;
      req.statements.push_back(
          "UPDATE t SET v = v + 1 WHERE id = " +
          std::to_string(rng.UniformRange(0, 19)));
    }
    c.driver()->Submit(std::move(req), [&](const middleware::TxnResult& r) {
      latencies.insert(static_cast<int64_t>(r.latency));
      kick();
    });
  };
  for (int i = 0; i < 6; ++i) kick();
  c.sim.RunFor(2 * kSecond + kSecond);  // Loop window + drain.

  ASSERT_GT(latencies.size(), 100u) << "closed loop made no progress";
  EXPECT_EQ(cp.dropped_chains(), 0u);

  auto retained = cp.RetainedChains();
  ASSERT_EQ(retained.size(), cp.closed_chains());
  std::multiset<int64_t> client_windows;
  uint64_t apply_chains = 0;
  for (const ChainSummary& chain : retained) {
    // THE property: integer-exact attribution, per chain, no epsilon.
    ASSERT_EQ(SumStages(chain), chain.TotalUs())
        << ChainKindName(chain.kind) << " chain id=" << chain.id
        << " sub=" << chain.sub << " window=" << chain.TotalUs();
    EXPECT_GE(chain.TotalUs(), 0);
    if (chain.kind == ChainKind::kClient) {
      client_windows.insert(chain.TotalUs());
    } else {
      ++apply_chains;
      EXPECT_EQ(chain.outcome, ChainOutcome::kApplied);
    }
  }

  // Client chains ARE the driver-reported latencies. Chains still open at
  // the horizon have no callback either, so the multisets match exactly.
  EXPECT_EQ(client_windows, latencies)
      << "client chain windows diverge from TxnResult.latency";
  // Apply chains exist only where writes ride the ship/apply pipeline;
  // statement-based multi-master broadcasts and executes statements
  // directly, so it has client chains alone.
  if (GetParam() == ReplicationMode::kMasterSlaveAsync ||
      GetParam() == ReplicationMode::kMultiMasterCertification) {
    EXPECT_GT(apply_chains, 0u)
        << "replicas applied writes but no apply chains closed";
  }

  cp.Disable();
  cp.Reset();
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, SumToLatencyTest,
    ::testing::Values(ReplicationMode::kMasterSlaveAsync,
                      ReplicationMode::kMasterSlaveSync,
                      ReplicationMode::kMultiMasterStatement,
                      ReplicationMode::kMultiMasterCertification),
    [](const ::testing::TestParamInfo<ReplicationMode>& info) {
      switch (info.param) {
        case ReplicationMode::kMasterSlaveAsync:
          return std::string("MasterSlaveAsync");
        case ReplicationMode::kMasterSlaveSync:
          return std::string("MasterSlaveSync");
        case ReplicationMode::kMultiMasterStatement:
          return std::string("MultiMasterStatement");
        case ReplicationMode::kMultiMasterCertification:
          return std::string("MultiMasterCertification");
      }
      return std::string("Unknown");
    });

// ---------------------------------------------------------------------------
// Dependency-aware parallel apply must preserve the integer-exact
// attribution property: with the conflict-graph scheduler the apply chain
// gains a dep_wait stage (and splits its backlog around it), and the
// worker is reserved only from the conflict-resolved start — so the
// per-stage sums must still tile each chain's lag window exactly, with
// no double-counted lock wait.

TEST(ParallelApplySumTest, StageSumsStayExactUnderConflictGraph) {
  auto& cp = CriticalPathCollector::Global();
  cp.Reset();
  cp.Enable();
  cp.SetMode("parallel-apply");

  ClusterOptions opts;
  opts.replicas = 3;
  opts.drivers = 1;
  opts.controller.mode = ReplicationMode::kMasterSlaveAsync;
  opts.controller.seed = 7;
  opts.replica.apply_workers = 4;
  opts.replica.apply_policy = middleware::ApplyPolicy::kConflictGraph;
  // A deliberately slow applier: the stream saturates the pool, so both
  // backlog (pool-bound) and dep_wait (conflict-bound) stages appear.
  opts.replica.apply_base_us = 1800;
  opts.replica.apply_per_op_us = 100;
  Cluster c(std::move(opts));
  std::vector<std::string> setup;
  setup.push_back("CREATE TABLE t (id INT PRIMARY KEY, v INT)");
  for (int i = 0; i < 10; ++i) {
    setup.push_back("INSERT INTO t VALUES (" + std::to_string(i) + ", 0)");
  }
  c.Setup(setup);
  c.Start();

  Rng rng(7);
  uint64_t done = 0;
  const sim::TimePoint stop = c.sim.Now() + 2 * kSecond;
  std::function<void()> kick = [&]() {
    if (c.sim.Now() >= stop) return;
    middleware::TxnRequest req;
    req.read_only = false;
    // All writes over 10 hot rows: consecutive stream entries frequently
    // share a conflict key, which is what exercises dep_wait.
    req.statements.push_back("UPDATE t SET v = v + 1 WHERE id = " +
                             std::to_string(rng.UniformRange(0, 9)));
    c.driver()->Submit(std::move(req), [&](const middleware::TxnResult&) {
      ++done;
      kick();
    });
  };
  for (int i = 0; i < 8; ++i) kick();
  c.sim.RunFor(2 * kSecond + 4 * kSecond);  // Loop window + apply drain.

  ASSERT_GT(done, 100u) << "closed loop made no progress";
  EXPECT_EQ(cp.dropped_chains(), 0u);

  uint64_t apply_chains = 0;
  int64_t dep_wait_total = 0;
  int64_t backlog_total = 0;
  for (const ChainSummary& chain : cp.RetainedChains()) {
    ASSERT_EQ(SumStages(chain), chain.TotalUs())
        << ChainKindName(chain.kind) << " chain id=" << chain.id
        << " sub=" << chain.sub << " window=" << chain.TotalUs();
    if (chain.kind != ChainKind::kApply) continue;
    ++apply_chains;
    dep_wait_total += chain.stage_us[static_cast<int>(WaitState::kDepWait)];
    backlog_total +=
        chain.stage_us[static_cast<int>(WaitState::kApplyBacklog)];
  }
  ASSERT_GT(apply_chains, 0u);
  // The hot-row workload must actually exercise the dependency graph —
  // otherwise this test would pass vacuously with a serial scheduler.
  EXPECT_GT(dep_wait_total, 0) << "no conflict wait attributed: the "
                                  "conflict-graph scheduler never blocked";
  EXPECT_GT(backlog_total, 0);

  cp.Disable();
  cp.Reset();
}

}  // namespace
}  // namespace replidb::obs
