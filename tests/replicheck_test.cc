// End-to-end tests for tools/replicheck: each rule gets a violating and a
// clean fixture tree, plus allow-directive suppression/inventory and exit
// codes. The binary path is injected by CMake as REPLICHECK_BIN.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

namespace {

namespace fs = std::filesystem;

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr combined.
};

/// One disposable source tree per test case, rooted in the gtest temp dir.
class ReplicheckTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    root_ = fs::path(::testing::TempDir()) / "replicheck" / info->name();
    fs::remove_all(root_);
    fs::create_directories(root_);
  }

  void TearDown() override { fs::remove_all(root_); }

  void WriteFile(const std::string& rel, const std::string& content) {
    fs::path p = root_ / rel;
    fs::create_directories(p.parent_path());
    std::ofstream out(p);
    ASSERT_TRUE(out.is_open()) << p;
    out << content;
  }

  RunResult Run(const std::string& extra_args = "") {
    std::string cmd = std::string(REPLICHECK_BIN) + " --root " +
                      root_.string() + " " + extra_args + " 2>&1";
    RunResult r;
    FILE* pipe = popen(cmd.c_str(), "r");
    EXPECT_NE(pipe, nullptr) << cmd;
    if (!pipe) return r;
    char buf[4096];
    size_t n;
    while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0) {
      r.output.append(buf, n);
    }
    int status = pclose(pipe);
    r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return r;
  }

  fs::path root_;
};

constexpr char kCleanSource[] = R"cc(
#include "common/rng.h"
int Sum(int a, int b) { return a + b; }
)cc";

TEST_F(ReplicheckTest, CleanTreeExitsZero) {
  WriteFile("src/clean.cc", kCleanSource);
  RunResult r = Run();
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 violations"), std::string::npos) << r.output;
}

TEST_F(ReplicheckTest, MissingTreeExitsTwo) {
  RunResult r = Run();  // Empty root: no src/tests/bench at all.
  EXPECT_EQ(r.exit_code, 2) << r.output;
}

TEST_F(ReplicheckTest, ListRulesExitsZero) {
  WriteFile("src/clean.cc", kCleanSource);
  RunResult r = Run("--list-rules");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  for (const char* rule :
       {"raw-rng", "wall-clock", "addr-identity", "unordered-iter",
        "send-size", "raw-mutex", "lock-rank", "codec-registry",
        "wait-state", "raw-io", "any-copy", "lock-graph", "dead-rank",
        "det-taint"}) {
    EXPECT_NE(r.output.find(rule), std::string::npos)
        << "rule " << rule << " missing from --list-rules\n" << r.output;
  }
}

// --- raw-rng ---------------------------------------------------------------

TEST_F(ReplicheckTest, RawRngEngineIsFlagged) {
  WriteFile("src/gen.cc", R"cc(
#include <random>
std::mt19937 g_gen(42);
int Roll() { return rand(); }
)cc");
  RunResult r = Run();
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[raw-rng] 'mt19937'"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("[raw-rng] 'rand'"), std::string::npos) << r.output;
}

TEST_F(ReplicheckTest, RawRngAppliesToTestsToo) {
  WriteFile("tests/gen_test.cc", "std::mt19937_64 rng(7);\n");
  RunResult r = Run();
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("raw-rng"), std::string::npos) << r.output;
}

TEST_F(ReplicheckTest, RngMentionsInCommentsAndStringsAreIgnored) {
  WriteFile("src/doc.cc", R"cc(
// std::mt19937 would be wrong here; rand() too.
const char* kNote = "uses mt19937 internally";
int F() { return 1; }
)cc");
  RunResult r = Run();
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(ReplicheckTest, MemberNamedRandIsNotLibcRand) {
  WriteFile("src/member.cc", "int G(Rng& r) { return r.rand() + p->rand(); }\n");
  RunResult r = Run();
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

// --- wall-clock ------------------------------------------------------------

TEST_F(ReplicheckTest, WallClockInSrcIsFlagged) {
  WriteFile("src/now.cc", R"cc(
#include <chrono>
long Now() {
  return std::chrono::system_clock::now().time_since_epoch().count();
}
long Epoch() {
  long e = time(nullptr);
  return e;
}
)cc");
  RunResult r = Run();
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[wall-clock] 'system_clock'"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("[wall-clock] 'time()'"), std::string::npos)
      << r.output;
}

TEST_F(ReplicheckTest, WallClockOutsideSrcIsAllowed) {
  // Tests may time themselves; only simulation code is clock-restricted.
  WriteFile("tests/bench_test.cc",
            "auto t = std::chrono::steady_clock::now();\n");
  RunResult r = Run();
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

// --- addr-identity ---------------------------------------------------------

TEST_F(ReplicheckTest, PointerFormatAndPointerKeyedMapAreFlagged) {
  WriteFile("src/addr.cc", R"cc(
#include <cstdio>
#include <map>
struct Widget {};
std::map<Widget*, int> g_by_widget;
void Dump(Widget* w) { std::printf("widget at %p\n", (void*)w); }
)cc");
  RunResult r = Run();
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("addr-identity"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("%p"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("keyed by a pointer"), std::string::npos) << r.output;
}

TEST_F(ReplicheckTest, ValueKeyedMapIsClean) {
  WriteFile("src/val.cc",
            "#include <map>\n#include <string>\n"
            "std::map<std::string, int> g_by_name;\n");
  RunResult r = Run();
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

// --- unordered-iter --------------------------------------------------------

TEST_F(ReplicheckTest, UnorderedIterationInReplicationDirIsFlagged) {
  WriteFile("src/engine/scan.cc", R"cc(
#include <unordered_map>
std::unordered_map<int, int> g_rows;
int Total() {
  int sum = 0;
  for (const auto& kv : g_rows) sum += kv.second;
  return sum;
}
)cc");
  RunResult r = Run();
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[unordered-iter]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("g_rows"), std::string::npos) << r.output;
}

TEST_F(ReplicheckTest, UnorderedIterationResolvesThroughIncludes) {
  // The container lives in a header; the iteration in a .cc that includes
  // it (quoted includes are rooted at src/).
  WriteFile("src/engine/table.h",
            "#include <unordered_map>\n"
            "inline std::unordered_map<int, int> g_pending;\n");
  WriteFile("src/engine/table.cc", R"cc(
#include "engine/table.h"
void Wipe() {
  for (auto it = g_pending.begin(); it != g_pending.end(); ++it) {}
}
)cc");
  RunResult r = Run();
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[unordered-iter]"), std::string::npos) << r.output;
}

TEST_F(ReplicheckTest, UnorderedIterationOutsideTaggedDirsIsClean) {
  WriteFile("src/obs/stats.cc", R"cc(
#include <unordered_map>
std::unordered_map<int, int> g_counts;
int Total() {
  int sum = 0;
  for (const auto& kv : g_counts) sum += kv.second;
  return sum;
}
)cc");
  RunResult r = Run();
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

// --- allow directives ------------------------------------------------------

TEST_F(ReplicheckTest, AllowCommentSuppressesAndIsInventoried) {
  WriteFile("src/engine/scan.cc", R"cc(
#include <unordered_map>
std::unordered_map<int, int> g_rows;
int Total() {
  int sum = 0;
  // replicheck:allow(unordered-iter) commutative sum; order never escapes
  for (const auto& kv : g_rows) sum += kv.second;
  return sum;
}
)cc");
  RunResult r = Run();
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("1 suppressed by 1 allow directive (0 unused)"),
            std::string::npos)
      << r.output;
}

TEST_F(ReplicheckTest, AllowForTheWrongRuleDoesNotSuppress) {
  WriteFile("src/engine/scan.cc", R"cc(
#include <unordered_map>
std::unordered_map<int, int> g_rows;
int Total() {
  int sum = 0;
  // replicheck:allow(raw-rng) wrong rule on purpose
  for (const auto& kv : g_rows) sum += kv.second;
  return sum;
}
)cc");
  RunResult r = Run();
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[unordered-iter]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("[UNUSED]"), std::string::npos) << r.output;
}

TEST_F(ReplicheckTest, StaleAllowIsReportedUnused) {
  WriteFile("src/tidy.cc",
            "// replicheck:allow(raw-rng) leftover from deleted code\n"
            "int F() { return 1; }\n");
  RunResult r = Run();
  EXPECT_EQ(r.exit_code, 0) << r.output;  // Unused allows warn, not fail.
  EXPECT_NE(r.output.find("[UNUSED]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("(1 unused)"), std::string::npos) << r.output;
}

// --- send-size -------------------------------------------------------------

TEST_F(ReplicheckTest, BareLiteralSendSizeIsFlagged) {
  WriteFile("src/net/ping.cc", R"cc(
void Ping(Net& net_) {
  net_.Send(1, "ping", Body{}, 64);
}
)cc");
  RunResult r = Run();
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[send-size]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("'64'"), std::string::npos) << r.output;
}

TEST_F(ReplicheckTest, NamedOrComputedSendSizeIsClean) {
  WriteFile("src/net/ping.cc", R"cc(
constexpr long kPingWireBytes = 64;
void Ping(Net& net_, long payload) {
  net_.Send(1, "ping", Body{}, kPingWireBytes);
  net_.Send(2, "data", Body{}, payload + 48);
}
)cc");
  RunResult r = Run();
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

// --- raw-mutex / lock-rank -------------------------------------------------

TEST_F(ReplicheckTest, RawStdMutexIsFlagged) {
  WriteFile("src/svc.cc", "#include <mutex>\nstd::mutex g_mu;\n");
  RunResult r = Run();
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[raw-mutex]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("OrderedMutex"), std::string::npos) << r.output;
}

TEST_F(ReplicheckTest, UndeclaredLockRankIsFlagged) {
  WriteFile("src/common/locks.h",
            "enum class LockRank { kLogClock = 10, kTracer = 40, };\n");
  WriteFile("src/svc.cc",
            "OrderedMutex a{LockRank::kLogClock};\n"   // Declared: clean.
            "OrderedMutex b{LockRank::kBogus};\n");    // Not in the table.
  RunResult r = Run();
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[lock-rank]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("kBogus"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("kLogClock"), std::string::npos) << r.output;
}

// --- wait-state ------------------------------------------------------------

TEST_F(ReplicheckTest, StringLiteralWaitStateIsFlagged) {
  WriteFile("src/obs/site.cc", R"cc(
void Mark(Collector& cp) {
  cp.RecordWait(obs::ChainKind::kClient, 7, 0, "queue", 10, 20);
}
)cc");
  RunResult r = Run();
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[wait-state]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("WaitState"), std::string::npos) << r.output;
}

TEST_F(ReplicheckTest, EnumWaitStateIsClean) {
  WriteFile("src/obs/site.cc", R"cc(
void Mark(Collector& cp) {
  cp.RecordWait(obs::ChainKind::kClient, 7, 0, obs::WaitState::kQueue, 10,
                20);
}
const char* Describe() { return "RecordWait(queue)"; }
)cc");
  RunResult r = Run();
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(ReplicheckTest, WaitStateOutsideSrcIsNotChecked) {
  // Tests may fabricate sidecar lines / call fixtures however they like.
  WriteFile("tests/path_test.cc",
            "void F(C& cp) { cp.RecordWait(k, 1, 0, \"queue\", 0, 1); }\n");
  RunResult r = Run();
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

// --- raw-io ----------------------------------------------------------------

TEST_F(ReplicheckTest, RawFileIoOutsideBinlogIsFlagged) {
  WriteFile("src/engine/dump.cc", R"cc(
#include <cstdio>
void Dump(const char* path) {
  std::FILE* f = std::fopen(path, "w");
  fwrite("x", 1, 1, f);
  fsync(1);
}
)cc");
  RunResult r = Run();
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[raw-io]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("fopen"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("fwrite"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("fsync"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("binlog::LogStore"), std::string::npos) << r.output;
}

TEST_F(ReplicheckTest, RawFileIoInsideBinlogIsTheOnePlaceItBelongs) {
  WriteFile("src/binlog/file_log_store.cc", R"cc(
#include <cstdio>
void Flush(std::FILE* f, const char* buf, unsigned long n) {
  fwrite(buf, 1, n, f);
  fsync(1);
}
)cc");
  RunResult r = Run();
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(ReplicheckTest, MemberAndNamespacedWriteAreNotRawIo) {
  WriteFile("src/net/sender.cc", R"cc(
void Pump(Socket& s, Codec* c) {
  s.write(1);
  c->write(2);
  wire::write(3);
}
)cc");
  RunResult r = Run();
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(ReplicheckTest, RawIoOutsideSrcIsNotChecked) {
  // Tools and tests may touch files directly (temp dirs, report dumps).
  WriteFile("tests/io_test.cc",
            "#include <cstdio>\n"
            "void F() { std::FILE* f = fopen(\"/tmp/x\", \"w\"); (void)f; }\n");
  RunResult r = Run();
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

// --- any-copy --------------------------------------------------------------

TEST_F(ReplicheckTest, ByValueBodyCastIsFlagged) {
  WriteFile("src/middleware/handler.cc", R"cc(
#include <any>
void Handle(const net::Message& m) {
  auto reply = std::any_cast<ExecTxnReply>(m.body);
  Use(reply);
}
)cc");
  RunResult r = Run();
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[any-copy]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("handler.cc:4"), std::string::npos) << r.output;
}

TEST_F(ReplicheckTest, PointerAndReferenceBodyCastsAreClean) {
  WriteFile("src/middleware/handler.cc", R"cc(
#include <any>
void Handle(const net::Message& m) {
  const auto* batch = std::any_cast<ShipBatchMsg>(&m.body);
  const auto& reply = std::any_cast<const ExecTxnReply&>(m.body);
  auto copy = std::any_cast<Options>(config_any);
  Use(batch, reply, copy);
}
)cc");
  // Outside src/ (benches, tests) a copied body is the caller's business.
  WriteFile("bench/util.h",
            "auto r = std::any_cast<ExecTxnReply>(m.body);\n");
  RunResult r = Run();
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(ReplicheckTest, WaivedBodyCopyIsSuppressed) {
  WriteFile("src/net/probe.cc", R"cc(
#include <any>
void Handle(const net::Message& m) {
  // replicheck:allow(any-copy) the body is one integer
  auto probe = std::any_cast<ProbeBody>(m.body);
  Use(probe);
}
)cc");
  RunResult r = Run();
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("1 suppressed by 1 allow directive (0 unused)"),
            std::string::npos)
      << r.output;
}

// --- codec-registry --------------------------------------------------------

TEST_F(ReplicheckTest, UnregisteredWireMessageIsFlagged) {
  WriteFile("src/middleware/messages.h",
            "struct PingMsg { int a; };\n"
            "struct PongMsg { int b; };\n");
  WriteFile("src/middleware/wire_registry.h",
            "#define REPLIDB_WIRE_MESSAGES(X) \\\n"
            "  X(PingMsg, kMsgPing)\n");
  RunResult r = Run();
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[codec-registry]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("PongMsg"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("struct PingMsg is not registered"),
            std::string::npos)
      << r.output;
}

TEST_F(ReplicheckTest, FullyRegisteredMessagesAreClean) {
  WriteFile("src/middleware/messages.h",
            "struct PingMsg { int a; };\n");
  WriteFile("src/middleware/wire_registry.h",
            "#define REPLIDB_WIRE_MESSAGES(X) \\\n"
            "  X(PingMsg, kMsgPing)\n");
  RunResult r = Run();
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

// --- lock-graph (interprocedural) ------------------------------------------

constexpr char kTwoRankTable[] =
    "enum class LockRank { kA = 10, kB = 20 };\n";

TEST_F(ReplicheckTest, TwoLockCycleIsFlagged) {
  WriteFile("src/common/locks.h", kTwoRankTable);
  WriteFile("src/cycle.cc", R"cc(
#include "common/locks.h"
common::OrderedMutex g_a{common::LockRank::kA};
common::OrderedMutex g_b{common::LockRank::kB};
void Fwd() {
  std::lock_guard<common::OrderedMutex> la(g_a);
  std::lock_guard<common::OrderedMutex> lb(g_b);
}
void Bwd() {
  std::lock_guard<common::OrderedMutex> lb(g_b);
  std::lock_guard<common::OrderedMutex> la(g_a);
}
)cc");
  RunResult r = Run();
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[lock-graph]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("lock-order cycle"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("kA"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("kB"), std::string::npos) << r.output;
}

TEST_F(ReplicheckTest, RankContradictionThroughCallIsFlagged) {
  // The inversion only exists across the call edge: Outer() holds kHigh
  // while TakeLow() acquires kLow. A per-function scanner cannot see it.
  WriteFile("src/common/locks.h",
            "enum class LockRank { kLow = 10, kHigh = 20 };\n");
  WriteFile("src/ipc.cc", R"cc(
#include "common/locks.h"
common::OrderedMutex g_low{common::LockRank::kLow};
common::OrderedMutex g_high{common::LockRank::kHigh};
void TakeLow() {
  std::lock_guard<common::OrderedMutex> l(g_low);
}
void Outer() {
  std::lock_guard<common::OrderedMutex> h(g_high);
  TakeLow();
}
)cc");
  RunResult r = Run();
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[lock-graph]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("contradicts the declared LockRank order"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("via call 'TakeLow'"), std::string::npos) << r.output;
}

TEST_F(ReplicheckTest, OrderedAcquisitionIsClean) {
  WriteFile("src/common/locks.h", kTwoRankTable);
  WriteFile("src/ord.cc", R"cc(
#include "common/locks.h"
common::OrderedMutex g_a{common::LockRank::kA};
common::OrderedMutex g_b{common::LockRank::kB};
void Fwd() {
  std::lock_guard<common::OrderedMutex> la(g_a);
  std::lock_guard<common::OrderedMutex> lb(g_b);
}
)cc");
  RunResult r = Run();
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("acyclic"), std::string::npos) << r.output;
}

TEST_F(ReplicheckTest, DeadRankIsFlagged) {
  WriteFile("src/common/locks.h",
            "enum class LockRank { kUsed = 10, kGhost = 20 };\n");
  WriteFile("src/use.cc", R"cc(
#include "common/locks.h"
common::OrderedMutex g_m{common::LockRank::kUsed};
void F() {
  std::lock_guard<common::OrderedMutex> l(g_m);
}
)cc");
  RunResult r = Run();
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[dead-rank]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("kGhost"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("LockRank::kUsed is declared"), std::string::npos)
      << r.output;
}

TEST_F(ReplicheckTest, UnrankedConstructionIsFlagged) {
  WriteFile("src/common/locks.h",
            "enum class LockRank { kOnly = 10 };\n");
  WriteFile("src/dyn.cc", R"cc(
#include "common/locks.h"
common::OrderedMutex g_ok{common::LockRank::kOnly};
common::OrderedMutex g_dyn{PickRank()};
)cc");
  RunResult r = Run();
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[lock-graph]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("'g_dyn'"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("name the rank explicitly"), std::string::npos)
      << r.output;
}

TEST_F(ReplicheckTest, LockDotExportsTheGraph) {
  WriteFile("src/common/locks.h", kTwoRankTable);
  WriteFile("src/ord.cc", R"cc(
#include "common/locks.h"
common::OrderedMutex g_a{common::LockRank::kA};
common::OrderedMutex g_b{common::LockRank::kB};
void Fwd() {
  std::lock_guard<common::OrderedMutex> la(g_a);
  std::lock_guard<common::OrderedMutex> lb(g_b);
}
)cc");
  fs::path dot = root_ / "graph.dot";
  RunResult r = Run("--lock-dot " + dot.string());
  EXPECT_EQ(r.exit_code, 0) << r.output;
  std::ifstream in(dot);
  ASSERT_TRUE(in.is_open()) << dot;
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("digraph replidb_lock_graph"), std::string::npos)
      << content;
  EXPECT_NE(content.find("\"kA\" [label=\"kA (10)\"]"), std::string::npos)
      << content;
  EXPECT_NE(content.find("\"kA\" -> \"kB\""), std::string::npos) << content;
}

// --- det-taint -------------------------------------------------------------

TEST_F(ReplicheckTest, EnvReadReachesWireThroughCall) {
  // The taint crosses one call hop: Ident() returns getenv output, the
  // caller forwards it into a Send argument.
  WriteFile("src/net/hello.cc", R"cc(
#include <cstdlib>
const char* Ident() { return getenv("REPLIDB_NAME"); }
void Announce(Net& net_) {
  const char* id = Ident();
  net_.Send(1, "hello", id, kHelloBytes);
}
)cc");
  RunResult r = Run();
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[det-taint]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("env-read"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("the replication wire (Send)"), std::string::npos)
      << r.output;
}

TEST_F(ReplicheckTest, AddrCastReachesBinlogAppend) {
  WriteFile("src/binlog/tag.cc", R"cc(
#include <cstdint>
void Tag(Store& commit_log, void* p) {
  unsigned long tag = reinterpret_cast<uintptr_t>(p);
  commit_log.Append(tag);
}
)cc");
  RunResult r = Run();
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[det-taint]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("addr-cast"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("the binlog (Append)"), std::string::npos)
      << r.output;
}

TEST_F(ReplicheckTest, EnvReadReachesEngineDigest) {
  WriteFile("src/engine/seed.cc", R"cc(
#include <cstdlib>
void Seed(State& st) {
  st.digest = (unsigned long)getenv("REPLIDB_SEED");
}
)cc");
  RunResult r = Run();
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[det-taint]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("the engine state digest"), std::string::npos)
      << r.output;
}

TEST_F(ReplicheckTest, ForwardedParameterIsNotTaint) {
  // Plain data flowing to a sink is fine; only nondeterminism sources flag.
  WriteFile("src/net/fwd.cc", R"cc(
void Forward(Net& net_, const Msg& m, long n) {
  net_.Send(1, "fwd", m, n);
}
)cc");
  RunResult r = Run();
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

// --- apply-scheduler contract ----------------------------------------------
// The replica apply scheduler is pure virtual-time metadata: worker free
// times and conflict-key completions may influence WHEN an apply is
// modeled to run, but must never reach the engine digest, the binlog, or
// the wire. These fixtures pin that contract on both sides: the passes
// must fire when a scheduler-shaped file crosses the line, and stay quiet
// on the idiom the real src/middleware/apply_scheduler.cc uses (which the
// RealSourceTreeIsClean test then checks directly).

TEST_F(ReplicheckTest, SchedulerStateLeakingIntoDigestIsFlagged) {
  // A completion hook folding a scheduler worker slot (here an address
  // cast, the canonical nondeterministic timing stand-in) into the
  // engine's digest is exactly the leak the pass must catch.
  WriteFile("src/engine/apply_hook.cc", R"cc(
#include <cstdint>
void Complete(State& st, void* worker) {
  unsigned long slot = reinterpret_cast<uintptr_t>(worker);
  unsigned long digest = slot;
  st.digest = digest;
}
)cc");
  RunResult r = Run();
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[det-taint]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("addr-cast"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("the engine state digest"), std::string::npos)
      << r.output;
}

TEST_F(ReplicheckTest, SchedulerTimingBookkeepingIsCleanAndRankedLocksPass) {
  // Ordered maps keyed by value, timing flowing only into scheduling
  // decisions, and rank-ordered lock acquisition around the shared
  // metrics registry: the scheduler idiom passes every pass.
  WriteFile("src/common/locks.h", kTwoRankTable);
  WriteFile("src/middleware/sched_ok.cc", R"cc(
#include <map>
#include <string>
#include "common/locks.h"
common::OrderedMutex g_registry{common::LockRank::kA};
common::OrderedMutex g_sink{common::LockRank::kB};
long Schedule(std::map<std::string, long>& key_completion,
              const std::string& key, long now, long cost) {
  long dep = now;
  auto it = key_completion.find(key);
  if (it != key_completion.end() && it->second > dep) dep = it->second;
  long finish = dep + cost;
  key_completion[key] = finish;
  {
    std::lock_guard<common::OrderedMutex> a(g_registry);
    std::lock_guard<common::OrderedMutex> b(g_sink);
  }
  return finish;
}
)cc");
  RunResult r = Run();
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("acyclic"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("0 tainted flows"), std::string::npos) << r.output;
}

// --- waiver audit ----------------------------------------------------------

TEST_F(ReplicheckTest, WaiverAuditFailsOnStaleWaiver) {
  WriteFile("src/tidy.cc",
            "// replicheck:allow(raw-rng) leftover from deleted code\n"
            "int F() { return 1; }\n");
  RunResult r = Run("--waivers");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[UNUSED]"), std::string::npos) << r.output;
}

TEST_F(ReplicheckTest, WaiverAuditFailsOnMissingReason) {
  WriteFile("src/engine/scan.cc", R"cc(
#include <unordered_map>
std::unordered_map<int, int> g_rows;
int Total() {
  int sum = 0;
  // replicheck:allow(unordered-iter)
  for (const auto& kv : g_rows) sum += kv.second;
  return sum;
}
)cc");
  RunResult quiet = Run();
  EXPECT_EQ(quiet.exit_code, 0) << quiet.output;  // Suppression still works.
  RunResult r = Run("--waivers");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[NO REASON]"), std::string::npos) << r.output;
}

TEST_F(ReplicheckTest, WaiverAuditPassesDocumentedInventory) {
  WriteFile("src/engine/scan.cc", R"cc(
#include <unordered_map>
std::unordered_map<int, int> g_rows;
int Total() {
  int sum = 0;
  // replicheck:allow(unordered-iter) commutative sum; order never escapes
  for (const auto& kv : g_rows) sum += kv.second;
  return sum;
}
)cc");
  RunResult r = Run("--waivers");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("waiver audit"), std::string::npos) << r.output;
}

// --- json report -----------------------------------------------------------

TEST_F(ReplicheckTest, JsonReportListsFindingsAndWaivers) {
  WriteFile("src/engine/scan.cc", R"cc(
#include <unordered_map>
std::unordered_map<int, int> g_rows;
std::unordered_map<int, int> g_cols;
int Total() {
  int sum = 0;
  // replicheck:allow(unordered-iter) commutative sum; order never escapes
  for (const auto& kv : g_rows) sum += kv.second;
  for (const auto& kv : g_cols) sum += kv.second;
  return sum;
}
)cc");
  fs::path report = root_ / "report.json";
  RunResult r = Run("--json " + report.string());
  EXPECT_EQ(r.exit_code, 1) << r.output;  // g_cols iteration is unwaived.
  std::ifstream in(report);
  ASSERT_TRUE(in.is_open()) << report;
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("\"violations\""), std::string::npos) << content;
  EXPECT_NE(content.find("\"rule\": \"unordered-iter\""), std::string::npos)
      << content;
  EXPECT_NE(content.find("g_cols"), std::string::npos) << content;
  EXPECT_NE(content.find("\"waivers\""), std::string::npos) << content;
  EXPECT_NE(content.find("\"used\": true"), std::string::npos) << content;
  EXPECT_NE(content.find("\"summary\""), std::string::npos) << content;
}

// --- the real tree ---------------------------------------------------------

TEST_F(ReplicheckTest, RealSourceTreeIsClean) {
  // The same invocation the replicheck_tree ctest makes, minus the
  // compile-commands database (headers + all sources walked directly).
  // --waivers makes stale or reason-less allow directives fail too.
  std::string cmd =
      std::string(REPLICHECK_BIN) + " --root " + REPLICHECK_SOURCE_ROOT +
      " --waivers 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string output;
  char buf[4096];
  size_t n;
  while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0) output.append(buf, n);
  int status = pclose(pipe);
  EXPECT_EQ(WIFEXITED(status) ? WEXITSTATUS(status) : -1, 0) << output;
  EXPECT_NE(output.find("0 violations"), std::string::npos) << output;
  EXPECT_NE(output.find("(0 unused)"), std::string::npos) << output;
  // The flow passes must prove the real tree deadlock-free and
  // replication-deterministic, not merely run.
  EXPECT_NE(output.find("acyclic"), std::string::npos) << output;
  EXPECT_NE(output.find("0 tainted flows"), std::string::npos) << output;
}

}  // namespace
