#include "common/locks.h"

#include <gtest/gtest.h>

#include <mutex>

#include "obs/metrics.h"

namespace replidb::common {
namespace {

/// Restores the check-enabled flag so this test can't leak state into
/// other tests in the binary (the default depends on build type).
class LockCheckGuard {
 public:
  LockCheckGuard() : prev_(LockCheckEnabled()) { SetLockCheckEnabled(true); }
  ~LockCheckGuard() { SetLockCheckEnabled(prev_); }

 private:
  bool prev_;
};

TEST(OrderedMutexTest, AscendingRankAcquisitionIsClean) {
  LockCheckGuard guard;
  OrderedMutex outer(LockRank::kMetricsRegistry);   // rank 20
  OrderedMutex inner(LockRank::kMetricHistogram);   // rank 30
  {
    std::lock_guard<OrderedMutex> a(outer);
    EXPECT_EQ(HeldLockCount(), 1);
    std::lock_guard<OrderedMutex> b(inner);
    EXPECT_EQ(HeldLockCount(), 2);
  }
  EXPECT_EQ(HeldLockCount(), 0);
}

TEST(OrderedMutexTest, ReacquiringAfterReleaseIsClean) {
  LockCheckGuard guard;
  OrderedMutex mu(LockRank::kSlo);
  for (int i = 0; i < 3; ++i) {
    std::lock_guard<OrderedMutex> lock(mu);
    EXPECT_EQ(HeldLockCount(), 1);
  }
  EXPECT_EQ(HeldLockCount(), 0);
}

TEST(OrderedMutexDeathTest, DescendingRankAcquisitionAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SetLockCheckEnabled(true);
        OrderedMutex inner(LockRank::kMetricHistogram);  // rank 30
        OrderedMutex outer(LockRank::kMetricsRegistry);  // rank 20
        std::lock_guard<OrderedMutex> a(inner);
        std::lock_guard<OrderedMutex> b(outer);  // 20 while holding 30.
      },
      "lock-order violation");
}

TEST(OrderedMutexDeathTest, EqualRankAcquisitionAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SetLockCheckEnabled(true);
        OrderedMutex a(LockRank::kSlo);
        OrderedMutex b(LockRank::kSlo);
        std::lock_guard<OrderedMutex> la(a);
        std::lock_guard<OrderedMutex> lb(b);  // Same rank: undeclared order.
      },
      "lock-order violation");
}

TEST(OrderedMutexTest, CheckingDisabledSkipsRecording) {
  bool prev = LockCheckEnabled();
  SetLockCheckEnabled(false);
  OrderedMutex mu(LockRank::kLogClock);
  {
    std::lock_guard<OrderedMutex> lock(mu);
    EXPECT_EQ(HeldLockCount(), 0) << "disabled checking must not record";
  }
  SetLockCheckEnabled(prev);
}

TEST(OrderedMutexTest, MetricsRegistryRespectsDeclaredOrder) {
  // The real registry nests histogram locks inside the registry lock;
  // with checking forced on, a full snapshot must not trip the recorder.
  LockCheckGuard guard;
  auto& reg = obs::MetricsRegistry::Global();
  reg.GetHistogram("locks_test.sample.hist")->Observe(1.0);
  reg.GetCounter("locks_test.sample.count")->Increment();
  EXPECT_FALSE(reg.DumpText().empty());
  EXPECT_GE(reg.Snapshot().size(), 2u);
  EXPECT_EQ(HeldLockCount(), 0);
}

}  // namespace
}  // namespace replidb::common
