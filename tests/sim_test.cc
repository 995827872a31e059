#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/simulator.h"

namespace replidb::sim {
namespace {

TEST(SimulatorTest, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.Now(), 0);
}

TEST(SimulatorTest, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(30, [&] { order.push_back(3); });
  sim.Schedule(10, [&] { order.push_back(1); });
  sim.Schedule(20, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30);
}

TEST(SimulatorTest, SameTimeIsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) sim.Schedule(5, [&order, i] { order.push_back(i); });
  sim.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, NestedScheduling) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(10, [&] {
    EXPECT_EQ(sim.Now(), 10);
    sim.Schedule(5, [&] {
      EXPECT_EQ(sim.Now(), 15);
      ++fired;
    });
  });
  sim.Run();
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  int fired = 0;
  EventId id = sim.Schedule(10, [&] { ++fired; });
  sim.Schedule(20, [&] { ++fired; });
  sim.Cancel(id);
  sim.Run();
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorTest, CancelAfterFireIsNoop) {
  Simulator sim;
  int fired = 0;
  EventId id = sim.Schedule(1, [&] { ++fired; });
  sim.Run();
  sim.Cancel(id);  // Must not crash or affect later events.
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.Schedule(1, [&] { ++fired; });
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, CancelTwiceIsNoop) {
  Simulator sim;
  std::vector<int> order;
  EventId id = sim.Schedule(10, [&] { order.push_back(1); });
  sim.Schedule(20, [&] { order.push_back(2); });
  sim.Cancel(id);
  EXPECT_EQ(sim.pending_events(), 1u);
  // The next event may take over the cancelled one's storage; the stale id
  // must not reach it.
  sim.Schedule(30, [&] { order.push_back(3); });
  sim.Cancel(id);
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{2, 3}));
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, CallbackCancellingItsOwnIdIsNoop) {
  Simulator sim;
  std::vector<int> order;
  EventId self = 0;
  self = sim.Schedule(5, [&] {
    order.push_back(1);
    EXPECT_EQ(sim.pending_events(), 1u);  // The running event is not pending.
    sim.Schedule(1, [&] { order.push_back(2); });
    sim.Cancel(self);
    EXPECT_EQ(sim.pending_events(), 2u);
  });
  sim.Schedule(10, [&] { order.push_back(3); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(10, [&] { ++fired; });
  sim.Schedule(100, [&] { ++fired; });
  sim.RunUntil(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), 50);
  sim.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.Now(), 100);
}

TEST(SimulatorTest, RunUntilAdvancesClockEvenWithoutEvents) {
  Simulator sim;
  sim.RunUntil(12345);
  EXPECT_EQ(sim.Now(), 12345);
}

TEST(SimulatorTest, NegativeDelayClampsToNow) {
  Simulator sim;
  sim.RunUntil(100);
  int fired = 0;
  sim.Schedule(-50, [&] {
    EXPECT_EQ(sim.Now(), 100);
    ++fired;
  });
  sim.Run();
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorTest, RequestStopHaltsRun) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(1, [&] {
    ++fired;
    sim.RequestStop();
  });
  sim.Schedule(2, [&] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 1);
  sim.Run();  // Resumes with remaining events.
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, EventsExecutedCounter) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.Schedule(i, [] {});
  sim.Run();
  EXPECT_EQ(sim.events_executed(), 5u);
}

TEST(PeriodicTaskTest, FiresEveryPeriod) {
  Simulator sim;
  std::vector<TimePoint> fire_times;
  PeriodicTask task(&sim, 10, [&] { fire_times.push_back(sim.Now()); });
  task.Start();
  sim.RunUntil(55);
  task.Stop();
  EXPECT_EQ(fire_times, (std::vector<TimePoint>{10, 20, 30, 40, 50}));
}

TEST(PeriodicTaskTest, StartAfterCustomDelay) {
  Simulator sim;
  std::vector<TimePoint> fire_times;
  PeriodicTask task(&sim, 10, [&] { fire_times.push_back(sim.Now()); });
  task.StartAfter(0);
  sim.RunUntil(25);
  task.Stop();
  EXPECT_EQ(fire_times, (std::vector<TimePoint>{0, 10, 20}));
}

TEST(PeriodicTaskTest, StopFromWithinCallback) {
  Simulator sim;
  int count = 0;
  PeriodicTask task(&sim, 10, [&] {
    if (++count == 3) task.Stop();
  });
  task.Start();
  sim.RunUntil(1000);
  EXPECT_EQ(count, 3);
}

TEST(PeriodicTaskTest, DoubleStartIsNoop) {
  Simulator sim;
  int count = 0;
  PeriodicTask task(&sim, 10, [&] { ++count; });
  task.Start();
  task.Start();
  sim.RunUntil(35);
  task.Stop();
  EXPECT_EQ(count, 3);
}

TEST(SimTimeTest, Conversions) {
  EXPECT_EQ(kSecond, 1000 * kMillisecond);
  EXPECT_EQ(kMinute, 60 * kSecond);
  EXPECT_EQ(kHour, 60 * kMinute);
  EXPECT_EQ(kDay, 24 * kHour);
  EXPECT_DOUBLE_EQ(ToSeconds(2 * kSecond), 2.0);
  EXPECT_DOUBLE_EQ(ToMillis(kSecond), 1000.0);
}

// --- Differential test against a reference model ----------------------------

/// The simulator's contract in its plainest form: a std::map keyed by
/// (when, seq), where an id is its event's seq.
class ReferenceSim {
 public:
  TimePoint Now() const { return now_; }
  size_t pending_events() const { return queue_.size(); }

  EventId Schedule(Duration delay, std::function<void()> fn) {
    return ScheduleAt(now_ + std::max<Duration>(delay, 0), std::move(fn));
  }
  EventId ScheduleAt(TimePoint when, std::function<void()> fn) {
    Key key{std::max(when, now_), next_seq_++};
    queue_.emplace(key, std::move(fn));
    keys_.emplace(key.second, key);
    return key.second;
  }
  void Cancel(EventId id) {
    auto it = keys_.find(id);
    if (it == keys_.end()) return;
    queue_.erase(it->second);
    keys_.erase(it);
  }
  bool Step() {
    if (queue_.empty()) return false;
    auto head = queue_.begin();
    now_ = head->first.first;
    std::function<void()> fn = std::move(head->second);
    keys_.erase(head->first.second);
    queue_.erase(head);
    fn();
    return true;
  }
  void Run() {
    stop_ = false;
    while (!stop_ && Step()) {
    }
  }
  void RunUntil(TimePoint deadline) {
    stop_ = false;
    while (!stop_ && !queue_.empty() &&
           queue_.begin()->first.first <= deadline) {
      Step();
    }
    now_ = std::max(now_, deadline);
  }
  void RequestStop() { stop_ = true; }

 private:
  using Key = std::pair<TimePoint, uint64_t>;
  std::map<Key, std::function<void()>> queue_;
  std::map<EventId, Key> keys_;
  TimePoint now_ = 0;
  uint64_t next_seq_ = 1;
  bool stop_ = false;
};

/// Drives one simulator (real or reference) through a seeded random
/// script and logs every firing and every top-level operation with Now()
/// and pending_events(). Both sides draw the same random numbers as long
/// as they behave the same, so their logs match exactly or the first
/// difference points at the divergence.
template <typename Sim>
class ScriptRunner {
 public:
  explicit ScriptRunner(uint64_t seed) : rng_(seed) {}

  std::vector<std::string> Run(int ops) {
    for (int i = 0; i < ops; ++i) {
      uint64_t op = rng_.Uniform(100);
      std::string what;
      if (op < 30) {
        what = "schedule " + std::to_string(ScheduleOne());
      } else if (op < 45) {
        what = "cancel " + CancelOne();
      } else if (op < 70) {
        what = sim_.Step() ? "step" : "step-empty";
      } else if (op < 92) {
        TimePoint deadline = sim_.Now() + rng_.UniformRange(-5, 40);
        sim_.RunUntil(deadline);
        what = "run-until " + std::to_string(deadline);
      } else if (op < 95) {
        sim_.RequestStop();  // Run and RunUntil clear it on entry.
        what = "request-stop";
      } else {
        sim_.Run();
        what = "run";
      }
      Log(what);
    }
    sim_.Run();
    Log("drain");
    return log_;
  }

 private:
  /// Schedules a new event (relative, absolute, or in the past) and
  /// returns its label.
  size_t ScheduleOne() {
    size_t label = ids_.size();
    auto fn = [this, label] { Fire(label); };
    EventId id = rng_.Chance(0.5)
                     ? sim_.Schedule(rng_.UniformRange(-3, 20), fn)
                     : sim_.ScheduleAt(sim_.Now() + rng_.UniformRange(-10, 20),
                                       fn);
    ids_.push_back(id);
    live_.push_back(true);
    return label;
  }

  /// Cancels a live, fired, already cancelled or never issued id.
  std::string CancelOne() {
    if (ids_.empty() || rng_.Chance(0.15)) {
      // A never-issued id: small enough to collide with ids the real
      // simulator hands out later, but never one that is pending now.
      EventId id = rng_.Uniform(4) << 32;
      id |= rng_.Uniform(16);
      for (size_t l = 0; l < ids_.size(); ++l) {
        if (live_[l] && ids_[l] == id) id = 0;
      }
      if (!std::is_same_v<Sim, ReferenceSim>) sim_.Cancel(id);
      return "never-issued";
    }
    // Half the time one of the latest labels, which are often still live.
    size_t label = rng_.Chance(0.5)
                       ? ids_.size() - 1 - rng_.Uniform(std::min<size_t>(
                                                 ids_.size(), 8))
                       : rng_.Uniform(ids_.size());
    std::string state = live_[label] ? "live " : "dead ";
    sim_.Cancel(ids_[label]);
    live_[label] = false;
    return state + std::to_string(label);
  }

  void Fire(size_t label) {
    live_[label] = false;
    Log("fire " + std::to_string(label));
    if (rng_.Chance(0.3)) Log("  schedule " + std::to_string(ScheduleOne()));
    if (rng_.Chance(0.1)) Log("  schedule " + std::to_string(ScheduleOne()));
    if (rng_.Chance(0.2)) Log("  cancel " + CancelOne());
    if (rng_.Chance(0.05)) {
      sim_.Cancel(ids_[label]);  // Its own id, already stale.
      Log("  cancel self");
    }
    if (rng_.Chance(0.05)) {
      sim_.RequestStop();
      Log("  request-stop");
    }
  }

  void Log(const std::string& what) {
    log_.push_back(what + " now=" + std::to_string(sim_.Now()) +
                   " pending=" + std::to_string(sim_.pending_events()));
  }

  Sim sim_;
  Rng rng_;
  std::vector<EventId> ids_;  ///< By label, as this side issued them.
  std::vector<bool> live_;    ///< By label: scheduled, not fired or cancelled.
  std::vector<std::string> log_;
};

TEST(SimulatorDifferentialTest, MatchesReferenceModelOnRandomScripts) {
  size_t fired = 0, cancelled_live = 0;
  for (uint64_t seed = 1; seed <= 250; ++seed) {
    std::vector<std::string> want = ScriptRunner<ReferenceSim>(seed).Run(400);
    std::vector<std::string> got = ScriptRunner<Simulator>(seed).Run(400);
    size_t n = std::min(want.size(), got.size());
    size_t i = 0;
    while (i < n && want[i] == got[i]) ++i;
    ASSERT_TRUE(i == n && want.size() == got.size())
        << "seed " << seed << " diverges at log line " << i << ":\n  want: "
        << (i < want.size() ? want[i] : "<end>")
        << "\n  got:  " << (i < got.size() ? got[i] : "<end>");
    for (const std::string& line : want) {
      fired += line.rfind("fire ", 0) == 0;
      cancelled_live += line.find("cancel live ") != std::string::npos;
    }
  }
  // The scripts must reach the cases they exist for.
  EXPECT_GT(fired, 10000u);
  EXPECT_GT(cancelled_live, 1000u);
}

}  // namespace
}  // namespace replidb::sim
