#ifndef REPLIDB_SIM_SIMULATOR_H_
#define REPLIDB_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <vector>

namespace replidb::sim {

/// Simulated time in microseconds since experiment start.
using TimePoint = int64_t;
/// Simulated duration in microseconds.
using Duration = int64_t;

constexpr Duration kMicrosecond = 1;
constexpr Duration kMillisecond = 1000;
constexpr Duration kSecond = 1000 * 1000;
constexpr Duration kMinute = 60 * kSecond;
constexpr Duration kHour = 60 * kMinute;
constexpr Duration kDay = 24 * kHour;

/// Converts simulated time to seconds as a double (for reporting).
inline double ToSeconds(Duration d) { return static_cast<double>(d) / kSecond; }
/// Converts simulated time to milliseconds as a double (for reporting).
inline double ToMillis(Duration d) { return static_cast<double>(d) / kMillisecond; }

/// Handle for cancelling a scheduled event: the event's slot in the low 32
/// bits and the slot's generation (>= 1) in the high 32, so 0 is never a
/// valid id and an id goes stale once its event fires or is cancelled.
using EventId = uint64_t;

/// \brief Deterministic discrete-event simulator.
///
/// All components of the testbed (network, engines, middleware, workload
/// generators, fault injectors) run on a single Simulator: they schedule
/// callbacks at future virtual times and the simulator executes them in
/// (time, insertion-order) order. Experiments are thus fully deterministic —
/// the same seed always produces the same trace — and simulate hours of
/// cluster time in milliseconds of wall time.
///
/// The queue is an indexed binary min-heap over a slot table that owns the
/// callbacks (the layout of libevent's timer heap), so Cancel() removes the
/// event in O(log n) and the heap holds only pending events.
class Simulator {
 public:
  /// Construction registers this simulator as the process log clock (log
  /// lines get a virtual-time prefix); destruction unregisters it.
  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  TimePoint Now() const { return now_; }

  /// Schedules `fn` to run `delay` after Now(). Negative delays clamp to 0.
  EventId Schedule(Duration delay, std::function<void()> fn);

  /// Schedules `fn` at absolute virtual time `when` (clamped to Now()).
  EventId ScheduleAt(TimePoint when, std::function<void()> fn);

  /// Cancels a pending event and destroys its callback at once; no-op if
  /// the id already fired, was cancelled, or was never issued.
  void Cancel(EventId id);

  /// Runs events until the queue is empty or `StopRequested`.
  void Run();

  /// Runs events with time <= `deadline`, then sets Now() to `deadline`
  /// (if the queue drained earlier). Pending later events remain queued.
  void RunUntil(TimePoint deadline);

  /// Convenience: RunUntil(Now() + d).
  void RunFor(Duration d) { RunUntil(now_ + d); }

  /// Executes the single next event. Returns false if the queue is empty.
  bool Step();

  /// Requests Run()/RunUntil() to return after the current event.
  void RequestStop() { stop_requested_ = true; }

  /// Number of events executed so far (for sanity checks in tests).
  uint64_t events_executed() const { return events_executed_; }

  /// Number of events currently pending.
  size_t pending_events() const { return heap_.size(); }

 private:
  /// A queued event: its (when, seq) key and the slot holding its callback.
  struct HeapEntry {
    TimePoint when;
    uint64_t seq;  // Tie-breaker: FIFO among same-time events.
    uint32_t slot;
  };
  /// A callback and where its entry sits in `heap_`. A free slot has no
  /// callback and heap_pos == kNotQueued; freeing it advances the
  /// generation, which invalidates every id issued for it so far.
  struct Slot {
    std::function<void()> fn;
    uint32_t generation = 1;
    uint32_t heap_pos = kNotQueued;
  };
  static constexpr uint32_t kNotQueued = UINT32_MAX;

  static bool Before(const HeapEntry& a, const HeapEntry& b) {
    return a.when != b.when ? a.when < b.when : a.seq < b.seq;
  }
  /// Writes `e` at heap position `pos` and records the position in its slot.
  void Place(size_t pos, const HeapEntry& e) {
    heap_[pos] = e;
    slots_[e.slot].heap_pos = static_cast<uint32_t>(pos);
  }
  void SiftUp(size_t pos, HeapEntry e);
  void SiftDown(size_t pos, HeapEntry e);
  /// Removes the entry at heap position `pos`.
  void Unlink(size_t pos);
  /// Drops the slot's callback and returns the slot to the free list.
  void Release(uint32_t slot);
  /// Pops the earliest event, advances the clock to it and runs it. The
  /// callback is moved out of its slot first, so it may schedule and
  /// cancel freely, including its own (now stale) id.
  void RunHead();

  TimePoint now_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t events_executed_ = 0;
  bool stop_requested_ = false;
  std::vector<HeapEntry> heap_;  // Min-heap on (when, seq).
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
};

/// \brief Repeating task helper (heartbeats, pollers, batch shippers).
///
/// Reschedules itself every `period` until Stop() is called or the owning
/// simulator drains. The callback may call Stop() on its own task.
class PeriodicTask {
 public:
  PeriodicTask(Simulator* sim, Duration period, std::function<void()> fn)
      : sim_(sim), period_(period), fn_(std::move(fn)) {}
  ~PeriodicTask() { Stop(); }
  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  /// Schedules the first firing `period` from now (or `initial_delay`).
  void Start();
  void StartAfter(Duration initial_delay);

  /// Cancels any pending firing.
  void Stop();

  bool running() const { return running_; }

 private:
  void Fire();

  Simulator* sim_;
  Duration period_;
  std::function<void()> fn_;
  bool running_ = false;
  EventId pending_ = 0;
};

}  // namespace replidb::sim

#endif  // REPLIDB_SIM_SIMULATOR_H_
