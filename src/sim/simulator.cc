#include "sim/simulator.h"

#include <utility>

#include "common/logging.h"

namespace replidb::sim {

Simulator::Simulator() {
  // Most recently constructed simulator wins the log clock; benches that
  // stand up clusters sequentially always stamp with the live one.
  SetLogClock(this, [this] { return now_; });
}

Simulator::~Simulator() { ClearLogClock(this); }

EventId Simulator::Schedule(Duration delay, std::function<void()> fn) {
  if (delay < 0) delay = 0;
  return ScheduleAt(now_ + delay, std::move(fn));
}

EventId Simulator::ScheduleAt(TimePoint when, std::function<void()> fn) {
  if (when < now_) when = now_;
  uint32_t slot;
  if (free_slots_.empty()) {
    REPLIDB_CHECK(slots_.size() < kNotQueued, "simulator slot table full");
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  slots_[slot].fn = std::move(fn);
  heap_.emplace_back();
  SiftUp(heap_.size() - 1, HeapEntry{when, next_seq_++, slot});
  return static_cast<EventId>(slots_[slot].generation) << 32 | slot;
}

void Simulator::Cancel(EventId id) {
  const auto slot = static_cast<uint32_t>(id);
  if (slot >= slots_.size()) return;
  const Slot& s = slots_[slot];
  if (s.generation != static_cast<uint32_t>(id >> 32) ||
      s.heap_pos == kNotQueued) {
    return;
  }
  Unlink(s.heap_pos);
  Release(slot);
}

void Simulator::SiftUp(size_t pos, HeapEntry e) {
  while (pos > 0) {
    size_t parent = (pos - 1) / 2;
    if (!Before(e, heap_[parent])) break;
    Place(pos, heap_[parent]);
    pos = parent;
  }
  Place(pos, e);
}

void Simulator::SiftDown(size_t pos, HeapEntry e) {
  const size_t n = heap_.size();
  while (true) {
    size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && Before(heap_[child + 1], heap_[child])) ++child;
    if (!Before(heap_[child], e)) break;
    Place(pos, heap_[child]);
    pos = child;
  }
  Place(pos, e);
}

void Simulator::Unlink(size_t pos) {
  HeapEntry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;
  if (pos > 0 && Before(last, heap_[(pos - 1) / 2])) {
    SiftUp(pos, last);
  } else {
    SiftDown(pos, last);
  }
}

void Simulator::Release(uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn = nullptr;
  s.heap_pos = kNotQueued;
  if (++s.generation == 0) s.generation = 1;  // Keep every id nonzero.
  free_slots_.push_back(slot);
}

void Simulator::RunHead() {
  const HeapEntry head = heap_.front();
  std::function<void()> fn = std::move(slots_[head.slot].fn);
  Unlink(0);
  Release(head.slot);
  now_ = head.when;
  ++events_executed_;
  fn();
}

bool Simulator::Step() {
  if (heap_.empty()) return false;
  RunHead();
  return true;
}

void Simulator::Run() {
  stop_requested_ = false;
  while (!stop_requested_ && Step()) {
  }
}

void Simulator::RunUntil(TimePoint deadline) {
  stop_requested_ = false;
  while (!stop_requested_ && !heap_.empty() &&
         heap_.front().when <= deadline) {
    RunHead();
  }
  if (now_ < deadline) now_ = deadline;
}

void PeriodicTask::Start() { StartAfter(period_); }

void PeriodicTask::StartAfter(Duration initial_delay) {
  if (running_) return;
  running_ = true;
  pending_ = sim_->Schedule(initial_delay, [this] { Fire(); });
}

void PeriodicTask::Stop() {
  if (!running_) return;
  running_ = false;
  sim_->Cancel(pending_);
  pending_ = 0;
}

void PeriodicTask::Fire() {
  if (!running_) return;
  pending_ = sim_->Schedule(period_, [this] { Fire(); });
  fn_();
}

}  // namespace replidb::sim
