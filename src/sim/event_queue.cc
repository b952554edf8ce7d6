#include "sim/event_queue.h"

namespace pier {
namespace sim {

uint32_t Simulation::AllocNode() {
  if (!free_nodes_.empty()) {
    uint32_t index = free_nodes_.back();
    free_nodes_.pop_back();
    return index;
  }
  if ((node_count_ >> kChunkShift) == chunks_.size()) {
    chunks_.push_back(std::make_unique<EventNode[]>(kChunkSize));
  }
  return node_count_++;
}

void Simulation::FreeNode(uint32_t index) {
  EventNode& node = NodeAt(index);
  node.cb.Reset();
  ++node.gen;  // invalidates the TimerId and any heap entry still pointing here
  free_nodes_.push_back(index);
}

void Simulation::FireNode(uint32_t index) {
  EventNode& node = NodeAt(index);
  TimerId outer = firing_;
  firing_ = MakeTimerId(index, node.gen);
  ++node.gen;  // the TimerId dies before the callback runs
  --live_;
  ++executed_;
  node.cb();  // node storage is chunk-stable: safe even if this schedules
  node.cb.Reset();
  firing_ = outer;
  free_nodes_.push_back(index);
}

void Simulation::Cancel(TimerId id) {
  uint32_t index = static_cast<uint32_t>(id & 0xffffffffu);
  uint32_t gen = static_cast<uint32_t>(id >> 32);
  if (index >= node_count_ || NodeAt(index).gen != gen) return;
  FreeNode(index);
  --live_;
}

void Simulation::HeapPush(HeapKey key, HeapRef ref) {
  // Hole insertion: bubble the vacancy up and write the entry once.
  heap_keys_.push_back(key);
  heap_refs_.push_back(ref);
  size_t i = heap_keys_.size() - 1;
  while (i > 0) {
    size_t parent = (i - 1) >> 2;
    if (!Before(key, heap_keys_[parent])) break;
    heap_keys_[i] = heap_keys_[parent];
    heap_refs_[i] = heap_refs_[parent];
    i = parent;
  }
  heap_keys_[i] = key;
  heap_refs_[i] = ref;
}

void Simulation::HeapPop() {
  HeapKey last_key = heap_keys_.back();
  HeapRef last_ref = heap_refs_.back();
  heap_keys_.pop_back();
  heap_refs_.pop_back();
  size_t n = heap_keys_.size();
  if (n == 0) return;
  // Hole sift-down with early exit, comparing only the key array (a 4-ary
  // node's four 16-byte children keys span one cache line). The early-exit
  // test beats Floyd's bottom-up variant at this arity (measured).
  size_t i = 0;
  for (;;) {
    size_t first = (i << 2) + 1;
    if (first >= n) break;
    size_t best = first;
    size_t end = first + 4 < n ? first + 4 : n;
    for (size_t c = first + 1; c < end; ++c) {
      if (Before(heap_keys_[c], heap_keys_[best])) best = c;
    }
    if (!Before(heap_keys_[best], last_key)) break;
    heap_keys_[i] = heap_keys_[best];
    heap_refs_[i] = heap_refs_[best];
    i = best;
  }
  heap_keys_[i] = last_key;
  heap_refs_[i] = last_ref;
}

void Simulation::RunUntil(TimePoint deadline) {
  while (!heap_keys_.empty()) {
    HeapRef top_ref = heap_refs_.front();
    if (NodeAt(top_ref.node).gen != top_ref.gen) {
      HeapPop();  // tombstone of a cancelled event
      continue;
    }
    TimePoint top_time = heap_keys_.front().time;
    if (top_time > deadline) break;
    HeapPop();
    now_ = top_time;
    FireNode(top_ref.node);
  }
  if (now_ < deadline) now_ = deadline;
}

size_t Simulation::RunAll(size_t max_events) {
  size_t count = 0;
  while (count < max_events && !heap_keys_.empty()) {
    HeapRef top_ref = heap_refs_.front();
    if (NodeAt(top_ref.node).gen != top_ref.gen) {
      HeapPop();  // tombstone of a cancelled event
      continue;
    }
    now_ = heap_keys_.front().time;
    HeapPop();
    FireNode(top_ref.node);
    ++count;
  }
  return count;
}

void PeriodicTask::Start(Simulation* sim, Duration initial_delay,
                         Duration period, std::function<void()> fn) {
  Stop();
  sim_ = sim;
  period_ = period;
  fn_ = std::move(fn);
  pending_ = sim_->ScheduleAfter(initial_delay, [this] { Fire(); });
}

void PeriodicTask::Stop() {
  if (sim_ != nullptr && pending_ != 0) {
    sim_->Cancel(pending_);
  }
  pending_ = 0;
  sim_ = nullptr;
}

void PeriodicTask::Fire() {
  // Reschedule before running so the callback may Stop() us.
  pending_ = sim_->ScheduleAfter(period_, [this] { Fire(); });
  fn_();
}

}  // namespace sim
}  // namespace pier
