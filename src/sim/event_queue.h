// The discrete-event simulation core: a virtual clock and an event queue.
//
// Everything in a PIER experiment — message deliveries, protocol timers,
// workload arrivals, churn — is an event. Events at equal timestamps run in
// insertion order (a monotonically increasing sequence number breaks ties),
// which together with seeded RNGs makes whole-system runs deterministic.
//
// Performance model (this is the floor under every experiment; see
// DESIGN.md "Performance model"):
//   - the queue is a 4-ary min-heap keyed (time, seq) over pooled event
//     nodes, so the steady-state ScheduleAfter -> fire path performs zero
//     heap allocations: callbacks up to EventCallback::kInlineSize bytes are
//     constructed in the node's inline storage, and nodes are recycled
//     through a free list;
//   - Cancel is O(1) lazy cancellation: it bumps the node's generation and
//     frees the node immediately (destroying the callback); the stale heap
//     entry is skipped when it surfaces;
//   - equal-timestamp FIFO order is total because the comparator falls back
//     to the insertion sequence number.

#ifndef PIER_SIM_EVENT_QUEUE_H_
#define PIER_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <cstddef>
#include <cstring>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/time_util.h"

namespace pier {
namespace sim {

/// Identifies a scheduled event so it can be cancelled. 0 is never a valid id.
using TimerId = uint64_t;

/// Move-only callable with small-buffer storage, sized so the network's
/// delivery closures (a Packet plus addressing) stay inline. Callables
/// larger than kInlineSize fall back to a single heap allocation.
class EventCallback {
 public:
  static constexpr size_t kInlineSize = 104;

  EventCallback() noexcept {}
  EventCallback(EventCallback&& other) noexcept { TakeFrom(other); }
  EventCallback& operator=(EventCallback&& other) noexcept {
    if (this != &other) {
      Reset();
      TakeFrom(other);
    }
    return *this;
  }
  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;
  ~EventCallback() { Reset(); }

  template <typename F>
  void Emplace(F&& fn) {
    Reset();
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineSize &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      new (storage_) Fn(std::forward<F>(fn));
      invoke_ = [](void* s) { (*static_cast<Fn*>(s))(); };
      manager_ = [](Op op, void* s, void* d) {
        Fn* self = std::launder(static_cast<Fn*>(s));
        if (op == Op::kMove) new (d) Fn(std::move(*self));
        self->~Fn();
      };
    } else {
      Fn* heap = new Fn(std::forward<F>(fn));
      std::memcpy(storage_, &heap, sizeof(heap));
      invoke_ = [](void* s) {
        Fn* p;
        std::memcpy(&p, s, sizeof(p));
        (*p)();
      };
      manager_ = [](Op op, void* s, void* d) {
        if (op == Op::kMove) {
          std::memcpy(d, s, sizeof(Fn*));
        } else {
          Fn* p;
          std::memcpy(&p, s, sizeof(p));
          delete p;
        }
      };
    }
  }

  void Reset() {
    if (manager_ != nullptr) {
      manager_(Op::kDestroy, storage_, nullptr);
      manager_ = nullptr;
      invoke_ = nullptr;
    }
  }

  bool engaged() const { return invoke_ != nullptr; }
  void operator()() { invoke_(storage_); }

 private:
  enum class Op { kDestroy, kMove };
  using Invoker = void (*)(void*);
  using Manager = void (*)(Op, void* src, void* dst);

  void TakeFrom(EventCallback& other) noexcept {
    invoke_ = other.invoke_;
    manager_ = other.manager_;
    if (manager_ != nullptr) manager_(Op::kMove, other.storage_, storage_);
    other.invoke_ = nullptr;
    other.manager_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineSize];
  Invoker invoke_ = nullptr;
  Manager manager_ = nullptr;
};

/// Single-threaded virtual-time event loop.
class Simulation {
 public:
  explicit Simulation(uint64_t seed = 1) : rng_(seed) {
    // Clock registration is by pointer identity (a stack in the logger), so
    // any mix of nested or interleaved Simulation lifetimes is safe: this
    // instance only ever adds and removes its own clock.
    Logger::Instance().push_clock_source(&now_);
  }
  ~Simulation() { Logger::Instance().remove_clock_source(&now_); }

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current virtual time.
  TimePoint now() const { return now_; }

  /// Schedules `fn` to run at absolute virtual time `t` (clamped to now).
  /// Accepts any nullary callable; captures up to EventCallback::kInlineSize
  /// bytes are stored without allocating.
  template <typename F>
  TimerId ScheduleAt(TimePoint t, F&& fn) {
    if (t < now_) t = now_;
    uint32_t index = AllocNode();
    EventNode& node = NodeAt(index);
    node.cb.Emplace(std::forward<F>(fn));
    HeapPush(HeapKey{t, next_seq_++}, HeapRef{index, node.gen});
    ++live_;
    return MakeTimerId(index, node.gen);
  }
  /// Schedules `fn` to run `delay` after now.
  template <typename F>
  TimerId ScheduleAfter(Duration delay, F&& fn) {
    return ScheduleAt(now_ + (delay < 0 ? 0 : delay), std::forward<F>(fn));
  }
  /// Cancels a pending event; no-op if already fired or cancelled. O(1):
  /// the callback is destroyed now, the heap entry is skipped lazily.
  void Cancel(TimerId id);

  /// Runs events until the queue is empty or virtual time would exceed
  /// `deadline`. The clock is left at min(deadline, last event time).
  void RunUntil(TimePoint deadline);
  /// Runs for `span` of virtual time from now.
  void RunFor(Duration span) { RunUntil(now_ + span); }
  /// Drains the queue completely (bounded by `max_events` as a runaway
  /// guard). Returns the number of events executed.
  size_t RunAll(size_t max_events = 100'000'000);

  /// The TimerId of the event whose callback is running (0 outside one).
  TimerId firing() const { return firing_; }

  /// Number of pending (scheduled, not yet fired or cancelled) events.
  size_t pending() const { return live_; }
  /// Total events executed since construction.
  uint64_t executed() const { return executed_; }

  /// Root RNG for the experiment; subsystems should Fork() child streams.
  Rng& rng() { return rng_; }

 private:
  /// Heap entries are tombstoned by generation mismatch: a cancelled or
  /// fired node bumps `gen`, so the stale entry is discarded on pop.
  /// The heap is stored as two parallel arrays: 16-byte ordering keys
  /// (so a 4-ary node's children occupy one cache line on the sift-down's
  /// compare path) and 8-byte node references moved alongside.
  struct HeapKey {
    TimePoint time;
    uint64_t seq;
  };
  struct HeapRef {
    uint32_t node;
    uint32_t gen;
  };

  struct EventNode {
    EventCallback cb;
    uint32_t gen = 1;
  };
  /// Nodes live in fixed-size chunks so their addresses never move: a firing
  /// callback is invoked in place even if it schedules more events (which
  /// may grow the pool).
  static constexpr uint32_t kChunkShift = 9;  // 512 nodes per chunk
  static constexpr uint32_t kChunkSize = 1u << kChunkShift;

  static TimerId MakeTimerId(uint32_t index, uint32_t gen) {
    return (static_cast<uint64_t>(gen) << 32) | index;
  }

  static bool Before(const HeapKey& a, const HeapKey& b) {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  }

  EventNode& NodeAt(uint32_t index) {
    return chunks_[index >> kChunkShift][index & (kChunkSize - 1)];
  }
  uint32_t AllocNode();
  void FreeNode(uint32_t index);
  /// Runs the event at `index` in place, then recycles the node. The node's
  /// generation is bumped before the callback runs, so the fired TimerId is
  /// already dead (Cancel from inside the callback is a no-op).
  void FireNode(uint32_t index);
  void HeapPush(HeapKey key, HeapRef ref);
  void HeapPop();

  TimePoint now_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t executed_ = 0;
  size_t live_ = 0;
  TimerId firing_ = 0;
  // 4-ary min-heap on (time, seq): parallel key/ref arrays so the
  // sift-down's compare path reads one cache line per level.
  std::vector<HeapKey> heap_keys_;
  std::vector<HeapRef> heap_refs_;
  std::vector<std::unique_ptr<EventNode[]>> chunks_;  // stable node pool
  std::vector<uint32_t> free_nodes_;                  // recycled indices
  uint32_t node_count_ = 0;
  Rng rng_;
};

/// Convenience for protocol loops: reschedules itself every `period` until
/// the owner is destroyed or Stop() is called.
class PeriodicTask {
 public:
  PeriodicTask() = default;
  ~PeriodicTask() { Stop(); }

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  /// Starts ticking: first fire after `initial_delay`, then every `period`.
  void Start(Simulation* sim, Duration initial_delay, Duration period,
             std::function<void()> fn);
  void Stop();
  bool running() const { return sim_ != nullptr; }

 private:
  void Fire();

  Simulation* sim_ = nullptr;
  Duration period_ = 0;
  TimerId pending_ = 0;
  std::function<void()> fn_;
};

}  // namespace sim
}  // namespace pier

#endif  // PIER_SIM_EVENT_QUEUE_H_
