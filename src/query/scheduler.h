// QueryScheduler: the per-node multi-tenant dispatch loop for epochal scan
// work. PR 7's runtime ran every scan synchronously inside StartEpoch, so a
// node hosting many live queries served them strictly in plan-arrival order
// — one heavy scan starved every neighbor, and N concurrent queries over
// the same table walked the LocalStore N times. The scheduler fixes both:
//
//   - fairness: submitted scans join a round-robin ring and each round
//     serves at most `quantum_rows` rows per query before the cursor moves
//     on, so a storm of tenants makes progress together;
//   - shared scans: the first scan over (table, window-cutoff) materializes
//     one LocalStore sweep into column batches; later scans arriving while
//     the sweep is fresh (namespace version unchanged, within
//     `shared_window`) attach to the same batches instead of re-walking the
//     store. Each consumer applies its own compiled filter/project kernels
//     to the shared stream, so answers are byte-identical to a solo scan.
//
// The scheduler knows nothing about queries beyond the ScanWork contract:
// the runtime hands it a feed callback (the same batch pipeline StartEpoch
// used to drive) plus a completion callback, and the engine injects an
// abort probe so ended or budget-tripped queries stop consuming quanta.

#ifndef PIER_QUERY_SCHEDULER_H_
#define PIER_QUERY_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/time_util.h"
#include "dht/storage.h"
#include "exec/batch.h"
#include "query/protocol.h"
#include "sim/event_queue.h"

namespace pier {
namespace query {

/// One epochal scan pass, submitted by ops::QueryRuntime::StartEpoch.
struct ScanWork {
  uint64_t qid = 0;
  uint64_t epoch = 0;
  std::string table;
  catalog::Schema schema;
  /// Continuous-query window (0 = whole live snapshot). Rows stored before
  /// now - window are excluded from the sweep.
  Duration window = 0;
  /// The query's own pipeline: filter/project/agg kernels plus the emit
  /// sink. Receives each shared batch (as a private copy — feeds mutate
  /// selections); returns false to stop the scan early (LIMIT pushdown).
  std::function<bool(exec::RowBatch&)> feed;
  /// Fires exactly once when the scan finishes: `complete` is true on a
  /// normal end (sweep exhausted or feed declined more), false when the
  /// engine's abort probe cut it short.
  std::function<void(bool complete)> done;
  /// Engine-injected probe: true = stop serving this scan (query ended or
  /// a per-query budget tripped). May be null (never aborts).
  std::function<bool()> aborted;
};

/// Per-node round-robin scan scheduler with shared-sweep batching. Owned by
/// the QueryEngine; single-threaded like everything in the sim.
class QueryScheduler {
 public:
  struct Options {
    uint32_t quantum_rows = 2048;
    Duration round_interval = Millis(5);
    Duration shared_window = Millis(500);
    /// Rows per materialized sweep batch (the engine's batch_size, so
    /// mid-batch LIMIT pushdown sees the same granularity as a solo scan).
    uint32_t batch_rows = 1024;
  };
  /// Schedules an engine-owned timer (auto-cancelled with the engine).
  using ScheduleFn =
      std::function<sim::TimerId(Duration, std::function<void()>)>;

  QueryScheduler(sim::Simulation* sim, dht::Dht* dht, EngineStats* stats,
                 ScheduleFn schedule, Options opts)
      : sim_(sim), dht_(dht), stats_(stats), schedule_(std::move(schedule)),
        opts_(opts) {}

  /// Enqueues one scan pass. Materializes or attaches to a shared sweep
  /// immediately (the store may mutate before the first round fires; the
  /// sweep pins this scan's snapshot). A newer-epoch submit for the same
  /// query silently supersedes any queued older-epoch scan.
  void Submit(ScanWork work);

  /// Drops every queued scan for `qid` without firing its callbacks. Must
  /// be called before the query's runtime is destroyed — queued feeds
  /// capture stage state.
  void DropQuery(uint64_t qid);

  /// Engine shutdown: drops all tasks and cached sweeps; no callbacks fire.
  void Stop();

  size_t pending_scans() const { return tasks_.size(); }

 private:
  /// One materialized LocalStore pass, shared by reference across
  /// concurrent same-table scans.
  struct Sweep {
    std::string table;
    TimePoint cutoff = 0;
    uint64_t store_version = 0;
    TimePoint created_at = 0;
    catalog::Schema schema;
    std::vector<exec::RowBatch> batches;
    size_t total_rows = 0;
  };

  struct Task {
    ScanWork work;
    std::shared_ptr<Sweep> sweep;
    size_t next_batch = 0;
  };

  std::shared_ptr<Sweep> AcquireSweep(const ScanWork& work);
  void ArmRound(Duration delay);
  void RunRound();
  /// Serves up to quantum_rows to one task; returns true when the task is
  /// finished (done fired) and should be removed.
  bool ServeTask(Task* task);

  sim::Simulation* sim_;
  dht::Dht* dht_;
  EngineStats* stats_;
  ScheduleFn schedule_;
  Options opts_;

  std::deque<Task> tasks_;
  size_t cursor_ = 0;
  std::vector<std::shared_ptr<Sweep>> recent_sweeps_;
  bool round_armed_ = false;
  bool stopped_ = false;
};

}  // namespace query
}  // namespace pier

#endif  // PIER_QUERY_SCHEDULER_H_
