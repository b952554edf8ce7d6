#include "query/scheduler.h"

#include <algorithm>
#include <utility>

namespace pier {
namespace query {

bool QueryScheduler::Submit(ScanWork work) {
  if (stopped_) return false;
  // A fresh epoch for a continuous query supersedes any scan of an earlier
  // epoch still queued (its results would be discarded at the origin
  // anyway): drop the stale task without callbacks — the runtime already
  // moved its epoch pointer past it.
  for (auto it = tasks_.begin(); it != tasks_.end();) {
    if (it->work.qid == work.qid && it->work.epoch < work.epoch) {
      it = tasks_.erase(it);
      cursor_ = 0;
    } else {
      ++it;
    }
  }
  ++stats_->scans_run;
  Task task;
  task.sweep = AcquireSweep(work);
  task.work = std::move(work);
  const bool failed_over = task.sweep->failed_over;
  tasks_.push_back(std::move(task));
  // An idle scheduler serves immediately (a lone scan pays no pacing tax —
  // the 0-delay hop keeps it at the submit instant in virtual time); the
  // round interval only paces follow-up rounds while scans remain queued.
  ArmRound(0);
  return failed_over;
}

std::shared_ptr<QueryScheduler::Sweep> QueryScheduler::AcquireSweep(
    const ScanWork& work) {
  const TimePoint now = sim_->now();
  const TimePoint cutoff = work.window > 0 ? now - work.window : 0;
  const uint64_t version = dht_->local_store()->NamespaceVersion(work.table);

  // Reap sweeps no longer attachable (aged out or invalidated); tasks still
  // draining one keep it alive through their shared_ptr.
  recent_sweeps_.erase(
      std::remove_if(recent_sweeps_.begin(), recent_sweeps_.end(),
                     [&](const std::shared_ptr<Sweep>& s) {
                       return now - s->created_at > opts_.shared_window;
                     }),
      recent_sweeps_.end());

  // Shared-scan attach: an existing sweep is exactly this scan's snapshot
  // iff it walked the same table at the same window cutoff, the namespace
  // has not mutated since (per-namespace store version), and the schema
  // matches. (Router failover can also change the readable slice without a
  // store mutation; the shared_window bound keeps that staleness under a
  // churn detection period.)
  for (const auto& s : recent_sweeps_) {
    if (s->table == work.table && s->cutoff == cutoff &&
        s->store_version == version && s->schema == work.schema) {
      ++stats_->shared_scan_hits;
      return s;
    }
  }

  // Materialize one LocalStore pass into dense column batches. All columns
  // are decoded — consumers with different projections share the stream,
  // and each applies its own pruning downstream. Columns grow with the
  // slice rather than reserving a whole batch: the sweep stays cached for
  // shared_window, and most slices are far smaller than one batch.
  ++stats_->store_sweeps;
  auto sweep = std::make_shared<Sweep>();
  sweep->table = work.table;
  sweep->cutoff = cutoff;
  sweep->store_version = version;
  sweep->created_at = now;
  sweep->schema = work.schema;
  size_t batch_rows = std::max<uint32_t>(1, opts_.batch_rows);
  exec::RowBatchBuilder builder(work.schema);
  auto flush = [&]() {
    if (builder.Empty()) return;
    sweep->total_rows += builder.num_rows();
    sweep->batches.push_back(builder.Take());
  };
  dht_->ForEachLocalReadable(work.table, [&](const dht::StoredItem& item) {
    if (item.stored_at < cutoff) return true;
    sweep->failed_over = sweep->failed_over || item.replica;
    // AppendSerialized skips exactly the rows a tuple scan skips:
    // undecodable bytes and width mismatches.
    builder.AppendSerialized(item.value);
    if (builder.num_rows() >= batch_rows) flush();
    return true;
  });
  flush();
  recent_sweeps_.push_back(sweep);
  return sweep;
}

void QueryScheduler::ArmRound(Duration delay) {
  if (round_armed_ || stopped_ || tasks_.empty()) return;
  round_armed_ = true;
  schedule_(delay, [this]() { RunRound(); });
}

void QueryScheduler::RunRound() {
  round_armed_ = false;
  if (stopped_ || tasks_.empty()) return;
  ++stats_->sched_rounds;
  // One pass over the ring starting at the rotating cursor: every live scan
  // gets up to one quantum per round, so no tenant waits on another's whole
  // table.
  if (cursor_ >= tasks_.size()) cursor_ = 0;
  size_t remaining = tasks_.size();
  size_t i = cursor_;
  while (remaining-- > 0 && !tasks_.empty()) {
    if (i >= tasks_.size()) i = 0;
    if (ServeTask(&tasks_[i])) {
      tasks_.erase(tasks_.begin() + static_cast<ptrdiff_t>(i));
      if (i < cursor_ && cursor_ > 0) --cursor_;
    } else {
      ++i;
    }
  }
  cursor_ = tasks_.empty() ? 0 : (cursor_ + 1) % tasks_.size();
  ArmRound(opts_.round_interval);
}

bool QueryScheduler::ServeTask(Task* task) {
  ScanWork& w = task->work;
  if (w.aborted && w.aborted()) {
    if (w.done) w.done(false);
    return true;
  }
  size_t served = 0;
  while (task->next_batch < task->sweep->batches.size()) {
    // Whole batches only: the quantum rounds up to a batch boundary so a
    // consumer's mid-batch LIMIT accounting matches a solo scan's.
    const exec::RowBatch& src = task->sweep->batches[task->next_batch];
    ++task->next_batch;
    exec::RowBatch copy = src;  // feeds install selections; keep src pristine
    size_t rows = copy.num_rows();
    stats_->tuples_scanned += rows;
    ++stats_->batches_scanned;
    served += rows;
    bool more = w.feed ? w.feed(copy) : true;
    if (!more) {
      if (w.done) w.done(true);
      return true;
    }
    if (w.aborted && w.aborted()) {
      if (w.done) w.done(false);
      return true;
    }
    if (served >= opts_.quantum_rows) break;
  }
  if (task->next_batch >= task->sweep->batches.size()) {
    if (w.done) w.done(true);
    return true;
  }
  return false;
}

void QueryScheduler::DropQuery(uint64_t qid) {
  for (auto it = tasks_.begin(); it != tasks_.end();) {
    if (it->work.qid == qid) {
      it = tasks_.erase(it);
      cursor_ = 0;
    } else {
      ++it;
    }
  }
}

void QueryScheduler::Stop() {
  stopped_ = true;
  tasks_.clear();
  recent_sweeps_.clear();
  cursor_ = 0;
}

}  // namespace query
}  // namespace pier
