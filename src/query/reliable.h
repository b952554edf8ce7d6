// Building blocks of the reliable result plane (PR 8): per-query frame-id
// dedupe for receivers, a pending-frame outbox for senders, and the jittered
// exponential backoff schedule shared by both the engine's frame retries and
// the broadcast layer's hop retries. These are plain data structures — the
// engine owns all timers and wire I/O — so they unit-test without a network.

#ifndef PIER_QUERY_RELIABLE_H_
#define PIER_QUERY_RELIABLE_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>

#include "common/backoff.h"
#include "common/time_util.h"
#include "sim/network.h"

namespace pier {
namespace query {

/// Receiver-side frame-id dedupe, one per (query, sender). A sender numbers
/// its frames monotone from 1 within one incarnation — one install of the
/// query on that node, stamped with its install time. A reboot, or a
/// re-install once its tombstone expired, numbers from 1 again under a
/// later stamp: that restarts the window, and frames of an older
/// incarnation are refused. Within an incarnation a contiguous watermark
/// plus a sparse out-of-order set stays O(gaps). Admit() returns true
/// exactly once per (incarnation, id).
class FrameDedupe {
 public:
  bool Admit(uint64_t frame_id, uint64_t incarnation = 0);
  uint64_t admitted() const { return admitted_; }
  uint64_t incarnation() const { return incarnation_; }

 private:
  uint64_t incarnation_ = 0;
  // Ids <= max_contig_ are all seen; sparse_ holds seen ids above it.
  uint64_t max_contig_ = 0;
  std::set<uint64_t> sparse_;
  uint64_t admitted_ = 0;
  // Bound sparse growth against hostile/garbage frame ids: past the cap we
  // admit without recording (dedupe degrades, memory does not).
  static constexpr size_t kMaxSparse = 4096;
};

/// Sender-side pending-frame ledger: one per active query. Frames are
/// removed on ack or after the retry budget is spent; `control` frames
/// (epoch reports) are excluded from the data-drain accounting that gates
/// the member's per-epoch completion report.
///
/// Teardown contract: the engine refunds pending_bytes() against its
/// admission counter whenever it frees the owning query — end, cancel,
/// deadline self-expiry, lease reclaim and engine stop alike — and the
/// outbox goes with the query. The testkit audits the counter via
/// QueryEngine::CheckReliableAccounting.
class ReliableOutbox {
 public:
  struct Frame {
    sim::HostId to = 0;
    std::string bytes;  // the inner direct message, starting with its MsgType
    bool control = false;
    int attempts = 1;  // sends so far, including the first
  };

  /// Registers a frame and returns its id (monotone from 1).
  uint64_t Enqueue(sim::HostId to, std::string bytes, bool control);
  Frame* Get(uint64_t frame_id);
  /// Removes an acked frame. Returns false if it was not pending (dup ack).
  bool Ack(uint64_t frame_id);
  /// Drops a frame whose retry budget is exhausted; data frames are charged
  /// to `lost`.
  void MarkLost(uint64_t frame_id);

  bool data_drained() const { return data_pending_ == 0; }
  size_t pending_bytes() const { return pending_bytes_; }
  size_t pending_frames() const { return pending_.size(); }

  // Cumulative counters the member's kEpochReport carries (data frames only;
  // monotone, so the origin can merge reordered reports by max).
  uint64_t retried = 0;
  uint64_t lost = 0;
  /// Data frames enqueued whose destination was the query origin — the
  /// member's cumulative claim the origin checks its admitted count against.
  uint64_t data_to_origin = 0;

 private:
  uint64_t next_id_ = 1;
  std::map<uint64_t, Frame> pending_;
  size_t pending_bytes_ = 0;
  size_t data_pending_ = 0;
};

}  // namespace query
}  // namespace pier

#endif  // PIER_QUERY_RELIABLE_H_
