// BroadcastService: O(log n)-depth dissemination trees over the overlay.
//
// PIER pushes query plans to every node ("query dissemination") and needs
// namespace-wide scans to start everywhere. The algorithm is the classic
// interval-partitioned DHT broadcast: a node responsible for the ring
// interval (self, limit) splits it among its routing neighbors, giving each
// neighbor the sub-interval up to the next neighbor. Every node is reached
// once on a stabilized ring; duplicates arising from imperfect neighbor
// views are suppressed by a seen-cache.
//
// PR 8 makes the tree success-tolerant: every tree edge is acked and
// retransmitted with jittered backoff (a lost kPlan/kCancel no longer
// silently excludes a subtree), and a "cover wave" flows back up the tree —
// each node reports its subtree's delivered-node count and a complete flag
// once all children have covered or conclusively failed. The coverage
// callback fires at every node as its subtree's wave completes: at the
// origin it is how the query engine learns members_expected /
// coverage_complete for its Completeness accounting; at a relay it is how
// many contributors that node's tree aggregation waits for.
//
// A relay also vouches for the gap between itself and its first child: it
// claims no node lies there. If it suspects a node that does (the overlay
// left that node out of its neighbors), the wave skipped it, so the relay's
// cover goes up unvouched, and the flag propagates to the origin the way
// an incomplete subtree does. The application may unvouch a node's cover
// too (Unvouch: the query engine's scan read failed-over replicas). The
// count stays what it is: relays' combiners wait for it either way.
//
// A node keeps a wave's relay state (children, payload, cover) only while
// the wave is open here: until its cover is acked, or at the origin until
// the wave closes. The seen-cache keeps the bare (origin, seq) key, which
// marks a duplicate, for a fixed kSeenTtl, so entries expire in creation
// order.

#ifndef PIER_DHT_BROADCAST_H_
#define PIER_DHT_BROADCAST_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "overlay/router.h"
#include "overlay/transport.h"
#include "sim/event_queue.h"

namespace pier {
namespace dht {

/// The one broadcast setting: tests shrink it to force every cover wave
/// incomplete. The edge retry policy is fixed in broadcast.cc.
struct BroadcastOptions {
  /// A relay forces its cover upward after this long even if some children
  /// never covered (they are marked failed; the wave reports incomplete).
  Duration cover_timeout = Seconds(6);
};

struct BroadcastStats {
  uint64_t initiated = 0;
  uint64_t delivered = 0;   ///< local deliveries (once per broadcast)
  uint64_t forwarded = 0;   ///< first sends downstream
  uint64_t duplicates = 0;  ///< suppressed re-deliveries
  uint64_t retransmits = 0; ///< data + cover retry sends
  uint64_t acks_received = 0;
  uint64_t covers_received = 0;
  uint64_t edges_failed = 0;  ///< edges abandoned after the retry budget
  int max_depth_seen = 0;
};

/// Per-node broadcast component; registers for Proto::kBroadcast.
class BroadcastService {
 public:
  /// Delivery upcall: `origin` initiated broadcast `seq`; `parent` is the
  /// node that forwarded it to us (self at the origin) — the edge of the
  /// dissemination tree, which aggregation re-uses in reverse; `depth` is
  /// the tree depth at this node. The payload is the origin's buffer,
  /// shared (not copied) across the whole tree.
  using Handler =
      std::function<void(sim::HostId origin, uint64_t seq, sim::HostId parent,
                         int depth, const sim::Payload& payload)>;
  /// Cover-wave upcall, raised once per broadcast at every node it reached
  /// first-hand: `origin`'s broadcast `seq` reached `members` nodes through
  /// this one (self included; the whole reach at the origin). A duplicate
  /// delivery covers its extra parent with zero, so each node counts under
  /// exactly one parent. `complete` means every subtree reported in — no
  /// edge was abandoned and no cover was forced by timeout. `vouched`
  /// means no node of the subtree skipped a node in its gap or was
  /// unvouched by the application. A relay raises it as its cover goes
  /// up; the origin a tick after its wave closes.
  using CoverageFn =
      std::function<void(sim::HostId origin, uint64_t seq, uint64_t members,
                         bool complete, bool vouched)>;

  BroadcastService(overlay::Transport* transport, overlay::Router* router,
                   BroadcastOptions options = BroadcastOptions());
  ~BroadcastService();

  void SetHandler(Handler handler) { handler_ = std::move(handler); }
  void SetCoverageHandler(CoverageFn fn) { coverage_fn_ = std::move(fn); }

  /// Marks this node's cover of `origin`'s broadcast `seq` unvouched, if
  /// the wave is still open here and its cover has not gone up. Call it
  /// from the delivery handler: a node covers once its children have.
  void Unvouch(sim::HostId origin, uint64_t seq);

  /// Disseminates `payload` to every reachable node, including this one.
  /// The payload is serialized exactly once (by the caller); every relay
  /// hop re-frames only the small tree header. Returns the broadcast
  /// sequence number.
  uint64_t Broadcast(sim::Payload payload);

  void Start() { running_ = true; }
  void Stop() { running_ = false; }

  const BroadcastStats& stats() const { return stats_; }

 private:
  /// Leading kind byte of every Proto::kBroadcast frame.
  enum Kind : uint8_t { kData = 1, kAck = 2, kCover = 3 };
  enum AckWhat : uint8_t { kAckData = 1, kAckCover = 2 };
  /// Bits of a cover's flags byte.
  enum CoverFlag : uint8_t { kCoverComplete = 1, kCoverUnvouched = 2 };

  /// One downstream edge of a relayed broadcast.
  struct ChildEdge {
    sim::HostId host = 0;
    Id160 sub_limit;
    int depth = 0;
    int attempts = 0;
    bool acked = false;
    bool covered = false;
    bool failed = false;
    uint64_t cover_count = 0;
    bool cover_complete = true;
    bool cover_vouched = true;
  };
  /// Per-(origin, seq) relay bookkeeping while the wave is in flight.
  struct RelayState {
    sim::HostId parent = 0;
    bool is_origin = false;
    sim::Payload payload;
    std::vector<ChildEdge> children;
    bool cover_sent = false;
    int cover_attempts = 0;
    /// No node this relay suspects lies before its first child, and the
    /// application did not unvouch this node.
    bool vouched = true;
    uint64_t cover_count = 0;
    bool cover_complete = true;
    /// This node and every node under it vouched.
    bool cover_vouched = true;
  };
  using RelayKey = std::pair<sim::HostId, uint64_t>;

  void OnMessage(sim::HostId from, Reader* r, const sim::Payload& body);
  void OnData(sim::HostId from, Reader* r, const sim::Payload& body);
  void OnAck(sim::HostId from, Reader* r);
  void OnCover(sim::HostId from, Reader* r);
  /// Forwards into (self, limit), splitting among neighbors; the edges are
  /// recorded in `state` for ack tracking, and the gap before the first
  /// child is checked for suspects.
  void Relay(RelayState& state, sim::HostId origin, uint64_t seq,
             const Id160& limit, int depth, const sim::Payload& payload);
  void SendDataEdge(sim::HostId origin, uint64_t seq, ChildEdge* edge,
                    const sim::Payload& payload);
  void ScheduleEdgeRetry(sim::HostId origin, uint64_t seq, sim::HostId child);
  void SendCoverOnce(sim::HostId origin, uint64_t seq, RelayState* state);
  void ScheduleCoverRetry(sim::HostId origin, uint64_t seq);
  void SendAck(sim::HostId to, sim::HostId origin, uint64_t seq,
               AckWhat what);
  /// Fires the cover and the coverage callback once every child has either
  /// covered or conclusively failed.
  void MaybeFinishCover(sim::HostId origin, uint64_t seq, RelayState* state);
  void ArmCoverDeadline(sim::HostId origin, uint64_t seq);
  RelayState* FindRelay(sim::HostId origin, uint64_t seq);
  void Deliver(sim::HostId origin, uint64_t seq, sim::HostId parent,
               int depth, const sim::Payload& payload);
  /// Drops the seen-cache entries whose kSeenTtl has run out (FIFO order:
  /// virtual time never goes backwards).
  void ExpireSeen();
  /// Creates the relay state (and seen-cache entry) for a first delivery.
  RelayState& MarkSeen(sim::HostId origin, uint64_t seq);
  /// The wave closed here: its relay state goes, its seen-cache key stays.
  void CloseRelay(sim::HostId origin, uint64_t seq) {
    relays_.erase({origin, seq});
  }
  sim::TimerId ScheduleTimer(Duration delay, std::function<void()> fn);

  overlay::Transport* transport_;
  overlay::Router* router_;
  BroadcastOptions options_;
  Handler handler_;
  CoverageFn coverage_fn_;
  bool running_ = true;
  uint64_t next_seq_ = 1;
  /// Waves still open here.
  std::map<RelayKey, RelayState> relays_;
  /// The seen-cache: every (origin, seq) delivered here within kSeenTtl.
  std::set<RelayKey> seen_;
  /// (expiry, key) of every seen_ entry, in creation (= expiry) order.
  std::deque<std::pair<TimePoint, RelayKey>> expiry_;
  /// Timers scheduled and not yet fired or cancelled.
  std::unordered_set<sim::TimerId> timers_;
  BroadcastStats stats_;

  static constexpr int kMaxDepth = 64;
  static constexpr Duration kSeenTtl = Seconds(120);
};

}  // namespace dht
}  // namespace pier

#endif  // PIER_DHT_BROADCAST_H_
