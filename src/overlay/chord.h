// Chord-style structured overlay (Stoica et al., SIGCOMM 2001 — reference
// [7] of the paper): consistent hashing on a 160-bit ring, successor lists
// for fault tolerance, finger tables for O(log n) routing, and periodic
// soft-state stabilization. This is the DHT routing layer PIER runs on.
//
// Protocol sketch (all messages under Proto::kOverlay):
//   - join:     FIND_SUCCESSOR(self.id) via a bootstrap node
//   - routing:  greedy forwarding to the closest preceding finger/successor
//   - repair:   stabilize, one request and one reply every round. The
//               request carries the asker's NodeInfo (Chord's notify, applied
//               on arrival) and the digest of the successor's neighbourhood
//               (predecessor + successor list) the asker last received; the
//               reply carries that neighbourhood only when its digest
//               differs, else one "unchanged" byte, and the asker re-runs
//               the adoption rules on its cached copy. A predecessor's
//               requests are its heartbeat: the liveness ping goes out only
//               after a check interval without one. Fix-fingers sets a
//               finger whose target the successor owns from it locally; a
//               slot past the successor asks the finger it holds, which
//               answers while it still owns the target and otherwise
//               forwards like any lookup, so a settled slot costs one round
//               trip. A finger that does not answer is dropped from its
//               slot (not suspected), and an empty slot is looked up routed
//   - failure:  a neighbour is suspected only on silence: a stabilize
//               request to the successor, or a liveness ping to the
//               predecessor, that times out marks the host suspect only if
//               nothing came back from it since that request went out (a
//               stabilize reply from the successor, a stabilize request
//               from the predecessor). A suspect is routed around and
//               evicted from the successor list for kSuspectTtl
//
// Everything is timer-driven soft state: no operation blocks, every remote
// exchange can be lost, and the ring heals as long as successor lists
// retain one live entry.

#ifndef PIER_OVERLAY_CHORD_H_
#define PIER_OVERLAY_CHORD_H_

#include <array>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/id160.h"
#include "overlay/node_info.h"
#include "overlay/router.h"
#include "overlay/rpc.h"
#include "overlay/transport.h"
#include "sim/event_queue.h"
#include "sim/metrics.h"

namespace pier {
namespace overlay {

/// Counters exposed for experiments.
struct ChordStats {
  uint64_t lookups_ok = 0;
  uint64_t lookups_failed = 0;
  uint64_t routes_initiated = 0;
  uint64_t messages_forwarded = 0;
  uint64_t stabilize_rounds = 0;
  uint64_t successor_failovers = 0;
  /// Hosts newly marked suspect: a stabilize request or predecessor ping
  /// timed out and the host stayed silent since it went out. A crash or a
  /// cut link raises it; one lost packet does not (churn/partition
  /// observability: rises while links are faulted, flat once healed).
  uint64_t suspects_marked = 0;
  /// Ring-neighborhood changes (successor/predecessor/successor-list edits).
  uint64_t neighbor_changes = 0;
  /// Partition-heal probes sent to evicted peers, and the probes that came
  /// back and knitted state from the other side of a split.
  uint64_t rejoin_probes = 0;
  uint64_t rejoin_merges = 0;
  sim::Histogram lookup_hops;
};

/// One node's Chord protocol instance.
class ChordNode : public Router {
 public:
  /// `transport` must outlive the node. The node registers itself as the
  /// Proto::kOverlay handler. The protocol's timers and sizes are constants
  /// in chord.cc.
  ChordNode(Transport* transport, const Id160& id);
  ~ChordNode() override;

  /// Becomes the first node of a fresh ring (no bootstrap needed).
  void Create();

  /// Joins the ring known to `bootstrap`. `done` fires once the node has a
  /// successor (or with an error after kMaxJoinAttempts timeouts).
  void Join(sim::HostId bootstrap, std::function<void(Status)> done);

  /// Graceful departure: tells neighbors to splice around us, then stops.
  void Leave();
  /// Crash: stops all protocol activity without telling anyone.
  void Fail();
  /// True once joined/created and not stopped.
  bool active() const { return state_ == State::kActive; }

  // Router interface.
  void SetDeliverCallback(DeliverFn fn) override { deliver_ = std::move(fn); }
  void Route(const Id160& key, uint8_t app_tag, sim::Payload payload) override;
  bool IsResponsibleFor(const Id160& key) const override;
  NodeInfo self() const override { return self_; }
  Id160 OwnedRangeStart() const override {
    return pred_.has_value() ? pred_->id : self_.id;
  }
  std::vector<NodeInfo> RoutingNeighbors() const override;
  void Lookup(const Id160& key, LookupCallback cb) override;
  bool SuspectBetween(const Id160& from, const Id160& to) const override;

  /// Current immediate successor (self when singleton).
  NodeInfo successor() const;
  std::optional<NodeInfo> predecessor() const { return pred_; }
  const std::vector<NodeInfo>& successor_list() const { return successors_; }
  /// Distinct live finger entries (diagnostics).
  std::vector<NodeInfo> FingerEntries() const;

  // -- stabilization observability (partition-heal testing hooks) ------------
  /// Virtual time of the last ring-neighborhood change at this node.
  TimePoint last_neighbor_change() const { return last_neighbor_change_; }
  TimePoint last_topology_change() const override {
    return last_neighbor_change_;
  }
  /// True when the ring neighborhood has been unchanged for `window` — the
  /// per-node convergence probe the fault testkit polls after a heal.
  bool RingStable(Duration window) const;
  /// Hosts currently under suspicion (unexpired entries).
  size_t suspect_count() const;

  const ChordStats& stats() const { return stats_; }
  ChordStats* mutable_stats() { return &stats_; }

 private:
  enum class State { kIdle, kJoining, kActive, kStopped };

  // Wire message types under Proto::kOverlay. 6 was a separate NOTIFY,
  // which now rides on the stabilize request.
  enum class MsgType : uint8_t {
    kRoute = 1,
    kFindSuccReq = 2,
    kFindSuccResp = 3,
    kGetNeighborsReq = 4,   ///< stabilize: [req_id][asker][digest echo]
    kGetNeighborsResp = 5,  ///< [req_id][unchanged | changed + neighbourhood]
    kPingReq = 7,
    kPingResp = 8,
    kLeaveNotice = 9,
  };

  /// What a stabilize reply describes: a node's predecessor and successor
  /// list.
  struct Neighbourhood {
    std::optional<NodeInfo> pred;
    std::vector<NodeInfo> successors;

    void Serialize(Writer* w) const;
    /// Rejects a truncated encoding and one with trailing bytes.
    static Status Deserialize(Reader* r, Neighbourhood* out);
    /// 64-bit digest of the content; never 0, which stands for "none".
    uint64_t Digest() const;
  };

  void OnMessage(sim::HostId from, Reader* r, const sim::Payload& body);
  void HandleRoute(Reader* r, const sim::Payload& body);
  void HandleFindSuccReq(Reader* r);
  void HandleGetNeighborsReq(sim::HostId from, Reader* r);
  /// Chord's notify: `candidate` believes it is our predecessor.
  void ApplyNotify(const NodeInfo& candidate);
  void HandleLeaveNotice(Reader* r);

  /// True when a message that has taken `hops` hops is at or past the loop
  /// guard (kMaxRouteHops).
  bool AtHopLimit(uint32_t hops) const;
  /// Greedy next hop for `key`; self when locally responsible.
  NodeInfo NextHop(const Id160& key) const;
  /// Deduplicated finger entries in slot order (cached).
  const std::vector<NodeInfo>& CompactFingers() const;
  void InvalidateFingerCache() { finger_cache_dirty_ = true; }
  /// Forwards a find-successor query one hop (or answers it).
  void ForwardFindSucc(const Id160& key, uint64_t req_id,
                       sim::HostId reply_to, uint32_t hops);
  /// Sends a FIND_SUCCESSOR(key) request to `to`; the owner answers
  /// `reply_to`.
  void SendFindSuccReq(sim::HostId to, const Id160& key, uint64_t req_id,
                       sim::HostId reply_to, uint32_t hops);
  /// Answers `reply_to` that `owner` owns the key (completes locally when
  /// the asker is us).
  void AnswerFindSucc(const NodeInfo& owner, uint64_t req_id,
                      sim::HostId reply_to, uint32_t hops);
  void StartTasks();
  void StopTasks();
  /// One periodic stabilize round: suspicion upkeep, a rejoin probe, then
  /// the exchange with the successor.
  void Stabilize();
  /// Sends `succ` a stabilize request and runs rules 1 and 2 on its reply.
  void StabilizeWith(const NodeInfo& succ);
  /// Sends a stabilize request (our notify plus `echo`) to `to`.
  void SendStabilizeReq(sim::HostId to, uint64_t req_id, uint64_t echo);
  /// Partition healing: re-probes one remembered evicted peer; a response
  /// clears its suspicion and feeds its neighborhood back into ours.
  void ProbeEvicted();
  void RememberEvicted(const NodeInfo& info);
  void ConsiderRejoinCandidate(const NodeInfo& candidate);
  void FixFingers();
  /// Resolves finger slot `index`, whose target lies past the successor:
  /// asks `finger` (the entry the slot holds) directly, or routes the
  /// lookup from here when `finger` is kInvalidHost. A direct ask that times
  /// out empties the slot if it still holds `finger`, then routes.
  void ResolveFinger(int index, sim::HostId finger);
  /// Sets finger slot `index` to `owner` (empty when we own the target
  /// ourselves); the compact cache is rebuilt only if the slot changed.
  void SetFinger(int index, const NodeInfo& owner);
  void CheckPredecessor();
  void AttemptJoin();
  void AdoptSuccessorCandidate(const NodeInfo& candidate);
  void RemoveSuccessor(sim::HostId host);
  void Suspect(const NodeInfo& node);
  bool IsSuspect(sim::HostId host) const;
  /// Must follow every edit of pred_ or successors_: it stamps the change
  /// time and drops own_digest_.
  void NotifyNeighborsChanged();
  Status SendMsg(sim::HostId to, const Writer& w);

  Transport* transport_;
  NodeInfo self_;
  State state_ = State::kIdle;

  std::optional<NodeInfo> pred_;
  std::vector<NodeInfo> successors_;  // clockwise from self; [0] = successor
  /// The neighbourhood `view_host_` last sent us in full, and its digest
  /// (0: none). An "unchanged" reply from that host re-reads this copy.
  sim::HostId view_host_ = sim::kInvalidHost;
  uint64_t view_digest_ = 0;
  Neighbourhood view_;
  /// Digest of our own neighbourhood, for the replies we send; 0 until
  /// recomputed after an edit.
  uint64_t own_digest_ = 0;
  /// The last stabilize request that came from our predecessor: its
  /// heartbeat (see CheckPredecessor).
  sim::HostId pred_heard_host_ = sim::kInvalidHost;
  TimePoint pred_heard_at_ = 0;
  /// The last stabilize reply that came from a successor: a timed-out
  /// request to that host suspects it only if this predates the request.
  sim::HostId succ_heard_host_ = sim::kInvalidHost;
  TimePoint succ_heard_at_ = 0;
  std::array<std::optional<NodeInfo>, Id160::kBits> fingers_;
  int next_finger_ = Id160::kBits - 1;
  /// Distinct finger entries in slot order, rebuilt lazily: NextHop runs on
  /// every routed hop and must not walk all 160 (mostly duplicate) slots.
  mutable std::vector<NodeInfo> finger_compact_;
  mutable bool finger_cache_dirty_ = true;

  /// A suspected host's ring id, kept for SuspectBetween, and when the
  /// suspicion expires.
  struct Suspicion {
    Id160 id;
    TimePoint until;
  };
  std::unordered_map<sim::HostId, Suspicion> suspects_;
  /// Evicted-peer memory for partition healing (see ProbeEvicted).
  struct EvictedPeer {
    NodeInfo info;
    TimePoint until;  ///< drop from the cache after this time
  };
  std::vector<EvictedPeer> evicted_;
  size_t evicted_probe_idx_ = 0;

  RpcManager rpc_;
  sim::PeriodicTask stabilize_task_;
  sim::PeriodicTask fix_fingers_task_;
  sim::PeriodicTask check_pred_task_;

  DeliverFn deliver_;
  std::function<void(Status)> join_done_;
  sim::HostId join_bootstrap_ = sim::kInvalidHost;
  int join_attempts_ = 0;
  TimePoint last_neighbor_change_ = 0;

  ChordStats stats_;
};

}  // namespace overlay
}  // namespace pier

#endif  // PIER_OVERLAY_CHORD_H_
