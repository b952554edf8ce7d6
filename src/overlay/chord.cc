#include "overlay/chord.h"

#include <algorithm>
#include <cstring>

#include "common/hash.h"
#include "common/logging.h"

namespace pier {
namespace overlay {

namespace {
std::string Who(const NodeInfo& n) { return n.ToString(); }

// The form byte of a stabilize reply, after its request id.
constexpr uint8_t kNeighbourhoodUnchanged = 0;
constexpr uint8_t kNeighbourhoodFollows = 1;

/// Successor-list length; the ring survives up to this many simultaneous
/// adjacent failures.
constexpr int kSuccessorListSize = 8;
/// How often to run the stabilize exchange with our successor.
constexpr Duration kStabilizeInterval = Millis(500);
/// How often to refresh a batch of finger-table entries.
constexpr Duration kFixFingersInterval = Millis(500);
/// Finger slots refreshed per fix-fingers tick (round-robin). A slot whose
/// target lies in (self, successor] is set to the successor without a
/// message; each other slot sends its FIND_SUCCESSOR to the finger it
/// holds (a request and a reply while that finger still owns the target),
/// or routes it when the slot is empty.
constexpr int kFingersPerTick = 8;
/// Predecessor liveness check period. The predecessor's stabilize
/// requests count as its heartbeat; the node pings it only after this long
/// without one, and suspects it only if the ping times out with no request
/// from it since.
constexpr Duration kCheckPredecessorInterval = Seconds(1);
/// Timeout for all overlay RPCs. Three stabilize rounds fit in it, so a
/// live successor answers a later request before an earlier one times out
/// unless about three round trips in a row are lost.
constexpr Duration kRpcTimeout = Millis(1500);
/// How long a host that timed out and stayed silent is suspected.
constexpr Duration kSuspectTtl = Seconds(8);
/// Join retry backoff.
constexpr Duration kJoinRetryInterval = Seconds(1);
constexpr int kMaxJoinAttempts = 8;
/// Routing loop guard.
constexpr int kMaxRouteHops = 64;
/// Partition healing: peers evicted on suspicion are remembered and
/// re-probed (one per stabilize round) for this long. A ring split by a
/// network partition has no in-band path between its halves, so these
/// probes are the only way the halves re-merge after the heal; the cache
/// TTL bounds how long a partition may last and still self-heal.
constexpr Duration kRejoinCacheTtl = Seconds(240);
constexpr size_t kRejoinCacheSize = 16;
}  // namespace

ChordNode::ChordNode(Transport* transport, const Id160& id)
    : transport_(transport),
      self_{transport->self(), id},
      rpc_(transport->simulation()) {
  transport_->RegisterHandler(
      Proto::kOverlay, [this](sim::HostId from, Reader* r,
                              const sim::Payload& body) {
        OnMessage(from, r, body);
      });
}

ChordNode::~ChordNode() { StopTasks(); }

void ChordNode::Create() {
  PIER_CHECK(state_ == State::kIdle || state_ == State::kStopped);
  pred_.reset();
  successors_.clear();
  own_digest_ = 0;
  state_ = State::kActive;
  StartTasks();
  PLOG(kInfo, Who(self_)) << "created ring";
}

void ChordNode::Join(sim::HostId bootstrap, std::function<void(Status)> done) {
  PIER_CHECK(state_ == State::kIdle || state_ == State::kStopped);
  state_ = State::kJoining;
  join_bootstrap_ = bootstrap;
  join_done_ = std::move(done);
  join_attempts_ = 0;
  AttemptJoin();
}

void ChordNode::AttemptJoin() {
  if (state_ != State::kJoining) return;
  ++join_attempts_;
  if (join_attempts_ > kMaxJoinAttempts) {
    state_ = State::kIdle;
    if (join_done_) join_done_(Status::Unavailable("join: no response"));
    return;
  }
  // FIND_SUCCESSOR(self.id) answered directly to us.
  uint64_t req_id = rpc_.Begin(
      [this](Status s, Reader* r) {
        if (state_ != State::kJoining) return;
        if (!s.ok()) {
          // Back off and retry; the bootstrap may be down or slow.
          transport_->simulation()->ScheduleAfter(kJoinRetryInterval,
                                                  [this] { AttemptJoin(); });
          return;
        }
        NodeInfo owner;
        uint32_t hops = 0;
        if (!NodeInfo::Deserialize(r, &owner).ok() ||
            !r->GetVarint32(&hops).ok()) {
          return;  // malformed; timeout path will retry
        }
        successors_.assign(1, owner);
        state_ = State::kActive;
        StartTasks();
        PLOG(kInfo, Who(self_)) << "joined; successor=" << Who(owner);
        NotifyNeighborsChanged();
        if (join_done_) join_done_(Status::OK());
        // Kick off an immediate stabilize to learn the successor list.
        Stabilize();
      },
      kRpcTimeout);
  SendFindSuccReq(join_bootstrap_, self_.id, req_id, self_.host, 0);
}

void ChordNode::Leave() {
  if (state_ != State::kActive) {
    state_ = State::kStopped;
    StopTasks();
    return;
  }
  // Tell predecessor and successor to splice around us. Stored state is NOT
  // transferred: PIER's soft-state model re-publishes data continuously, so
  // ownership migrates with the next renewal cycle.
  Writer w;
  w.PutU8(static_cast<uint8_t>(MsgType::kLeaveNotice));
  self_.Serialize(&w);
  w.PutBool(!successors_.empty());
  if (!successors_.empty()) successors_[0].Serialize(&w);
  w.PutBool(pred_.has_value());
  if (pred_.has_value()) pred_->Serialize(&w);
  if (!successors_.empty()) SendMsg(successors_[0].host, w);
  if (pred_.has_value()) SendMsg(pred_->host, w);
  state_ = State::kStopped;
  StopTasks();
  PLOG(kInfo, Who(self_)) << "left ring";
}

void ChordNode::Fail() {
  state_ = State::kStopped;
  StopTasks();
}

void ChordNode::StartTasks() {
  sim::Simulation* sim = transport_->simulation();
  // Phase-shift the first firing per node so protocol ticks don't
  // synchronize across the network.
  Duration phase0 = static_cast<Duration>(
      sim->rng().Fork(self_.host ^ 0x74696d65ull)
          .NextBelow(static_cast<uint64_t>(kStabilizeInterval) + 1));
  stabilize_task_.Start(sim, phase0, kStabilizeInterval,
                        [this] { Stabilize(); });
  fix_fingers_task_.Start(sim, phase0 + Millis(50), kFixFingersInterval,
                          [this] { FixFingers(); });
  check_pred_task_.Start(sim, phase0 + Millis(100), kCheckPredecessorInterval,
                         [this] { CheckPredecessor(); });
}

void ChordNode::StopTasks() {
  stabilize_task_.Stop();
  fix_fingers_task_.Stop();
  check_pred_task_.Stop();
  rpc_.CancelAll();
}

Status ChordNode::SendMsg(sim::HostId to, const Writer& w) {
  return transport_->Send(to, Proto::kOverlay, w);
}

// ---------------------------------------------------------------------------
// Ring geometry
// ---------------------------------------------------------------------------

bool ChordNode::IsResponsibleFor(const Id160& key) const {
  if (state_ != State::kActive) return false;
  if (!pred_.has_value()) {
    // Either singleton or our predecessor just died. Claiming responsibility
    // errs toward local delivery; soft state tolerates the transient.
    return true;
  }
  return key.InIntervalOpenClosed(pred_->id, self_.id);
}

NodeInfo ChordNode::successor() const {
  return successors_.empty() ? self_ : successors_[0];
}

bool ChordNode::AtHopLimit(uint32_t hops) const {
  // Compared in 64 bits: no hop count off the wire wraps or turns negative.
  return static_cast<int64_t>(hops) >= kMaxRouteHops;
}

const std::vector<NodeInfo>& ChordNode::CompactFingers() const {
  if (finger_cache_dirty_) {
    finger_compact_.clear();
    for (const auto& f : fingers_) {
      if (!f.has_value()) continue;
      bool dup = false;
      for (const auto& e : finger_compact_) dup = dup || e.host == f->host;
      if (!dup) finger_compact_.push_back(*f);
    }
    finger_cache_dirty_ = false;
  }
  return finger_compact_;
}

NodeInfo ChordNode::NextHop(const Id160& key) const {
  if (IsResponsibleFor(key) || successors_.empty()) return self_;
  // Immediate successor owns (self, successor].
  if (key.InIntervalOpenClosed(self_.id, successors_[0].id) &&
      !IsSuspect(successors_[0].host)) {
    return successors_[0];
  }
  // Closest preceding live node across fingers and the successor list.
  NodeInfo best = self_;
  Id160 best_dist = Id160::Max();
  auto consider = [&](const NodeInfo& cand) {
    if (!cand.valid() || cand.host == self_.host) return;
    if (IsSuspect(cand.host)) return;
    if (!cand.id.InIntervalOpenOpen(self_.id, key)) return;
    // Prefer the candidate closest to (but before) the key: smallest
    // clockwise distance cand -> key.
    Id160 dist = cand.id.DistanceTo(key);
    if (!(best.valid() && best.host != self_.host) || dist < best_dist) {
      best = cand;
      best_dist = dist;
    }
  };
  // Same slot-order traversal as the raw table, minus the duplicates: this
  // runs once per routed hop, so it iterates the handful of distinct
  // fingers, not all 160 slots.
  for (const auto& f : CompactFingers()) consider(f);
  for (const auto& s : successors_) consider(s);
  if (best.host != self_.host) return best;
  // Fall back to any live successor.
  for (const auto& s : successors_) {
    if (!IsSuspect(s.host)) return s;
  }
  return self_;  // nowhere to go; deliver locally rather than drop
}

std::vector<NodeInfo> ChordNode::RoutingNeighbors() const {
  std::vector<NodeInfo> out;
  auto add = [&](const NodeInfo& n) {
    if (!n.valid() || n.host == self_.host || IsSuspect(n.host)) return;
    for (const auto& e : out) {
      if (e.host == n.host) return;
    }
    out.push_back(n);
  };
  for (const auto& s : successors_) add(s);
  // Fingers in increasing clockwise distance from self.
  std::vector<NodeInfo> fs = CompactFingers();
  std::sort(fs.begin(), fs.end(), [this](const NodeInfo& a, const NodeInfo& b) {
    return self_.id.DistanceTo(a.id) < self_.id.DistanceTo(b.id);
  });
  for (const auto& f : fs) add(f);
  return out;
}

std::vector<NodeInfo> ChordNode::FingerEntries() const {
  return CompactFingers();
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

void ChordNode::Route(const Id160& key, uint8_t app_tag, sim::Payload payload) {
  if (state_ != State::kActive) return;
  ++stats_.routes_initiated;
  NodeInfo hop = NextHop(key);
  if (hop.host == self_.host) {
    if (deliver_) {
      deliver_(RoutedMessage{key, self_.host, app_tag, 0, std::move(payload)});
    }
    return;
  }
  // Per-hop header only; the payload rides as the shared packet body.
  Writer w;
  w.PutU8(static_cast<uint8_t>(MsgType::kRoute));
  key.Serialize(&w);
  w.PutU8(app_tag);
  w.PutFixed32(self_.host);
  w.PutVarint32(0);
  transport_->SendWithBody(hop.host, Proto::kOverlay, w, std::move(payload));
}

void ChordNode::HandleRoute(Reader* r, const sim::Payload& body) {
  Id160 key;
  uint8_t app_tag = 0;
  uint32_t origin = 0, hops = 0;
  if (!Id160::Deserialize(r, &key).ok() || !r->GetU8(&app_tag).ok() ||
      !r->GetFixed32(&origin).ok() || !r->GetVarint32(&hops).ok()) {
    return;
  }
  // The loop guard. Below it `hops` fits an int and `hops + 1` cannot wrap.
  if (state_ != State::kActive || AtHopLimit(hops)) return;
  NodeInfo hop = NextHop(key);
  if (hop.host == self_.host) {
    if (deliver_) {
      deliver_(RoutedMessage{key, origin, app_tag, static_cast<int>(hops),
                             body});
    }
    return;
  }
  ++stats_.messages_forwarded;
  Writer w;
  w.PutU8(static_cast<uint8_t>(MsgType::kRoute));
  key.Serialize(&w);
  w.PutU8(app_tag);
  w.PutFixed32(origin);
  w.PutVarint32(hops + 1);
  transport_->SendWithBody(hop.host, Proto::kOverlay, w, body);
}

void ChordNode::Lookup(const Id160& key, LookupCallback cb) {
  if (state_ != State::kActive) {
    cb(Status::Unavailable("node not active"), NodeInfo{}, 0);
    return;
  }
  if (IsResponsibleFor(key)) {
    ++stats_.lookups_ok;
    stats_.lookup_hops.Add(0);
    cb(Status::OK(), self_, 0);
    return;
  }
  uint64_t req_id = rpc_.Begin(
      [this, cb](Status s, Reader* r) {
        if (!s.ok()) {
          ++stats_.lookups_failed;
          cb(s, NodeInfo{}, 0);
          return;
        }
        NodeInfo owner;
        uint32_t hops = 0;
        if (!NodeInfo::Deserialize(r, &owner).ok() ||
            !r->GetVarint32(&hops).ok()) {
          ++stats_.lookups_failed;
          cb(Status::Corruption("bad lookup response"), NodeInfo{}, 0);
          return;
        }
        ++stats_.lookups_ok;
        stats_.lookup_hops.Add(hops);
        cb(Status::OK(), owner, static_cast<int>(hops));
      },
      kRpcTimeout);
  ForwardFindSucc(key, req_id, self_.host, 0);
}

void ChordNode::ForwardFindSucc(const Id160& key, uint64_t req_id,
                                sim::HostId reply_to, uint32_t hops) {
  if (IsResponsibleFor(key)) {
    AnswerFindSucc(self_, req_id, reply_to, hops);
    return;
  }
  if (AtHopLimit(hops)) return;
  NodeInfo hop = NextHop(key);
  if (hop.host == self_.host) {
    // Inconsistent transient state: answer with our best known successor.
    AnswerFindSucc(successor(), req_id, reply_to, hops);
    return;
  }
  SendFindSuccReq(hop.host, key, req_id, reply_to, hops);
}

void ChordNode::SendFindSuccReq(sim::HostId to, const Id160& key,
                                uint64_t req_id, sim::HostId reply_to,
                                uint32_t hops) {
  Writer w;
  w.PutU8(static_cast<uint8_t>(MsgType::kFindSuccReq));
  key.Serialize(&w);
  w.PutVarint64(req_id);
  w.PutFixed32(reply_to);
  w.PutVarint32(hops);
  SendMsg(to, w);
}

void ChordNode::AnswerFindSucc(const NodeInfo& owner, uint64_t req_id,
                               sim::HostId reply_to, uint32_t hops) {
  Writer w;
  w.PutU8(static_cast<uint8_t>(MsgType::kFindSuccResp));
  w.PutVarint64(req_id);
  owner.Serialize(&w);
  w.PutVarint32(hops);
  if (reply_to != self_.host) {
    SendMsg(reply_to, w);
    return;
  }
  // Local completion without a network round trip.
  Reader r(w.buffer());
  uint8_t type = 0;
  uint64_t id = 0;
  (void)r.GetU8(&type);
  (void)r.GetVarint64(&id);
  rpc_.Complete(id, &r);
}

void ChordNode::HandleFindSuccReq(Reader* r) {
  Id160 key;
  uint64_t req_id = 0;
  uint32_t reply_to = 0, hops = 0;
  if (!Id160::Deserialize(r, &key).ok() || !r->GetVarint64(&req_id).ok() ||
      !r->GetFixed32(&reply_to).ok() || !r->GetVarint32(&hops).ok()) {
    return;
  }
  // The loop guard, before the count that arrived is raised by one.
  if (state_ != State::kActive || AtHopLimit(hops)) return;
  ForwardFindSucc(key, req_id, reply_to, hops + 1);
}

// ---------------------------------------------------------------------------
// Maintenance protocol
// ---------------------------------------------------------------------------

void ChordNode::Stabilize() {
  if (state_ != State::kActive) return;
  ++stats_.stabilize_rounds;
  // Prune expired suspicion entries so the map stays bounded under
  // long-running churn (IsSuspect already ignores them).
  TimePoint now = transport_->simulation()->now();
  for (auto it = suspects_.begin(); it != suspects_.end();) {
    it = now >= it->second.until ? suspects_.erase(it) : std::next(it);
  }
  // Drop suspect successors from the head.
  while (!successors_.empty() && IsSuspect(successors_[0].host)) {
    ++stats_.successor_failovers;
    successors_.erase(successors_.begin());
    NotifyNeighborsChanged();
  }
  // Partition healing runs even (especially) when every successor has been
  // evicted: an isolated node's only way back is probing its memory.
  ProbeEvicted();
  if (successors_.empty()) return;  // singleton
  StabilizeWith(successors_[0]);
}

void ChordNode::StabilizeWith(const NodeInfo& succ) {
  // Echo the digest of what this successor last sent us in full; 0 (a new
  // successor) asks for its neighbourhood outright.
  uint64_t echo = view_host_ == succ.host ? view_digest_ : 0;
  const TimePoint sent_at = transport_->simulation()->now();
  uint64_t req_id = rpc_.Begin(
      [this, succ, echo, sent_at](Status s, Reader* r) {
        if (state_ != State::kActive) return;
        if (!s.ok()) {
          // Suspect silence, not loss: a reply to a later request that came
          // back since this one went out shows the successor alive.
          if (succ_heard_host_ != succ.host || succ_heard_at_ <= sent_at) {
            Suspect(succ);
          }
          return;
        }
        succ_heard_host_ = succ.host;
        succ_heard_at_ = transport_->simulation()->now();
        // The reply describes succ's neighbourhood. If succ is no longer our
        // head (it left, or was evicted or displaced meanwhile), the next
        // round asks the new head instead.
        if (successors_.empty() || successors_[0].host != succ.host) return;
        uint8_t form = 0;
        if (!r->GetU8(&form).ok()) return;
        if (form == kNeighbourhoodFollows) {
          Neighbourhood view;
          if (!Neighbourhood::Deserialize(r, &view).ok()) return;
          view_host_ = succ.host;
          view_digest_ = view.Digest();
          view_ = std::move(view);
        } else if (form != kNeighbourhoodUnchanged || !r->AtEnd() ||
                   echo == 0 || view_host_ != succ.host ||
                   view_digest_ != echo) {
          return;  // nothing we hold is what the reply vouches for
        }
        // Rule 1: successor's predecessor may be a closer successor for us.
        const std::optional<NodeInfo>& pred = view_.pred;
        bool closer = pred.has_value() && pred->host != self_.host &&
                      !IsSuspect(pred->host) &&
                      pred->id.InIntervalOpenOpen(self_.id, succ.id);
        if (closer) AdoptSuccessorCandidate(*pred);
        // Rule 2: merge successor list = [succ] + succ's list.
        std::vector<NodeInfo> merged;
        merged.push_back(successors_[0]);
        for (const auto& e : view_.successors) {
          if (e.host == self_.host) continue;
          if (IsSuspect(e.host)) continue;
          bool dup = false;
          for (const auto& m : merged) dup = dup || m.host == e.host;
          if (!dup) merged.push_back(e);
          if (static_cast<int>(merged.size()) >= kSuccessorListSize) break;
        }
        if (merged != successors_) {
          successors_ = std::move(merged);
          NotifyNeighborsChanged();
        }
        // Rule 1 moved our head: stabilize with the new successor at once,
        // which also tells it about us (Chord's notify).
        if (closer) StabilizeWith(successors_[0]);
      },
      kRpcTimeout);
  SendStabilizeReq(succ.host, req_id, echo);
}

void ChordNode::SendStabilizeReq(sim::HostId to, uint64_t req_id,
                                 uint64_t echo) {
  Writer w;
  w.PutU8(static_cast<uint8_t>(MsgType::kGetNeighborsReq));
  w.PutVarint64(req_id);
  self_.Serialize(&w);
  w.PutFixed64(echo);
  SendMsg(to, w);
}

void ChordNode::Neighbourhood::Serialize(Writer* w) const {
  w->PutBool(pred.has_value());
  if (pred.has_value()) pred->Serialize(w);
  w->PutVarint32(static_cast<uint32_t>(successors.size()));
  for (const auto& s : successors) s.Serialize(w);
}

Status ChordNode::Neighbourhood::Deserialize(Reader* r, Neighbourhood* out) {
  bool has_pred = false;
  uint32_t n = 0;
  PIER_RETURN_IF_ERROR(r->GetBool(&has_pred));
  if (has_pred) {
    NodeInfo pred;
    PIER_RETURN_IF_ERROR(NodeInfo::Deserialize(r, &pred));
    out->pred = pred;
  }
  PIER_RETURN_IF_ERROR(r->GetVarint32(&n));
  for (uint32_t i = 0; i < n; ++i) {
    NodeInfo e;
    PIER_RETURN_IF_ERROR(NodeInfo::Deserialize(r, &e));
    out->successors.push_back(e);
  }
  if (!r->AtEnd()) return Status::Corruption("trailing neighbourhood bytes");
  return Status::OK();
}

uint64_t ChordNode::Neighbourhood::Digest() const {
  // Every field, in order, one word at a time: under loss most replies
  // carry a changed neighbourhood, so the asker computes this often.
  uint64_t h = Mix64(pred.has_value() ? 1 : 2);
  auto mix = [&h](const NodeInfo& n) {
    uint64_t words[3] = {};
    std::memcpy(words, n.id.bytes().data(), Id160::kBytes);
    h = Mix64(h ^ n.host);
    for (uint64_t w : words) h = Mix64(h ^ w);
  };
  if (pred.has_value()) mix(*pred);
  h = Mix64(h ^ successors.size());
  for (const NodeInfo& s : successors) mix(s);
  return h == 0 ? 1 : h;
}

// ---------------------------------------------------------------------------
// Partition healing
// ---------------------------------------------------------------------------
//
// A network partition splits the ring into halves that each evict the other
// half as suspects; once the halves stabilize into independent rings, no
// routine exchange ever crosses the old boundary again. The heal path is
// out-of-band memory: every eviction is remembered (bounded cache + TTL),
// and each stabilize round re-probes one remembered peer with a stabilize
// request, which carries our notify. When a probe answers after the heal,
// its neighborhood is fed through the usual adoption rules, so both halves
// knit their successor lists together and stabilization cascades the
// merge.

void ChordNode::RememberEvicted(const NodeInfo& info) {
  if (info.host == self_.host) return;
  TimePoint until = transport_->simulation()->now() + kRejoinCacheTtl;
  for (EvictedPeer& e : evicted_) {
    if (e.info.host == info.host) {
      e.until = until;  // refresh
      return;
    }
  }
  if (evicted_.size() >= kRejoinCacheSize) {
    evicted_.erase(evicted_.begin());  // oldest remembered drops first
  }
  evicted_.push_back(EvictedPeer{info, until});
}

void ChordNode::ConsiderRejoinCandidate(const NodeInfo& candidate) {
  if (candidate.host == self_.host || IsSuspect(candidate.host)) return;
  if (successors_.empty()) {
    ++stats_.rejoin_merges;
    AdoptSuccessorCandidate(candidate);
    return;
  }
  if (candidate.id.InIntervalOpenOpen(self_.id, successors_[0].id)) {
    ++stats_.rejoin_merges;
    AdoptSuccessorCandidate(candidate);
  }
}

void ChordNode::ProbeEvicted() {
  TimePoint now = transport_->simulation()->now();
  evicted_.erase(std::remove_if(evicted_.begin(), evicted_.end(),
                                [now](const EvictedPeer& e) {
                                  return e.until <= now;
                                }),
                 evicted_.end());
  if (evicted_.empty()) return;
  evicted_probe_idx_ %= evicted_.size();
  NodeInfo target = evicted_[evicted_probe_idx_++].info;
  ++stats_.rejoin_probes;
  uint64_t req_id = rpc_.Begin(
      [this, target](Status s, Reader* r) {
        if (state_ != State::kActive || !s.ok()) return;  // still cut off
        // Reachable again: drop suspicion so the adoption rules accept it,
        // and forget the eviction (normal stabilization owns it now).
        suspects_.erase(target.host);
        evicted_.erase(
            std::remove_if(evicted_.begin(), evicted_.end(),
                           [&target](const EvictedPeer& e) {
                             return e.info.host == target.host;
                           }),
            evicted_.end());
        ConsiderRejoinCandidate(target);
        uint8_t form = 0;
        Neighbourhood view;
        if (!r->GetU8(&form).ok() || form != kNeighbourhoodFollows ||
            !Neighbourhood::Deserialize(r, &view).ok()) {
          return;
        }
        if (view.pred.has_value()) ConsiderRejoinCandidate(*view.pred);
        for (const NodeInfo& e : view.successors) ConsiderRejoinCandidate(e);
      },
      kRpcTimeout);
  // The probe carries our notify, so the other half knits symmetrically;
  // echo 0 asks for the full neighbourhood.
  SendStabilizeReq(target.host, req_id, 0);
}

void ChordNode::AdoptSuccessorCandidate(const NodeInfo& candidate) {
  successors_.insert(successors_.begin(), candidate);
  if (static_cast<int>(successors_.size()) > kSuccessorListSize) {
    successors_.resize(kSuccessorListSize);
  }
  NotifyNeighborsChanged();
}

void ChordNode::HandleGetNeighborsReq(sim::HostId from, Reader* r) {
  uint64_t req_id = 0, echo = 0;
  NodeInfo asker;
  if (!r->GetVarint64(&req_id).ok() || !NodeInfo::Deserialize(r, &asker).ok() ||
      !r->GetFixed64(&echo).ok() || !r->AtEnd()) {
    return;
  }
  // A request speaks only for its sender.
  if (asker.host != from || state_ != State::kActive) return;
  // The notify rides on the request; from our predecessor, the request is
  // also its heartbeat.
  ApplyNotify(asker);
  if (pred_.has_value() && pred_->host == from) {
    pred_heard_host_ = from;
    pred_heard_at_ = transport_->simulation()->now();
  }
  if (own_digest_ == 0) {
    own_digest_ = Neighbourhood{pred_, successors_}.Digest();
  }
  Writer w;
  w.PutU8(static_cast<uint8_t>(MsgType::kGetNeighborsResp));
  w.PutVarint64(req_id);
  if (own_digest_ == echo) {
    w.PutU8(kNeighbourhoodUnchanged);
  } else {
    w.PutU8(kNeighbourhoodFollows);
    Neighbourhood{pred_, successors_}.Serialize(&w);
  }
  SendMsg(from, w);
}

void ChordNode::ApplyNotify(const NodeInfo& candidate) {
  if (candidate.host == self_.host) return;
  if (!pred_.has_value() ||
      candidate.id.InIntervalOpenOpen(pred_->id, self_.id) ||
      IsSuspect(pred_->host)) {
    pred_ = candidate;
    NotifyNeighborsChanged();
  }
  if (successors_.empty()) {
    // Second node of the ring: our notifier is also our successor.
    successors_.push_back(candidate);
    NotifyNeighborsChanged();
  }
}

void ChordNode::HandleLeaveNotice(Reader* r) {
  NodeInfo leaving, succ, pred;
  bool has_succ = false, has_pred = false;
  if (!NodeInfo::Deserialize(r, &leaving).ok() ||
      !r->GetBool(&has_succ).ok()) {
    return;
  }
  if (has_succ && !NodeInfo::Deserialize(r, &succ).ok()) return;
  if (!r->GetBool(&has_pred).ok()) return;
  if (has_pred && !NodeInfo::Deserialize(r, &pred).ok()) return;
  if (state_ != State::kActive) return;

  if (pred_.has_value() && pred_->host == leaving.host) {
    if (has_pred && pred.host != self_.host) {
      pred_ = pred;
    } else {
      pred_.reset();
    }
    NotifyNeighborsChanged();
  }
  if (!successors_.empty() && successors_[0].host == leaving.host) {
    successors_.erase(successors_.begin());
    if (has_succ && succ.host != self_.host && !IsSuspect(succ.host)) {
      AdoptSuccessorCandidate(succ);
    } else {
      NotifyNeighborsChanged();
    }
  } else {
    RemoveSuccessor(leaving.host);
  }
  // Make sure stale finger entries do not route through the departed node.
  for (auto& f : fingers_) {
    if (f.has_value() && f->host == leaving.host) f.reset();
  }
  InvalidateFingerCache();
}

void ChordNode::FixFingers() {
  if (state_ != State::kActive || successors_.empty()) return;
  for (int i = 0; i < kFingersPerTick; ++i) {
    int index = next_finger_;
    next_finger_ = (next_finger_ - 1 + Id160::kBits) % Id160::kBits;
    Id160 target = self_.id.AddPowerOfTwo(index);
    // find_successor answers locally when the successor owns the target;
    // only slots past it need a network lookup.
    if (target.InIntervalOpenClosed(self_.id, successors_[0].id)) {
      SetFinger(index, successors_[0]);
      continue;
    }
    // On a settled ring the finger a slot holds still owns its target, so
    // it is asked first: one request and its reply, where a routed lookup
    // takes several hops to reach that same node.
    const std::optional<NodeInfo>& held = fingers_[index];
    ResolveFinger(index, held.has_value() && !IsSuspect(held->host)
                             ? held->host
                             : sim::kInvalidHost);
  }
}

void ChordNode::ResolveFinger(int index, sim::HostId finger) {
  uint64_t req_id = rpc_.Begin(
      [this, index, finger](Status s, Reader* r) {
        if (state_ != State::kActive) return;
        if (s.ok()) {
          NodeInfo owner;
          uint32_t hops = 0;
          if (NodeInfo::Deserialize(r, &owner).ok() &&
              r->GetVarint32(&hops).ok()) {
            SetFinger(index, owner);
          }
          return;
        }
        // A routed lookup that fails is retried next cycle.
        if (finger == sim::kInvalidHost) return;
        // The finger did not answer: stop routing through this slot, then
        // look the slot up the routed way. Not a suspicion, so under loss
        // one lost request does not evict a live finger for kSuspectTtl.
        if (fingers_[index].has_value() && fingers_[index]->host == finger) {
          fingers_[index].reset();
          InvalidateFingerCache();
        }
        ResolveFinger(index, sim::kInvalidHost);
      },
      kRpcTimeout);
  Id160 target = self_.id.AddPowerOfTwo(index);
  if (finger == sim::kInvalidHost) {
    ForwardFindSucc(target, req_id, self_.host, 0);
  } else {
    SendFindSuccReq(finger, target, req_id, self_.host, 0);
  }
}

void ChordNode::SetFinger(int index, const NodeInfo& owner) {
  std::optional<NodeInfo> value;
  if (owner.host != self_.host) value = owner;
  if (fingers_[index] == value) return;
  fingers_[index] = value;
  InvalidateFingerCache();
}

void ChordNode::CheckPredecessor() {
  if (state_ != State::kActive || !pred_.has_value()) return;
  // A stabilize request from the predecessor within the interval shows it
  // alive; only silence costs a ping.
  if (pred_heard_host_ == pred_->host &&
      transport_->simulation()->now() - pred_heard_at_ <
          kCheckPredecessorInterval) {
    return;
  }
  NodeInfo pred = *pred_;
  const TimePoint sent_at = transport_->simulation()->now();
  uint64_t req_id = rpc_.Begin(
      [this, pred, sent_at](Status s, Reader* /*r*/) {
        if (state_ != State::kActive || s.ok()) return;
        // Only silence since the ping went out: a stabilize request from
        // the predecessor in the meantime shows it alive.
        if (pred_heard_host_ == pred.host && pred_heard_at_ > sent_at) return;
        Suspect(pred);
        if (pred_.has_value() && pred_->host == pred.host) {
          pred_.reset();
          NotifyNeighborsChanged();
        }
      },
      kRpcTimeout);
  Writer w;
  w.PutU8(static_cast<uint8_t>(MsgType::kPingReq));
  w.PutVarint64(req_id);
  SendMsg(pred.host, w);
}

// ---------------------------------------------------------------------------
// Failure suspicion
// ---------------------------------------------------------------------------

void ChordNode::Suspect(const NodeInfo& node) {
  const sim::HostId host = node.host;
  TimePoint now = transport_->simulation()->now();
  // A new suspicion episode = the host was not currently suspect (absent,
  // or present but expired — expired entries linger until pruned).
  auto sit = suspects_.find(host);
  if (sit == suspects_.end() || now >= sit->second.until) {
    ++stats_.suspects_marked;
  }
  suspects_[host] = Suspicion{node.id, now + kSuspectTtl};
  // Remember the identity we are about to forget, while we still have it:
  // if this "failure" is really a partition, the rejoin probe needs the
  // NodeInfo to find the other half again after the heal.
  for (const NodeInfo& s : successors_) {
    if (s.host == host) {
      RememberEvicted(s);
      break;
    }
  }
  if (pred_.has_value() && pred_->host == host) RememberEvicted(*pred_);
  for (auto& f : fingers_) {
    if (f.has_value() && f->host == host) RememberEvicted(*f);
  }
  RemoveSuccessor(host);
  for (auto& f : fingers_) {
    if (f.has_value() && f->host == host) f.reset();
  }
  InvalidateFingerCache();
}

bool ChordNode::IsSuspect(sim::HostId host) const {
  if (suspects_.empty()) return false;  // the common case on a stable ring
  auto it = suspects_.find(host);
  if (it == suspects_.end()) return false;
  return transport_->simulation()->now() < it->second.until;
}

bool ChordNode::SuspectBetween(const Id160& from, const Id160& to) const {
  TimePoint now = transport_->simulation()->now();
  for (const auto& [host, suspicion] : suspects_) {
    if (now < suspicion.until && suspicion.id.InIntervalOpenOpen(from, to)) {
      return true;
    }
  }
  return false;
}

void ChordNode::RemoveSuccessor(sim::HostId host) {
  auto it = std::remove_if(
      successors_.begin(), successors_.end(),
      [host](const NodeInfo& n) { return n.host == host; });
  if (it != successors_.end()) {
    successors_.erase(it, successors_.end());
    NotifyNeighborsChanged();
  }
}

void ChordNode::NotifyNeighborsChanged() {
  own_digest_ = 0;
  ++stats_.neighbor_changes;
  last_neighbor_change_ = transport_->simulation()->now();
}

bool ChordNode::RingStable(Duration window) const {
  return transport_->simulation()->now() - last_neighbor_change_ >= window;
}

size_t ChordNode::suspect_count() const {
  TimePoint now = transport_->simulation()->now();
  size_t n = 0;
  for (const auto& [host, suspicion] : suspects_) {
    n += now < suspicion.until ? 1 : 0;
  }
  return n;
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

void ChordNode::OnMessage(sim::HostId from, Reader* r,
                          const sim::Payload& body) {
  uint8_t type = 0;
  if (!r->GetU8(&type).ok()) return;
  switch (static_cast<MsgType>(type)) {
    case MsgType::kRoute:
      HandleRoute(r, body);
      break;
    case MsgType::kFindSuccReq:
      HandleFindSuccReq(r);
      break;
    case MsgType::kFindSuccResp: {
      uint64_t req_id = 0;
      if (!r->GetVarint64(&req_id).ok()) return;
      rpc_.Complete(req_id, r);
      break;
    }
    case MsgType::kGetNeighborsReq:
      HandleGetNeighborsReq(from, r);
      break;
    case MsgType::kGetNeighborsResp: {
      uint64_t req_id = 0;
      if (!r->GetVarint64(&req_id).ok()) return;
      rpc_.Complete(req_id, r);
      break;
    }
    case MsgType::kPingReq: {
      uint64_t req_id = 0;
      if (!r->GetVarint64(&req_id).ok()) return;
      if (state_ != State::kActive) return;
      Writer w;
      w.PutU8(static_cast<uint8_t>(MsgType::kPingResp));
      w.PutVarint64(req_id);
      SendMsg(from, w);
      break;
    }
    case MsgType::kPingResp: {
      uint64_t req_id = 0;
      if (!r->GetVarint64(&req_id).ok()) return;
      rpc_.Complete(req_id, r);
      break;
    }
    case MsgType::kLeaveNotice:
      HandleLeaveNotice(r);
      break;
    default:
      break;  // unknown message: drop
  }
}

}  // namespace overlay
}  // namespace pier
