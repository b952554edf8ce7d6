#include "dht/broadcast.h"

#include <algorithm>
#include <vector>

#include "common/backoff.h"
#include "common/hash.h"

namespace pier {
namespace dht {

namespace {
/// First retransmit after this long; exponential backoff (x2) up to
/// kAckMax, jittered +/-25% per attempt (deterministic hash jitter).
constexpr Duration kAckTimeout = Millis(400);
constexpr Duration kAckMax = Seconds(2);
/// Send attempts per edge (and per cover report) before giving up.
constexpr int kRetries = 6;
}  // namespace

BroadcastService::BroadcastService(overlay::Transport* transport,
                                   overlay::Router* router,
                                   BroadcastOptions options)
    : transport_(transport), router_(router), options_(options) {
  transport_->RegisterHandler(
      overlay::Proto::kBroadcast,
      [this](sim::HostId from, Reader* r, const sim::Payload& body) {
        OnMessage(from, r, body);
      });
}

BroadcastService::~BroadcastService() {
  running_ = false;
  for (sim::TimerId id : timers_) transport_->simulation()->Cancel(id);
}

sim::TimerId BroadcastService::ScheduleTimer(Duration delay,
                                             std::function<void()> fn) {
  sim::Simulation* sim = transport_->simulation();
  sim::TimerId id = sim->ScheduleAfter(delay, [this, sim, fn = std::move(fn)] {
    timers_.erase(sim->firing());
    if (!running_) return;
    fn();
  });
  timers_.insert(id);
  return id;
}

uint64_t BroadcastService::Broadcast(sim::Payload payload) {
  if (!running_) return 0;
  uint64_t seq = next_seq_++;
  ++stats_.initiated;
  sim::HostId self = transport_->self();
  ExpireSeen();
  // Marked seen before delivery, so loops back to us are suppressed.
  RelayState& state = MarkSeen(self, seq);
  state.parent = self;
  state.is_origin = true;
  state.payload = payload;
  Deliver(self, seq, /*parent=*/self, 0, payload);
  // Whole ring: limit == own id (the interval (self, self) wraps all the
  // way around).
  Relay(state, self, seq, router_->self().id, 0, payload);
  ArmCoverDeadline(self, seq);
  MaybeFinishCover(self, seq, &state);  // leaf origin: fire immediately
  return seq;
}

void BroadcastService::Unvouch(sim::HostId origin, uint64_t seq) {
  RelayState* state = FindRelay(origin, seq);
  if (state != nullptr && !state->cover_sent) state->vouched = false;
}

void BroadcastService::Relay(RelayState& state, sim::HostId origin,
                             uint64_t seq, const Id160& limit, int depth,
                             const sim::Payload& payload) {
  if (depth >= kMaxDepth) return;
  const Id160 self_id = router_->self().id;
  std::vector<overlay::NodeInfo> neighbors = router_->RoutingNeighbors();
  // Keep only neighbors strictly inside (self, limit), sorted clockwise
  // (each keyed by its distance from us, computed once).
  using Ranked = std::pair<Id160, overlay::NodeInfo>;
  std::vector<Ranked> in_range;
  for (const auto& n : neighbors) {
    if (limit == self_id || n.id.InIntervalOpenOpen(self_id, limit)) {
      in_range.emplace_back(self_id.DistanceTo(n.id), n);
    }
  }
  std::sort(in_range.begin(), in_range.end(),
            [](const Ranked& a, const Ranked& b) { return a.first < b.first; });
  in_range.erase(std::unique(in_range.begin(), in_range.end(),
                             [](const Ranked& a, const Ranked& b) {
                               return a.second.host == b.second.host;
                             }),
                 in_range.end());
  // Nothing goes to (self, first child), or to (self, limit) without a
  // child: a node we suspect there is one this wave skips.
  const Id160& gap_end = in_range.empty() ? limit : in_range[0].second.id;
  if (router_->SuspectBetween(self_id, gap_end)) state.vouched = false;
  for (size_t i = 0; i < in_range.size(); ++i) {
    // Neighbor i covers up to the next neighbor (or our limit for the last).
    const Id160& sub_limit =
        (i + 1 < in_range.size()) ? in_range[i + 1].second.id : limit;
    state.children.emplace_back();
    ChildEdge& edge = state.children.back();
    edge.host = in_range[i].second.host;
    edge.sub_limit = sub_limit;
    edge.depth = depth + 1;
    SendDataEdge(origin, seq, &edge, payload);
    ScheduleEdgeRetry(origin, seq, edge.host);
  }
}

void BroadcastService::SendDataEdge(sim::HostId origin, uint64_t seq,
                                    ChildEdge* edge,
                                    const sim::Payload& payload) {
  // Only this small tree header is rebuilt per edge; the payload buffer is
  // shared down the entire dissemination tree.
  Writer w;
  w.PutU8(kData);
  w.PutFixed32(origin);
  w.PutVarint64(seq);
  edge->sub_limit.Serialize(&w);
  w.PutVarint32(static_cast<uint32_t>(edge->depth));
  transport_->SendWithBody(edge->host, overlay::Proto::kBroadcast, w, payload);
  if (edge->attempts == 0) {
    ++stats_.forwarded;
  } else {
    ++stats_.retransmits;
  }
  ++edge->attempts;
}

void BroadcastService::ScheduleEdgeRetry(sim::HostId origin, uint64_t seq,
                                         sim::HostId child) {
  RelayState* state = FindRelay(origin, seq);
  if (state == nullptr) return;
  ChildEdge* edge = nullptr;
  for (auto& e : state->children) {
    if (e.host == child) edge = &e;
  }
  if (edge == nullptr) return;
  uint64_t salt = Mix64((static_cast<uint64_t>(origin) << 32) ^ seq ^
                        (static_cast<uint64_t>(child) << 17) ^
                        transport_->self());
  Duration delay =
      RetryDelay(kAckTimeout, kAckMax, 0.25, salt, edge->attempts);
  ScheduleTimer(delay, [this, origin, seq, child] {
    RelayState* s = FindRelay(origin, seq);
    if (s == nullptr || s->cover_sent) return;
    ChildEdge* e = nullptr;
    for (auto& c : s->children) {
      if (c.host == child) e = &c;
    }
    if (e == nullptr || e->acked || e->covered || e->failed) return;
    if (e->attempts >= kRetries) {
      e->failed = true;
      ++stats_.edges_failed;
      MaybeFinishCover(origin, seq, s);
      return;
    }
    SendDataEdge(origin, seq, e, s->payload);
    ScheduleEdgeRetry(origin, seq, child);
  });
}

void BroadcastService::OnMessage(sim::HostId from, Reader* r,
                                 const sim::Payload& body) {
  uint8_t kind = 0;
  if (!r->GetU8(&kind).ok()) return;
  if (!running_) return;
  switch (static_cast<Kind>(kind)) {
    case kData:
      OnData(from, r, body);
      break;
    case kAck:
      OnAck(from, r);
      break;
    case kCover:
      OnCover(from, r);
      break;
    default:
      break;
  }
}

void BroadcastService::OnData(sim::HostId from, Reader* r,
                              const sim::Payload& body) {
  uint32_t origin = 0, depth = 0;
  uint64_t seq = 0;
  Id160 limit;
  if (!r->GetFixed32(&origin).ok() || !r->GetVarint64(&seq).ok() ||
      !Id160::Deserialize(r, &limit).ok() || !r->GetVarint32(&depth).ok()) {
    return;
  }
  SendAck(from, origin, seq, kAckData);
  ExpireSeen();
  if (seen_.count({origin, seq}) != 0) {
    ++stats_.duplicates;
    // A second parent picked us up. Its subtree count must not double-count
    // ours (the first parent accounts for it), so cover it with zero
    // additional members — delivered, nothing new underneath.
    //
    // Our OWN parent retransmitting (its ack got lost) must NOT get that
    // zero-cover while our wave is open: it is the one accounting for our
    // subtree, and a zero that races ahead of the real cover would erase
    // the subtree from the origin's count while leaving the wave marked
    // complete. The ack above already stops its retries; the real cover has
    // its own retry loop. Once that cover is acked the parent's edge is
    // covered, and a zero changes nothing there.
    const RelayState* open = FindRelay(origin, seq);
    if (open == nullptr || open->parent != from) {
      Writer w;
      w.PutU8(kCover);
      w.PutFixed32(origin);
      w.PutVarint64(seq);
      w.PutVarint64(0);
      w.PutU8(kCoverComplete);
      transport_->Send(from, overlay::Proto::kBroadcast, w);
    }
    return;
  }
  stats_.max_depth_seen =
      std::max(stats_.max_depth_seen, static_cast<int>(depth));
  RelayState& state = MarkSeen(origin, seq);
  state.parent = from;
  state.payload = body;
  Deliver(origin, seq, from, static_cast<int>(depth), body);
  Relay(state, origin, seq, limit, static_cast<int>(depth), body);
  ArmCoverDeadline(origin, seq);
  MaybeFinishCover(origin, seq, &state);  // leaf: cover immediately
}

void BroadcastService::OnAck(sim::HostId from, Reader* r) {
  uint32_t origin = 0;
  uint64_t seq = 0;
  uint8_t what = 0;
  if (!r->GetFixed32(&origin).ok() || !r->GetVarint64(&seq).ok() ||
      !r->GetU8(&what).ok()) {
    return;
  }
  RelayState* state = FindRelay(origin, seq);
  if (state == nullptr) return;
  ++stats_.acks_received;
  if (what == kAckCover) {
    CloseRelay(origin, seq);
    return;
  }
  for (auto& e : state->children) {
    if (e.host == from) e.acked = true;
  }
}

void BroadcastService::OnCover(sim::HostId from, Reader* r) {
  uint32_t origin = 0;
  uint64_t seq = 0, count = 0;
  uint8_t flags = 0;
  if (!r->GetFixed32(&origin).ok() || !r->GetVarint64(&seq).ok() ||
      !r->GetVarint64(&count).ok() || !r->GetU8(&flags).ok()) {
    return;
  }
  // Always ack, even when our state is gone — the child keeps retrying
  // otherwise.
  SendAck(from, origin, seq, kAckCover);
  RelayState* state = FindRelay(origin, seq);
  if (state == nullptr) return;
  for (auto& e : state->children) {
    if (e.host == from && !e.covered) {
      e.covered = true;
      e.cover_count = count;
      e.cover_complete = (flags & kCoverComplete) != 0;
      e.cover_vouched = (flags & kCoverUnvouched) == 0;
      ++stats_.covers_received;
    }
  }
  MaybeFinishCover(origin, seq, state);
}

void BroadcastService::SendAck(sim::HostId to, sim::HostId origin,
                               uint64_t seq, AckWhat what) {
  Writer w;
  w.PutU8(kAck);
  w.PutFixed32(origin);
  w.PutVarint64(seq);
  w.PutU8(static_cast<uint8_t>(what));
  transport_->Send(to, overlay::Proto::kBroadcast, w);
}

void BroadcastService::MaybeFinishCover(sim::HostId origin, uint64_t seq,
                                        RelayState* state) {
  if (state->cover_sent) return;
  uint64_t count = 1;  // self
  bool complete = true;
  bool vouched = state->vouched;
  for (const auto& e : state->children) {
    if (!e.covered && !e.failed) return;  // still waiting
    if (e.covered) {
      count += e.cover_count;
      complete = complete && e.cover_complete;
      vouched = vouched && e.cover_vouched;
    } else {
      complete = false;
    }
  }
  state->cover_sent = true;
  state->cover_count = count;
  state->cover_complete = complete;
  state->cover_vouched = vouched;
  if (state->is_origin) {
    // Deferred a tick: a childless origin finishes its cover synchronously
    // inside Broadcast(), before the caller has its seq back.
    if (coverage_fn_) {
      ScheduleTimer(0, [this, origin, seq, count, complete, vouched] {
        if (coverage_fn_) coverage_fn_(origin, seq, count, complete, vouched);
      });
    }
    CloseRelay(origin, seq);
    return;
  }
  SendCoverOnce(origin, seq, state);
  ScheduleCoverRetry(origin, seq);
  if (coverage_fn_) coverage_fn_(origin, seq, count, complete, vouched);
}

void BroadcastService::SendCoverOnce(sim::HostId origin, uint64_t seq,
                                     RelayState* state) {
  Writer w;
  w.PutU8(kCover);
  w.PutFixed32(origin);
  w.PutVarint64(seq);
  w.PutVarint64(state->cover_count);
  w.PutU8((state->cover_complete ? kCoverComplete : 0) |
          (state->cover_vouched ? 0 : kCoverUnvouched));
  transport_->Send(state->parent, overlay::Proto::kBroadcast, w);
  if (state->cover_attempts > 0) ++stats_.retransmits;
  ++state->cover_attempts;
}

void BroadcastService::ScheduleCoverRetry(sim::HostId origin, uint64_t seq) {
  RelayState* state = FindRelay(origin, seq);
  if (state == nullptr) return;
  uint64_t salt = Mix64((static_cast<uint64_t>(origin) << 32) ^ seq ^
                        (~0u - transport_->self()));
  Duration delay =
      RetryDelay(kAckTimeout, kAckMax, 0.25, salt, state->cover_attempts);
  ScheduleTimer(delay, [this, origin, seq] {
    RelayState* s = FindRelay(origin, seq);
    if (s == nullptr) return;  // acked
    if (s->cover_attempts >= kRetries) return;  // give up quietly
    SendCoverOnce(origin, seq, s);
    ScheduleCoverRetry(origin, seq);
  });
}

void BroadcastService::ArmCoverDeadline(sim::HostId origin, uint64_t seq) {
  ScheduleTimer(options_.cover_timeout, [this, origin, seq] {
    RelayState* s = FindRelay(origin, seq);
    if (s == nullptr || s->cover_sent) return;
    // Children that never covered are abandoned; the wave goes up marked
    // incomplete rather than stalling the origin forever.
    for (auto& e : s->children) {
      if (!e.covered && !e.failed) {
        e.failed = true;
        ++stats_.edges_failed;
      }
    }
    MaybeFinishCover(origin, seq, s);
  });
}

BroadcastService::RelayState* BroadcastService::FindRelay(sim::HostId origin,
                                                          uint64_t seq) {
  auto it = relays_.find({origin, seq});
  return it == relays_.end() ? nullptr : &it->second;
}

void BroadcastService::Deliver(sim::HostId origin, uint64_t seq,
                               sim::HostId parent, int depth,
                               const sim::Payload& payload) {
  ++stats_.delivered;
  if (handler_) handler_(origin, seq, parent, depth, payload);
}

void BroadcastService::ExpireSeen() {
  TimePoint now = transport_->simulation()->now();
  while (!expiry_.empty() && expiry_.front().first <= now) {
    seen_.erase(expiry_.front().second);
    relays_.erase(expiry_.front().second);
    expiry_.pop_front();
  }
}

BroadcastService::RelayState& BroadcastService::MarkSeen(sim::HostId origin,
                                                        uint64_t seq) {
  RelayKey key{origin, seq};
  seen_.insert(key);
  expiry_.emplace_back(transport_->simulation()->now() + kSeenTtl, key);
  return relays_[key];
}

}  // namespace dht
}  // namespace pier
