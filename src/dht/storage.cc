#include "dht/storage.h"

#include <algorithm>

#include "common/logging.h"

namespace pier {
namespace dht {

namespace {
/// Lifetime applied when the caller does not specify one.
constexpr Duration kDefaultTtl = Seconds(120);
/// Extra copies pushed to ring successors (0 = owner only).
constexpr int kReplicas = 1;
/// Acked-put retry policy.
constexpr Duration kPutTimeout = Seconds(2);
constexpr int kPutRetries = 2;
/// Get retry policy.
constexpr Duration kGetTimeout = Seconds(2);
constexpr int kGetRetries = 2;
/// An owner whose range moved (or that started) this recently may not hold
/// all of it yet, or only as replicas: its get answers go out unvouched.
constexpr Duration kRangeSettle = Seconds(30);
/// kGetResp flags bit: the owner does not vouch for its answer.
constexpr uint64_t kGetRespUnvouched = 1;
}  // namespace

Dht::Dht(overlay::Transport* transport, overlay::Router* router,
         overlay::RouteMux* mux)
    : transport_(transport),
      router_(router),
      sim_(transport->simulation()),
      rpc_(transport->simulation()) {
  mux->Register(kPutTag, [this](const overlay::RoutedMessage& m) {
    OnRoutedPut(m);
  });
  mux->Register(kGetTag, [this](const overlay::RoutedMessage& m) {
    OnRoutedGet(m);
  });
  transport_->RegisterHandler(
      overlay::Proto::kDht,
      [this](sim::HostId from, Reader* r, const sim::Payload& /*body*/) {
        OnDirect(from, r);
      });
}

void Dht::Start() {
  running_ = true;
  range_start_ = router_->OwnedRangeStart();
  range_changed_at_ = sim_->now();
  sweep_task_.Start(sim_, kSweepInterval, kSweepInterval, [this] {
    stats_.items_swept += store_.Sweep(sim_->now());
    NoteRange();
  });
}

void Dht::NoteRange() {
  const Id160 start = router_->OwnedRangeStart();
  if (start == range_start_) return;
  range_start_ = start;
  range_changed_at_ = sim_->now();
}

void Dht::Stop() {
  running_ = false;
  sweep_task_.Stop();
  rpc_.CancelAll();
}

// ---------------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------------

void Dht::Put(const DhtKey& key, std::string value, Duration ttl,
              PutCallback done) {
  PutEx(key, std::move(value), ttl, /*replicate=*/true, std::move(done));
}

void Dht::PutEx(const DhtKey& key, std::string value, Duration ttl,
                bool replicate, PutCallback done) {
  if (ttl <= 0) ttl = kDefaultTtl;
  SendPutOnce(key, value, ttl, replicate, std::move(done), 0);
}

void Dht::SubscribeArrivals(const std::string& ns, ArrivalFn fn) {
  arrival_subscribers_[ns] = std::move(fn);
}

void Dht::UnsubscribeArrivals(const std::string& ns) {
  arrival_subscribers_.erase(ns);
}

void Dht::SendPutOnce(const DhtKey& key, const std::string& value,
                      Duration ttl, bool replicate, PutCallback done,
                      int attempt) {
  if (!running_) {
    if (done) done(Status::Unavailable("dht stopped"));
    return;
  }
  ++stats_.puts_sent;
  uint64_t req_id = 0;
  if (done) {
    req_id = rpc_.Begin(
        [this, key, value, ttl, replicate, done, attempt](Status s, Reader*) {
          if (s.ok()) {
            ++stats_.puts_acked;
            done(Status::OK());
            return;
          }
          if (attempt < kPutRetries) {
            ++stats_.put_retries;
            SendPutOnce(key, value, ttl, replicate, done, attempt + 1);
          } else {
            ++stats_.put_failures;
            done(Status::Timeout("put: no ack after retries"));
          }
        },
        kPutTimeout);
  }
  Writer w;
  key.Serialize(&w);
  w.PutString(value);
  w.PutVarint64(static_cast<uint64_t>(ttl));
  w.PutVarint64(req_id);  // 0 = no ack requested
  w.PutFixed32(transport_->self());
  w.PutBool(replicate);
  router_->Route(key.RoutingKey(), kPutTag, sim::Payload(w.Release()));
}

void Dht::Get(const std::string& ns, const std::string& resource,
              GetCallback cb) {
  SendGetOnce(ns, resource,
              [cb = std::move(cb)](Status s, std::vector<DhtItem> items,
                                   bool /*vouched*/) {
                cb(std::move(s), std::move(items));
              },
              0);
}

void Dht::GetVouched(const std::string& ns, const std::string& resource,
                     VouchedGetCallback cb) {
  SendGetOnce(ns, resource, std::move(cb), 0);
}

bool Dht::HoldsForeignPrimaries(std::string_view ns) const {
  bool found = false;
  store_.ForEach(ns, sim_->now(), [&](const StoredItem& item) {
    found = !item.replica && !router_->IsResponsibleFor(item.key.RoutingKey());
    return !found;
  });
  return found;
}

void Dht::SendGetOnce(const std::string& ns, const std::string& resource,
                      VouchedGetCallback cb, int attempt) {
  if (!running_) {
    cb(Status::Unavailable("dht stopped"), {}, false);
    return;
  }
  ++stats_.gets_sent;
  uint64_t req_id = rpc_.Begin(
      [this, ns, resource, cb, attempt](Status s, Reader* r) {
        if (!s.ok()) {
          if (attempt < kGetRetries) {
            ++stats_.get_retries;
            SendGetOnce(ns, resource, cb, attempt + 1);
          } else {
            ++stats_.get_failures;
            cb(s, {}, false);
          }
          return;
        }
        // A malformed response fails the get like a timeout that ran out
        // of retries: it counts in get_failures.
        uint32_t count = 0;
        if (!r->GetVarint32(&count).ok()) {
          ++stats_.get_failures;
          cb(Status::Corruption("bad get response"), {}, false);
          return;
        }
        // `count` is the sender's word: nothing is reserved from it, so a
        // forged count fails on the missing items instead of allocating.
        std::vector<DhtItem> items;
        for (uint32_t i = 0; i < count; ++i) {
          DhtItem item;
          if (!DhtKey::Deserialize(r, &item.key).ok() ||
              !r->GetString(&item.value).ok()) {
            ++stats_.get_failures;
            cb(Status::Corruption("bad get item"), {}, false);
            return;
          }
          items.push_back(std::move(item));
        }
        uint64_t flags = 0;
        if (!r->GetVarint64(&flags).ok()) {
          ++stats_.get_failures;
          cb(Status::Corruption("bad get flags"), {}, false);
          return;
        }
        ++stats_.gets_ok;
        cb(Status::OK(), std::move(items), (flags & kGetRespUnvouched) == 0);
      },
      kGetTimeout);

  DhtKey probe{ns, resource, 0};
  Writer w;
  w.PutString(ns);
  w.PutString(resource);
  w.PutVarint64(req_id);
  w.PutFixed32(transport_->self());
  router_->Route(probe.RoutingKey(), kGetTag, sim::Payload(w.Release()));
}

// ---------------------------------------------------------------------------
// Owner side
// ---------------------------------------------------------------------------

void Dht::OnRoutedPut(const overlay::RoutedMessage& m) {
  if (!running_) return;
  Reader r(m.payload.view());
  StoredItem item;
  uint64_t ttl = 0, req_id = 0;
  uint32_t origin = 0;
  bool replicate = true;
  if (!DhtKey::Deserialize(&r, &item.key).ok() ||
      !r.GetString(&item.value).ok() || !r.GetVarint64(&ttl).ok() ||
      !r.GetVarint64(&req_id).ok() || !r.GetFixed32(&origin).ok() ||
      !r.GetBool(&replicate).ok()) {
    return;
  }
  ++stats_.store_requests;
  item.expires_at = sim_->now() + static_cast<Duration>(ttl);
  item.stored_at = sim_->now();
  item.publisher = origin;
  item.replica = false;
  // The subscriber rules first: an item it consumes (forwards down a PHT
  // trie, say) must not be stored OR replicated here — replicas of data
  // that lives elsewhere would resurface as ghosts after a failover.
  bool keep = true;
  auto sub = arrival_subscribers_.find(item.key.ns);
  if (sub != arrival_subscribers_.end()) keep = sub->second(item);
  if (keep) {
    if (replicate) ReplicateOut(item);
    store_.Put(std::move(item));
  }
  if (req_id != 0) {
    Writer w;
    w.PutU8(static_cast<uint8_t>(MsgType::kPutAck));
    w.PutVarint64(req_id);
    transport_->Send(origin, overlay::Proto::kDht, w);
  }
}

void Dht::OnRoutedGet(const overlay::RoutedMessage& m) {
  if (!running_) return;
  Reader r(m.payload.view());
  std::string ns, resource;
  uint64_t req_id = 0;
  uint32_t origin = 0;
  if (!r.GetString(&ns).ok() || !r.GetString(&resource).ok() ||
      !r.GetVarint64(&req_id).ok() || !r.GetFixed32(&origin).ok()) {
    return;
  }
  ++stats_.serve_requests;
  // Replica copies answer too: if this node now owns the key after a
  // failover, its replicas are the surviving data. Two visitor passes
  // (count, then serialize straight from the store) — no item copies.
  TimePoint now = sim_->now();
  uint32_t count = 0;
  size_t bytes = 0;
  bool served_replica = false;
  store_.ForEachAt(ns, resource, now, [&](const StoredItem& item) {
    ++count;
    bytes += item.key.resource.size() + item.value.size() + 24;
    served_replica |= item.replica;
    return true;
  });
  NoteRange();
  const TimePoint settled_at =
      std::max(range_changed_at_, router_->last_topology_change()) +
      kRangeSettle;
  const bool vouched = !served_replica && now >= settled_at;
  Writer w;
  w.Reserve(bytes + 16);
  w.PutU8(static_cast<uint8_t>(MsgType::kGetResp));
  w.PutVarint64(req_id);
  w.PutVarint32(count);
  store_.ForEachAt(ns, resource, now, [&w](const StoredItem& item) {
    item.key.Serialize(&w);
    w.PutString(item.value);
    return true;
  });
  // Last, so a response cut short anywhere fails to parse.
  w.PutVarint64(vouched ? 0 : kGetRespUnvouched);
  transport_->Send(origin, overlay::Proto::kDht, w);
}

void Dht::ReplicateOut(const StoredItem& item) {
  std::vector<overlay::NodeInfo> neighbors = router_->RoutingNeighbors();
  int pushed = 0;
  for (const overlay::NodeInfo& n : neighbors) {
    if (pushed >= kReplicas) break;
    Writer w;
    w.PutU8(static_cast<uint8_t>(MsgType::kReplicate));
    item.key.Serialize(&w);
    w.PutString(item.value);
    w.PutVarint64(static_cast<uint64_t>(item.expires_at - sim_->now()));
    w.PutFixed32(item.publisher);
    transport_->Send(n.host, overlay::Proto::kDht, w);
    ++pushed;
    ++stats_.replicas_pushed;
  }
}

void Dht::OnDirect(sim::HostId /*from*/, Reader* r) {
  uint8_t type = 0;
  if (!r->GetU8(&type).ok()) return;
  switch (static_cast<MsgType>(type)) {
    case MsgType::kPutAck: {
      uint64_t req_id = 0;
      if (!r->GetVarint64(&req_id).ok()) return;
      rpc_.Complete(req_id, r);
      break;
    }
    case MsgType::kGetResp: {
      uint64_t req_id = 0;
      if (!r->GetVarint64(&req_id).ok()) return;
      rpc_.Complete(req_id, r);
      break;
    }
    case MsgType::kReplicate: {
      if (!running_) return;
      StoredItem item;
      uint64_t ttl = 0;
      uint32_t publisher = 0;
      if (!DhtKey::Deserialize(r, &item.key).ok() ||
          !r->GetString(&item.value).ok() || !r->GetVarint64(&ttl).ok() ||
          !r->GetFixed32(&publisher).ok()) {
        return;
      }
      item.expires_at = sim_->now() + static_cast<Duration>(ttl);
      item.stored_at = sim_->now();
      item.publisher = publisher;
      item.replica = true;
      store_.Put(std::move(item));
      ++stats_.replicas_received;
      break;
    }
    default:
      break;
  }
}

}  // namespace dht
}  // namespace pier
