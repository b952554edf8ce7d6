// Dht: the node-level storage API PIER runs on — asynchronous Put/Get
// against the ring plus local scans, with soft-state TTLs, bounded retries,
// and successor replication. A publisher renews an item by putting it
// again: the re-put is idempotent and extends the expiry.
//
// Writes and reads are routed to the key's owner via the overlay Router;
// acks and responses return directly to the requester (one hop). Everything
// is idempotent so retries after loss or churn are safe. The default TTL,
// the replica count and the retry policy are constants in storage.cc.

#ifndef PIER_DHT_STORAGE_H_
#define PIER_DHT_STORAGE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dht/key.h"
#include "dht/local_store.h"
#include "overlay/router.h"
#include "overlay/rpc.h"
#include "overlay/transport.h"
#include "sim/event_queue.h"

namespace pier {
namespace dht {

/// Route-mux app tags owned by the DHT layer.
inline constexpr uint8_t kPutTag = 1;
inline constexpr uint8_t kGetTag = 2;

/// One item in a Get response.
struct DhtItem {
  DhtKey key;
  std::string value;
};

/// Expired-item reclamation period.
inline constexpr Duration kSweepInterval = Seconds(5);

struct DhtStats {
  uint64_t puts_sent = 0;
  uint64_t puts_acked = 0;
  uint64_t put_retries = 0;
  uint64_t put_failures = 0;
  uint64_t gets_sent = 0;
  uint64_t gets_ok = 0;
  uint64_t get_retries = 0;
  uint64_t get_failures = 0;
  uint64_t store_requests = 0;   ///< puts arriving at this node as owner
  uint64_t serve_requests = 0;   ///< gets served by this node as owner
  uint64_t replicas_pushed = 0;
  uint64_t replicas_received = 0;
  uint64_t items_swept = 0;
};

/// Per-node DHT component.
class Dht {
 public:
  using PutCallback = std::function<void(Status)>;
  using GetCallback = std::function<void(Status, std::vector<DhtItem>)>;

  /// `transport`, `router`, and `mux` must outlive this object. Registers
  /// handlers for Proto::kDht and the kPutTag/kGetTag route tags.
  Dht(overlay::Transport* transport, overlay::Router* router,
      overlay::RouteMux* mux);

  /// Starts the sweep timer.
  void Start();
  /// Stops timers and outstanding requests (node shutdown/crash).
  void Stop();

  /// Stores `value` under `key` for `ttl` (a default TTL when ttl==0).
  /// `done` may be null for fire-and-forget; when set, the put is acked by
  /// the owner and retried on timeout.
  void Put(const DhtKey& key, std::string value, Duration ttl,
           PutCallback done);

  /// Put with per-item replication control. Query-temporary tuples
  /// (rehashed join state) skip replication: they are cheap to recreate and
  /// expire within the query anyway.
  void PutEx(const DhtKey& key, std::string value, Duration ttl,
             bool replicate, PutCallback done);

  /// Registers `fn` to observe every item arriving at THIS node as owner
  /// under `ns` (owner-routed puts only, not replica pushes). This is how
  /// dataflow operators at a rendezvous node consume rehashed tuples as
  /// they arrive, and how the PHT index runs its owner-side split/forward
  /// protocol. The subscriber returns true to store the item normally;
  /// returning false CONSUMES it — the item is neither stored nor
  /// replicated here (it was relayed elsewhere or dropped), though the
  /// publisher's ack still fires: consumption is an ownership decision,
  /// not a failure. One subscriber per namespace; re-subscribing replaces.
  using ArrivalFn = std::function<bool(const StoredItem&)>;
  void SubscribeArrivals(const std::string& ns, ArrivalFn fn);
  void UnsubscribeArrivals(const std::string& ns);

  /// Fetches all live instances under (ns, resource) from the owner.
  void Get(const std::string& ns, const std::string& resource,
           GetCallback cb);

  /// Get that also says whether the owner vouched for its answer: it
  /// served no replica copy, and its owned range has not changed (nor has
  /// it started) within a settle window. An unvouched answer may be short:
  /// the DHT hands nothing over on join (the old owner keeps the
  /// primaries), and a range taken over from a failed node survives only
  /// as replicas, which are pushed without an ack.
  using VouchedGetCallback =
      std::function<void(Status, std::vector<DhtItem>, bool vouched)>;
  void GetVouched(const std::string& ns, const std::string& resource,
                  VouchedGetCallback cb);

  /// True when this node holds a live primary copy under `ns` whose key it
  /// no longer owns: its range shrank after the item was stored, so a get
  /// for that key reaches a node that lacks it.
  bool HoldsForeignPrimaries(std::string_view ns) const;

  /// PIER's "lscan": visits this node's local slice of a namespace in
  /// place (no value copies); `fn(const StoredItem&)` returns false to
  /// stop early.
  template <typename Fn>
  void ForEachLocal(std::string_view ns, Fn&& fn) const {
    store_.ForEach(ns, sim_->now(), std::forward<Fn>(fn));
  }

  /// Visits this node's *readable* slice: primary copies always, replica
  /// copies only when this node has become responsible for their key — the
  /// scan-side replica failover matching OnRoutedGet's "after a failover,
  /// the replicas are the surviving data". A replica whose owner is alive
  /// is skipped (the owner reports it), so nothing double-counts on a
  /// converged ring.
  template <typename Fn>
  void ForEachLocalReadable(std::string_view ns, Fn&& fn) const {
    store_.ForEach(ns, sim_->now(), [&](const StoredItem& item) {
      if (item.replica &&
          !router_->IsResponsibleFor(item.key.RoutingKey())) {
        return true;
      }
      return fn(item);
    });
  }

  /// Copying variant of the local scan (tests, diagnostics).
  std::vector<StoredItem> LocalScan(std::string_view ns) const {
    return store_.Scan(ns, sim_->now());
  }

  /// Direct access for operators colocated with the store.
  LocalStore* local_store() { return &store_; }
  const LocalStore& local_store() const { return store_; }

  const DhtStats& stats() const { return stats_; }
  sim::HostId self() const { return transport_->self(); }

 private:
  // Direct (non-routed) message types under Proto::kDht.
  enum class MsgType : uint8_t {
    kPutAck = 1,
    /// [req id][count]([key][value])*count[flags]; flags bit 0: the owner
    /// does not vouch for its answer (see GetVouched).
    kGetResp = 2,
    kReplicate = 3,
  };

  void OnRoutedPut(const overlay::RoutedMessage& m);
  void OnRoutedGet(const overlay::RoutedMessage& m);
  void OnDirect(sim::HostId from, Reader* r);
  void SendPutOnce(const DhtKey& key, const std::string& value, Duration ttl,
                   bool replicate, PutCallback done, int attempt);
  void SendGetOnce(const std::string& ns, const std::string& resource,
                   VouchedGetCallback cb, int attempt);
  void ReplicateOut(const StoredItem& item);
  /// Samples the router's range start, stamping range_changed_at_ when it
  /// moved (the one-hop router keeps no topology clock of its own).
  void NoteRange();

  overlay::Transport* transport_;
  overlay::Router* router_;
  sim::Simulation* sim_;
  LocalStore store_;
  overlay::RpcManager rpc_;
  sim::PeriodicTask sweep_task_;
  bool running_ = false;
  DhtStats stats_;
  std::unordered_map<std::string, ArrivalFn> arrival_subscribers_;
  /// This node's owned range as last sampled, and when it last moved (or
  /// the DHT started): an owner vouches for a get only once both it and
  /// the router's topology clock are a settle window old.
  Id160 range_start_;
  TimePoint range_changed_at_ = 0;
};

}  // namespace dht
}  // namespace pier

#endif  // PIER_DHT_STORAGE_H_
