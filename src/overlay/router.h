// Router: the key-based routing abstraction PIER builds on.
//
// The paper is explicit that "DHT" is a catch-all: PIER needs only
//   (1) route a payload to the node responsible for a key,
//   (2) know which keys this node is responsible for, and
//   (3) enumerate routing neighbors (for dissemination trees).
// ChordNode implements this with O(log n) hops; OneHopRouter is an idealized
// full-membership baseline used in tests and ablations.

#ifndef PIER_OVERLAY_ROUTER_H_
#define PIER_OVERLAY_ROUTER_H_

#include <functional>
#include <unordered_map>
#include <string>
#include <vector>

#include "common/id160.h"
#include "common/time_util.h"
#include "overlay/node_info.h"
#include "sim/payload.h"

namespace pier {
namespace overlay {

/// Application payload delivered by the router at the responsible node.
struct RoutedMessage {
  Id160 key;                  ///< key the message was routed by
  sim::HostId origin;         ///< host that initiated the route
  uint8_t app_tag = 0;        ///< application demux tag (DHT put vs get ...)
  int hops = 0;               ///< overlay hops taken
  sim::Payload payload;       ///< opaque application bytes (shared buffer)
};

/// Key-based routing interface.
class Router {
 public:
  virtual ~Router() = default;

  /// Upcall invoked at the node responsible for a routed key.
  using DeliverFn = std::function<void(const RoutedMessage&)>;
  virtual void SetDeliverCallback(DeliverFn fn) = 0;

  /// Routes `payload` toward the node currently responsible for `key`.
  /// Best-effort: messages can be lost under churn; callers that need
  /// reliability retry (soft state). The payload buffer is serialized once
  /// by the caller and shared across every overlay hop.
  virtual void Route(const Id160& key, uint8_t app_tag,
                     sim::Payload payload) = 0;

  /// True iff this node currently owns `key`.
  virtual bool IsResponsibleFor(const Id160& key) const = 0;

  /// This node's identity.
  virtual NodeInfo self() const = 0;

  /// Where the key range this node believes it owns starts: it takes keys
  /// in (OwnedRangeStart(), self().id]. self().id means the whole ring
  /// (no predecessor known). A join's rendezvous reports the range it
  /// consumed under, so that an origin can see two nodes that each took
  /// the same key.
  virtual Id160 OwnedRangeStart() const = 0;

  /// Live routing neighbors, deduplicated, for building dissemination trees:
  /// successors first, then fingers in increasing clockwise distance.
  virtual std::vector<NodeInfo> RoutingNeighbors() const = 0;

  /// Virtual time of the most recent routing-topology change this node
  /// observed locally (neighbor eviction/adoption under churn). 0 = never.
  /// A recent change means this node's view of "the whole network" may be
  /// one side of a partition — consumers making global claims (the query
  /// engine's exactness certification) must hold off until the view has
  /// been stable for a detection window. The idealized one-hop router's
  /// omniscient directory never drifts, so the default stands.
  virtual TimePoint last_topology_change() const { return 0; }

  /// True when this node currently suspects a node whose id lies in the
  /// open ring interval (from, to); (from, from) is the whole ring but
  /// `from`. A suspect is missing from RoutingNeighbors, so a broadcast
  /// relay asks this of the gap it claims holds no node. The one-hop
  /// router suspects no one.
  virtual bool SuspectBetween(const Id160& /*from*/,
                              const Id160& /*to*/) const {
    return false;
  }

  /// Resolves the responsible node for `key` asynchronously.
  /// `cb(status, owner, hops)`.
  using LookupCallback =
      std::function<void(Status, const NodeInfo&, int hops)>;
  virtual void Lookup(const Id160& key, LookupCallback cb) = 0;
};

/// Demultiplexes the router's single delivery callback by app_tag so several
/// subsystems (DHT storage, query dataflow) can share one router.
class RouteMux {
 public:
  using TagHandler = std::function<void(const RoutedMessage&)>;

  /// Installs itself as `router`'s delivery callback.
  explicit RouteMux(Router* router) {
    router->SetDeliverCallback(
        [this](const RoutedMessage& m) { Dispatch(m); });
  }

  RouteMux(const RouteMux&) = delete;
  RouteMux& operator=(const RouteMux&) = delete;

  void Register(uint8_t app_tag, TagHandler handler) {
    handlers_[app_tag] = std::move(handler);
  }

  void Dispatch(const RoutedMessage& m) {
    auto it = handlers_.find(m.app_tag);
    if (it != handlers_.end()) it->second(m);
  }

 private:
  std::unordered_map<uint8_t, TagHandler> handlers_;
};

}  // namespace overlay
}  // namespace pier

#endif  // PIER_OVERLAY_ROUTER_H_
