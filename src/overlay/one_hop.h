// OneHopRouter: an idealized full-membership router.
//
// Every node consults a shared Directory (an omniscient membership oracle)
// and delivers in one hop. It exists for two reasons: (1) unit tests of the
// storage/query layers isolate them from Chord's convergence dynamics, and
// (2) ablation benches compare multi-hop routing against the one-hop ideal.
// Messages still cross the simulated network and still serialize.

#ifndef PIER_OVERLAY_ONE_HOP_H_
#define PIER_OVERLAY_ONE_HOP_H_

#include <iterator>
#include <map>
#include <vector>

#include "overlay/node_info.h"
#include "overlay/router.h"
#include "overlay/transport.h"

namespace pier {
namespace overlay {

/// Global live-membership table shared by all OneHopRouters of an experiment.
class Directory {
 public:
  void Register(const NodeInfo& node) { ring_[node.id] = node; }
  void Unregister(const Id160& id) { ring_.erase(id); }

  /// Successor-of-key ownership, identical to Chord's rule.
  NodeInfo Owner(const Id160& key) const {
    if (ring_.empty()) return NodeInfo{};
    auto it = ring_.lower_bound(key);
    if (it == ring_.end()) it = ring_.begin();  // wrap
    return it->second;
  }

  /// The live node before `id` in ring order (`id` itself when alone).
  Id160 Predecessor(const Id160& id) const {
    if (ring_.empty()) return id;
    auto it = ring_.lower_bound(id);
    if (it == ring_.begin()) it = ring_.end();  // wrap
    return std::prev(it)->first;
  }

  /// All live nodes in ring order.
  std::vector<NodeInfo> Members() const {
    std::vector<NodeInfo> out;
    out.reserve(ring_.size());
    for (const auto& [id, n] : ring_) out.push_back(n);
    return out;
  }

  size_t size() const { return ring_.size(); }

 private:
  std::map<Id160, NodeInfo> ring_;
};

/// Router that resolves ownership through the shared Directory and sends
/// application payloads in a single overlay hop.
class OneHopRouter : public Router {
 public:
  OneHopRouter(Transport* transport, const Id160& id, Directory* directory);
  ~OneHopRouter() override;

  /// Adds this node to the directory (idempotent).
  void Activate();
  /// Removes this node from the directory (leave or crash).
  void Deactivate();
  bool active() const { return active_; }

  void SetDeliverCallback(DeliverFn fn) override { deliver_ = std::move(fn); }
  void Route(const Id160& key, uint8_t app_tag, sim::Payload payload) override;
  bool IsResponsibleFor(const Id160& key) const override;
  NodeInfo self() const override { return self_; }
  Id160 OwnedRangeStart() const override {
    return directory_->Predecessor(self_.id);
  }
  std::vector<NodeInfo> RoutingNeighbors() const override;
  void Lookup(const Id160& key, LookupCallback cb) override;

 private:
  void OnMessage(sim::HostId from, Reader* r, const sim::Payload& body);

  Transport* transport_;
  NodeInfo self_;
  Directory* directory_;
  bool active_ = false;
  DeliverFn deliver_;
};

}  // namespace overlay
}  // namespace pier

#endif  // PIER_OVERLAY_ONE_HOP_H_
