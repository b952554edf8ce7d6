// PierNode: one participant in a PIER deployment — the composition of the
// transport endpoint, an overlay router (Chord or the one-hop baseline),
// the DHT storage layer, the broadcast service, and (once a query engine is
// attached) the distributed query processor.
//
// Lifecycle: construct -> CreateRing()/JoinRing() -> ... -> Crash()/Leave().
// A crashed node can Reboot(), which rebuilds all protocol state from
// scratch (its in-memory store is lost — soft state means the data comes
// back through publisher renewals).

#ifndef PIER_CORE_NODE_H_
#define PIER_CORE_NODE_H_

#include <functional>
#include <memory>
#include <string>

#include "catalog/table_def.h"
#include "dht/broadcast.h"
#include "dht/storage.h"
#include "index/index_manager.h"
#include "overlay/chord.h"
#include "overlay/one_hop.h"
#include "overlay/transport.h"
#include "query/engine.h"
#include "sim/network.h"

namespace pier {
namespace core {

/// Which routing substrate a node runs on.
enum class RouterKind {
  kChord,   ///< multi-hop Chord overlay (the real deployment mode)
  kOneHop,  ///< idealized full-membership router (tests/ablations)
};

/// A node's settings follow the engine's option rule (query/protocol.h):
/// only what a deployment (or a test shrinking virtual time) actually sets.
/// The Chord, DHT, broadcast-retry and index timers and sizes are named
/// constants in the .cc that reads each (chord.cc, storage.cc,
/// broadcast.cc, pht.cc).
struct NodeOptions {
  RouterKind router_kind = RouterKind::kChord;
  dht::BroadcastOptions broadcast;
  query::EngineOptions engine;
};

/// One PIER node. Owns every per-node component and wires them together.
class PierNode : public sim::MessageHandler {
 public:
  /// `directory` is required iff router_kind == kOneHop and must be shared
  /// by all nodes of the experiment.
  PierNode(sim::Network* network, std::string name, NodeOptions options,
           overlay::Directory* directory = nullptr);
  ~PierNode() override;

  PierNode(const PierNode&) = delete;
  PierNode& operator=(const PierNode&) = delete;

  // sim::MessageHandler.
  void OnMessage(sim::HostId from, const sim::Packet& packet) override;

  /// Becomes the first node of the ring and starts all services.
  void CreateRing();
  /// Joins via `bootstrap`; `done` fires when the overlay join completes.
  void JoinRing(sim::HostId bootstrap, std::function<void(Status)> done);
  /// Graceful departure (notifies neighbors). The host stays addressable.
  void Leave();
  /// Abrupt failure: all services stop, the simulated host goes down, and
  /// all in-memory state is lost.
  void Crash();
  /// Restarts a crashed node: host comes back up with fresh protocol state
  /// and rejoins through `bootstrap`.
  void Reboot(sim::HostId bootstrap, std::function<void(Status)> done);

  bool alive() const { return alive_; }
  sim::HostId host() const { return host_; }
  const std::string& name() const { return name_; }
  const Id160& id() const { return id_; }

  overlay::Transport* transport() { return transport_.get(); }
  overlay::Router* router() { return router_; }
  overlay::ChordNode* chord() { return chord_.get(); }  // null in one-hop mode
  overlay::RouteMux* mux() { return mux_.get(); }
  dht::Dht* dht() { return dht_.get(); }
  dht::BroadcastService* broadcast() { return broadcast_.get(); }
  query::QueryEngine* query_engine() { return query_engine_.get(); }
  index::IndexManager* index_manager() { return index_manager_.get(); }
  catalog::Catalog* catalog() { return &catalog_; }
  sim::Simulation* simulation() { return network_->simulation(); }

 private:
  void BuildComponents();
  void StartServices();
  void StopServices();

  sim::Network* network_;
  std::string name_;
  NodeOptions options_;
  overlay::Directory* directory_;
  sim::HostId host_;
  Id160 id_;
  bool alive_ = true;
  /// Table definitions survive reboots (an application redeploys its
  /// catalog with the process image).
  catalog::Catalog catalog_;

  std::unique_ptr<overlay::Transport> transport_;
  std::unique_ptr<overlay::ChordNode> chord_;
  std::unique_ptr<overlay::OneHopRouter> one_hop_;
  overlay::Router* router_ = nullptr;
  std::unique_ptr<overlay::RouteMux> mux_;
  std::unique_ptr<dht::Dht> dht_;
  std::unique_ptr<dht::BroadcastService> broadcast_;
  std::unique_ptr<index::IndexManager> index_manager_;
  std::unique_ptr<query::QueryEngine> query_engine_;
};

}  // namespace core
}  // namespace pier

#endif  // PIER_CORE_NODE_H_
