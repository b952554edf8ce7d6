#include "core/node.h"

#include "common/logging.h"
#include "query/engine.h"

namespace pier {
namespace core {

PierNode::PierNode(sim::Network* network, std::string name,
                   NodeOptions options, overlay::Directory* directory)
    : network_(network),
      name_(std::move(name)),
      options_(options),
      directory_(directory),
      host_(network->AddHost(this)),
      id_(Id160::FromName(name_)) {
  PIER_CHECK(options_.router_kind != RouterKind::kOneHop ||
             directory_ != nullptr);
  BuildComponents();
}

PierNode::~PierNode() = default;

void PierNode::OnMessage(sim::HostId from, const sim::Packet& packet) {
  if (!alive_) return;
  transport_->Dispatch(from, packet);
}

void PierNode::BuildComponents() {
  transport_ = std::make_unique<overlay::Transport>(network_, host_);
  if (options_.router_kind == RouterKind::kChord) {
    chord_ = std::make_unique<overlay::ChordNode>(transport_.get(), id_);
    router_ = chord_.get();
  } else {
    one_hop_ = std::make_unique<overlay::OneHopRouter>(transport_.get(), id_,
                                                       directory_);
    router_ = one_hop_.get();
  }
  mux_ = std::make_unique<overlay::RouteMux>(router_);
  dht_ = std::make_unique<dht::Dht>(transport_.get(), router_, mux_.get());
  broadcast_ = std::make_unique<dht::BroadcastService>(
      transport_.get(), router_, options_.broadcast);
  index_manager_ = std::make_unique<index::IndexManager>(
      dht_.get(), network_->simulation());
  // Index maintenance tracks the catalog: definitions registered at any
  // time wire up their PHT handles, and a reboot (which rebuilds the
  // manager but keeps the catalog) replays the existing registrations.
  catalog_.SetRegisterHook([this](const catalog::TableDef& def) {
    index_manager_->RegisterTable(def);
  });
  for (const std::string& name : catalog_.TableNames()) {
    index_manager_->RegisterTable(*catalog_.Find(name));
  }
  query_engine_ = std::make_unique<query::QueryEngine>(
      transport_.get(), router_, dht_.get(), broadcast_.get(), &catalog_,
      options_.engine);
  query_engine_->SetIndexManager(index_manager_.get());
}

void PierNode::StartServices() {
  dht_->Start();
  broadcast_->Start();
}

void PierNode::StopServices() {
  if (query_engine_) query_engine_->Stop();
  if (dht_) dht_->Stop();
  if (broadcast_) broadcast_->Stop();
}

void PierNode::CreateRing() {
  if (chord_) {
    chord_->Create();
  } else {
    one_hop_->Activate();
  }
  StartServices();
}

void PierNode::JoinRing(sim::HostId bootstrap,
                        std::function<void(Status)> done) {
  if (chord_) {
    chord_->Join(bootstrap, [this, done](Status s) {
      if (s.ok()) StartServices();
      if (done) done(s);
    });
  } else {
    one_hop_->Activate();
    StartServices();
    if (done) {
      simulation()->ScheduleAfter(0, [done] { done(Status::OK()); });
    }
  }
}

void PierNode::Leave() {
  if (!alive_) return;
  if (chord_) {
    chord_->Leave();
  } else {
    one_hop_->Deactivate();
  }
  StopServices();
  alive_ = false;
  network_->SetHostUp(host_, false);
}

void PierNode::Crash() {
  if (!alive_) return;
  if (chord_) {
    chord_->Fail();
  } else {
    one_hop_->Deactivate();
  }
  StopServices();
  alive_ = false;
  network_->SetHostUp(host_, false);
  PLOG(kInfo, name_) << "crashed";
}

void PierNode::Reboot(sim::HostId bootstrap,
                      std::function<void(Status)> done) {
  PIER_CHECK(!alive_);
  // A reboot is a fresh process: all protocol and storage state is rebuilt.
  query_engine_.reset();
  index_manager_.reset();
  broadcast_.reset();
  dht_.reset();
  mux_.reset();
  chord_.reset();
  one_hop_.reset();
  transport_.reset();
  router_ = nullptr;
  BuildComponents();
  alive_ = true;
  network_->SetHostUp(host_, true);
  JoinRing(bootstrap, std::move(done));
  PLOG(kInfo, name_) << "rebooted";
}

}  // namespace core
}  // namespace pier
