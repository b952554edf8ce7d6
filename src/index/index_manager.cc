#include "index/index_manager.h"

#include "catalog/tuple.h"

namespace pier {
namespace index {

IndexManager::IndexManager(dht::Dht* dht, sim::Simulation* sim)
    : dht_(dht), sim_(sim) {}

void IndexManager::RegisterTable(const catalog::TableDef& def) {
  // Drop handles the new definition no longer declares — or declares with
  // a different bucket threshold — and keep identical ones (their trie
  // caches and stats survive idempotent re-registration).
  for (auto it = indexes_.begin(); it != indexes_.end();) {
    if (it->first.first != def.name) {
      ++it;
      continue;
    }
    bool unchanged = false;
    for (const catalog::IndexDef& idx : def.indexes) {
      unchanged |= idx.col == it->first.second &&
                   idx.bucket_size == it->second->bucket_size();
    }
    it = unchanged ? std::next(it) : indexes_.erase(it);
  }
  for (const catalog::IndexDef& idx : def.indexes) {
    auto key = std::make_pair(def.name, idx.col);
    if (indexes_.count(key) > 0) continue;
    indexes_.emplace(key, std::make_unique<PhtIndex>(
                              dht_, sim_,
                              PhtIndex::NamespaceFor(def.name, idx.col),
                              idx.bucket_size));
  }
}

void IndexManager::OnPublish(const catalog::TableDef& def,
                             const catalog::Tuple& t, uint64_t instance,
                             Duration ttl) {
  for (const catalog::IndexDef& idx : def.indexes) {
    if (idx.col < 0 || static_cast<size_t>(idx.col) >= t.size()) continue;
    auto it = indexes_.find(std::make_pair(def.name, idx.col));
    if (it == indexes_.end()) continue;
    uint64_t key = 0;
    if (!EncodeValue(t[static_cast<size_t>(idx.col)],
                     def.schema.column(static_cast<size_t>(idx.col)).type,
                     BoundSide::kExact, &key)) {
      continue;
    }
    PhtEntry entry;
    entry.key = key;
    entry.tuple_bytes = catalog::TupleToBytes(t);
    it->second->Insert(entry, ttl, instance);
  }
}

const PhtIndex* IndexManager::Find(const std::string& table, int col) const {
  auto it = indexes_.find(std::make_pair(table, col));
  return it == indexes_.end() ? nullptr : it->second.get();
}

PhtIndex* IndexManager::Find(const std::string& table, int col) {
  auto it = indexes_.find(std::make_pair(table, col));
  return it == indexes_.end() ? nullptr : it->second.get();
}

}  // namespace index
}  // namespace pier
