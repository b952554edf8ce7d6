// IndexManager: one node's registry of Prefix-Hash-Tree secondary indexes.
//
// Sits between the catalog and the DHT: when a table definition declaring
// indexed attributes is registered (on any node — every node must run the
// owner-side split/forward protocol for prefixes it happens to own, whether
// or not it ever publishes), the manager instantiates a PhtIndex per
// indexed column and subscribes it to the index namespace. The publish path
// (QueryEngine::Publish) calls OnPublish to piggyback index maintenance on
// every tuple put. Each index takes its bucket size from the catalog's
// IndexDef; the marker TTL and the repair pacing are constants in pht.cc.

#ifndef PIER_INDEX_INDEX_MANAGER_H_
#define PIER_INDEX_INDEX_MANAGER_H_

#include <map>
#include <memory>
#include <string>
#include <utility>

#include "catalog/table_def.h"
#include "index/pht.h"

namespace pier {
namespace index {

class IndexManager {
 public:
  /// `dht` and `sim` must outlive the manager.
  IndexManager(dht::Dht* dht, sim::Simulation* sim);

  /// Creates (or rebuilds, on re-registration) the PHT handles for `def`'s
  /// indexed columns. Tables without indexes tear down any stale handles.
  void RegisterTable(const catalog::TableDef& def);

  /// Piggybacked index maintenance for one published tuple: inserts an
  /// entry into every index of `def` whose column value encodes (NULLs and
  /// type-incoherent values are skipped — range predicates never match
  /// them anyway). `instance` is the publisher-scoped id of the base put,
  /// so renewals renew the entry instead of duplicating it.
  void OnPublish(const catalog::TableDef& def, const catalog::Tuple& t,
                 uint64_t instance, Duration ttl);

  /// The index handle for (table, col); nullptr when absent. The query
  /// runtime reads and writes its leaf-depth hint through the mutable one.
  const PhtIndex* Find(const std::string& table, int col) const;
  PhtIndex* Find(const std::string& table, int col);
  size_t index_count() const { return indexes_.size(); }

 private:
  dht::Dht* dht_;
  sim::Simulation* sim_;
  /// (table, column) -> live index handle.
  std::map<std::pair<std::string, int>, std::unique_ptr<PhtIndex>> indexes_;
};

}  // namespace index
}  // namespace pier

#endif  // PIER_INDEX_INDEX_MANAGER_H_
