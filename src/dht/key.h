// PIER's three-part DHT naming scheme (from the PIER design papers):
//
//   namespace   — which relation/stream the item belongs to (base table or a
//                 per-query temporary namespace for rehashed tuples);
//   resource    — the serialized value of the partitioning attribute(s);
//                 determines WHERE on the ring the item lives;
//   instance    — distinguishes items sharing (namespace, resource), e.g.
//                 multiple tuples with one join-key value.
//
// The routing key is SHA-1 over (namespace, resource) only, so all instances
// of a resource colocate on one node — which is precisely what makes
// in-network joins and aggregation possible.

#ifndef PIER_DHT_KEY_H_
#define PIER_DHT_KEY_H_

#include <cstdint>
#include <string>

#include "common/id160.h"
#include "common/serialize.h"

namespace pier {
namespace dht {

/// Fully-qualified name of one stored item.
struct DhtKey {
  std::string ns;
  std::string resource;
  uint64_t instance = 0;

  /// Ring position: hash of namespace + resource (instance excluded).
  Id160 RoutingKey() const {
    Writer w;
    w.PutString(ns);
    w.PutString(resource);
    return Id160::FromName(w.buffer());
  }

  bool operator==(const DhtKey& o) const {
    return ns == o.ns && resource == o.resource && instance == o.instance;
  }

  void Serialize(Writer* w) const {
    w->PutString(ns);
    w->PutString(resource);
    w->PutVarint64(instance);
  }
  static Status Deserialize(Reader* r, DhtKey* out) {
    PIER_RETURN_IF_ERROR(r->GetString(&out->ns));
    PIER_RETURN_IF_ERROR(r->GetString(&out->resource));
    return r->GetVarint64(&out->instance);
  }

  std::string ToString() const {
    return ns + "/" + resource + "#" + std::to_string(instance);
  }
};

}  // namespace dht
}  // namespace pier

#endif  // PIER_DHT_KEY_H_
