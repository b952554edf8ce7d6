// Prefix Hash Tree: a distributed trie layered on the plain put/get DHT,
// turning PIER's equality-only rendezvous into a range-capable secondary
// index (Ramabhadran et al.'s PHT, adapted to PIER's soft-state storage).
//
// Layout — one DHT namespace per (table, indexed column):
//
//   namespace  "#idx.<table>.<col>"      never collides with relations or
//                                        per-query temp namespaces
//   resource   the trie-node prefix, a '0'/'1' string ("" = root)
//   instance 0 the node marker (PhtNodeRecord: leaf or internal)
//   instance>0 one index entry (PhtEntry: encoded key + tuple bytes),
//              instance = the publisher-scoped id of the base tuple, so
//              renewals and duplicated puts stay idempotent
//
// All instances of a resource colocate on one DHT owner, so the owner of a
// trie node sees every arrival for it and can run the split protocol
// locally:
//
//   - an entry arriving at a leaf is stored; when occupancy exceeds the
//     bucket threshold the owner marks the node internal and re-puts every
//     entry one level down (keys sharing a full 64-bit encoding stop
//     splitting at max depth — the bucket bound is per *distinct* prefix);
//   - split moves are ACKED: the parent copy of a moved entry is erased
//     only when the child's owner acknowledges the re-put. A partition
//     that eats the move leaves the entry readable at the parent (cursors
//     visit internal nodes' residual entries and dedup by instance id), so
//     no key is ever lost across a split;
//   - an entry arriving at an internal node is forwarded (acked re-put)
//     toward the child its key bits select, and is NOT stored or
//     replicated here; if the forward fails, the entry is re-stored at the
//     internal node as a readable residual;
//   - markers are soft state: leaf markers refresh on every arrival,
//     internal markers on every split and every forward. A quiescent
//     subtree's markers expire and the trie lazily "merges" back — a
//     cursor that then finds a cold root falls back to broadcast scan.
//
// The write path piggybacks on publishes (QueryEngine::Publish inserts into
// every index of the table); the read path is the client-side PhtCursor
// (pht_cursor.h).
//
// Each handle also keeps one leaf-depth hint for its trie: the depth of the
// last leaf this node saw, learned at no message cost. The owner side
// writes it when it stores an entry at a leaf, and a split's children
// deepen it, so a node that owns any leaf starts its first index query
// warm; the query runtime writes it when a cursor classifies a leaf. A
// cursor's first probe lands there. The hint only aims probes — every
// probe still classifies what it finds, so a wrong hint costs probes,
// never rows.

#ifndef PIER_INDEX_PHT_H_
#define PIER_INDEX_PHT_H_

#include <string>
#include <unordered_set>

#include "common/serialize.h"
#include "common/status.h"
#include "dht/storage.h"
#include "index/key_codec.h"
#include "sim/event_queue.h"

namespace pier {
namespace index {

/// Reserved instance id of the per-trie-node marker item.
inline constexpr uint64_t kMarkerInstance = 0;

/// Trie-node marker stored at instance 0 of a prefix resource.
struct PhtNodeRecord {
  bool internal = false;  ///< true once the node has split

  void Serialize(Writer* w) const;
  static Status Deserialize(Reader* r, PhtNodeRecord* out);
};

/// One index entry: the encoded key plus the indexed base tuple.
struct PhtEntry {
  uint64_t key = 0;         ///< order-preserving encoding (key_codec.h)
  std::string tuple_bytes;  ///< catalog::TupleToBytes of the base row

  void Serialize(Writer* w) const;
  static Status Deserialize(Reader* r, PhtEntry* out);
};

struct PhtStats {
  uint64_t inserts = 0;           ///< client-side entry puts issued
  uint64_t entries_stored = 0;    ///< entries accepted at leaves we own
  uint64_t entries_forwarded = 0; ///< arrivals relayed past internal nodes
  uint64_t splits = 0;
  uint64_t split_moves = 0;       ///< entries re-put by splits
  uint64_t moves_acked = 0;       ///< parent copies retired after child ack
  uint64_t moves_failed = 0;      ///< moves kept/restored at the parent
  uint64_t repairs_driven = 0;    ///< residuals re-driven by the sweep
};

/// One node's handle on one (table, column) PHT. Owns both roles:
/// the client-side insert path and the owner-side split/forward protocol
/// (registered as the DHT arrival subscriber for the index namespace).
class PhtIndex {
 public:
  /// `dht` and `sim` must outlive this object. Subscribes to arrivals on
  /// `ns` immediately; call Detach() (or destroy) to unsubscribe. An owner
  /// splits a leaf whose occupancy exceeds `bucket_size` (PHT's B
  /// parameter, from the catalog's IndexDef).
  PhtIndex(dht::Dht* dht, sim::Simulation* sim, std::string ns,
           int bucket_size);
  ~PhtIndex();

  PhtIndex(const PhtIndex&) = delete;
  PhtIndex& operator=(const PhtIndex&) = delete;

  /// Namespace for table/column — the contract shared with the cursor and
  /// the planner ("#idx.<table>.<col>").
  static std::string NamespaceFor(const std::string& table, int col);

  /// Client-side insert of one entry, keyed `instance` (the base tuple's
  /// publisher-scoped id). Starts at the deepest prefix this node knows to
  /// be internal; owners forward the rest of the way down.
  void Insert(const PhtEntry& entry, Duration ttl, uint64_t instance);

  void Detach();

  const std::string& ns() const { return ns_; }
  int bucket_size() const { return bucket_size_; }
  const PhtStats& stats() const { return stats_; }

  /// Depth of the last leaf this node stored at or saw a cursor classify,
  /// or of a split's children when deeper; -1 until then.
  int leaf_depth_hint() const { return leaf_depth_hint_; }
  void set_leaf_depth_hint(int depth) { leaf_depth_hint_ = depth; }

 private:
  /// DHT arrival hook for ns_: the owner-side protocol. Returns false when
  /// the item was consumed (forwarded) instead of stored.
  bool OnArrival(const dht::StoredItem& item);
  void Split(const std::string& prefix, const dht::StoredItem& incoming);
  /// Writes/refreshes the local marker for `prefix` (owner-side, in-store).
  void TouchMarker(const std::string& prefix, bool internal);
  bool LocalMarkerInternal(const std::string& prefix) const;
  void PutEntryAt(const std::string& prefix, const PhtEntry& entry,
                  Duration ttl, uint64_t instance);
  /// Acked one-level-down move from `parent`: on ack the parent copy is
  /// erased; on failure it is kept (or restored) at `parent` as a
  /// readable residual.
  void MoveEntryDown(const std::string& parent, const PhtEntry& entry,
                     Duration ttl, uint64_t instance);
  void RestoreAtParent(const std::string& parent, const PhtEntry& entry,
                       Duration ttl, uint64_t instance);
  /// The self-healing pass: re-drives every readable entry sitting at a
  /// locally-internal prefix one level down.
  void RepairSweep();

  dht::Dht* dht_;
  sim::Simulation* sim_;
  std::string ns_;
  int bucket_size_;
  PhtStats stats_;
  bool attached_ = false;
  sim::PeriodicTask repair_task_;
  /// Prefixes this node has learned are internal (from splits and forwards
  /// it performed) — lets local inserts skip the upper trie levels.
  std::unordered_set<std::string> known_internal_;
  int leaf_depth_hint_ = -1;
};

}  // namespace index
}  // namespace pier

#endif  // PIER_INDEX_PHT_H_
