// PhtCursor: the client-side range reader of the Prefix Hash Tree.
//
// For a closed encoded-key range [lo, hi] the cursor locates the leaf
// covering `lo` — a search over prefix DEPTH, where each probe is one DHT
// get at prefix(key, depth) and classifies the trie node from the items that
// come back (internal marker / leaf marker or entries / nothing) — then
// walks rightward leaf by leaf: the successor of a leaf's prefix
// (incremented as a binary number) is the next key to locate.
//
// Cost model. Every probe is a dependent routed get, so the walk's latency
// is its probe count. A locate with no depth hint is the PHT "doubly binary"
// search: a bisection of [0, kKeyBits], about log2(64) = 6 probes. A locate
// with a hint starts AT the hint and gallops away from it (hint ± 1, ± 3,
// ± 7, ...) until the leaf depth is bracketed, then bisects the bracket: a
// correct hint costs one probe, a hint one level off costs two, and a hint
// k levels off costs O(log k). Every locate after the cursor's first leaf
// is hinted by that leaf's depth (sibling leaves cluster at similar depths),
// and the first one takes the hint the caller passes in: the query runtime
// passes the node's PhtIndex::leaf_depth_hint(), which the node's owner-side
// writes and earlier cursors keep current. Total cost: about one probe per
// leaf touched when the hint is right — the set of nodes contacted scales
// with the answer, not the overlay. The hint only aims probes; every probe
// still classifies what it finds, so a wrong hint costs probes, never rows.
//
// The cursor is deliberately transport-agnostic: it speaks through a GetFn
// so the query runtime can interpose its query-lifetime re-entry guard
// (StageHost::PostToStage) and tests can drive a bare Dht. Every terminal
// outcome is reported exactly once through DoneFn:
//
//   kOk         range exhausted (or the row callback stopped early);
//   kMore       the leaf budget ran out; next_key() resumes the range;
//   kColdIndex  the trie root is empty — nothing was ever inserted or the
//               index decayed; the caller should fall back to scanning;
//   kError      a probe failed (owner unreachable after DHT retries) or the
//               walk exceeded its safety budget mid-churn.

#ifndef PIER_INDEX_PHT_CURSOR_H_
#define PIER_INDEX_PHT_CURSOR_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "dht/storage.h"
#include "index/key_codec.h"
#include "index/pht.h"

namespace pier {
namespace index {

class PhtCursor {
 public:
  enum class Outcome {
    kOk,         ///< range exhausted (or the row callback stopped early)
    kMore,       ///< leaf budget hit; resume from next_key()
    kColdIndex,  ///< trie root empty: fall back to scanning
    kError,      ///< probe failed / walk over budget / missing leaf
  };

  struct Stats {
    uint64_t probes = 0;          ///< DHT gets issued
    uint64_t leaves = 0;          ///< leaves (incl. empty regions) visited
    uint64_t entries_seen = 0;    ///< entries decoded at visited leaves
    uint64_t entries_emitted = 0; ///< entries inside [lo, hi]
  };

  using GetCb = std::function<void(Status, std::vector<dht::DhtItem>)>;
  /// Issues one DHT get for `resource` in the index namespace.
  using GetFn = std::function<void(const std::string& resource, GetCb cb)>;
  /// Receives one in-range entry plus its (globally unique) instance id —
  /// callers running several cursors over one range dedup on it. Return
  /// false to stop the walk early.
  using RowFn = std::function<bool(const PhtEntry& entry, uint64_t instance)>;
  using DoneFn = std::function<void(Outcome, Status)>;

  /// Closed encoded range; `lo` > `hi` completes immediately with kOk.
  /// `max_leaves` > 0 bounds the walk: after that many leaves the cursor
  /// reports kMore with next_key() set — the index-scan stage reads one
  /// leaf this way to learn where to cut the rest of the range.
  /// `depth_hint` >= 0 aims the first locate's first probe (see the cost
  /// model above); -1 starts with the plain bisection.
  PhtCursor(GetFn get, uint64_t lo, uint64_t hi, uint64_t max_leaves = 0,
            int depth_hint = -1);

  /// Starts the walk. Callbacks fire from GetFn continuations; the cursor
  /// must stay alive until DoneFn runs (drop the continuations to abort).
  void Run(RowFn row, DoneFn done);

  const Stats& stats() const { return stats_; }
  /// After kMore: the first key of the unvisited remainder of the range.
  uint64_t next_key() const { return cur_key_; }
  /// Depth of the last leaf the walk classified; -1 before the first.
  int leaf_depth() const { return stats_.leaves > 0 ? depth_hint_ : -1; }
  /// True once DoneFn has run.
  bool finished() const { return finished_; }

 private:
  enum class NodeClass { kInternal, kLeaf, kEmpty };

  void Locate();
  void Probe();
  int ProbeDepth() const;
  /// After a probe at `depth`: the leaf lies deeper (`dir` +1, an internal
  /// node) or shallower (-1, nothing there). Narrows the bracket and keeps
  /// galloping that way, or bisects once the search has turned.
  void Narrow(int depth, int dir);
  void OnProbe(Status s, std::vector<dht::DhtItem> items);
  void EmitLeaf(const std::string& prefix,
                const std::vector<dht::DhtItem>& items);
  void Advance(const std::string& leaf_prefix);
  void Finish(Outcome outcome, Status s);

  static NodeClass Classify(const std::vector<dht::DhtItem>& items);

  GetFn get_;
  uint64_t lo_;
  uint64_t hi_;
  uint64_t max_leaves_;
  RowFn row_;
  DoneFn done_;
  Stats stats_;

  // Search state for the current locate: the leaf's depth lies in
  // [lo_depth_, hi_depth_]. While galloping, aim_ is the next probe's depth
  // and step_ the signed distance of the last gallop (0 before the first
  // probe); aim_ = -1 bisects.
  uint64_t cur_key_ = 0;
  int lo_depth_ = 0;
  int hi_depth_ = kKeyBits;
  int aim_ = -1;
  int step_ = 0;
  bool saw_trie_state_ = false;  ///< any probe ever classified non-empty
  bool finished_ = false;
  /// Where each locate starts: the caller's hint, then the depth of the
  /// previous leaf.
  int depth_hint_;
  /// Prefixes already classified internal — internal nodes stay internal,
  /// and sibling locates share their upper path, so these probes are free.
  /// Per cursor on purpose: trusting a prefix as internal across queries
  /// would skip the probe that finds a leaf re-formed after its markers
  /// expired.
  std::unordered_set<std::string> known_internal_;
  /// Entry instances already emitted. Split moves are acked, so an entry
  /// can transiently exist at BOTH the parent (residual awaiting ack) and
  /// the child, and replica failovers can resurface parent-level ghosts;
  /// instance ids are globally unique per base tuple, so deduping here
  /// keeps the answer an exact multiset.
  std::unordered_set<uint64_t> emitted_instances_;
  /// Hard cap on probes per cursor: a walk that exceeds it is churn debris
  /// (or hostile trie state) and reports kError instead of spinning.
  static constexpr uint64_t kMaxProbes = 4096;
};

}  // namespace index
}  // namespace pier

#endif  // PIER_INDEX_PHT_CURSOR_H_
