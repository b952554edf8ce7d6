#include "index/pht_cursor.h"

#include <algorithm>

namespace pier {
namespace index {

PhtCursor::PhtCursor(GetFn get, uint64_t lo, uint64_t hi,
                     uint64_t max_leaves, int depth_hint)
    : get_(std::move(get)),
      lo_(lo),
      hi_(hi),
      max_leaves_(max_leaves),
      depth_hint_(depth_hint) {}

void PhtCursor::Run(RowFn row, DoneFn done) {
  row_ = std::move(row);
  done_ = std::move(done);
  if (lo_ > hi_) {
    Finish(Outcome::kOk, Status::OK());
    return;
  }
  cur_key_ = lo_;
  Locate();
}

void PhtCursor::Locate() {
  lo_depth_ = 0;
  hi_depth_ = kKeyBits;
  aim_ = depth_hint_;
  step_ = 0;
  Probe();
}

int PhtCursor::ProbeDepth() const {
  if (aim_ < 0) return (lo_depth_ + hi_depth_) / 2;
  return std::clamp(aim_, lo_depth_, hi_depth_);
}

void PhtCursor::Narrow(int depth, int dir) {
  if (dir > 0) {
    lo_depth_ = depth + 1;
  } else {
    hi_depth_ = depth - 1;
  }
  if (aim_ < 0 || step_ * dir < 0) {
    aim_ = -1;  // bracketed from both sides: bisect
    return;
  }
  step_ = step_ == 0 ? dir : 2 * step_;
  aim_ = depth + step_;
}

void PhtCursor::Probe() {
  while (!finished_) {
    if (lo_depth_ > hi_depth_) {
      // No leaf anywhere on this key's path. In a healthy trie that cannot
      // happen: splits materialize BOTH children, so every path ends at a
      // leaf marker (possibly with zero entries). Converging on nothing
      // below an internal ancestor means the trie lost nodes mid-churn —
      // report an error so the query layer falls back to a broadcast scan
      // rather than pass damage off as an empty region. Converging on an
      // entirely silent trie means the index is cold.
      if (!saw_trie_state_) {
        Finish(Outcome::kColdIndex, Status::OK());
      } else {
        Finish(Outcome::kError,
               Status::Unavailable("pht path lost its leaf (churn)"));
      }
      return;
    }
    int depth = ProbeDepth();
    // Prefixes already known internal resolve without the network: sibling
    // locates share the upper trie path.
    if (known_internal_.count(Prefix(cur_key_, depth)) > 0) {
      Narrow(depth, +1);
      continue;
    }
    if (stats_.probes >= kMaxProbes) {
      Finish(Outcome::kError,
             Status::Unavailable("pht walk exceeded budget"));
      return;
    }
    ++stats_.probes;
    get_(Prefix(cur_key_, depth),
         [this](Status s, std::vector<dht::DhtItem> items) {
           OnProbe(std::move(s), std::move(items));
         });
    return;
  }
}

PhtCursor::NodeClass PhtCursor::Classify(
    const std::vector<dht::DhtItem>& items) {
  bool has_entries = false;
  for (const dht::DhtItem& item : items) {
    if (item.key.instance == kMarkerInstance) {
      Reader r(item.value);
      PhtNodeRecord rec;
      // An internal marker overrules any entries still decaying here from
      // before the node split.
      if (PhtNodeRecord::Deserialize(&r, &rec).ok() && rec.internal) {
        return NodeClass::kInternal;
      }
      has_entries = true;  // leaf marker counts as presence
    } else {
      has_entries = true;
    }
  }
  return has_entries ? NodeClass::kLeaf : NodeClass::kEmpty;
}

void PhtCursor::OnProbe(Status s, std::vector<dht::DhtItem> items) {
  if (finished_) return;
  if (!s.ok()) {
    Finish(Outcome::kError, std::move(s));
    return;
  }
  int depth = ProbeDepth();
  switch (Classify(items)) {
    case NodeClass::kInternal:
      saw_trie_state_ = true;
      known_internal_.insert(Prefix(cur_key_, depth));
      // Internal nodes can hold residual entries: moves awaiting (or
      // denied) their child ack during a partition, or failover ghosts.
      // Reading them here is what makes "no key lost across a split" hold
      // under arbitrary fault timing; the instance dedup keeps exactness.
      EmitLeaf(Prefix(cur_key_, depth), items);
      if (finished_) return;
      Narrow(depth, +1);
      Probe();
      return;
    case NodeClass::kLeaf: {
      saw_trie_state_ = true;
      ++stats_.leaves;
      depth_hint_ = depth;
      std::string prefix = Prefix(cur_key_, depth);
      EmitLeaf(prefix, items);
      if (!finished_) Advance(prefix);
      return;
    }
    case NodeClass::kEmpty:
      Narrow(depth, -1);
      Probe();
      return;
  }
}

void PhtCursor::EmitLeaf(const std::string& /*prefix*/,
                         const std::vector<dht::DhtItem>& items) {
  for (const dht::DhtItem& item : items) {
    if (item.key.instance == kMarkerInstance) continue;
    PhtEntry entry;
    Reader r(item.value);
    if (!PhtEntry::Deserialize(&r, &entry).ok()) continue;
    ++stats_.entries_seen;
    if (entry.key < lo_ || entry.key > hi_) continue;
    if (!emitted_instances_.insert(item.key.instance).second) continue;
    ++stats_.entries_emitted;
    if (!row_(entry, item.key.instance)) {
      Finish(Outcome::kOk, Status::OK());
      return;
    }
  }
}

void PhtCursor::Advance(const std::string& leaf_prefix) {
  uint64_t next = 0;
  if (leaf_prefix.empty() || !NextKeyAfterPrefix(leaf_prefix, &next) ||
      next > hi_) {
    // The root leaf covers everything / walked off the top of the keyspace
    // / the next region starts past the range: done.
    Finish(Outcome::kOk, Status::OK());
    return;
  }
  cur_key_ = next;
  if (max_leaves_ > 0 && stats_.leaves >= max_leaves_) {
    Finish(Outcome::kMore, Status::OK());  // resume point in next_key()
    return;
  }
  Locate();
}

void PhtCursor::Finish(Outcome outcome, Status s) {
  if (finished_) return;
  finished_ = true;
  if (done_) done_(outcome, std::move(s));
}

}  // namespace index
}  // namespace pier
