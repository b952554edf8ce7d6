#include "query/ops/join_stage.h"

namespace pier {
namespace query {
namespace ops {

using catalog::Tuple;

namespace {
const std::string kNoNamespace;
/// Origin: bloom_wait elapsed — account the wave and broadcast the union.
constexpr uint64_t kBloomBroadcastToken = 0;
/// Every node: the distribution never arrived — produce the full rehash.
constexpr uint64_t kBloomFallbackToken = 1;

/// Layout of the semi-join's rehashed key projection:
/// [key columns (typed from the scan's schema)..., host, row id].
catalog::Schema SemiProjectionSchema(const catalog::Schema& scan_schema,
                                     const std::vector<int>& keys) {
  std::vector<catalog::Column> cols;
  cols.reserve(keys.size() + 2);
  for (int c : keys) {
    if (c >= 0 && static_cast<size_t>(c) < scan_schema.num_columns()) {
      cols.push_back(scan_schema.column(static_cast<size_t>(c)));
    } else {
      cols.push_back(catalog::Column{"key", ValueType::kNull});
    }
  }
  cols.push_back(catalog::Column{"semi_host", ValueType::kInt64});
  cols.push_back(catalog::Column{"semi_row", ValueType::kInt64});
  return catalog::Schema(scan_schema.relation(), std::move(cols));
}

}  // namespace

JoinStage::JoinStage(StageHost* host, uint64_t qid, uint32_t node_id,
                     const OpNode* node, const OpNode* left_scan,
                     const OpNode* right_scan, Duration window,
                     bool is_origin, uint32_t origin_host)
    : host_(host),
      qid_(qid),
      node_id_(node_id),
      node_(node),
      left_scan_(left_scan),
      right_scan_(right_scan),
      window_(window),
      is_origin_(is_origin),
      origin_host_(origin_host) {
  if (node_->strategy != JoinStrategy::kFetchMatches) {
    exchange_ = std::make_unique<RehashExchange>(host_, qid_, node_id_);
  }
}

const std::string& JoinStage::ns() const {
  return exchange_ != nullptr ? exchange_->ns() : kNoNamespace;
}

void JoinStage::InitOrigin() {
  if (node_->strategy != JoinStrategy::kBloom) return;
  const EngineOptions& o = host_->engine_options();
  collect_left_ =
      std::make_unique<BloomFilter>(o.bloom_bits, o.bloom_hashes);
  collect_right_ =
      std::make_unique<BloomFilter>(o.bloom_bits, o.bloom_hashes);
  host_->ScheduleStageTimer(o.bloom_wait, qid_, node_id_,
                            kBloomBroadcastToken);
}

void JoinStage::OnTimer(uint64_t token) {
  if (token == kBloomBroadcastToken) {
    // Bloom collection window over: close the wave, account the parts
    // against the plan broadcast's confirmed coverage, and redistribute
    // the union network-wide with the verdict.
    if (!is_origin_ || collect_left_ == nullptr || wave_closed_) return;
    wave_closed_ = true;
    uint64_t expected = 0;
    bool covered = false;
    host_->QueryCoverage(qid_, &expected, &covered);
    // +1: the origin's own scan contributed directly to the collectors.
    uint64_t reported = static_cast<uint64_t>(part_senders_.size()) + 1;
    bool complete = covered && expected > 0 && reported >= expected;
    host_->BroadcastBloomFilters(qid_, node_id_, expected, reported,
                                 complete, *collect_left_, *collect_right_);
    return;
  }
  if (token == kBloomFallbackToken) {
    // No kBloomDist by the deadline (lost broadcast, partitioned origin):
    // this node's slices must still reach the rendezvous. Produce the full
    // unsuppressed rehash — the degraded-but-lossless baseline.
    if (produced_ || node_->strategy != JoinStrategy::kBloom) return;
    ++host_->mutable_stats()->bloom_dist_timeouts;
    ProduceFromScans(/*bloom_phase2=*/true);
  }
}

void JoinStage::Setup() {
  if (node_->strategy != JoinStrategy::kFetchMatches) {
    // Rendezvous role: join rehashed arrivals incrementally.
    std::vector<int> lkeys, rkeys;
    if (node_->strategy == JoinStrategy::kSymmetricSemi) {
      // Rehashed key-projections: [key values..., host, row id].
      for (size_t i = 0; i < node_->left_keys.size(); ++i) {
        lkeys.push_back(static_cast<int>(i));
        rkeys.push_back(static_cast<int>(i));
      }
    } else {
      lkeys = node_->left_keys;
      rkeys = node_->right_keys;
    }
    shj_ = flow_.Add<exec::SymmetricHashJoinOp>(lkeys, rkeys, nullptr);
    exec::FnSink* sink = flow_.Add<exec::FnSink>(
        [this](const Tuple& t) { HandleJoinOutput(t); });
    flow_.Connect(shj_, sink);
    // Catch-up: tuples rehashed by fast nodes may land here before the
    // plan broadcast did; they are waiting in the exchange namespace.
    host_->dht()->ForEachLocalReadable(ns(),
                                       [this](const dht::StoredItem& item) {
      OnArrival(item);
      return true;
    });
  }

  if (node_->strategy == JoinStrategy::kBloom) {
    BloomPhase1();
    // Backstop for a lost distribution: twice the collection window gives
    // the origin's bloom_wait timer plus the broadcast hop ample slack,
    // and still lands well inside any sane result window.
    host_->ScheduleStageTimer(2 * host_->engine_options().bloom_wait, qid_,
                              node_id_, kBloomFallbackToken);
  } else {
    ProduceFromScans(/*bloom_phase2=*/false);
  }
}

void JoinStage::BloomPhase1() {
  const EngineOptions& o = host_->engine_options();
  BloomFilter left(o.bloom_bits, o.bloom_hashes);
  BloomFilter right(o.bloom_bits, o.bloom_hashes);
  // One pass per side: the same scan builds the filter AND caches the rows
  // phase 2 publishes. Besides halving the scan cost, this pins the filter
  // and the published snapshot to the same instant — a tuple arriving
  // between two separate passes used to be suppressed by a filter that had
  // never seen its key.
  if (left_scan_ != nullptr) {
    ScanStage scan(host_, left_scan_, window_);
    scan.Run([&](const Tuple& t) {
      left.Add(catalog::HashTupleCols(t, node_->left_keys));
      cached_left_.push_back(t);
      return true;
    });
  }
  if (right_scan_ != nullptr) {
    ScanStage scan(host_, right_scan_, window_);
    scan.Run([&](const Tuple& t) {
      right.Add(catalog::HashTupleCols(t, node_->right_keys));
      cached_right_.push_back(t);
      return true;
    });
  }
  scans_cached_ = true;
  if (is_origin_) {
    if (collect_left_ != nullptr) (void)collect_left_->UnionWith(left);
    if (collect_right_ != nullptr) (void)collect_right_->UnionWith(right);
    return;
  }
  Writer w;
  w.PutU8(static_cast<uint8_t>(MsgType::kBloomPart));
  BloomPartFrame frame;
  frame.qid = qid_;
  frame.join_node = node_id_;
  frame.left = std::move(left);
  frame.right = std::move(right);
  frame.Serialize(&w);
  ++host_->mutable_stats()->bloom_filters_sent;
  host_->SendQueryBytes(origin_host_, w);
}

void JoinStage::OnBloomPart(uint32_t from, const BloomPartFrame& frame) {
  if (!is_origin_ || collect_left_ == nullptr) return;
  if (wave_closed_) {
    // The union this part belongs to has already been broadcast; folding
    // it in now would vouch for keys nobody will ever see. The wave that
    // missed it went out flagged incomplete, so no suppression happened.
    ++host_->mutable_stats()->bloom_parts_late;
    return;
  }
  // A geometry-mismatched filter can only ADD bits (UnionWith refuses it),
  // so a partial union is harmless; but such a part is not accounted.
  bool ok = collect_left_->UnionWith(frame.left).ok();
  ok = collect_right_->UnionWith(frame.right).ok() && ok;
  if (!ok) return;
  part_senders_.insert(from);
  ++host_->mutable_stats()->bloom_parts_received;
}

void JoinStage::OnBloomDist(BloomDistFrame frame) {
  if (node_->strategy != JoinStrategy::kBloom || produced_) return;
  if (frame.complete) {
    dist_left_ = std::make_unique<BloomFilter>(std::move(frame.left));
    dist_right_ = std::make_unique<BloomFilter>(std::move(frame.right));
  }
  // An incomplete wave leaves the dist filters null: phase 2 publishes
  // everything (full rehash). Degraded, never lossy.
  ProduceFromScans(/*bloom_phase2=*/true);
}

void JoinStage::ProduceFromScans(bool bloom_phase2) {
  std::vector<Tuple> left, right;
  if (scans_cached_) {
    left = std::move(cached_left_);
    right = std::move(cached_right_);
    cached_left_.clear();
    cached_right_.clear();
    scans_cached_ = false;
  } else {
    if (left_scan_ != nullptr) {
      ScanStage scan(host_, left_scan_, window_);
      scan.Run([&](const Tuple& t) {
        left.push_back(t);
        return true;
      });
    }
    if (right_scan_ != nullptr) {
      ScanStage scan(host_, right_scan_, window_);
      scan.Run([&](const Tuple& t) {
        right.push_back(t);
        return true;
      });
    }
  }

  switch (node_->strategy) {
    case JoinStrategy::kBloom:
      if (!bloom_phase2) return;  // phase 2 starts when filters arrive
      produced_ = true;
      [[fallthrough]];
    case JoinStrategy::kSymmetricHash: {
      auto publish_side = [&](std::vector<Tuple>& rows,
                              const std::vector<int>& keys,
                              const BloomFilter* suppress,
                              const OpNode* scan, int side) {
        if (bloom_phase2 && suppress != nullptr) {
          auto kept = rows.begin();
          for (Tuple& t : rows) {
            if (!suppress->MayContain(catalog::HashTupleCols(t, keys))) {
              ++host_->mutable_stats()->bloom_suppressed;
              host_->mutable_stats()->bloom_bytes_saved +=
                  catalog::TupleToBytes(t).size();
              continue;
            }
            if (&*kept != &t) *kept = std::move(t);  // self-move would clear t
            ++kept;
          }
          rows.erase(kept, rows.end());
        }
        // Rows only ever come from this side's own (non-null) scan. One
        // column-major frame per rendezvous owner per scan, instead of one
        // DHT put per tuple.
        if (rows.empty()) return;
        exchange_->PublishBatch(side, keys, scan->schema, rows);
      };
      publish_side(left, node_->left_keys, dist_right_.get(), left_scan_, 0);
      publish_side(right, node_->right_keys, dist_left_.get(), right_scan_,
                   1);
      break;
    }
    case JoinStrategy::kSymmetricSemi: {
      auto rehash_keys = [&](std::vector<Tuple>& rows,
                             const std::vector<int>& keys,
                             const OpNode* scan, int side) {
        std::vector<int> leading;
        for (size_t i = 0; i < keys.size(); ++i) {
          leading.push_back(static_cast<int>(i));
        }
        std::vector<Tuple> projs;
        projs.reserve(rows.size());
        uint64_t saved = 0;
        for (Tuple& t : rows) {
          uint64_t row_id = next_row_id_++;
          Tuple proj;
          proj.reserve(keys.size() + 2);
          for (int c : keys) {
            proj.push_back(c >= 0 && static_cast<size_t>(c) < t.size()
                               ? t[c]
                               : Value::Null());
          }
          proj.push_back(Value::Int64(host_->self_host()));
          proj.push_back(Value::Int64(static_cast<int64_t>(row_id)));
          size_t full = catalog::TupleToBytes(t).size();
          size_t slim = catalog::TupleToBytes(proj).size();
          if (full > slim) saved += full - slim;
          row_registry_.emplace(row_id, std::move(t));
          projs.push_back(std::move(proj));
        }
        host_->mutable_stats()->semijoin_bytes_saved += saved;
        // Key projections ride the columnar plane exactly like the hash
        // path: one frame per rendezvous owner instead of one put per row.
        if (projs.empty()) return;
        exchange_->PublishBatch(side, leading,
                                SemiProjectionSchema(scan->schema, keys),
                                projs);
      };
      rehash_keys(left, node_->left_keys, left_scan_, 0);
      rehash_keys(right, node_->right_keys, right_scan_, 1);
      break;
    }
    case JoinStrategy::kFetchMatches: {
      for (const Tuple& t : left) {
        std::string resource =
            catalog::ResourceForCols(t, node_->left_keys);
        ++host_->mutable_stats()->fetch_gets;
        Tuple probe = t;
        StageHost* host = host_;
        uint64_t qid = qid_;
        uint32_t node_id = node_id_;
        host_->dht()->Get(
            right_scan_->table, resource,
            [host, qid, node_id, probe](Status s,
                                        std::vector<dht::DhtItem> items) {
              if (!s.ok()) return;
              host->PostToStage(qid, node_id, [&](Stage* stage) {
                static_cast<JoinStage*>(stage)->ResolveFetchMatches(probe,
                                                                    items);
              });
            });
      }
      break;
    }
  }
}

void JoinStage::ResolveFetchMatches(const Tuple& probe,
                                    const std::vector<dht::DhtItem>& items) {
  for (const dht::DhtItem& item : items) {
    Tuple rt;
    if (!catalog::TupleFromBytes(item.value, &rt).ok()) continue;
    // Verify true key equality (resources are hashes).
    bool equal = true;
    for (size_t i = 0; i < node_->left_keys.size(); ++i) {
      int lc = node_->left_keys[i];
      int rc = node_->right_keys[i];
      if (lc < 0 || static_cast<size_t>(lc) >= probe.size() || rc < 0 ||
          static_cast<size_t>(rc) >= rt.size()) {
        equal = false;
        break;
      }
      const Value& lv = probe[lc];
      const Value& rv = rt[rc];
      if (lv.is_null() || rv.is_null() || lv.Compare(rv) != 0) {
        equal = false;
        break;
      }
    }
    if (!equal) continue;
    Tuple joined = probe;
    joined.insert(joined.end(), rt.begin(), rt.end());
    HandleJoinOutput(joined);
  }
}

void JoinStage::PublishUpstream(int side, const Tuple& t) {
  if (exchange_ == nullptr) return;
  exchange_->Publish(side, side == 0 ? node_->left_keys : node_->right_keys,
                     t);
}

void JoinStage::OnArrival(const dht::StoredItem& item) {
  if (shj_ == nullptr) return;
  int side = 0;
  if (RehashExchange::IsBatchFrame(item)) {
    exec::RowBatch b;
    if (!RehashExchange::DecodeBatchArrival(item, &side, &b).ok()) return;
    ++host_->mutable_stats()->batch_frames_received;
    Tuple t;
    for (size_t i = 0; i < b.num_rows(); ++i) {
      b.ToTuple(i, &t);
      shj_->Push(t, side);
    }
    return;
  }
  Tuple t;
  if (!RehashExchange::DecodeArrival(item, &side, &t).ok()) return;
  shj_->Push(t, side);
}

void JoinStage::HandleJoinOutput(const Tuple& joined) {
  size_t k = node_->left_keys.size();
  if (node_->strategy == JoinStrategy::kSymmetricSemi &&
      joined.size() == 2 * (k + 2)) {
    // Matched key-projections: fetch the full tuples from both owners.
    // Layout: [lkeys(k), lhost, lrow, rkeys(k), rhost, rrow].
    int64_t lhost = 0, lrow = 0, rhost = 0, rrow = 0;
    if (!joined[k].AsInt64(&lhost).ok() ||
        !joined[k + 1].AsInt64(&lrow).ok() ||
        !joined[2 * k + 2].AsInt64(&rhost).ok() ||
        !joined[2 * k + 3].AsInt64(&rrow).ok()) {
      return;
    }
    uint64_t match_id = next_match_id_++;
    pending_matches_.emplace(match_id, PendingMatch{});
    auto send_fetch = [&](int64_t host, int64_t row, uint8_t side) {
      Writer w;
      w.PutU8(static_cast<uint8_t>(MsgType::kFetchReq));
      w.PutVarint64(qid_);
      w.PutVarint64(match_id);
      w.PutU8(side);
      w.PutVarint64(static_cast<uint64_t>(row));
      w.PutFixed32(host_->self_host());
      ++host_->mutable_stats()->semijoin_fetches;
      host_->SendQueryBytes(static_cast<uint32_t>(host), w);
    };
    send_fetch(lhost, lrow, 0);
    send_fetch(rhost, rrow, 1);
    return;
  }
  if (downstream_) downstream_(joined);
}

void JoinStage::OnFetchReq(uint32_t /*from*/, Reader* r) {
  uint64_t match_id = 0, row_id = 0;
  uint8_t side = 0;
  uint32_t reply_to = 0;
  if (!r->GetVarint64(&match_id).ok() || !r->GetU8(&side).ok() ||
      !r->GetVarint64(&row_id).ok() || !r->GetFixed32(&reply_to).ok()) {
    return;
  }
  auto row = row_registry_.find(row_id);
  Writer w;
  w.PutU8(static_cast<uint8_t>(MsgType::kFetchResp));
  w.PutVarint64(qid_);
  w.PutVarint64(match_id);
  w.PutU8(side);
  bool found = row != row_registry_.end();
  w.PutBool(found);
  if (found) catalog::SerializeTuple(row->second, &w);
  host_->SendQueryBytes(reply_to, w);
}

void JoinStage::OnFetchResp(Reader* r) {
  uint64_t match_id = 0;
  uint8_t side = 0;
  bool found = false;
  if (!r->GetVarint64(&match_id).ok() || !r->GetU8(&side).ok() ||
      !r->GetBool(&found).ok()) {
    return;
  }
  auto pm = pending_matches_.find(match_id);
  if (pm == pending_matches_.end()) return;
  if (!found) {
    pending_matches_.erase(pm);
    return;
  }
  Tuple t;
  if (!catalog::DeserializeTuple(r, &t).ok()) return;
  if (side == 0) {
    pm->second.left = std::move(t);
    pm->second.have_left = true;
  } else {
    pm->second.right = std::move(t);
    pm->second.have_right = true;
  }
  if (pm->second.have_left && pm->second.have_right) {
    Tuple joined = pm->second.left;
    joined.insert(joined.end(), pm->second.right.begin(),
                  pm->second.right.end());
    pending_matches_.erase(pm);
    // Route through the standard full-row path (residual + project).
    if (downstream_) downstream_(joined);
  }
}

}  // namespace ops
}  // namespace query
}  // namespace pier
