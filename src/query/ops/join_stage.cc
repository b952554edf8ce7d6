#include "query/ops/join_stage.h"

#include <numeric>

#include "common/hash.h"

namespace pier {
namespace query {
namespace ops {

using catalog::Tuple;

namespace {
const std::string kNoNamespace;
/// Origin: bloom_wait elapsed — close the wave as it stands.
constexpr uint64_t kBloomBroadcastToken = 0;
/// Every node: the distribution never arrived — produce the full rehash.
constexpr uint64_t kBloomFallbackToken = 1;

/// catalog::HashTupleCols of live row `row`'s `cols`, from the columns:
/// Column::CellHash is Value::Hash without the boxing.
uint64_t KeyHash(const exec::RowBatch& b, uint32_t row,
                 const std::vector<int>& cols) {
  uint64_t h = catalog::kHashTupleColsSeed;
  for (int c : cols) {
    h = HashCombine(h, c >= 0 && static_cast<size_t>(c) < b.num_columns()
                           ? b.column(static_cast<size_t>(c)).CellHash(row)
                           : 0);
  }
  return h;
}

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

/// The rendezvous join's key columns on `side`: semi-joins rehash key
/// projections [key values..., host, row id], keyed on their leading k
/// columns.
std::vector<int> RendezvousKeys(const OpNode& node, int side) {
  if (node.strategy != JoinStrategy::kSymmetricSemi) {
    return side == 0 ? node.left_keys : node.right_keys;
  }
  std::vector<int> keys(node.left_keys.size());
  std::iota(keys.begin(), keys.end(), 0);
  return keys;
}

}  // namespace

JoinStage::JoinStage(StageHost* host, uint64_t qid, uint32_t node_id,
                     const OpNode* node, const OpNode* left_scan,
                     const OpNode* right_scan, bool is_origin,
                     uint32_t origin_host, int swept_inputs)
    : host_(host),
      qid_(qid),
      node_id_(node_id),
      node_(node),
      left_scan_(left_scan),
      right_scan_(right_scan),
      is_origin_(is_origin),
      origin_host_(origin_host),
      join_(RendezvousKeys(*node, 0), RendezvousKeys(*node, 1)),
      scans_pending_(swept_inputs) {
  if (node_->strategy != JoinStrategy::kFetchMatches) {
    exchange_ = std::make_unique<RehashExchange>(host_, qid_, node_id_);
  }
  if (node_->strategy == JoinStrategy::kBloom) {
    for (auto& part : part_) {
      part = std::make_unique<BloomFilter>(kBloomBits, kBloomHashes);
    }
  }
}

const std::string& JoinStage::ns() const {
  return exchange_ != nullptr ? exchange_->ns() : kNoNamespace;
}

void JoinStage::InitOrigin() {
  if (node_->strategy != JoinStrategy::kBloom) return;
  collect_left_ = std::make_unique<BloomFilter>(kBloomBits, kBloomHashes);
  collect_right_ = std::make_unique<BloomFilter>(kBloomBits, kBloomHashes);
  host_->ScheduleStageTimer(host_->engine_options().bloom_wait, qid_,
                            node_id_, kBloomBroadcastToken);
}

bool JoinStage::Settled() const {
  // Every join sweeps an input here, so this also waits for Start.
  return scans_pending_ == 0 &&
         (node_->strategy != JoinStrategy::kBloom || phase2_done_) &&
         pending_matches_.empty() && pending_gets_ == 0 &&
         (exchange_ == nullptr || exchange_->puts().in_flight == 0);
}

JoinBooks JoinStage::books() const {
  JoinBooks b;
  b.join_node = node_id_;
  b.shipped = exchange_ != nullptr ? exchange_->puts().acked : 0;
  b.consumed = consumed_;
  return b;
}

uint64_t JoinStage::lost() const {
  return lost_ + (exchange_ != nullptr ? exchange_->puts().failed : 0);
}

void JoinStage::CloseWave(bool deadline) {
  if (!is_origin_ || collect_left_ == nullptr || wave_closed_) return;
  uint64_t expected = 0;
  bool covered = false;
  host_->QueryCoverage(qid_, &expected, &covered);
  // The origin's own part went straight into the collectors once its
  // scans were in. Parts come only from nodes the plan reached, so once
  // the senders and the origin number the covered members, every part is
  // in.
  const uint64_t reported = static_cast<uint64_t>(part_senders_.size()) +
                            (scans_pending_ == 0 ? 1 : 0);
  const bool complete = covered && expected > 0 && reported >= expected;
  if (!complete && !deadline) return;
  wave_closed_ = true;
  host_->BroadcastBloomFilters(qid_, node_id_, expected, reported, complete,
                               *collect_left_, *collect_right_);
}

void JoinStage::OnTimer(uint64_t token) {
  if (token == kBloomBroadcastToken) {
    // Collection window over with parts still missing: the wave goes out
    // flagged incomplete, and the edge runs the full rehash.
    CloseWave(/*deadline=*/true);
    return;
  }
  if (token == kBloomFallbackToken) {
    // No kBloomDist by the deadline (lost broadcast, partitioned origin):
    // this node's slices must still reach the rendezvous. Produce the full
    // unsuppressed rehash — the degraded-but-lossless baseline.
    if (wave_decided_) return;
    ++host_->mutable_stats()->bloom_dist_timeouts;
    wave_decided_ = true;
    MaybeProduceBloomPhase2();
  }
}

void JoinStage::Setup() {
  if (node_->strategy != JoinStrategy::kBloom) return;
  // Backstop for a lost distribution: twice the collection window gives
  // the origin's bloom_wait timer plus the broadcast hop ample slack, and
  // still lands well inside any sane result window.
  host_->ScheduleStageTimer(2 * host_->engine_options().bloom_wait, qid_,
                            node_id_, kBloomFallbackToken);
}

void JoinStage::Consume(int side, exec::RowBatch& b) {
  switch (node_->strategy) {
    case JoinStrategy::kSymmetricHash:
      // One frame per rendezvous owner per batch, instead of one DHT put
      // per tuple.
      exchange_->PublishBatch(side, keys(side), b);
      break;
    case JoinStrategy::kBloom:
      for (size_t i = 0; i < b.ActiveRows(); ++i) {
        part_[side]->Add(KeyHash(b, b.RowId(i), keys(side)));
      }
      held_[side].push_back(std::move(b));
      break;
    case JoinStrategy::kSymmetricSemi:
      RehashKeyProjection(side, b);
      break;
    case JoinStrategy::kFetchMatches:
      // Only the outer relation is scanned: the inner is probed by DHT get.
      ProbeMatches(b);
      break;
  }
}

void JoinStage::OnScanDone() {
  --scans_pending_;
  host_->OnJoinProgress(qid_);
  if (node_->strategy != JoinStrategy::kBloom || scans_pending_ != 0) return;
  // Phase 1 is whole: this node's part goes into the origin's union.
  if (is_origin_) {
    if (collect_left_ != nullptr) (void)collect_left_->UnionWith(*part_[0]);
    if (collect_right_ != nullptr) (void)collect_right_->UnionWith(*part_[1]);
  } else {
    Writer w;
    w.PutU8(static_cast<uint8_t>(MsgType::kBloomPart));
    BloomPartFrame frame;
    frame.qid = qid_;
    frame.join_node = node_id_;
    frame.left = std::move(*part_[0]);
    frame.right = std::move(*part_[1]);
    frame.Serialize(&w);
    ++host_->mutable_stats()->bloom_filters_sent;
    host_->SendQueryBytes(origin_host_, w);
  }
  part_[0].reset();
  part_[1].reset();
  CloseWave(/*deadline=*/false);
  MaybeProduceBloomPhase2();
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
  CloseWave(/*deadline=*/false);
}

void JoinStage::OnBloomDist(BloomDistFrame frame) {
  if (node_->strategy != JoinStrategy::kBloom || wave_decided_) return;
  wave_decided_ = true;
  if (frame.complete) {
    dist_left_ = std::make_unique<BloomFilter>(std::move(frame.left));
    dist_right_ = std::make_unique<BloomFilter>(std::move(frame.right));
  }
  // An incomplete wave leaves the dist filters null: phase 2 publishes
  // everything (full rehash). Degraded, never lossy.
  MaybeProduceBloomPhase2();
}

void JoinStage::MaybeProduceBloomPhase2() {
  if (!wave_decided_ || scans_pending_ > 0 || phase2_done_) return;
  phase2_done_ = true;
  for (int side : {0, 1}) {
    // Each side is suppressed by the other side's union.
    const BloomFilter* suppress =
        side == 0 ? dist_right_.get() : dist_left_.get();
    std::vector<exec::RowBatch> held = std::move(held_[side]);
    held_[side].clear();
    for (exec::RowBatch& b : held) {
      if (suppress != nullptr) {
        std::vector<uint32_t> kept;
        kept.reserve(b.ActiveRows());
        Tuple t;
        for (size_t i = 0; i < b.ActiveRows(); ++i) {
          const uint32_t row = b.RowId(i);
          if (suppress->MayContain(KeyHash(b, row, keys(side)))) {
            kept.push_back(row);
            continue;
          }
          ++host_->mutable_stats()->bloom_suppressed;
          b.ToTuple(row, &t);
          host_->mutable_stats()->bloom_bytes_saved +=
              catalog::TupleToBytes(t).size();
        }
        b.SetSelection(std::move(kept));
      }
      exchange_->PublishBatch(side, keys(side), b);
    }
  }
  host_->OnJoinProgress(qid_);
}

void JoinStage::RehashKeyProjection(int side, exec::RowBatch& b) {
  const std::vector<int>& cols = keys(side);
  const OpNode* scan = side == 0 ? left_scan_ : right_scan_;
  exec::RowBatchBuilder projs(SemiProjectionSchema(scan->schema, cols));
  projs.Reserve(b.ActiveRows());
  const uint32_t batch = static_cast<uint32_t>(shipped_.size());
  uint64_t saved = 0;
  Tuple t;
  for (size_t i = 0; i < b.ActiveRows(); ++i) {
    const uint32_t row = b.RowId(i);
    b.ToTuple(row, &t);
    shipped_rows_.emplace_back(batch, row);
    const uint64_t row_id = shipped_rows_.size();
    Tuple proj;
    proj.reserve(cols.size() + 2);
    for (int c : cols) {
      proj.push_back(c >= 0 && static_cast<size_t>(c) < t.size()
                         ? t[c]
                         : Value::Null());
    }
    proj.push_back(Value::Int64(host_->self_host()));
    proj.push_back(Value::Int64(static_cast<int64_t>(row_id)));
    size_t full = catalog::TupleToBytes(t).size();
    size_t slim = catalog::TupleToBytes(proj).size();
    if (full > slim) saved += full - slim;
    projs.Append(proj);
  }
  host_->mutable_stats()->semijoin_bytes_saved += saved;
  if (projs.Empty()) return;
  shipped_.push_back(std::move(b));
  // Key projections ride the batch plane exactly like the hash path: one
  // frame per rendezvous owner instead of one put per row.
  exchange_->PublishBatch(side, RendezvousKeys(*node_, side), projs.Take());
}

void JoinStage::ProbeMatches(const exec::RowBatch& b) {
  for (size_t i = 0; i < b.ActiveRows(); ++i) {
    Tuple probe;
    b.ToTuple(b.RowId(i), &probe);
    std::string resource = catalog::ResourceForCols(probe, node_->left_keys);
    ++host_->mutable_stats()->fetch_gets;
    ++pending_gets_;
    StageHost* host = host_;
    uint64_t qid = qid_;
    uint32_t node_id = node_id_;
    host_->dht()->GetVouched(
        right_scan_->table, resource,
        [host, qid, node_id, probe](
            Status s, std::vector<dht::DhtItem> items, bool vouched) {
          host->PostToStage(qid, node_id, [&](Stage* stage) {
            static_cast<JoinStage*>(stage)->OnProbeDone(s, vouched, probe,
                                                        items);
          });
        });
  }
}

void JoinStage::OnProbeDone(const Status& s, bool vouched, const Tuple& probe,
                            const std::vector<dht::DhtItem>& items) {
  --pending_gets_;
  if (s.ok()) ResolveFetchMatches(probe, items);
  // Out of retries, the probe's matches are gone; from an owner that could
  // not vouch for its range, they may be short.
  if (!s.ok() || !vouched) ++lost_;
  host_->OnJoinProgress(qid_);
}

bool JoinStage::InnerRowsOutOfReach() const {
  return node_->strategy == JoinStrategy::kFetchMatches &&
         host_->dht()->HoldsForeignPrimaries(right_scan_->table);
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

void JoinStage::OnArrival(const dht::StoredItem& item) {
  int side = 0;
  std::vector<Tuple> rows;
  if (RehashExchange::DecodeArrival(item, &side, &rows).ok()) {
    ++consumed_;
    for (const Tuple& t : rows) {
      join_.Insert(side, t, [this](const Tuple& joined) {
        HandleJoinOutput(joined);
      });
    }
  } else {
    // Its shipper's put was acked: the frame's rows are lost here.
    ++lost_;
  }
  host_->OnJoinProgress(qid_);
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
  EmitJoined(joined);
}

void JoinStage::EmitJoined(const Tuple& joined) {
  joined_.AssignRow(joined);
  downstream_(joined_);
}

void JoinStage::OnFetchReq(uint32_t /*from*/, Reader* r) {
  uint64_t match_id = 0, row_id = 0;
  uint8_t side = 0;
  uint32_t reply_to = 0;
  if (!r->GetVarint64(&match_id).ok() || !r->GetU8(&side).ok() ||
      !r->GetVarint64(&row_id).ok() || !r->GetFixed32(&reply_to).ok()) {
    return;
  }
  Writer w;
  w.PutU8(static_cast<uint8_t>(MsgType::kFetchResp));
  w.PutVarint64(qid_);
  w.PutVarint64(match_id);
  w.PutU8(side);
  const bool found = row_id >= 1 && row_id <= shipped_rows_.size();
  w.PutBool(found);
  if (found) {
    const auto [batch, row] = shipped_rows_[row_id - 1];
    Tuple t;
    shipped_[batch].ToTuple(row, &t);
    catalog::SerializeTuple(t, &w);
  }
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
    // The shipper no longer holds the row: the match is lost for good.
    pending_matches_.erase(pm);
    ++lost_;
    host_->OnJoinProgress(qid_);
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
    EmitJoined(joined);
    host_->OnJoinProgress(qid_);
  }
}

}  // namespace ops
}  // namespace query
}  // namespace pier
