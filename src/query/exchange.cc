#include "query/exchange.h"

#include <map>

#include "dht/key.h"

namespace pier {
namespace query {

using catalog::Tuple;

namespace {
/// TTL on rehashed temp tuples: they die with the query's namespaces at
/// teardown, so this only bounds what a crashed query leaves behind.
constexpr Duration kTempTtl = Seconds(90);
}  // namespace

RehashExchange::RehashExchange(ops::StageHost* host, uint64_t qid,
                               uint32_t edge_id)
    : host_(host), qid_(qid), ns_(NamespaceFor(qid, edge_id)) {}

RehashExchange::RehashExchange(ops::StageHost* host, uint64_t qid,
                               std::string ns)
    : host_(host), qid_(qid), ns_(std::move(ns)) {}

std::string RehashExchange::NamespaceFor(uint64_t qid, uint32_t edge_id) {
  return "q" + std::to_string(qid) + ".x" + std::to_string(edge_id);
}

void RehashExchange::PublishValue(const std::string& resource,
                                  std::string value) {
  uint64_t instance =
      (static_cast<uint64_t>(host_->self_host()) << 32) | seq_++;
  // Temp tuples skip replication: cheap to recreate, dead within the query.
  // The non-null callback makes the put acked and retried (the DHT's own
  // retry plane), so a single lost message no longer drops join state; the
  // owner-side arrival dedupe absorbs any retry duplicates. The owner
  // hands an arrival to its join (or stores it for the join's catch-up)
  // before it acks, so an acked put is on the consumer's books before it
  // is on ours.
  ++puts_->in_flight;
  host_->dht()->PutEx(dht::DhtKey{ns_, resource, instance}, std::move(value),
                      kTempTtl, /*replicate=*/false,
                      [puts = puts_, host = host_, qid = qid_](Status s) {
                        --puts->in_flight;
                        if (s.ok()) {
                          ++puts->acked;
                        } else {
                          ++puts->failed;
                          ++host->mutable_stats()->rehash_put_failures;
                        }
                        host->OnJoinProgress(qid);
                      });
}

void RehashExchange::PublishBatch(int side, const std::vector<int>& key_cols,
                                  const exec::RowBatch& b) {
  // The same resource bytes catalog::ResourceForCols builds from the boxed
  // row: Column::CellHash is Value::Hash without the boxing.
  std::map<std::string, std::vector<uint32_t>> buckets;
  for (size_t i = 0; i < b.ActiveRows(); ++i) {
    const uint32_t row = b.RowId(i);
    Writer w;
    w.Reserve(key_cols.size() * 8);
    for (int c : key_cols) {
      w.PutFixed64(c >= 0 && static_cast<size_t>(c) < b.num_columns()
                       ? b.column(static_cast<size_t>(c)).CellHash(row)
                       : catalog::kMissingColumnHash);
    }
    buckets[w.Release()].push_back(row);
  }
  for (const auto& [resource, rows] : buckets) {
    // One frame is one DHT put regardless of row count, so it charges one
    // unit — the budget caps network operations, not rows.
    if (!host_->ChargeRehashPuts(qid_, 1)) continue;
    Writer w;
    w.PutU8(static_cast<uint8_t>(side));
    if (buckets.size() == 1) {
      b.Encode(&w);  // every live row shares this owner: no copy
    } else {
      b.Gather(rows).Encode(&w);
    }
    ++host_->mutable_stats()->rehash_puts;
    PublishValue(resource, w.Release());
  }
}

Status RehashExchange::DecodeArrival(const dht::StoredItem& item, int* side,
                                     std::vector<Tuple>* rows) {
  Reader r(item.value);
  uint8_t s = 0;
  PIER_RETURN_IF_ERROR(r.GetU8(&s));
  if (s > 1) return Status::Corruption("bad exchange side");
  PIER_RETURN_IF_ERROR(exec::RowBatch::DecodeRows(&r, rows));
  *side = s;
  return Status::OK();
}

}  // namespace query
}  // namespace pier
