#include "testkit/oracle.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "exec/operators.h"

namespace pier {
namespace testkit {

using catalog::Tuple;
using query::OpGraph;
using query::OpNode;
using query::OpType;

namespace {

/// Snapshot of one relation: the union of every alive node's *readable*
/// local slice — the same primary-or-failed-over-replica rule the scan
/// stages apply, so the oracle is exactly "a lossless execution of the
/// system's own read semantics". Deduplicated by (resource, instance) for
/// the transient windows where two nodes both believe they own a key.
std::vector<Tuple> CollectTable(core::PierNetwork& net,
                                const query::OpNode& scan) {
  std::set<std::pair<std::string, uint64_t>> seen;
  std::vector<Tuple> rows;
  for (size_t i = 0; i < net.size(); ++i) {
    core::PierNode* node = net.node(i);
    if (!node->alive()) continue;
    node->dht()->ForEachLocalReadable(
        scan.table, [&](const dht::StoredItem& item) {
          if (seen.insert({item.key.resource, item.key.instance}).second) {
            Tuple t;
            // Mirror the scan sweep's arity filter: a stored blob that
            // decodes to the wrong width is dropped by the system and must
            // not inflate the ground truth either.
            if (catalog::TupleFromBytes(item.value, &t).ok() &&
                t.size() == scan.schema.num_columns()) {
              rows.push_back(std::move(t));
            }
          }
          return true;
        });
  }
  return rows;
}

}  // namespace

Result<std::vector<Tuple>> OracleEvaluate(core::PierNetwork& net,
                                          const query::QueryPlan& plan) {
  const OpGraph& g = plan.graph;
  PIER_RETURN_IF_ERROR(g.Validate());
  if (g.Has(OpType::kRecurse)) {
    return Status::NotSupported("oracle: recursive graphs are not scored");
  }
  if (plan.window > 0) {
    // Windowed scans filter on per-copy arrival time (stored_at), which
    // differs across replicas and nodes — there is no single central
    // ground truth to score against.
    return Status::NotSupported("oracle: windowed scans are not scored");
  }

  // Materialize each node's output in topological (storage) order. The
  // whole evaluation is single-process: the answer the network *should*
  // converge to if no message were ever lost.
  std::vector<std::vector<Tuple>> out(g.nodes.size());
  for (size_t id = 0; id < g.nodes.size(); ++id) {
    const OpNode& node = g.nodes[id];
    switch (node.type) {
      case OpType::kScan:
        out[id] = CollectTable(net, node);
        break;
      case OpType::kIndexScan: {
        // Ground truth for an index scan: the same readable base slices a
        // broadcast scan would read, restricted to the node's closed value
        // range. The distributed path reads a SUPERSET of this range from
        // trie leaves and re-filters, and the exact-predicate kFilter that
        // always follows makes both sides converge to identical rows.
        std::vector<Tuple> rows = CollectTable(net, node);
        for (const Tuple& t : rows) {
          if (static_cast<size_t>(node.index_col) >= t.size()) continue;
          const Value& v = t[static_cast<size_t>(node.index_col)];
          if (v.is_null()) continue;  // range predicates never match NULL
          if (!node.index_lo.is_null() && v.Compare(node.index_lo) < 0) {
            continue;
          }
          if (!node.index_hi.is_null() && v.Compare(node.index_hi) > 0) {
            continue;
          }
          out[id].push_back(t);
        }
        break;
      }
      case OpType::kFilter:
        if (node.predicate != nullptr) {
          out[id] = exec::Filter(*node.predicate, out[node.inputs[0]]);
        }
        break;
      case OpType::kProject:
        // A row whose expression errors projects NULL there, as the
        // engine's projection kernels do.
        out[id] = exec::Project(node.exprs, out[node.inputs[0]]);
        break;
      case OpType::kJoin: {
        exec::SymmetricHashJoin join(node.left_keys, node.right_keys);
        auto keep = [&out, id](const Tuple& t) { out[id].push_back(t); };
        for (const Tuple& t : out[node.inputs[0]]) join.Insert(0, t, keep);
        for (const Tuple& t : out[node.inputs[1]]) join.Insert(1, t, keep);
        break;
      }
      case OpType::kPartialAgg:
        // The engine splits aggregation into partial states and their
        // merge; the oracle checks that split, so it does not reuse it.
        // Its input rows pass through to the final aggregate, which folds
        // them once: over one partition, partial-then-final is that fold.
        out[id] = std::move(out[node.inputs[0]]);
        break;
      case OpType::kFinalAgg: {
        exec::GroupBy gb(node.group_cols, node.aggs);
        for (const Tuple& t : out[node.inputs[0]]) gb.Push(t);
        out[id] = gb.Drain();
        if (node.group_cols.empty() && out[id].empty()) {
          out[id].push_back(exec::AggIdentityRow(node.aggs));
        }
        if (node.having != nullptr) {
          out[id] = exec::Filter(*node.having, std::move(out[id]));
        }
        break;
      }
      case OpType::kCollect: {
        std::vector<Tuple> rows = out[node.inputs[0]];
        bool aggregated = g.nodes[node.inputs[0]].type == OpType::kFinalAgg;
        if (aggregated && !node.final_projection.empty()) {
          for (Tuple& t : rows) {
            Tuple permuted;
            permuted.reserve(node.final_projection.size());
            for (int c : node.final_projection) {
              permuted.push_back(c >= 0 && static_cast<size_t>(c) < t.size()
                                     ? t[c]
                                     : Value::Null());
            }
            t = std::move(permuted);
          }
        }
        if (node.distinct) rows = exec::Distinct(std::move(rows));
        if (node.order_col >= 0) {
          size_t k = node.limit >= 0 ? static_cast<size_t>(node.limit)
                                     : rows.size();
          rows = exec::TopK(std::move(rows), node.order_col, node.order_desc,
                            k);
        } else if (node.limit >= 0 &&
                   rows.size() > static_cast<size_t>(node.limit)) {
          rows.resize(static_cast<size_t>(node.limit));
        }
        out[id] = std::move(rows);
        break;
      }
      case OpType::kRecurse:
        return Status::NotSupported("oracle: recursive graphs");
    }
  }
  return std::move(out.back());
}

OracleScore ScoreAnswer(const std::vector<Tuple>& oracle,
                        const std::vector<Tuple>& answer) {
  OracleScore score;
  score.oracle_rows = oracle.size();
  score.answer_rows = answer.size();
  std::map<std::string, size_t> counts;
  for (const Tuple& t : oracle) ++counts[catalog::TupleToBytes(t)];
  for (const Tuple& t : answer) {
    auto it = counts.find(catalog::TupleToBytes(t));
    if (it != counts.end() && it->second > 0) {
      --it->second;
      ++score.matched;
    }
  }
  score.recall = oracle.empty()
                     ? 1.0
                     : static_cast<double>(score.matched) /
                           static_cast<double>(oracle.size());
  score.precision = answer.empty()
                        ? 1.0
                        : static_cast<double>(score.matched) /
                              static_cast<double>(answer.size());
  return score;
}

std::string OracleScore::ToString() const {
  char buf[128];
  snprintf(buf, sizeof(buf),
           "oracle=%zu answer=%zu matched=%zu recall=%.3f precision=%.3f",
           oracle_rows, answer_rows, matched, recall, precision);
  return buf;
}

}  // namespace testkit
}  // namespace pier
