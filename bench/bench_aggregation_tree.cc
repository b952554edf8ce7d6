// Ablation C: flat (direct-to-origin) vs. hierarchical (in-network tree)
// aggregation — the design decision at the heart of PIER's "multihop,
// in-network aggregation". The tree bounds the origin's fan-in: partials
// combine along the dissemination tree, so origin inbound messages should
// stay far below N, while the direct strategy scales linearly with N.
//
// Usage: bench_aggregation_tree [--json[=PATH]]
// Self-check (exit 1 on failure, all deterministic virtual time): both
// strategies count every node at every size, and the tree's origin receives
// fewer partial messages than the direct strategy's.

#include <cinttypes>
#include <cstdio>
#include <string>

#include "common/bench_json.h"
#include "core/network.h"
#include "planner/planner.h"
#include "workload/workloads.h"

namespace pier {
namespace {

struct RunResult {
  int64_t rows_seen = 0;
  uint64_t origin_msgs = 0;
};

RunResult RunOne(size_t n, query::AggStrategy strategy) {
  core::PierNetworkOptions opts;
  opts.seed = 808 + n;  // same data per size across strategies
  opts.node.router_kind = core::RouterKind::kChord;
  opts.node.engine.result_wait = Seconds(12);
  opts.node.engine.agg_hold_base = Millis(700);
  opts.join_stagger = Millis(100);
  core::PierNetwork net(n, opts);
  net.Boot(Seconds(60));

  // node_stats is partitioned by node id, so the relation is spread over
  // (nearly) every node and every node contributes a partial — the regime
  // where the aggregation-tree choice matters.
  workload::TrafficOptions traffic_opts;
  traffic_opts.flaky_fraction = 0;
  workload::TrafficWorkload traffic(&net, traffic_opts, /*seed=*/5);
  traffic.Start();
  net.RunFor(Seconds(30));

  query::QueryPlan plan;
  query::AddScan(&plan.graph, "node_stats",
                 workload::NodeStatsTable().schema);
  query::AppendTail(&plan.graph, nullptr,
                    query::AggNode({}, {{exec::AggFunc::kSum, 1, "kbps"},
                                        {exec::AggFunc::kCount, -1, "nodes"}}),
                    {}, strategy);

  TimePoint t0 = net.sim()->now();
  TimePoint t_done = 0;
  int64_t counted_nodes = 0;
  auto r = net.node(0)->query_engine()->Execute(
      plan, [&](const query::ResultBatch& b) {
        t_done = net.sim()->now();
        if (!b.rows.empty()) counted_nodes = b.rows[0][1].int64_value();
      });
  if (!r.ok()) return {};
  net.RunFor(Seconds(25));
  traffic.Stop();

  const auto& origin_stats = net.node(0)->query_engine()->stats();
  uint64_t total_partials = 0;
  for (size_t i = 0; i < net.size(); ++i) {
    total_partials += net.node(i)->query_engine()->stats().partial_msgs_sent;
  }
  std::printf("%6zu %-8s %10" PRId64 " %12" PRIu64 " %14" PRIu64 " %9.1f\n",
              n, query::AggStrategyName(strategy), counted_nodes,
              origin_stats.partial_msgs_received, total_partials,
              ToSecondsF(t_done - t0));
  return {counted_nodes, origin_stats.partial_msgs_received};
}

}  // namespace
}  // namespace pier

int main(int argc, char** argv) {
  pier::bench::JsonOptions json = pier::bench::ParseJsonFlag(argc, argv);
  pier::bench::JsonReport report("aggregation_tree");
  pier::bench::WallTimer timer;
  std::printf("== Ablation C: flat vs. in-network tree aggregation ==\n");
  std::printf("query: SELECT SUM(out_kbps), COUNT(*) FROM node_stats "
              "(every node holds + contributes data)\n\n");
  std::printf("%6s %-8s %10s %12s %14s %9s\n", "nodes", "strategy",
              "rows.seen", "origin.msgs", "total.partials", "time.s");
  bool ok = true;
  for (size_t n : {32, 64, 128, 256}) {
    pier::RunResult direct = pier::RunOne(n, pier::query::AggStrategy::kDirect);
    pier::RunResult tree = pier::RunOne(n, pier::query::AggStrategy::kTree);
    const int64_t nodes = static_cast<int64_t>(n);
    ok = ok && direct.rows_seen == nodes && tree.rows_seen == nodes &&
         tree.origin_msgs < direct.origin_msgs;
    const std::string size = std::to_string(n);
    report.Metric("direct_" + size + "_origin_msgs",
                  static_cast<double>(direct.origin_msgs), "count");
    report.Metric("tree_" + size + "_origin_msgs",
                  static_cast<double>(tree.origin_msgs), "count");
  }
  std::printf("\nexpected shape: direct origin.msgs ~= nodes; tree "
              "origin.msgs bounded by tree fan-in (<< nodes at scale)\n");
  double wall = timer.Seconds();
  std::printf("wall-clock: %.2fs  self-check: %s\n", wall,
              ok ? "OK" : "FAIL");
  report.Metric("wall_clock", wall, "s");
  if (json.enabled && !report.WriteMerged(json.path)) {
    std::fprintf(stderr, "failed to write %s\n", json.path.c_str());
    return 1;
  }
  if (!ok) {
    std::printf("FAIL: a strategy missed a node, or the tree's origin took "
                "no fewer partial messages than direct collection\n");
    return 1;
  }
  return 0;
}
