// Multi-way join bench: three-table join latency and traffic vs. node
// count, through the full SQL -> opgraph path.
//
// The planner chains two symmetric-hash joins (facts ⋈ dims ⋈ cats) and
// pushes the GROUP BY below the origin: partial aggregation runs at the
// final join's rendezvous nodes, and each ships its partial groups straight
// to the origin once its join has settled (the plan asks for
// AggStrategy::kTree, which only scan-fed aggregates use). The origin
// certifies the answer exact when the join's books balance and every
// partial frame a member claims is in. We report answer completeness, time
// to the result batch, bytes shipped network-wide, the rehash volume — the
// axis that grows with each added relation — and the partial frames the
// origin received. Gate (--json): the answer is certified exact within
// half the result window.

#include <cinttypes>
#include <cstdio>

#include "common/bench_json.h"
#include "core/network.h"
#include "planner/planner.h"
#include "workload/workloads.h"

namespace pier {
namespace {

using catalog::Schema;
using catalog::TableDef;
using catalog::Tuple;

constexpr int kFactRows = 360;
constexpr int kDimRows = 60;
constexpr int kCatRows = 8;

TableDef FactsTable() {
  TableDef def;
  def.name = "facts";
  def.schema = Schema("facts", {{"dim_id", ValueType::kInt64},
                                {"val", ValueType::kInt64}});
  def.partition_cols = {0};
  def.ttl = Seconds(3600);
  return def;
}

TableDef DimsTable() {
  TableDef def;
  def.name = "dims";
  def.schema = Schema("dims", {{"dim_id", ValueType::kInt64},
                               {"cat_id", ValueType::kInt64}});
  def.partition_cols = {0};
  def.ttl = Seconds(3600);
  return def;
}

TableDef CatsTable() {
  TableDef def;
  def.name = "cats";
  def.schema = Schema("cats", {{"cat_id", ValueType::kInt64},
                               {"name", ValueType::kString}});
  def.partition_cols = {0};
  def.ttl = Seconds(3600);
  return def;
}

uint64_t TotalBytes(core::PierNetwork& net) {
  return net.TotalBytesOut(overlay::Proto::kOverlay) +
         net.TotalBytesOut(overlay::Proto::kDht) +
         net.TotalBytesOut(overlay::Proto::kQuery) +
         net.TotalBytesOut(overlay::Proto::kBroadcast);
}

constexpr Duration kResultWait = Seconds(25);

struct MultiwayResult {
  bool ok = false;
  size_t groups = 0;
  int64_t expected_groups = 0;
  int64_t rows = 0;
  uint64_t traffic_bytes = 0;
  Duration answer = 0;
  bool exact = false;
};

MultiwayResult RunAt(size_t nodes) {
  MultiwayResult result;
  core::PierNetworkOptions opts;
  opts.seed = 2026;  // identical data at every scale
  opts.node.router_kind = core::RouterKind::kChord;
  opts.node.engine.result_wait = kResultWait;
  opts.node.engine.agg_hold_base = Millis(250);
  opts.join_stagger = Millis(100);
  core::PierNetwork net(nodes, opts);
  net.Boot(Seconds(60));

  workload::RegisterTableEverywhere(&net, FactsTable());
  workload::RegisterTableEverywhere(&net, DimsTable());
  workload::RegisterTableEverywhere(&net, CatsTable());

  // facts(dim_id, val) -> dims(dim_id, cat_id) -> cats(cat_id, name).
  // Deterministic contents so every scale computes the same reference.
  int64_t expected_groups = 0;
  {
    std::vector<bool> group_seen(kCatRows, false);
    for (int i = 0; i < kFactRows; ++i) {
      int dim = i % kDimRows;
      (void)net.node(i % nodes)->query_engine()->Publish(
          "facts", Tuple{Value::Int64(dim), Value::Int64(i)});
      if (!group_seen[dim % kCatRows]) {
        group_seen[dim % kCatRows] = true;
        ++expected_groups;
      }
    }
    for (int d = 0; d < kDimRows; ++d) {
      (void)net.node((d + 7) % nodes)->query_engine()->Publish(
          "dims", Tuple{Value::Int64(d), Value::Int64(d % kCatRows)});
    }
    for (int c = 0; c < kCatRows; ++c) {
      (void)net.node((c + 13) % nodes)->query_engine()->Publish(
          "cats", Tuple{Value::Int64(c),
                        Value::String("cat" + std::to_string(c))});
    }
  }
  net.RunFor(Seconds(15));

  uint64_t bytes_before = TotalBytes(net);
  TimePoint t0 = net.sim()->now();
  TimePoint t_done = 0;
  size_t got_groups = 0;
  int64_t got_rows = 0;
  bool exact = false;

  planner::PlannerOptions popts;
  popts.agg_strategy = query::AggStrategy::kTree;
  auto r = planner::ExecuteSql(
      net.node(0)->query_engine(),
      "SELECT c.name, SUM(f.val) AS total, COUNT(*) AS n "
      "FROM facts f, dims d, cats c "
      "WHERE f.dim_id = d.dim_id AND d.cat_id = c.cat_id "
      "GROUP BY c.name",
      [&](const query::ResultBatch& b) {
        got_groups = b.rows.size();
        got_rows = 0;
        for (const Tuple& t : b.rows) got_rows += t[2].int64_value();
        exact = b.completeness.exact;
        t_done = net.sim()->now();
      },
      popts);
  if (!r.ok()) {
    std::printf("%6zu  FAILED: %s\n", nodes, r.status().ToString().c_str());
    return result;
  }
  net.RunFor(Seconds(40));

  uint64_t bytes_after = TotalBytes(net);
  uint64_t rehash = 0;
  for (size_t i = 0; i < net.size(); ++i) {
    rehash += net.node(i)->query_engine()->stats().rehash_puts;
  }
  const uint64_t origin_partials =
      net.node(0)->query_engine()->stats().partial_msgs_received;
  std::printf("%6zu %8zu/%-8" PRId64 " %7" PRId64 "/%-8d %9.3f %6s %12.1f"
              " %10" PRIu64 " %11" PRIu64 "\n",
              nodes, got_groups, expected_groups, got_rows, kFactRows,
              ToSecondsF(t_done - t0), exact ? "yes" : "no",
              static_cast<double>(bytes_after - bytes_before) / 1024.0,
              rehash, origin_partials);
  result.ok = true;
  result.groups = got_groups;
  result.expected_groups = expected_groups;
  result.rows = got_rows;
  result.traffic_bytes = bytes_after - bytes_before;
  result.answer = t_done - t0;
  result.exact = exact;
  return result;
}

}  // namespace
}  // namespace pier

int main(int argc, char** argv) {
  using namespace pier;
  bench::JsonOptions json = bench::ParseJsonFlag(argc, argv);
  if (json.enabled) {
    // Perf-trajectory mode: the middle scale only, timed wall-clock.
    std::printf("== multiway join perf run: nodes=32 ==\n");
    bench::WallTimer timer;
    MultiwayResult r = RunAt(32);
    double wall = timer.Seconds();
    // The answer closes by count: certified exact well inside the window.
    bool ok = r.ok &&
              r.groups == static_cast<size_t>(r.expected_groups) &&
              r.rows == kFactRows && r.exact && r.answer < kResultWait / 2;
    std::printf("wall-clock: %.2fs  self-check: %s\n", wall,
                ok ? "OK" : "FAILED");
    bench::JsonReport report("bench_multiway_join");
    report.Metric("wall_clock", wall, "s");
    report.Metric("groups", static_cast<double>(r.groups), "count");
    report.Metric("rows", static_cast<double>(r.rows), "count");
    report.Metric("bytes_sent", static_cast<double>(r.traffic_bytes),
                  "bytes");
    report.Metric("answer_s", ToSecondsF(r.answer), "s");
    report.Metric("exact", r.exact ? 1.0 : 0.0, "bool");
    if (!report.WriteMerged(json.path)) {
      std::printf("failed to write %s\n", json.path.c_str());
      return 1;
    }
    std::printf("merged metrics into %s\n", json.path.c_str());
    return ok ? 0 : 1;
  }

  std::printf("== Multi-way join: facts ⋈ dims ⋈ cats, GROUP BY, "
              "in-network partial aggregation ==\n");
  std::printf("|facts|=%d |dims|=%d |cats|=%d; two chained symmetric-hash "
              "joins, partial agg at the rendezvous, partials straight to "
              "the origin\n\n",
              kFactRows, kDimRows, kCatRows);
  std::printf("%6s %17s %16s %9s %6s %12s %10s %11s\n", "nodes",
              "groups/expect", "rows/published", "time.s", "exact",
              "traffic.KiB", "rehashed", "origin.part");
  RunAt(16);
  RunAt(32);
  RunAt(48);
  std::printf("\nexpected shape: traffic and rehash grow with node count "
              "(every node scans+ships its slice); origin.part counts the "
              "partial-group frames the rendezvous shipped to the origin "
              "instead of raw joined rows; every answer certified exact in "
              "about a second\n");
  return 0;
}
