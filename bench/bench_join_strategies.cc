// Ablation B: the four PIER distributed join strategies, plus the planner.
//
// Part 1 reproduces the design-space comparison from the PIER papers:
// symmetric hash (rehash both sides), fetch matches (probe the
// pre-partitioned inner), symmetric semi-join (rehash keys + ids, fetch
// matched tuples), and Bloom join (filter both sides before rehash). We
// report answer completeness, latency, and — the interesting axis — bytes
// shipped, under a low-match workload where semi/Bloom strategies win on
// traffic.
//
// Part 2 takes the caller out of the loop: the same join planned twice from
// SQL, once against a catalog with no statistics (the planner must stay on
// the conservative symmetric hash) and once against a catalog whose
// TableStats declare the cardinalities and key domain (the planner's cost
// model picks the cheap shipping strategy itself). Gates: every run returns
// the exact join answer, certified exact by the engine within half the
// result window (joins close by count: members report their rehash books),
// and the stats-driven plan moves >=5x fewer query-plane bytes (DHT rehash
// + direct engine frames) than the stats-blind plan.

#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "common/bench_json.h"
#include "core/network.h"
#include "planner/planner.h"
#include "query/plan.h"
#include "sql/parser.h"
#include "workload/workloads.h"

namespace pier {
namespace {

using catalog::Schema;
using catalog::TableDef;
using catalog::Tuple;

constexpr size_t kNodes = 48;
constexpr int kLeftRows = 400;
constexpr int kRightRows = 400;
// Sparse keys: ~400*400/20000 = 8 expected matches. At this match rate the
// 2 KiB payloads are almost all wasted shipping under symmetric hash.
constexpr int kKeySpace = 20000;
constexpr size_t kPayloadBytes = 2048;
constexpr Duration kResultWait = Seconds(20);

TableDef MakeTable(const std::string& name, bool with_stats) {
  TableDef def;
  def.name = name;
  def.schema = Schema(name, {{"k", ValueType::kInt64},
                             {"payload", ValueType::kString}});
  def.partition_cols = {0};
  def.ttl = Seconds(3600);
  if (with_stats) {
    // Application-declared estimates, as PIER's catalog-less design
    // intends: row count, serialized width, and the key's value domain
    // (distinct_per_col declares selectivity, so it names the domain the
    // keys are drawn from, not the sample's distinct count).
    def.stats.row_count = kLeftRows;
    def.stats.avg_tuple_bytes =
        static_cast<uint32_t>(kPayloadBytes + 16);
    def.stats.distinct_per_col = {kKeySpace, 1};
  }
  return def;
}

struct RunResult {
  bool ok = false;
  size_t got = 0;
  int64_t expected = 0;
  /// The engine certified the answer exact.
  bool exact = false;
  double seconds = 0;
  uint64_t query_plane_bytes = 0;  // kDht + kQuery deltas over the run
  uint64_t total_bytes = 0;        // + overlay and broadcast planes
  uint64_t rehash = 0, fetches = 0, suppressed = 0;
  std::string planned;  // EXPLAIN join line ("planner" runs only)
};

/// One measured execution. `strategy` (caller knob) and `via_planner`
/// (SQL -> PlanStatement, strategy left at default) are mutually exclusive
/// paths; `with_stats` controls whether the catalog carries TableStats.
RunResult RunJoin(query::JoinStrategy strategy, bool via_planner,
                  bool with_stats) {
  RunResult out;
  core::PierNetworkOptions opts;
  opts.seed = 4242;  // identical data and topology for every run
  opts.node.router_kind = core::RouterKind::kChord;
  opts.node.engine.result_wait = kResultWait;
  opts.node.engine.bloom_wait = Seconds(5);
  opts.join_stagger = Millis(100);
  core::PierNetwork net(kNodes, opts);
  net.Boot(Seconds(60));

  workload::RegisterTableEverywhere(&net, MakeTable("r_tab", with_stats));
  workload::RegisterTableEverywhere(&net, MakeTable("s_tab", with_stats));
  Rng rng(7);
  std::string payload(kPayloadBytes, 'x');
  std::vector<int> left_keys(kKeySpace, 0), right_keys(kKeySpace, 0);
  for (int i = 0; i < kLeftRows; ++i) {
    int key = static_cast<int>(rng.NextBelow(kKeySpace));
    ++left_keys[key];
    Tuple t{Value::Int64(key), Value::String(payload)};
    (void)net.node(i % kNodes)->query_engine()->Publish("r_tab", t);
  }
  for (int i = 0; i < kRightRows; ++i) {
    int key = static_cast<int>(rng.NextBelow(kKeySpace));
    ++right_keys[key];
    Tuple t{Value::Int64(key), Value::String(payload)};
    (void)net.node((i + 11) % kNodes)->query_engine()->Publish("s_tab", t);
  }
  for (int k = 0; k < kKeySpace; ++k) {
    out.expected += static_cast<int64_t>(left_keys[k]) * right_keys[k];
  }
  net.RunFor(Seconds(15));

  // Rehash puts are routed through the chord overlay (kOverlay carries the
  // forwarded put frames; kDht only the direct acks), so the query-plane
  // delta must span all three planes the dataflow touches. Ring maintenance
  // rides kOverlay too, at a constant steady-state rate in the deterministic
  // sim — so an idle calibration window of the same length as the query
  // window measures the noise floor exactly, and the per-strategy delta
  // subtracts it out.
  auto query_plane = [&net] {
    return net.TotalBytesOut(overlay::Proto::kDht) +
           net.TotalBytesOut(overlay::Proto::kQuery) +
           net.TotalBytesOut(overlay::Proto::kOverlay);
  };
  uint64_t calib_start = query_plane();
  net.RunFor(Seconds(40));
  uint64_t noise_floor = query_plane() - calib_start;

  uint64_t qp_before = query_plane();
  uint64_t all_before = qp_before +
                        net.TotalBytesOut(overlay::Proto::kBroadcast);

  query::QueryPlan plan;
  if (via_planner) {
    // The planner owns the strategy. prefer_fetch_matches is off so the
    // partitioning short-circuit (r/s are partitioned on k) does not mask
    // the statistics-driven choice this bench measures.
    planner::PlannerOptions popts;
    popts.prefer_fetch_matches = false;
    auto parsed = sql::Parse(
        "SELECT r.k FROM r_tab r, s_tab s WHERE r.k = s.k");
    if (!parsed.ok()) return out;
    auto planned = planner::PlanStatement(
        parsed.value(), *net.node(0)->query_engine()->catalog(), popts);
    if (!planned.ok()) return out;
    plan = std::move(planned).value();
    // Pull the join line out of the EXPLAIN rendering for the report.
    std::string expl = plan.graph.ToString();
    size_t at = expl.find("join[");
    if (at != std::string::npos) {
      out.planned = expl.substr(at, expl.find(']', at) + 1 - at);
    }
  } else {
    query::AddJoin(
        &plan.graph,
        query::AddScan(&plan.graph, "r_tab", MakeTable("r_tab", false).schema),
        "s_tab", MakeTable("s_tab", false).schema, strategy, {0}, {0});
    query::AppendTail(&plan.graph, nullptr,
                      query::ProjectNode({exec::Expr::Column(0)}));
  }

  TimePoint t0 = net.sim()->now();
  TimePoint t_done = 0;
  auto r = net.node(0)->query_engine()->Execute(
      plan, [&](const query::ResultBatch& b) {
        out.got = b.rows.size();
        out.exact = b.completeness.exact;
        t_done = net.sim()->now();
      });
  if (!r.ok()) {
    std::printf("execute FAILED: %s\n", r.status().ToString().c_str());
    return out;
  }
  net.RunFor(Seconds(40));
  out.seconds = ToSecondsF(t_done - t0);

  uint64_t qp_after = query_plane();
  uint64_t all_after = qp_after +
                       net.TotalBytesOut(overlay::Proto::kBroadcast);
  uint64_t qp_delta = qp_after - qp_before;
  out.query_plane_bytes = qp_delta > noise_floor ? qp_delta - noise_floor : 0;
  out.total_bytes = all_after - all_before;
  for (size_t i = 0; i < net.size(); ++i) {
    const auto& st = net.node(i)->query_engine()->stats();
    out.rehash += st.rehash_puts;
    out.fetches += st.fetch_gets + st.semijoin_fetches;
    out.suppressed += st.bloom_suppressed;
  }
  out.ok = true;
  return out;
}

void PrintRow(const char* label, const RunResult& r) {
  std::printf("%-18s %8zu/%-8" PRId64 " %9.2f %6s %12.1f %10" PRIu64
              " %9" PRIu64 " %10" PRIu64 "\n",
              label, r.got, r.expected, r.seconds, r.exact ? "yes" : "no",
              static_cast<double>(r.query_plane_bytes) / 1024.0, r.rehash,
              r.fetches, r.suppressed);
}

/// The exact join answer, certified exact, within half the result window.
bool Certified(const RunResult& r) {
  return r.ok && static_cast<int64_t>(r.got) == r.expected && r.exact &&
         r.seconds < ToSecondsF(kResultWait) / 2;
}

}  // namespace
}  // namespace pier

int main(int argc, char** argv) {
  using pier::query::JoinStrategy;
  pier::bench::JsonOptions json = pier::bench::ParseJsonFlag(argc, argv);
  pier::bench::JsonReport report("join_strategies");

  std::printf("== Ablation B: distributed join strategies ==\n");
  std::printf("nodes=%zu |R|=%d |S|=%d keyspace=%d payload=%zuB "
              "(low match rate)\n\n",
              pier::kNodes, pier::kLeftRows, pier::kRightRows,
              pier::kKeySpace, pier::kPayloadBytes);
  std::printf("%-18s %17s %9s %6s %12s %10s %9s %10s\n", "strategy",
              "results/expected", "time.s", "exact", "qplane.KiB",
              "rehashed", "fetches", "bloom.cut");

  bool exact = true;
  const JoinStrategy kAll[] = {
      JoinStrategy::kSymmetricHash, JoinStrategy::kFetchMatches,
      JoinStrategy::kSymmetricSemi, JoinStrategy::kBloom};
  for (JoinStrategy s : kAll) {
    pier::RunResult r = pier::RunJoin(s, /*via_planner=*/false,
                                      /*with_stats=*/false);
    PrintRow(pier::query::JoinStrategyName(s), r);
    exact = exact && pier::Certified(r);
    report.Metric(std::string(pier::query::JoinStrategyName(s)) +
                      "_qplane_bytes",
                  static_cast<double>(r.query_plane_bytes), "bytes");
    report.Metric(std::string(pier::query::JoinStrategyName(s)) + "_answer_s",
                  r.seconds, "s");
  }

  // Part 2: the planner picks. Same SQL, only the catalog differs.
  pier::RunResult blind = pier::RunJoin(JoinStrategy::kSymmetricHash,
                                        /*via_planner=*/true,
                                        /*with_stats=*/false);
  pier::RunResult informed = pier::RunJoin(JoinStrategy::kSymmetricHash,
                                           /*via_planner=*/true,
                                           /*with_stats=*/true);
  std::printf("\n");
  PrintRow("planner/no-stats", blind);
  PrintRow("planner/stats", informed);
  std::printf("\nplanner chose without stats: %s, with stats: %s\n",
              blind.planned.c_str(), informed.planned.c_str());

  exact = exact && pier::Certified(blind) && pier::Certified(informed);
  double reduction =
      informed.query_plane_bytes > 0
          ? static_cast<double>(blind.query_plane_bytes) /
                static_cast<double>(informed.query_plane_bytes)
          : 0.0;
  std::printf("query-plane bytes: %.1f KiB (stats-blind) vs %.1f KiB "
              "(stats-driven) = %.1fx reduction\n",
              static_cast<double>(blind.query_plane_bytes) / 1024.0,
              static_cast<double>(informed.query_plane_bytes) / 1024.0,
              reduction);
  report.Metric("planner_blind_qplane_bytes",
                static_cast<double>(blind.query_plane_bytes), "bytes");
  report.Metric("planner_stats_qplane_bytes",
                static_cast<double>(informed.query_plane_bytes), "bytes");
  report.Metric("planner_bytes_reduction", reduction, "x");
  report.Metric("planner_blind_answer_s", blind.seconds, "s");
  report.Metric("planner_stats_answer_s", informed.seconds, "s");
  if (json.enabled && !report.WriteMerged(json.path)) {
    std::fprintf(stderr, "failed to write %s\n", json.path.c_str());
    return 1;
  }

  // Gates: exact answers everywhere, each certified within half the result
  // window; the informed planner must not stay on symmetric hash; and its
  // plan must move >=5x fewer query-plane bytes.
  if (!exact) {
    std::printf("FAIL: a strategy returned a wrong or incomplete answer, or "
                "one not certified exact within %.0f s\n",
                pier::ToSecondsF(pier::kResultWait) / 2);
    return 1;
  }
  if (informed.planned.find("hash") != std::string::npos ||
      informed.planned.empty()) {
    std::printf("FAIL: stats-driven planner stayed on %s\n",
                informed.planned.c_str());
    return 1;
  }
  if (reduction < 5.0) {
    std::printf("FAIL: stats-driven plan saved only %.1fx (need >=5x)\n",
                reduction);
    return 1;
  }
  std::printf("OK: planner-selected %s at equal recall, %.1fx fewer bytes\n",
              informed.planned.c_str(), reduction);
  return 0;
}
