// Ablation D: continuous-query answer quality under churn.
//
// The paper demonstrates PIER under real PlanetLab dynamism: the continuous
// sum counts whichever nodes respond each window. We sweep churn intensity
// (mean session length) and measure coverage (responding nodes / alive
// nodes) and the relative error of the measured sum against the workload
// oracle.
//
// Usage: bench_churn [--json=PATH] [--nodes=N] [--seed=N]
//   --json=PATH  one medium-churn run (1,000 nodes by default), merged into
//                the perf-trajectory file; exits nonzero unless coverage
//                stays above 30%
//   --nodes=N    overlay size (default 128, or 1,000 with --json)
//   --seed=N     simulation seed (default 555)

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/bench_json.h"
#include "core/network.h"
#include "planner/planner.h"
#include "workload/workloads.h"

namespace pier {
namespace {

struct ChurnResult {
  size_t epochs = 0;
  double mean_coverage = 0;
  double mean_rel_err = 0;
  size_t alive_end = 0;
  uint64_t bytes_sent = 0;
  bool ok = false;
};

ChurnResult RunChurn(size_t nodes, uint64_t seed, Duration mean_session,
                     Duration query_span, const char* label) {
  const size_t kNodes = nodes;
  ChurnResult result;
  core::PierNetworkOptions opts;
  opts.seed = seed;
  opts.node.router_kind = core::RouterKind::kChord;
  opts.node.engine.result_wait = Seconds(8);
  opts.node.engine.agg_hold_base = Millis(600);
  opts.join_stagger = Millis(100);
  core::PierNetwork net(kNodes, opts);
  net.Boot(Seconds(60));

  workload::TrafficOptions traffic_opts;
  traffic_opts.flaky_fraction = 0;  // churn is the only disturbance
  workload::TrafficWorkload traffic(&net, traffic_opts, /*seed=*/3);
  traffic.Start();
  net.RunFor(Seconds(30));

  if (mean_session > 0) {
    sim::ChurnOptions churn;
    churn.mean_session = mean_session;
    churn.mean_downtime = Seconds(30);
    churn.start_at = net.sim()->now();
    net.EnableChurn(churn);
  }

  std::vector<double> coverage, rel_err;
  auto r = planner::ExecuteSql(
      net.node(0)->query_engine(),
      "SELECT SUM(out_kbps) AS kbps, COUNT(*) AS nodes FROM node_stats "
      "EVERY 10 SECONDS WINDOW 30 SECONDS",
      [&](const query::ResultBatch& b) {
        if (b.rows.empty()) return;
        double kbps = 0;
        int64_t nodes = 0;
        (void)b.rows[0][0].AsDouble(&kbps);
        (void)b.rows[0][1].AsInt64(&nodes);
        double alive = static_cast<double>(net.alive_count());
        double oracle = traffic.OracleSumKbps();
        if (alive > 0) {
          coverage.push_back(static_cast<double>(nodes) / alive);
        }
        if (oracle > 0) {
          rel_err.push_back(std::abs(kbps - oracle) / oracle);
        }
      });
  if (!r.ok()) return result;
  net.RunFor(query_span);
  net.node(0)->query_engine()->Cancel(r.value());
  net.RunFor(Seconds(10));

  auto mean = [](const std::vector<double>& v) {
    double s = 0;
    for (double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
  };
  result.epochs = coverage.size();
  result.mean_coverage = mean(coverage);
  result.mean_rel_err = mean(rel_err);
  result.alive_end = net.alive_count();
  result.bytes_sent = net.net()->stats().bytes_sent;
  result.ok = true;
  std::printf("%-14s %7zu %10.1f%% %10.1f%% %8zu\n", label, result.epochs,
              100.0 * result.mean_coverage, 100.0 * result.mean_rel_err,
              result.alive_end);
  return result;
}

}  // namespace
}  // namespace pier

int main(int argc, char** argv) {
  using namespace pier;
  bench::JsonOptions json = bench::ParseJsonFlag(argc, argv);
  size_t nodes = json.enabled ? 1000 : 128;
  uint64_t seed = 555;
  for (const std::string& arg : json.args) {
    if (arg.rfind("--nodes=", 0) == 0) nodes = std::stoul(arg.substr(8));
    if (arg.rfind("--seed=", 0) == 0) seed = std::stoull(arg.substr(7));
  }

  if (json.enabled) {
    // Perf-trajectory mode: one representative run (medium churn) at scale,
    // timed wall-clock. The self-check is answer quality, never timing.
    std::printf("== churn perf run: nodes=%zu, seed=%llu, medium churn "
                "(180s) ==\n",
                nodes, static_cast<unsigned long long>(seed));
    std::printf("%-14s %7s %11s %11s %8s\n", "churn", "epochs", "coverage",
                "sum.err", "alive@end");
    bench::WallTimer timer;
    ChurnResult r =
        RunChurn(nodes, seed, Seconds(180), Seconds(120), "medium(180s)");
    double wall = timer.Seconds();
    bool ok = r.ok && r.epochs > 0 && r.mean_coverage > 0.3;
    std::printf("\nwall-clock: %.2fs  self-check: %s\n", wall,
                ok ? "OK" : "FAILED");
    bench::JsonReport report("bench_churn");
    report.Metric("nodes", static_cast<double>(nodes), "count");
    report.Metric("wall_clock", wall, "s");
    report.Metric("epochs", static_cast<double>(r.epochs), "count");
    report.Metric("coverage", r.mean_coverage, "fraction");
    report.Metric("bytes_sent", static_cast<double>(r.bytes_sent), "bytes");
    if (!report.WriteMerged(json.path)) {
      std::printf("failed to write %s\n", json.path.c_str());
      return 1;
    }
    std::printf("merged metrics into %s\n", json.path.c_str());
    return ok ? 0 : 1;
  }

  std::printf("== Ablation D: continuous aggregates under churn ==\n");
  std::printf("nodes=%zu, seed=%llu, 10s epochs for 4 virtual minutes\n\n",
              nodes, static_cast<unsigned long long>(seed));
  std::printf("%-14s %7s %11s %11s %8s\n", "churn", "epochs", "coverage",
              "sum.err", "alive@end");
  RunChurn(nodes, seed, 0, Seconds(240), "none");
  RunChurn(nodes, seed, Seconds(600), Seconds(240), "mild(600s)");
  RunChurn(nodes, seed, Seconds(180), Seconds(240), "medium(180s)");
  RunChurn(nodes, seed, Seconds(60), Seconds(240), "heavy(60s)");
  std::printf("\nexpected shape: coverage and accuracy degrade gracefully — "
              "the query keeps answering over responding nodes\n");
  return 0;
}
