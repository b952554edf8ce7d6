// Reproduces Figure 1 of "Querying at Internet Scale" (SIGMOD'04):
// a continuous SUM of outbound data rates over the nodes responding in each
// window, running on a 300-node deployment with churn.
//
// The paper's figure plots the aggregate rate over time as nodes come and
// go. Here each simulated node republishes its (drifting, noisy) outbound
// rate every 10 s with a 25 s TTL; the continuous query
//   SELECT SUM(out_kbps), COUNT(*) FROM node_stats
//   EVERY 10 SECONDS WINDOW 30 SECONDS
// re-evaluates per epoch. We print the measured series alongside the
// workload oracle so the tracking behaviour (the figure's shape) is visible.
//
// Usage: bench_figure1_continuous_sum [--json[=PATH]]
//   --json  merge mean_error, epochs, responders_per_alive (the mean over
//           epochs of responding nodes divided by alive nodes) and
//           wall_clock into the BENCH json (default BENCH_PR10.json).
// Exits nonzero unless at least 20 epochs report at under 20% mean error.

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <vector>

#include "common/bench_json.h"
#include "core/network.h"
#include "planner/planner.h"
#include "workload/workloads.h"

namespace pier {
namespace {

struct Figure1Metrics {
  size_t epochs = 0;
  double mean_error = 1.0;
  double responders_per_alive = 0;
};

int Run(Figure1Metrics* metrics) {
  const size_t kNodes = 300;
  core::PierNetworkOptions opts;
  opts.seed = 1007705;  // the paper's DOI suffix
  opts.node.router_kind = core::RouterKind::kChord;
  opts.node.engine.result_wait = Seconds(8);
  opts.node.engine.agg_hold_base = Millis(600);
  opts.join_stagger = Millis(100);

  std::printf("== Figure 1: continuous sum of outbound data rates ==\n");
  std::printf("nodes=%zu churn(mean session 300s, downtime 60s) ", kNodes);
  std::printf("query: SUM(out_kbps), COUNT(*) EVERY 10s WINDOW 30s\n\n");

  core::PierNetwork net(kNodes, opts);
  size_t joined = net.Boot(Seconds(90));
  std::printf("booted: %zu/%zu nodes joined\n", joined, kNodes);

  workload::TrafficOptions traffic_opts;
  workload::TrafficWorkload traffic(&net, traffic_opts, /*seed=*/99);
  traffic.Start();
  net.RunFor(Seconds(30));  // tables warm

  sim::ChurnOptions churn;
  churn.mean_session = Seconds(300);
  churn.mean_downtime = Seconds(60);
  churn.start_at = net.sim()->now() + Seconds(60);
  churn.stable_fraction = 0.3;
  net.EnableChurn(churn);

  struct Sample {
    double t;
    double measured_kbps;
    int64_t nodes;
    double oracle_kbps;
    size_t alive;
  };
  std::vector<Sample> series;

  auto r = planner::ExecuteSql(
      net.node(0)->query_engine(),
      "SELECT SUM(out_kbps) AS kbps, COUNT(*) AS nodes FROM node_stats "
      "EVERY 10 SECONDS WINDOW 30 SECONDS",
      [&](const query::ResultBatch& b) {
        if (b.rows.empty()) return;
        double kbps = 0;
        (void)b.rows[0][0].AsDouble(&kbps);
        int64_t nodes = 0;
        (void)b.rows[0][1].AsInt64(&nodes);
        series.push_back(Sample{ToSecondsF(net.sim()->now()), kbps, nodes,
                                traffic.OracleSumKbps(), net.alive_count()});
      });
  if (!r.ok()) {
    std::printf("query failed: %s\n", r.status().ToString().c_str());
    return 1;
  }

  net.RunFor(Seconds(300));  // five minutes of virtual time
  net.node(0)->query_engine()->Cancel(r.value());
  net.RunFor(Seconds(10));

  std::printf("\n# time_s\tsum_mbps\tresponding\toracle_mbps\talive\n");
  double err_sum = 0;
  size_t err_n = 0;
  double share_sum = 0;
  for (const Sample& s : series) {
    std::printf("%8.1f\t%8.2f\t%10" PRId64 "\t%8.2f\t%5zu\n", s.t,
                s.measured_kbps / 1000.0, s.nodes, s.oracle_kbps / 1000.0,
                s.alive);
    if (s.oracle_kbps > 0) {
      err_sum += std::abs(s.measured_kbps - s.oracle_kbps) / s.oracle_kbps;
      ++err_n;
    }
    if (s.alive > 0) {
      share_sum += static_cast<double>(s.nodes) / static_cast<double>(s.alive);
    }
  }
  double mean_err = err_n > 0 ? err_sum / static_cast<double>(err_n) : 1.0;
  metrics->epochs = series.size();
  metrics->mean_error = mean_err;
  metrics->responders_per_alive =
      series.empty() ? 0 : share_sum / static_cast<double>(series.size());
  std::printf("\nepochs reported: %zu; mean |relative error| vs oracle: %.1f%%\n",
              series.size(), 100.0 * mean_err);
  std::printf(
      "(window TTLs + churn mean the query counts *responding* nodes, as in "
      "the paper)\n");
  // The shape criterion: the continuous sum tracks the oracle within ~20%
  // and the responding-node count varies under churn.
  bool ok = series.size() >= 20 && mean_err < 0.20;
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace pier

int main(int argc, char** argv) {
  using namespace pier;
  bench::JsonOptions json = bench::ParseJsonFlag(argc, argv);
  Figure1Metrics metrics;
  bench::WallTimer timer;
  int rc = Run(&metrics);
  double wall = timer.Seconds();
  if (json.enabled) {
    bench::JsonReport report("bench_figure1_continuous_sum");
    report.Metric("wall_clock", wall, "s");
    report.Metric("epochs", static_cast<double>(metrics.epochs), "count");
    report.Metric("mean_error", metrics.mean_error, "ratio");
    report.Metric("responders_per_alive", metrics.responders_per_alive,
                  "ratio");
    if (!report.WriteMerged(json.path)) {
      std::printf("failed to write %s\n", json.path.c_str());
      return 1;
    }
    std::printf("merged metrics into %s (wall-clock %.2fs)\n",
                json.path.c_str(), wall);
  }
  return rc;
}
