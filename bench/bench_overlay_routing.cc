// Ablation A: DHT lookup cost vs. network size.
//
// PIER's scalability story rests on O(log n) overlay routing. We sweep ring
// sizes, issue uniform-random lookups from random nodes, and report hop
// counts and latency — the expected log2(n)/2 growth should be visible. The
// ring's upkeep is measured apart, over a quiet window after the lookups
// have drained: `kOverlay` messages and bytes sent per node per virtual
// second, with neither boot nor the lookups in it.
//
// Usage: bench_overlay_routing [--json[=PATH]]
// Self-check (exit 1 on failure, deterministic virtual time): all 300
// lookups answer at every ring size.

#include <cstdio>
#include <string>
#include <vector>

#include "common/bench_json.h"
#include "core/network.h"
#include "sim/metrics.h"

namespace pier {
namespace {

constexpr int kLookups = 300;

struct SizeResult {
  sim::Histogram hops;
  double maint_msgs_per_node_s = 0;
  double maint_bytes_per_node_s = 0;
};

uint64_t OverlayMessagesOut(core::PierNetwork& net) {
  uint64_t total = 0;
  for (size_t i = 0; i < net.size(); ++i) {
    const overlay::Transport& t = *net.node(i)->transport();
    total += t.traffic(overlay::Proto::kOverlay).messages_out;
  }
  return total;
}

SizeResult RunSize(size_t n) {
  core::PierNetworkOptions opts;
  opts.seed = 1000 + n;
  opts.node.router_kind = core::RouterKind::kChord;
  opts.join_stagger = Millis(100);
  core::PierNetwork net(n, opts);
  net.Boot(Seconds(60) + Millis(200) * static_cast<Duration>(n));

  SizeResult result;
  sim::Histogram latency_ms;
  for (int k = 0; k < kLookups; ++k) {
    size_t origin = net.sim()->rng().NextBelow(n);
    Id160 key = Id160::FromName("lookup-key-" + std::to_string(k));
    TimePoint t0 = net.sim()->now();
    net.node(origin)->chord()->Lookup(
        key, [&, t0](Status s, const overlay::NodeInfo&, int h) {
          if (!s.ok()) return;
          result.hops.Add(h);
          latency_ms.Add(ToSecondsF(net.sim()->now() - t0) * 1000.0);
        });
    net.RunFor(Millis(40));  // pace lookups
  }
  net.RunFor(Seconds(10));

  // Upkeep alone: the lookups have drained and the ring is settled.
  const Duration kQuietWindow = Seconds(30);
  uint64_t msgs_before = OverlayMessagesOut(net);
  uint64_t bytes_before = net.TotalBytesOut(overlay::Proto::kOverlay);
  net.RunFor(kQuietWindow);
  const double node_seconds =
      static_cast<double>(n) * ToSecondsF(kQuietWindow);
  result.maint_msgs_per_node_s =
      static_cast<double>(OverlayMessagesOut(net) - msgs_before) / node_seconds;
  result.maint_bytes_per_node_s =
      static_cast<double>(net.TotalBytesOut(overlay::Proto::kOverlay) -
                          bytes_before) /
      node_seconds;

  std::printf("%6zu %8zu %9.2f %9.2f %9.2f %12.1f %14.2f %12.1f\n", n,
              result.hops.count(), result.hops.Mean(),
              result.hops.Percentile(95), result.hops.Max(), latency_ms.Mean(),
              result.maint_msgs_per_node_s, result.maint_bytes_per_node_s);
  return result;
}

}  // namespace
}  // namespace pier

int main(int argc, char** argv) {
  pier::bench::JsonOptions json = pier::bench::ParseJsonFlag(argc, argv);
  pier::bench::JsonReport report("overlay_routing");
  pier::bench::WallTimer timer;
  std::printf("== Ablation A: overlay lookup cost vs. ring size ==\n");
  std::printf("%6s %8s %9s %9s %9s %12s %14s %12s\n", "nodes", "lookups",
              "hops.avg", "hops.p95", "hops.max", "latency.ms",
              "maint.msg/s/n", "maint.B/s/n");
  bool ok = true;
  for (size_t n : {16, 32, 64, 128, 256, 512}) {
    pier::SizeResult res = pier::RunSize(n);
    ok = ok && res.hops.count() == static_cast<size_t>(pier::kLookups);
    const std::string size = "n" + std::to_string(n);
    report.Metric(size + "_hops_avg", res.hops.Mean(), "hops");
    report.Metric(size + "_hops_p95", res.hops.Percentile(95), "hops");
    report.Metric(size + "_hops_max", res.hops.Max(), "hops");
    report.Metric(size + "_maint_msgs_per_node_s", res.maint_msgs_per_node_s,
                  "msgs/node/s");
    report.Metric(size + "_maint_bytes_per_node_s",
                  res.maint_bytes_per_node_s, "bytes/node/s");
  }
  std::printf("\nexpected shape: hops grow ~0.5*log2(n); maintenance per node "
              "stays flat\n");
  double wall = timer.Seconds();
  std::printf("wall-clock: %.2fs  self-check: %s\n", wall,
              ok ? "OK" : "FAIL");
  report.Metric("wall_clock", wall, "s");
  if (json.enabled && !report.WriteMerged(json.path)) {
    std::fprintf(stderr, "failed to write %s\n", json.path.c_str());
    return 1;
  }
  if (!ok) {
    std::printf("FAIL: a lookup went unanswered\n");
    return 1;
  }
  return 0;
}
