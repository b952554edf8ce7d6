// Ablation E: query dissemination trees vs. network size.
//
// Every PIER query starts with a broadcast over the overlay. The
// interval-partitioned tree should reach all nodes with O(n) messages,
// O(log n) depth, and few duplicates even though finger tables are only
// approximately consistent. The cover wave that flows back up the tree
// tells the origin how many nodes the broadcast reached; the engine's
// completeness accounting rests on that count.
//
// Usage: bench_dissemination [--json[=PATH]]
// Self-check (exit 1 on failure, deterministic virtual time): at every ring
// size the broadcast reaches all n nodes, and the origin's cover wave
// completes with members == n.

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "common/bench_json.h"
#include "core/network.h"

namespace pier {
namespace {

struct SizeResult {
  size_t reached = 0;
  uint64_t forwarded = 0;
  uint64_t duplicates = 0;
  int max_depth = 0;
  /// The origin's cover upcall: members counted and whether every subtree
  /// reported in (covered stays false if the upcall never fired).
  bool covered = false;
  uint64_t cover_members = 0;
  bool cover_complete = false;
};

SizeResult RunSize(size_t n) {
  core::PierNetworkOptions opts;
  opts.seed = 31337 + n;
  opts.node.router_kind = core::RouterKind::kChord;
  opts.join_stagger = Millis(100);
  core::PierNetwork net(n, opts);
  net.Boot(Seconds(60) + Millis(150) * static_cast<Duration>(n));

  SizeResult result;
  std::vector<int> delivered(n, 0);
  for (size_t i = 0; i < n; ++i) {
    net.node(i)->broadcast()->SetHandler(
        [&delivered, &result, i](sim::HostId, uint64_t, sim::HostId,
                                 int depth, const sim::Payload&) {
          ++delivered[i];
          if (depth > result.max_depth) result.max_depth = depth;
        });
  }
  const sim::HostId origin = net.node(0)->host();
  net.node(0)->broadcast()->SetCoverageHandler(
      [&result, origin](sim::HostId from, uint64_t, uint64_t members,
                        bool complete, bool vouched) {
        if (from != origin) return;
        result.covered = true;
        result.cover_members = members;
        result.cover_complete = complete && vouched;
      });
  net.node(0)->broadcast()->Broadcast(sim::Payload("query-plan-payload"));
  net.RunFor(Seconds(20));

  for (size_t i = 0; i < n; ++i) {
    result.reached += delivered[i] > 0 ? 1 : 0;
    result.forwarded += net.node(i)->broadcast()->stats().forwarded;
    result.duplicates += net.node(i)->broadcast()->stats().duplicates;
  }
  std::printf("%6zu %9zu/%-6zu %8" PRIu64 " %8" PRIu64 " %7d %10.2f\n", n,
              result.reached, n, result.forwarded, result.duplicates,
              result.max_depth,
              static_cast<double>(result.forwarded) / static_cast<double>(n));
  return result;
}

}  // namespace
}  // namespace pier

int main(int argc, char** argv) {
  pier::bench::JsonOptions json = pier::bench::ParseJsonFlag(argc, argv);
  pier::bench::JsonReport report("dissemination");
  pier::bench::WallTimer timer;
  std::printf("== Ablation E: dissemination tree reach and cost ==\n\n");
  std::printf("%6s %16s %8s %8s %7s %10s\n", "nodes", "reached", "msgs",
              "dups", "depth", "msgs/node");
  const size_t kSizes[] = {16, 32, 64, 128, 256, 512};
  std::vector<pier::SizeResult> results;
  for (size_t n : kSizes) results.push_back(pier::RunSize(n));
  std::printf("\nexpected shape: full reach, ~1 message per node, depth "
              "~log2(n), few duplicates\n");

  std::printf("\norigin's cover wave:\n%6s %10s %10s\n", "nodes", "members",
              "complete");
  bool ok = true;
  for (size_t k = 0; k < results.size(); ++k) {
    const size_t n = kSizes[k];
    const pier::SizeResult& res = results[k];
    std::printf("%6zu %10" PRIu64 " %10s\n", n, res.cover_members,
                !res.covered ? "never" : res.cover_complete ? "yes" : "no");
    ok = ok && res.reached == n && res.covered && res.cover_complete &&
         res.cover_members == n;
    const std::string size = "n" + std::to_string(n);
    const double nodes = static_cast<double>(n);
    report.Metric(size + "_reach", static_cast<double>(res.reached) / nodes,
                  "ratio");
    report.Metric(size + "_msgs_per_node",
                  static_cast<double>(res.forwarded) / nodes, "msgs/node");
    report.Metric(size + "_depth", res.max_depth, "hops");
    report.Metric(size + "_duplicates", static_cast<double>(res.duplicates),
                  "count");
    report.Metric(size + "_cover_members",
                  static_cast<double>(res.cover_members), "nodes");
    report.Metric(size + "_cover_complete", res.cover_complete ? 1 : 0,
                  "bool");
  }
  double wall = timer.Seconds();
  std::printf("wall-clock: %.2fs  self-check: %s\n", wall,
              ok ? "OK" : "FAIL");
  report.Metric("wall_clock", wall, "s");
  if (json.enabled && !report.WriteMerged(json.path)) {
    std::fprintf(stderr, "failed to write %s\n", json.path.c_str());
    return 1;
  }
  if (!ok) {
    std::printf("FAIL: a broadcast missed a node, or the origin's cover wave "
                "did not complete with every node counted\n");
    return 1;
  }
  return 0;
}
