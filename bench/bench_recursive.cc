// Ablation F: recursive topology-mapping queries (the paper's third
// application; cf. "Analyzing P2P overlays with recursive queries",
// UCB/CSD-04-1301). Computes the transitive closure of a distributed link
// table and compares against an exact in-memory closure, sweeping graph
// size. Reports expansion traffic and time-to-fixpoint.
//
// Usage: bench_recursive [--json[=PATH]]
// Self-check (exit 1 on failure, deterministic virtual time): at every
// graph size the reported closure is exactly the in-memory one (reported
// == correct == exact pairs).

#include <cinttypes>
#include <cstdio>
#include <queue>
#include <set>
#include <string>

#include "common/bench_json.h"
#include "core/network.h"
#include "query/plan.h"
#include "workload/workloads.h"

namespace pier {
namespace {

using EdgeList = std::vector<std::pair<std::string, std::string>>;

std::set<std::pair<std::string, std::string>> ExactClosure(
    const EdgeList& edges, int max_hops) {
  std::set<std::pair<std::string, std::string>> closure;
  std::set<std::string> vertices;
  for (const auto& e : edges) {
    vertices.insert(e.first);
    vertices.insert(e.second);
  }
  for (const std::string& src : vertices) {
    std::map<std::string, int> dist;
    std::queue<std::pair<std::string, int>> frontier;
    frontier.push({src, 0});
    dist[src] = 0;
    while (!frontier.empty()) {
      auto [v, d] = frontier.front();
      frontier.pop();
      if (d >= max_hops) continue;
      for (const auto& e : edges) {
        if (e.first != v) continue;
        if (dist.count(e.second)) continue;
        dist[e.second] = d + 1;
        closure.insert({src, e.second});
        frontier.push({e.second, d + 1});
      }
    }
    closure.erase({src, src});
  }
  return closure;
}

struct SizeResult {
  size_t exact = 0;
  size_t reported = 0;
  size_t correct = 0;
  uint64_t expansions = 0;
  double fixpoint_s = 0;
};

SizeResult RunSize(size_t vertices) {
  const size_t kNodes = 32;
  const int kMaxHops = 12;
  core::PierNetworkOptions opts;
  opts.seed = 900 + vertices;
  opts.node.router_kind = core::RouterKind::kChord;
  opts.node.engine.quiesce_window = Seconds(8);
  opts.node.engine.recursion_deadline = Seconds(240);
  opts.join_stagger = Millis(100);
  core::PierNetwork net(kNodes, opts);
  net.Boot(Seconds(60));

  workload::TopologyOptions topo;
  topo.num_vertices = vertices;
  topo.out_degree = 2;
  EdgeList edges = workload::PublishTopology(&net, topo, /*seed=*/17);
  net.RunFor(Seconds(10));
  auto exact = ExactClosure(edges, kMaxHops);

  query::QueryPlan plan;
  query::AddScan(&plan.graph, "links", workload::LinksTable().schema);
  query::AddRecurse(&plan.graph, 0, 1, kMaxHops, nullptr);
  query::AppendTail(&plan.graph, nullptr, query::ProjectNode({}));

  TimePoint t0 = net.sim()->now();
  TimePoint t_done = 0;
  std::set<std::pair<std::string, std::string>> got;
  auto r = net.node(0)->query_engine()->Execute(
      plan, [&](const query::ResultBatch& b) {
        t_done = net.sim()->now();
        for (const auto& row : b.rows) {
          if (row[0].Compare(row[1]) != 0) {
            got.insert({row[0].string_value(), row[1].string_value()});
          }
        }
      });
  if (!r.ok()) {
    std::printf("query failed: %s\n", r.status().ToString().c_str());
    return {exact.size(), 0, 0, 0, 0};
  }
  net.RunFor(Seconds(280));

  size_t correct = 0;
  for (const auto& pair : got) correct += exact.count(pair);
  uint64_t expansions = 0, duplicates = 0;
  for (size_t i = 0; i < net.size(); ++i) {
    expansions += net.node(i)->query_engine()->stats().recursion_expansions;
    duplicates += net.node(i)->query_engine()->stats().recursion_duplicates;
  }
  std::printf("%8zu %6zu %9zu %9zu %9zu %10" PRIu64 " %9" PRIu64 " %8.1f\n",
              vertices, edges.size(), exact.size(), got.size(), correct,
              expansions, duplicates, ToSecondsF(t_done - t0));
  return {exact.size(), got.size(), correct, expansions,
          ToSecondsF(t_done - t0)};
}

}  // namespace
}  // namespace pier

int main(int argc, char** argv) {
  pier::bench::JsonOptions json = pier::bench::ParseJsonFlag(argc, argv);
  pier::bench::JsonReport report("recursive");
  pier::bench::WallTimer timer;
  std::printf("== Ablation F: recursive transitive closure (topology "
              "mapping) ==\n\n");
  std::printf("%8s %6s %9s %9s %9s %10s %9s %8s\n", "vertices", "edges",
              "exact", "reported", "correct", "expansions", "dup.cut",
              "time.s");
  bool ok = true;
  for (size_t v : {8, 16, 32, 48}) {
    pier::SizeResult res = pier::RunSize(v);
    ok = ok && res.reported == res.exact && res.correct == res.exact;
    const std::string size = "v" + std::to_string(v);
    report.Metric(size + "_exact_pairs", static_cast<double>(res.exact),
                  "count");
    report.Metric(size + "_reported_pairs",
                  static_cast<double>(res.reported), "count");
    report.Metric(size + "_expansions", static_cast<double>(res.expansions),
                  "count");
    report.Metric(size + "_fixpoint", res.fixpoint_s, "s");
  }
  std::printf("\nexpected shape: reported == exact (semi-naive evaluation "
              "reaches fixpoint); duplicates grow with cycle density\n");
  double wall = timer.Seconds();
  std::printf("wall-clock: %.2fs  self-check: %s\n", wall,
              ok ? "OK" : "FAIL");
  report.Metric("wall_clock", wall, "s");
  if (json.enabled && !report.WriteMerged(json.path)) {
    std::fprintf(stderr, "failed to write %s\n", json.path.c_str());
    return 1;
  }
  if (!ok) {
    std::printf("FAIL: a reported closure differs from the exact one\n");
    return 1;
  }
  return 0;
}
