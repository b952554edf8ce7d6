// Randomized scenario fuzzing: samples fault scripts + topologies from a
// seed, runs query workloads through them (a scan, an index range, a tree
// aggregate over every aggregate function, a two-table join under a
// sampled strategy with and without GROUP BY, and a chained three-table
// join with and without GROUP BY), and checks every invariant
// (routing convergence, soft-state expiry, payload leaks, oracle floors,
// honest completeness claims, exchange hygiene).
//
// On a violation the test FAILS and prints:
//   - the failing seed (replay: PIER_FUZZ_SEED=<seed> PIER_FUZZ_ITERS=1),
//   - the minimized fault script (greedy directive removal while the
//     violation reproduces),
// and writes both to $PIER_FUZZ_ARTIFACT_DIR/seed-<seed>.txt (default
// ./fuzz-failures/) so CI can upload them as artifacts.
//
// Environment knobs:
//   PIER_FUZZ_ITERS         scenarios to run (default 6; the `fuzz` ctest
//                           lane runs >= 50)
//   PIER_FUZZ_SEED          base seed (default 0xF05Ed)
//   PIER_FUZZ_ARTIFACT_DIR  where failing seeds + scripts are written

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "testkit/scenario.h"

namespace pier {
namespace testkit {
namespace {

using catalog::Schema;
using catalog::TableDef;
using catalog::Tuple;
using core::RouterKind;

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtoull(v, nullptr, 0);
}

TableDef FuzzTable() {
  TableDef def;
  def.name = "alerts";
  def.schema = Schema("alerts", {{"rule_id", ValueType::kInt64},
                                 {"hits", ValueType::kInt64}});
  def.partition_cols = {0};
  def.ttl = Seconds(600);
  // PHT index over hits with tiny buckets: every fuzz case grows a real
  // trie, so splits and entry forwards race the sampled faults and churn.
  def.indexes = {catalog::IndexDef{1, 3}};
  return def;
}

/// The join's second relation. Partitioned on severity, not the join key,
/// so the planner rehashes both sides through a q<id>.x<n> namespace —
/// except for fetch-matches, which probes an inner relation partitioned on
/// the join key.
TableDef FuzzRulesTable(query::JoinStrategy strategy) {
  TableDef def;
  def.name = "rules";
  def.schema = Schema("rules", {{"rule_id", ValueType::kInt64},
                                {"severity", ValueType::kInt64}});
  def.partition_cols = {strategy == query::JoinStrategy::kFetchMatches ? 0
                                                                        : 1};
  def.ttl = Seconds(600);
  return def;
}

/// The chained join's third relation.
TableDef FuzzSevsTable() {
  TableDef def;
  def.name = "sevs";
  def.schema = Schema("sevs", {{"severity", ValueType::kInt64},
                               {"label", ValueType::kString}});
  def.partition_cols = {0};
  def.ttl = Seconds(600);
  return def;
}

/// Builds and runs one fuzz case, fully determined by `seed`. When
/// `override_script` is set it replaces the sampled script (minimization
/// replays); `out_script` receives the script actually used.
ScenarioReport RunFuzzCase(uint64_t seed, const FaultScript* override_script,
                           FaultScript* out_script) {
  Rng meta(seed);
  size_t nodes = 6 + static_cast<size_t>(meta.NextBelow(6));  // 6..11
  bool chord = meta.Chance(0.5);
  bool churn = !chord && meta.Chance(0.4);  // one-hop rings churn freely
  TimePoint fault_start = chord ? Seconds(70) : Seconds(20);
  FaultScript script =
      FaultScript::Sample(&meta, nodes, fault_start, fault_start + Seconds(80));
  if (override_script != nullptr) script = *override_script;
  if (out_script != nullptr) *out_script = script;

  std::vector<Tuple> rows;
  size_t n_rows = 24 + meta.NextBelow(25);
  for (size_t i = 0; i < n_rows; ++i) {
    rows.push_back(Tuple{Value::Int64(1 + static_cast<int64_t>(i % 5)),
                         Value::Int64(static_cast<int64_t>(10 + i))});
  }
  // Rules 1..6: rule 6 matches no alert.
  std::vector<Tuple> rules;
  for (int64_t rule = 1; rule <= 6; ++rule) {
    rules.push_back(Tuple{Value::Int64(rule), Value::Int64(rule % 3)});
  }
  // Severities 0..1: severity 2 (rules 2 and 5) has no label.
  std::vector<Tuple> sevs;
  for (int64_t sev = 0; sev < 2; ++sev) {
    sevs.push_back(
        Tuple{Value::Int64(sev), Value::String("sev" + std::to_string(sev))});
  }
  // The two-table join's strategy, sampled across all four.
  constexpr query::JoinStrategy kStrategies[] = {
      query::JoinStrategy::kSymmetricHash, query::JoinStrategy::kFetchMatches,
      query::JoinStrategy::kSymmetricSemi, query::JoinStrategy::kBloom};
  planner::PlannerOptions join_options;
  join_options.join_strategy = kStrategies[meta.NextBelow(4)];
  join_options.prefer_fetch_matches = false;

  // The query goes out only after every fault window has closed and the
  // overlay has had a stabilization window: the invariant under test is
  // "the system RECOVERS", not "the system is psychic during a partition".
  TimePoint quiet = std::max(script.HealTime(), fault_start);
  TimePoint issue_at = quiet + Seconds(chord ? 45 : 20);

  Scenario s(seed);
  s.WithNodes(nodes)
      .WithRouter(chord ? RouterKind::kChord : RouterKind::kOneHop)
      .WithTable(FuzzTable())
      .WithTable(FuzzRulesTable(join_options.join_strategy))
      .WithTable(FuzzSevsTable())
      .PublishRows("alerts", rows)
      .PublishRows("rules", rules)
      .PublishRows("sevs", sevs)
      .WithFaults(script)
      .AddQuery({.sql = "SELECT rule_id, hits FROM alerts",
                 .issue_at = issue_at,
                 .origin = 0,
                 .wait = 0,
                 .min_recall = 0.7,
                 .min_precision = 0.95})
      // Range query over the PHT: exercises cursor walks, splits racing
      // the sampled faults, and the broadcast fallback. Floors only apply
      // to fault-script cases: link faults destroy MESSAGES, so post-heal
      // index state reconverges (acked moves + repair sweep). Churn
      // destroys STATE — index entries live on different nodes than their
      // base rows, so crashes make the two views diverge in both
      // directions (ghost entries for dead rows, dead entries for
      // surviving rows) and no floor against the base-readable oracle is
      // meaningful; the query still runs and every other invariant still
      // asserts.
      .AddQuery({.sql = "SELECT rule_id, hits FROM alerts "
                        "WHERE hits BETWEEN 15 AND 40",
                 .issue_at = issue_at + Seconds(20),
                 .origin = 0,
                 .wait = 0,
                 .min_recall = churn ? -1.0 : 0.5,
                 .min_precision = churn ? -1.0 : 0.8})
      // Tree aggregate: partials carry contributor counts up the
      // dissemination tree and the origin certifies on their total. Every
      // aggregate function rides it, so each one's partial states cross
      // the wire and merge at the tree's combiners. No floor: the
      // CompletenessChecker is the referee, and an exact claim must match
      // the oracle under every sampled fault.
      .AddQuery({.sql = "SELECT rule_id, SUM(hits), COUNT(*), AVG(hits), "
                        "MIN(hits), MAX(hits) FROM alerts "
                        "GROUP BY rule_id",
                 .issue_at = issue_at + Seconds(40),
                 .origin = 0,
                 .wait = 0})
      // Two-table equi-join under the sampled strategy: its input scans
      // run as scheduler sweeps, and all but fetch-matches rehash through
      // the join's exchange namespace, which the hygiene checker then
      // requires torn down. It closes by count when its members' books
      // balance; no floor, as for the aggregate.
      .AddQuery({.sql = "SELECT a.hits, r.severity FROM alerts a, rules r "
                        "WHERE a.rule_id = r.rule_id",
                 .issue_at = issue_at + Seconds(60),
                 .origin = 0,
                 .wait = 0,
                 .planner = join_options})
      // Chained three-table join, no aggregation: the first join's
      // rendezvous rehash their output into the second's namespace, and
      // both edges' books must balance for an exact claim. No floor.
      .AddQuery({.sql = "SELECT a.hits, s.label FROM alerts a, rules r, "
                        "sevs s WHERE a.rule_id = r.rule_id "
                        "AND r.severity = s.severity",
                 .issue_at = issue_at + Seconds(80),
                 .origin = 0,
                 .wait = 0})
      // The same chain with GROUP BY: the second join's rendezvous
      // aggregate in the network and ship their partial groups to the
      // origin once settled, and an exact claim also needs every partial
      // frame admitted. No floor.
      .AddQuery({.sql = "SELECT s.label, SUM(a.hits), COUNT(*) "
                        "FROM alerts a, rules r, sevs s "
                        "WHERE a.rule_id = r.rule_id "
                        "AND r.severity = s.severity GROUP BY s.label",
                 .issue_at = issue_at + Seconds(100),
                 .origin = 0,
                 .wait = 0})
      // The two-table join with GROUP BY: its joined rows go to the origin
      // raw, and the origin aggregates them itself, the one case here that
      // groups raw rows at the origin. No floor.
      .AddQuery({.sql = "SELECT r.severity, SUM(a.hits), COUNT(*) "
                        "FROM alerts a, rules r "
                        "WHERE a.rule_id = r.rule_id GROUP BY r.severity",
                 .issue_at = issue_at + Seconds(120),
                 .origin = 0,
                 .wait = 0,
                 .planner = join_options})
      .WithHealSettle(Seconds(chord ? 60 : 25))
      .WithDefaultCheckers()
      // The workload queries are one-shot and long finished by check time,
      // so no alive node may still hold live per-query exchange state —
      // especially after the cancel/deadline directives Sample() now mixes
      // in a third of the time ("no namespace squatting after cancel").
      .WithChecker(std::make_unique<ExchangeHygieneChecker>());
  if (churn) {
    sim::ChurnOptions copts;
    copts.mean_session = Seconds(60);
    copts.mean_downtime = Seconds(20);
    copts.start_at = Seconds(30);
    copts.stop_at = quiet;  // membership settles before the scored query
    copts.stable_fraction = 0.4;
    s.WithChurn(copts);
  }
  return s.Run();
}

/// Greedy minimization: repeatedly drop any directive whose removal keeps
/// the run failing. Returns the smallest still-failing script.
FaultScript MinimizeScript(uint64_t seed, FaultScript failing) {
  bool shrunk = true;
  while (shrunk && failing.size() > 0) {
    shrunk = false;
    for (size_t i = 0; i < failing.size(); ++i) {
      FaultScript candidate = failing.Without(i);
      ScenarioReport r = RunFuzzCase(seed, &candidate, nullptr);
      if (!r.ok()) {
        failing = std::move(candidate);
        shrunk = true;
        break;
      }
    }
  }
  return failing;
}

void WriteArtifact(uint64_t seed, const FaultScript& minimized,
                   const ScenarioReport& report) {
  const char* dir_env = std::getenv("PIER_FUZZ_ARTIFACT_DIR");
  std::filesystem::path dir = dir_env != nullptr && *dir_env != '\0'
                                  ? std::filesystem::path(dir_env)
                                  : std::filesystem::path("fuzz-failures");
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  std::ofstream out(dir / ("seed-" + std::to_string(seed) + ".txt"));
  out << "replay: PIER_FUZZ_SEED=" << seed << " PIER_FUZZ_ITERS=1 "
      << "./scenario_fuzz_test\n\nminimized fault script:\n"
      << minimized.ToString() << "\n\nreport:\n"
      << report.ToString();
}

TEST(ScenarioFuzzTest, RandomScenariosHoldAllInvariants) {
  const uint64_t iters = EnvU64("PIER_FUZZ_ITERS", 6);
  const uint64_t base_seed = EnvU64("PIER_FUZZ_SEED", 0xF05Ed);
  for (uint64_t i = 0; i < iters; ++i) {
    uint64_t seed = base_seed + i;
    SCOPED_TRACE("fuzz seed " + std::to_string(seed) +
                 " (replay: PIER_FUZZ_SEED=" + std::to_string(seed) +
                 " PIER_FUZZ_ITERS=1)");
    FaultScript script;
    ScenarioReport report = RunFuzzCase(seed, nullptr, &script);
    if (!report.ok()) {
      FaultScript minimized = MinimizeScript(seed, script);
      WriteArtifact(seed, minimized, report);
      FAIL() << "invariant violation at seed " << seed << "\n"
             << report.ToString() << "\nminimized fault script:\n"
             << minimized.ToString();
    }
  }
}

// The replay guarantee, fuzz-grade: an arbitrary sampled scenario must
// reproduce a byte-identical event trace from its seed.
TEST(ScenarioFuzzTest, SampledScenarioReplaysByteIdentical) {
  const uint64_t seed = EnvU64("PIER_FUZZ_SEED", 0xF05Ed);
  SCOPED_TRACE("fuzz seed " + std::to_string(seed));
  ScenarioReport a = RunFuzzCase(seed, nullptr, nullptr);
  ScenarioReport b = RunFuzzCase(seed, nullptr, nullptr);
  EXPECT_EQ(a.trace_digest, b.trace_digest)
      << "replay diverged:\n" << a.ToString() << "\nvs\n" << b.ToString();
  EXPECT_EQ(a.violations, b.violations);
}

}  // namespace
}  // namespace testkit
}  // namespace pier
