// Scenario: the declarative fault-injection test harness.
//
// A scenario is "N nodes on an overlay, some tables and rows, a fault
// script, an optional churn profile, some queries with answer-quality
// floors, and a set of invariant checkers". Run() executes the whole thing
// deterministically from one seed:
//
//   Scenario s(/*seed=*/42);
//   s.WithNodes(12)
//    .WithTable(AlertsTable())
//    .PublishRows("alerts", rows)
//    .WithFaults(script)                  // or .WithChurn(churn_opts)
//    .AddQuery({.sql = "SELECT ...", .issue_at = Seconds(200),
//               .min_recall = 0.9})
//    .WithDefaultCheckers();
//   ScenarioReport report = s.Run();
//   ASSERT_TRUE(report.ok()) << report.ToString();
//
// Replay guarantee: two Run()s of identically-built scenarios produce
// byte-identical event traces (equal Network trace digests) — asserted by
// the fuzzer, relied on by everyone debugging a failing seed. Everything
// stochastic forks off the scenario seed; Run() never reads ambient state.

#ifndef PIER_TESTKIT_SCENARIO_H_
#define PIER_TESTKIT_SCENARIO_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "catalog/table_def.h"
#include "core/network.h"
#include "planner/planner.h"
#include "sim/churn.h"
#include "testkit/fault_script.h"
#include "testkit/invariants.h"
#include "testkit/oracle.h"

namespace pier {
namespace testkit {

/// One query the scenario issues and (optionally) scores.
struct QuerySpec {
  std::string sql;
  /// Virtual time to issue at (after boot; the harness clamps to post-boot).
  TimePoint issue_at = 0;
  /// Node index issuing the query.
  size_t origin = 0;
  /// Extra virtual time to wait for the answer; 0 = engine result_wait + 5s.
  Duration wait = 0;
  /// Oracle floors; < 0 = don't assert (the query still runs and scores).
  double min_recall = -1.0;
  double min_precision = -1.0;
  /// > 0: the origin cancels this query this long after issuing it.
  Duration cancel_after = 0;
  /// > 0: per-query deadline (QueryPlan::deadline; 0 = none).
  Duration deadline = 0;
  /// How the planner plans it (a join's strategy, say).
  planner::PlannerOptions planner = {};
};

/// Everything a run produced (checkers already applied).
struct ScenarioReport {
  uint64_t seed = 0;
  /// Network event-trace digest — equal across replays of the same seed.
  uint64_t trace_digest = 0;
  FaultScript script;
  std::vector<QueryOutcome> queries;
  /// "checker-name: message" per violated invariant.
  std::vector<std::string> violations;
  size_t nodes_booted = 0;
  uint64_t churn_transitions = 0;
  /// Packets the fault plane actually dropped/duplicated — scenarios assert
  /// these are nonzero so a silently misconfigured script can't pass.
  uint64_t messages_faulted = 0;
  uint64_t messages_duplicated = 0;
  /// Chord partition-heal adoptions observed across nodes (0 on one-hop).
  uint64_t rejoin_merges = 0;

  bool ok() const { return violations.empty(); }
  /// Violations plus the replay recipe (seed + fault script).
  std::string ToString() const;
};

class Scenario {
 public:
  explicit Scenario(uint64_t seed);

  // -- topology ---------------------------------------------------------------
  Scenario& WithNodes(size_t n);
  Scenario& WithRouter(core::RouterKind kind);
  /// Direct access to the deployment options (network model, engine knobs).
  core::PierNetworkOptions& options() { return options_; }
  /// Boot settle time; default 60s Chord / 8s one-hop.
  Scenario& WithBootSettle(Duration settle);

  // -- workload ---------------------------------------------------------------
  Scenario& WithTable(catalog::TableDef def);
  /// Publishes rows round-robin across nodes right after boot.
  Scenario& PublishRows(std::string table, std::vector<catalog::Tuple> rows);
  Scenario& AddQuery(QuerySpec spec);

  // -- adversity --------------------------------------------------------------
  Scenario& WithFaults(FaultScript script);
  Scenario& WithChurn(sim::ChurnOptions churn);
  /// Arbitrary scripted action (crash node 3 at t, etc.), run at `when`.
  Scenario& At(TimePoint when, std::function<void(core::PierNetwork&)> fn);

  // -- invariants -------------------------------------------------------------
  Scenario& WithChecker(std::unique_ptr<InvariantChecker> checker);
  Scenario& WithDefaultCheckers();
  /// Post-heal stabilization window before checkers run; default 30s.
  Scenario& WithHealSettle(Duration settle);

  /// Executes the scenario once. Reentrant: a fresh equivalent Scenario
  /// replays identically.
  ScenarioReport Run();

 private:
  uint64_t seed_;
  core::PierNetworkOptions options_;
  size_t n_nodes_ = 8;
  Duration boot_settle_ = -1;  // -1 = router default
  std::vector<catalog::TableDef> tables_;
  std::vector<std::pair<std::string, std::vector<catalog::Tuple>>> rows_;
  std::vector<QuerySpec> queries_;
  FaultScript script_;
  bool churn_enabled_ = false;
  sim::ChurnOptions churn_;
  std::vector<std::pair<TimePoint, std::function<void(core::PierNetwork&)>>>
      actions_;
  std::vector<std::unique_ptr<InvariantChecker>> checkers_;
  Duration heal_settle_ = Seconds(30);
};

}  // namespace testkit
}  // namespace pier

#endif  // PIER_TESTKIT_SCENARIO_H_
