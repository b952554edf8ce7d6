#include "testkit/scenario.h"

#include <algorithm>

#include "planner/planner.h"
#include "sim/payload.h"
#include "sql/parser.h"

namespace pier {
namespace testkit {

Scenario::Scenario(uint64_t seed) : seed_(seed) {
  options_.seed = seed;
  // Faster answer windows than the library defaults: scenarios issue
  // several queries per run and tier-1 wall-clock matters.
  options_.node.engine.result_wait = Seconds(8);
  options_.node.engine.agg_hold_base = Millis(400);
}

Scenario& Scenario::WithNodes(size_t n) {
  n_nodes_ = n;
  return *this;
}

Scenario& Scenario::WithRouter(core::RouterKind kind) {
  options_.node.router_kind = kind;
  return *this;
}

Scenario& Scenario::WithBootSettle(Duration settle) {
  boot_settle_ = settle;
  return *this;
}

Scenario& Scenario::WithTable(catalog::TableDef def) {
  tables_.push_back(std::move(def));
  return *this;
}

Scenario& Scenario::PublishRows(std::string table,
                                std::vector<catalog::Tuple> rows) {
  rows_.emplace_back(std::move(table), std::move(rows));
  return *this;
}

Scenario& Scenario::AddQuery(QuerySpec spec) {
  queries_.push_back(std::move(spec));
  return *this;
}

Scenario& Scenario::WithFaults(FaultScript script) {
  script_ = std::move(script);
  return *this;
}

Scenario& Scenario::WithChurn(sim::ChurnOptions churn) {
  churn_enabled_ = true;
  churn_ = churn;
  return *this;
}

Scenario& Scenario::At(TimePoint when,
                       std::function<void(core::PierNetwork&)> fn) {
  actions_.emplace_back(when, std::move(fn));
  return *this;
}

Scenario& Scenario::WithChecker(std::unique_ptr<InvariantChecker> checker) {
  checkers_.push_back(std::move(checker));
  return *this;
}

Scenario& Scenario::WithDefaultCheckers() {
  for (auto& c : DefaultCheckers()) checkers_.push_back(std::move(c));
  return *this;
}

Scenario& Scenario::WithHealSettle(Duration settle) {
  heal_settle_ = settle;
  return *this;
}

ScenarioReport Scenario::Run() {
  ScenarioReport report;
  report.seed = seed_;
  report.script = script_;
  const int64_t payload_before =
      static_cast<int64_t>(sim::Payload::buffers_live());

  {
    core::PierNetwork net(n_nodes_, options_);
    sim::FaultPlane plane(net.sim()->rng().Fork(0x6661756c74ull));  // "fault"
    net.net()->SetFaultPlane(&plane);
    script_.Apply(&plane);

    for (auto& [when, fn] : actions_) {
      net.sim()->ScheduleAt(when, [&net, fn = fn] { fn(net); });
    }

    const bool chord = options_.node.router_kind == core::RouterKind::kChord;
    Duration settle = boot_settle_ >= 0 ? boot_settle_
                                        : (chord ? Seconds(60) : Seconds(8));
    report.nodes_booted = net.Boot(settle);

    for (const catalog::TableDef& def : tables_) {
      for (size_t i = 0; i < net.size(); ++i) {
        net.node(i)->catalog()->Register(def);
      }
    }
    for (auto& [table, rows] : rows_) {
      for (size_t i = 0; i < rows.size(); ++i) {
        core::PierNode* node = net.node(i % net.size());
        if (!node->alive()) node = net.node(0);
        Status s = node->query_engine()->Publish(table, rows[i]);
        if (!s.ok()) {
          report.violations.push_back("publish: " + s.ToString());
        }
      }
    }
    net.RunFor(Seconds(5));  // let puts land before adversity ramps up

    if (churn_enabled_) net.EnableChurn(churn_);

    // Issue queries in time order; evaluate the oracle against the live
    // data snapshot at issue time (the answer the network could know).
    // Queries whose [issue_at, issue_at + wait) windows overlap run
    // CONCURRENTLY: the harness does not block on one answer before
    // issuing the next spec, it only drains all outstanding windows after
    // the last issue. Specs with disjoint windows behave exactly as a
    // serial harness would.
    std::vector<QuerySpec> specs = queries_;
    std::stable_sort(specs.begin(), specs.end(),
                     [](const QuerySpec& a, const QuerySpec& b) {
                       return a.issue_at < b.issue_at;
                     });
    // Fold the script's query-lifecycle directives into the specs they
    // target. A cancelled or deadlined query legitimately answers with less
    // than the oracle, so its floors are dropped — the hygiene/teardown
    // invariants are what these directives test.
    std::vector<TimePoint> cancel_at(specs.size(), 0);
    if (!specs.empty()) {
      for (const FaultDirective& d : script_.directives) {
        if (d.kind != FaultDirective::Kind::kCancelQuery &&
            d.kind != FaultDirective::Kind::kQueryDeadline) {
          continue;
        }
        if (d.group_a.empty()) continue;
        size_t slot = d.group_a[0] % specs.size();
        if (d.kind == FaultDirective::Kind::kCancelQuery) {
          cancel_at[slot] = d.from;
        } else {
          specs[slot].deadline = d.magnitude;
        }
        specs[slot].min_recall = -1.0;
        specs[slot].min_precision = -1.0;
      }
    }
    report.queries.reserve(specs.size());
    TimePoint windows_close = 0;  // latest [issue, issue+wait) end so far
    for (size_t spec_idx = 0; spec_idx < specs.size(); ++spec_idx) {
      const QuerySpec& spec = specs[spec_idx];
      if (spec.issue_at > net.sim()->now()) {
        net.sim()->RunUntil(spec.issue_at);
      }
      QueryOutcome outcome;
      outcome.sql = spec.sql;
      outcome.origin = spec.origin;
      outcome.min_recall = spec.min_recall;
      outcome.min_precision = spec.min_precision;

      core::PierNode* origin = net.node(spec.origin % net.size());
      auto parsed = sql::Parse(spec.sql);
      if (!parsed.ok()) {
        report.violations.push_back("parse \"" + spec.sql +
                                    "\": " + parsed.status().ToString());
        report.queries.push_back(std::move(outcome));
        continue;
      }
      auto plan = planner::PlanStatement(parsed.value(),
                                         *origin->catalog(), spec.planner);
      if (!plan.ok()) {
        report.violations.push_back("plan \"" + spec.sql +
                                    "\": " + plan.status().ToString());
        report.queries.push_back(std::move(outcome));
        continue;
      }
      auto oracle_rows = OracleEvaluate(net, plan.value());
      if (oracle_rows.ok()) {
        outcome.oracle_ok = true;
        outcome.oracle_rows = std::move(oracle_rows.value());
      } else if (spec.min_recall >= 0 || spec.min_precision >= 0) {
        report.violations.push_back("oracle \"" + spec.sql + "\": " +
                                    oracle_rows.status().ToString());
      }

      size_t slot = report.queries.size();
      report.queries.push_back(std::move(outcome));
      // Scoring happens inside the callback: a batch that lands after this
      // query's wait window (during a later query's window or the heal
      // settle) must still be scored, or its floor check passes vacuously
      // on the default-constructed (recall=1) score.
      query::QueryPlan issued_plan = plan.value();
      if (spec.deadline > 0) issued_plan.deadline = spec.deadline;
      auto exec = origin->query_engine()->Execute(
          std::move(issued_plan),
          [&report, slot](const query::ResultBatch& b) {
            QueryOutcome& q = report.queries[slot];
            q.completed = true;
            q.batch = b;
            q.score = ScoreAnswer(q.oracle_rows, b.rows);
          });
      if (!exec.ok()) {
        report.violations.push_back("execute \"" + spec.sql + "\": " +
                                    exec.status().ToString());
        continue;
      }
      // Mid-query cancellation, from the spec or a lifecycle directive
      // (whichever is earliest but still in the future).
      TimePoint cancel_when = 0;
      if (spec.cancel_after > 0) {
        cancel_when = net.sim()->now() + spec.cancel_after;
      }
      if (cancel_at[spec_idx] > 0 &&
          (cancel_when == 0 || cancel_at[spec_idx] < cancel_when)) {
        cancel_when = cancel_at[spec_idx];
      }
      if (cancel_when > 0) {
        cancel_when = std::max(cancel_when, net.sim()->now() + Millis(1));
        uint64_t qid = exec.value();
        net.sim()->ScheduleAt(cancel_when, [&net, &spec, qid] {
          core::PierNode* n = net.node(spec.origin % net.size());
          if (n->alive()) n->query_engine()->Cancel(qid);
        });
      }
      Duration wait = spec.wait > 0
                          ? spec.wait
                          : options_.node.engine.result_wait + Seconds(5);
      windows_close = std::max(windows_close, net.sim()->now() + wait);
    }
    // Drain every outstanding answer window. Scoring happens inside the
    // result callbacks, so overlapped queries that finish out of issue
    // order are still scored against their own oracle snapshot.
    if (windows_close > net.sim()->now()) {
      net.sim()->RunUntil(windows_close);
    }

    // Let the fault script heal and the overlay restabilize, then check.
    TimePoint check_at = std::max(net.sim()->now(),
                                  script_.HealTime()) + heal_settle_;
    net.sim()->RunUntil(check_at);

    CheckContext ctx;
    ctx.net = &net;
    ctx.plane = &plane;
    ctx.queries = &report.queries;
    ctx.sweep_interval = dht::kSweepInterval;
    for (auto& checker : checkers_) {
      Status s = checker->Check(ctx);
      if (!s.ok()) {
        report.violations.push_back(checker->name() + ": " + s.ToString());
      }
    }

    report.trace_digest = net.net()->trace_digest();
    report.churn_transitions = net.churn_transitions();
    report.messages_faulted = net.net()->stats().messages_faulted;
    report.messages_duplicated = net.net()->stats().messages_duplicated;
    for (size_t i = 0; i < net.size(); ++i) {
      if (net.node(i)->alive() && net.node(i)->chord() != nullptr) {
        report.rejoin_merges += net.node(i)->chord()->stats().rejoin_merges;
      }
    }
    // The plane is declared after the network, so it is destroyed first:
    // detach it before leaving the scope.
    net.net()->SetFaultPlane(nullptr);
  }

  // Teardown-phase invariants: the network, its nodes, and every pending
  // event are gone; any surviving payload buffer is a leak.
  const int64_t payload_after =
      static_cast<int64_t>(sim::Payload::buffers_live());
  for (auto& checker : checkers_) {
    Status s = checker->CheckTeardown(payload_after - payload_before);
    if (!s.ok()) {
      report.violations.push_back(checker->name() + ": " + s.ToString());
    }
  }
  return report;
}

std::string ScenarioReport::ToString() const {
  std::string out = "scenario seed=" + std::to_string(seed) +
                    " trace=" + std::to_string(trace_digest) +
                    " booted=" + std::to_string(nodes_booted) + "\n";
  out += "fault script:\n" + script.ToString() + "\n";
  for (const QueryOutcome& q : queries) {
    out += "query \"" + q.sql + "\": " +
           (q.completed ? q.score.ToString() : std::string("NO ANSWER")) +
           "\n";
  }
  if (violations.empty()) {
    out += "all invariants held\n";
  } else {
    for (const std::string& v : violations) out += "VIOLATION " + v + "\n";
    out += "replay: rebuild the scenario with seed=" + std::to_string(seed) +
           " (fault script above)\n";
  }
  return out;
}

}  // namespace testkit
}  // namespace pier
