// Invariant checkers: the properties a PIER deployment must recover after
// (or maintain through) injected faults and churn. The Scenario harness runs
// every attached checker once the fault script has healed and the overlay
// has been given a stabilization window, and again after teardown for
// lifetime invariants.
//
// Adding a checker: subclass InvariantChecker, implement name() and
// Check() (post-run, network alive) and/or CheckTeardown() (network
// destroyed, event queue drained). Return a non-OK Status with a
// human-readable message; the scenario attaches the seed and fault script
// so any violation is replayable. See docs/testing.md.

#ifndef PIER_TESTKIT_INVARIANTS_H_
#define PIER_TESTKIT_INVARIANTS_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/network.h"
#include "sim/fault_plane.h"
#include "testkit/oracle.h"

namespace pier {
namespace testkit {

/// One scored query of a scenario run (filled by the Scenario harness).
struct QueryOutcome {
  std::string sql;
  size_t origin = 0;
  bool completed = false;  ///< the origin delivered a result batch
  bool oracle_ok = false;  ///< the central oracle produced a reference answer
  query::ResultBatch batch;
  std::vector<catalog::Tuple> oracle_rows;
  OracleScore score;
  /// Floors asserted by OracleFloorChecker; < 0 = not asserted.
  double min_recall = -1.0;
  double min_precision = -1.0;
};

/// Everything a post-run checker may inspect.
struct CheckContext {
  core::PierNetwork* net = nullptr;
  sim::FaultPlane* plane = nullptr;
  const std::vector<QueryOutcome>* queries = nullptr;
  /// The DHT sweep period configured for the run (expiry-lag bound).
  Duration sweep_interval = 0;
};

class InvariantChecker {
 public:
  virtual ~InvariantChecker() = default;
  virtual std::string name() const = 0;
  /// Post-run check, network alive and healed. Default: OK.
  virtual Status Check(const CheckContext& ctx) {
    (void)ctx;
    return Status::OK();
  }
  /// Post-teardown check (nodes destroyed, simulation drained).
  /// `live_payload_delta` = live payload buffers now minus the count before
  /// the network was built. Default: OK.
  virtual Status CheckTeardown(int64_t live_payload_delta) {
    (void)live_payload_delta;
    return Status::OK();
  }
};

/// After a heal + settle, every alive Chord node's successor/predecessor
/// must agree with the ring formed by the alive nodes, and its neighborhood
/// must have been stable for `stability_window`. No-op on one-hop overlays.
class RoutingConvergenceChecker : public InvariantChecker {
 public:
  explicit RoutingConvergenceChecker(Duration stability_window = Seconds(5))
      : stability_window_(stability_window) {}
  std::string name() const override { return "routing-convergence"; }
  Status Check(const CheckContext& ctx) override;

 private:
  Duration stability_window_;
};

/// Soft-state expiry: no stored item outlives its TTL past a bounded sweep
/// lag — neither in place (store scan) nor historically (the store's
/// max_sweep_lag counter).
class SoftStateExpiryChecker : public InvariantChecker {
 public:
  /// `slack` absorbs timer-scheduling quantization on top of one sweep
  /// period.
  explicit SoftStateExpiryChecker(Duration slack = Seconds(2))
      : slack_(slack) {}
  std::string name() const override { return "soft-state-expiry"; }
  Status Check(const CheckContext& ctx) override;

 private:
  Duration slack_;
};

/// Zero payload-buffer leaks: after teardown every ref-counted body buffer
/// created during the run must have been released (forwarding trees,
/// dropped packets, and crashed nodes included).
class PayloadLeakChecker : public InvariantChecker {
 public:
  std::string name() const override { return "payload-leak"; }
  Status CheckTeardown(int64_t live_payload_delta) override;
};

/// Answer-quality floors: every scored query must meet its configured
/// recall/precision minimums against the central oracle.
class OracleFloorChecker : public InvariantChecker {
 public:
  std::string name() const override { return "oracle-floor"; }
  Status Check(const CheckContext& ctx) override;
};

/// Completeness honesty: a result batch whose Completeness summary claims
/// `exact` while the central oracle sees missing rows, or rows it does not
/// have (duplicates included), is lying — the one thing the accounting
/// must never do. ("Degrade loudly, never silently.")
class CompletenessChecker : public InvariantChecker {
 public:
  std::string name() const override { return "completeness-honesty"; }
  Status Check(const CheckContext& ctx) override;
};

/// No namespace squatting: after cancel/deadline/heal has settled, no alive
/// node may hold live query-exchange state (`q<id>.…` namespaces) for a
/// query that is dead — locally torn down, or gone at its origin. Not part
/// of DefaultCheckers(): a scenario whose queries legitimately outlive the
/// check window (long continuous queries) attaches it deliberately.
class ExchangeHygieneChecker : public InvariantChecker {
 public:
  std::string name() const override { return "exchange-hygiene"; }
  Status Check(const CheckContext& ctx) override;
};

/// The default suite: routing convergence, soft-state expiry, payload
/// leaks, oracle floors, completeness honesty.
std::vector<std::unique_ptr<InvariantChecker>> DefaultCheckers();

}  // namespace testkit
}  // namespace pier

#endif  // PIER_TESTKIT_INVARIANTS_H_
