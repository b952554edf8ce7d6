#include "testkit/invariants.h"

#include <algorithm>
#include <cctype>
#include <utility>

namespace pier {
namespace testkit {

namespace {
std::string HostLabel(core::PierNode* node) {
  return node->name() + " (host " + std::to_string(node->host()) + ")";
}
}  // namespace

Status RoutingConvergenceChecker::Check(const CheckContext& ctx) {
  core::PierNetwork& net = *ctx.net;
  // Collect the alive Chord membership sorted by ring position — the ring
  // stabilization must converge to exactly this ordering.
  std::vector<core::PierNode*> alive;
  for (size_t i = 0; i < net.size(); ++i) {
    core::PierNode* node = net.node(i);
    if (!node->alive()) continue;
    if (node->chord() == nullptr) return Status::OK();  // one-hop overlay
    alive.push_back(node);
  }
  if (alive.size() < 2) return Status::OK();
  std::sort(alive.begin(), alive.end(),
            [](core::PierNode* a, core::PierNode* b) {
              return a->id() < b->id();
            });

  for (size_t i = 0; i < alive.size(); ++i) {
    core::PierNode* node = alive[i];
    core::PierNode* expect_succ = alive[(i + 1) % alive.size()];
    core::PierNode* expect_pred = alive[(i + alive.size() - 1) % alive.size()];
    const overlay::ChordNode& chord = *node->chord();
    if (chord.successor().host != expect_succ->host()) {
      return Status::Internal(
          "ring not converged: " + HostLabel(node) + " successor is host " +
          std::to_string(chord.successor().host) + ", expected " +
          HostLabel(expect_succ));
    }
    if (!chord.predecessor().has_value() ||
        chord.predecessor()->host != expect_pred->host()) {
      return Status::Internal("ring not converged: " + HostLabel(node) +
                              " predecessor is " +
                              (chord.predecessor().has_value()
                                   ? "host " + std::to_string(
                                                   chord.predecessor()->host)
                                   : std::string("unset")) +
                              ", expected " + HostLabel(expect_pred));
    }
    if (!chord.RingStable(stability_window_)) {
      return Status::Internal(
          "ring still churning: " + HostLabel(node) +
          " changed neighbors " +
          FormatDuration(net.sim()->now() - chord.last_neighbor_change()) +
          " ago (< " + FormatDuration(stability_window_) + " window)");
    }
  }
  return Status::OK();
}

Status SoftStateExpiryChecker::Check(const CheckContext& ctx) {
  core::PierNetwork& net = *ctx.net;
  const Duration bound = ctx.sweep_interval + slack_;
  const TimePoint now = net.sim()->now();
  for (size_t i = 0; i < net.size(); ++i) {
    core::PierNode* node = net.node(i);
    if (!node->alive()) continue;
    const dht::LocalStore& store = *node->dht()->local_store();
    // Historical bound: the worst lag any sweep ever observed.
    if (store.stats().max_sweep_lag > bound) {
      return Status::Internal(
          "soft-state expiry violated at " + HostLabel(node) +
          ": an item outlived its TTL by " +
          FormatDuration(store.stats().max_sweep_lag) + " (bound " +
          FormatDuration(bound) + ")");
    }
    // Point-in-time bound: nothing currently held may be expired past the
    // sweep lag (Scan with now=0 sees expired-but-unswept items too).
    for (const std::string& ns : store.Namespaces()) {
      for (const dht::StoredItem& item : store.Scan(ns, /*now=*/0)) {
        if (item.expires_at + bound < now) {
          return Status::Internal(
              "soft-state expiry violated at " + HostLabel(node) + ": " +
              item.key.ToString() + " expired " +
              FormatDuration(now - item.expires_at) +
              " ago and was never swept (bound " + FormatDuration(bound) +
              ")");
        }
      }
    }
  }
  return Status::OK();
}

Status PayloadLeakChecker::CheckTeardown(int64_t live_payload_delta) {
  if (live_payload_delta != 0) {
    return Status::Internal(
        "payload leak: " + std::to_string(live_payload_delta) +
        " body buffer(s) still live after teardown");
  }
  return Status::OK();
}

Status OracleFloorChecker::Check(const CheckContext& ctx) {
  if (ctx.queries == nullptr) return Status::OK();
  for (const QueryOutcome& q : *ctx.queries) {
    if (q.min_recall < 0 && q.min_precision < 0) continue;
    if (!q.completed) {
      return Status::Internal("query never completed: " + q.sql);
    }
    if (q.min_recall >= 0 && q.score.recall < q.min_recall) {
      return Status::Internal(
          "recall floor violated for \"" + q.sql + "\": " +
          q.score.ToString() + " < floor " + std::to_string(q.min_recall));
    }
    if (q.min_precision >= 0 && q.score.precision < q.min_precision) {
      return Status::Internal(
          "precision floor violated for \"" + q.sql + "\": " +
          q.score.ToString() + " < floor " +
          std::to_string(q.min_precision));
    }
  }
  return Status::OK();
}

Status CompletenessChecker::Check(const CheckContext& ctx) {
  if (ctx.queries == nullptr) return Status::OK();
  for (const QueryOutcome& q : *ctx.queries) {
    if (!q.completed || !q.oracle_ok) continue;
    if (!q.batch.completeness.exact) continue;
    if (q.score.recall < 1.0 || q.score.precision < 1.0) {
      return Status::Internal(
          "completeness claims exact for \"" + q.sql + "\" but the oracle " +
          (q.score.recall < 1.0 ? "sees missing rows: "
                                : "sees duplicate or extra rows: ") +
          q.score.ToString() + " (" + q.batch.completeness.ToString() + ")");
    }
  }
  return Status::OK();
}

Status ExchangeHygieneChecker::Check(const CheckContext& ctx) {
  core::PierNetwork& net = *ctx.net;
  const TimePoint now = net.sim()->now();
  for (size_t i = 0; i < net.size(); ++i) {
    core::PierNode* node = net.node(i);
    if (!node->alive()) continue;
    // Rule 0 — reliable-plane teardown accounting: the admission gate's
    // pending-byte counter must match what the live queries' outboxes
    // actually hold (an ended query is freed, its bytes refunded). A
    // drifted counter wedges admission into permanent Busy.
    Status acct = node->query_engine()->CheckReliableAccounting();
    if (!acct.ok()) {
      return Status::Internal("reliable-plane accounting at " +
                              HostLabel(node) + ": " + acct.ToString());
    }
    const dht::LocalStore& store = *node->dht()->local_store();
    for (const std::string& ns : store.Namespaces()) {
      // Query-scoped namespaces: "q<qid>.x<edge>" (rehash exchanges) and
      // "q<qid>.reach" (recursion closure state).
      if (ns.size() < 3 || ns[0] != 'q' || !std::isdigit(static_cast<unsigned char>(ns[1]))) continue;
      size_t dot = ns.find('.');
      if (dot == std::string::npos) continue;
      uint64_t qid = 0;
      bool numeric = dot > 1;
      for (size_t p = 1; p < dot; ++p) {
        if (!std::isdigit(static_cast<unsigned char>(ns[p]))) {
          numeric = false;
          break;
        }
        qid = qid * 10 + static_cast<uint64_t>(ns[p] - '0');
      }
      if (!numeric) continue;
      if (store.Scan(ns, now).empty()) continue;  // expired, just unswept
      // Rule 1 — local orphan: exchange items whose query this node itself
      // already tore down (or never knew).
      if (!node->query_engine()->HasLiveQuery(qid)) {
        return Status::Internal(
            "namespace squatting at " + HostLabel(node) + ": live items in " +
            ns + " but query " + std::to_string(qid) +
            " is not live on this node");
      }
      // Rule 2 — dead at the origin: the issuing node (encoded in the
      // query-id's top half) is alive and has ended the query, yet this
      // member still holds live exchange state — a cancel/teardown that
      // never took effect here.
      uint64_t origin_host = (qid >> 32) - 1;
      for (size_t j = 0; j < net.size(); ++j) {
        core::PierNode* origin = net.node(j);
        if (!origin->alive() ||
            static_cast<uint64_t>(origin->host()) != origin_host) {
          continue;
        }
        if (!origin->query_engine()->HasLiveQuery(qid)) {
          return Status::Internal(
              "namespace squatting at " + HostLabel(node) +
              ": live items in " + ns + " but query " + std::to_string(qid) +
              " already ended at its origin " + HostLabel(origin));
        }
      }
    }
  }
  return Status::OK();
}

std::vector<std::unique_ptr<InvariantChecker>> DefaultCheckers() {
  std::vector<std::unique_ptr<InvariantChecker>> out;
  out.push_back(std::make_unique<RoutingConvergenceChecker>());
  out.push_back(std::make_unique<SoftStateExpiryChecker>());
  out.push_back(std::make_unique<PayloadLeakChecker>());
  out.push_back(std::make_unique<OracleFloorChecker>());
  out.push_back(std::make_unique<CompletenessChecker>());
  return out;
}

}  // namespace testkit
}  // namespace pier
