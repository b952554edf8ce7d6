// Shared query-layer protocol surface: the engine's tuning knobs, its
// counters, the client-visible result batch, and the wire tags used by the
// engine's direct and broadcast messages. Split out of engine.h so the
// exchange layer (src/query/exchange.h) and the operator stages
// (src/query/ops/) can depend on it without pulling in the engine itself.

#ifndef PIER_QUERY_PROTOCOL_H_
#define PIER_QUERY_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/tuple.h"
#include "common/time_util.h"

namespace pier {
namespace query {

/// Per-query resource budget, enforced at the scheduler and the exchange
/// layer. 0 = unlimited. A tripped budget never silently drops the answer:
/// the member stops doing work, tells the origin via kBudgetTrip, and the
/// batch's Completeness reports budget_trips > 0 with exact = false.
struct QueryBudget {
  /// Max bytes of reliable result/partial frames a member may ship to the
  /// origin for this query.
  uint64_t max_result_bytes = 0;
  /// Max rehash-exchange puts a node may issue for this query (join/agg
  /// fan-out cap).
  uint64_t max_rehash_puts = 0;
  /// Max rows the origin accumulates in one epoch's result window.
  uint64_t max_result_rows = 0;
};

/// The engine's tuning knobs: the windows and bounds a deployment (or a
/// test shrinking virtual time) actually sets. Everything else the engine
/// paces itself by is a named constant beside the code that uses it.
struct EngineOptions {
  /// How long the origin waits for distributed results before finalizing an
  /// epoch (the paper's demo semantics: sum over nodes *responding* in the
  /// window).
  Duration result_wait = Seconds(8);
  /// Aggregation's fallback close. A scan-fed tree node flushes once its
  /// partials' contributor count reaches its subtree's size, and a
  /// join-fed rendezvous flushes whenever its joins settle. When that never
  /// happens (a crashed child, a shed member, an incomplete cover wave, a
  /// rendezvous that never settles), a node at depth d flushes
  /// agg_hold_base * max(1, kAggAssumedDepth - d) after its first
  /// contribution (kAggAssumedDepth = 8, query/ops/agg_stage.cc), so
  /// children flush before parents.
  Duration agg_hold_base = Millis(800);
  /// Bloom join: origin collects per-node filters for this long before
  /// redistributing the union (filter geometry: query/bloom_wire.h).
  Duration bloom_wait = Seconds(4);
  /// Recursion: the origin declares fixpoint after this long without a new
  /// result, bounded by recursion_deadline.
  Duration quiesce_window = Seconds(6);
  Duration recursion_deadline = Seconds(120);
  // -- admission control ------------------------------------------------------
  /// Per-node live-query budget. Origins refuse Execute() with
  /// Status::Busy; members shed the plan at install time and answer with a
  /// typed kAdmissionReject instead of silently timing out.
  uint32_t max_live_queries = 256;
  /// Per-node bound on bytes sitting in unacked reliable-result outboxes.
  uint64_t max_pending_result_bytes = 8ull << 20;
};

struct EngineStats {
  uint64_t queries_issued = 0;
  uint64_t plans_received = 0;
  uint64_t scans_run = 0;
  uint64_t tuples_scanned = 0;
  uint64_t result_msgs_sent = 0;
  uint64_t result_msgs_received = 0;
  uint64_t partial_msgs_sent = 0;
  uint64_t partial_msgs_received = 0;
  /// Result and partial frames reaching the origin after their epoch
  /// finalized, one per frame, before and after the query ended there —
  /// stragglers the best-effort window dropped (they are counted, not
  /// folded into the already-delivered answer).
  uint64_t late_partials = 0;
  uint64_t rehash_puts = 0;
  uint64_t fetch_gets = 0;
  uint64_t semijoin_fetches = 0;
  uint64_t bloom_filters_sent = 0;
  uint64_t bloom_suppressed = 0;
  // -- Bloom filter-wave accounting (PR 10) ----------------------------------
  uint64_t bloom_parts_received = 0;  ///< origin: parts unioned in-window
  /// Origin: parts arriving after the bloom_wait broadcast closed the wave.
  /// They are counted, never unioned — a filter already broadcast cannot be
  /// amended, so the wave that missed them went out flagged incomplete.
  uint64_t bloom_parts_late = 0;
  uint64_t bloom_waves_complete = 0;  ///< origin: waves broadcast suppressing
  uint64_t bloom_waves_degraded = 0;  ///< origin: waves broadcast non-suppressing
  /// Member: kBloomDist never arrived (lost broadcast / partition); the
  /// fallback timer produced the full unsuppressed rehash instead.
  uint64_t bloom_dist_timeouts = 0;
  /// Member: serialized bytes of tuples a complete filter wave suppressed
  /// (traffic the Bloom strategy saved vs. the full rehash).
  uint64_t bloom_bytes_saved = 0;
  /// Member: full-tuple bytes minus key-projection bytes across semi-join
  /// rehashes (traffic the semi-join strategy saved vs. the full rehash).
  uint64_t semijoin_bytes_saved = 0;
  uint64_t recursion_expansions = 0;
  uint64_t recursion_duplicates = 0;
  // -- PHT index scans (origin-side) ----------------------------------------
  uint64_t index_scans_run = 0;      ///< cursor walks started
  uint64_t index_probes = 0;         ///< trie-node DHT gets issued
  uint64_t index_leaves = 0;         ///< leaves visited across walks
  uint64_t index_rows = 0;           ///< in-range rows emitted by cursors
  uint64_t index_early_finalizes = 0; ///< one-shot answers closed before
                                      ///< the result_wait deadline
  uint64_t index_fallbacks = 0;      ///< cursor failed or index cold ->
                                     ///< re-planned as broadcast scan
  // -- vectorized data plane -------------------------------------------------
  uint64_t batches_scanned = 0;      ///< RowBatches flushed by batch scans
  /// Row-at-a-time producer passes: index-cursor epochs
  /// (IndexScanStage::RunEpoch), which feed the batch chain one-row
  /// batches. Every local scan is a batch sweep.
  uint64_t vectorized_fallbacks = 0;
  // -- reliable result plane -------------------------------------------------
  uint64_t frames_sent = 0;           ///< kFrame envelopes first-sent
  uint64_t frames_acked = 0;          ///< acks consumed by a pending frame
  uint64_t frames_retransmitted = 0;  ///< retry sends (all frame kinds)
  uint64_t frame_bytes_retransmitted = 0;
  uint64_t frames_lost = 0;           ///< retry budget exhausted
  uint64_t frame_dupes_dropped = 0;   ///< receiver-side dedupe hits
  uint64_t epoch_reports_sent = 0;
  uint64_t epoch_reports_received = 0;
  /// One-shot epochs closed before result_wait because every expected
  /// member reported a fully-acked, loss-free epoch (the reliable plane's
  /// analogue of index_early_finalizes).
  uint64_t reliable_early_finalizes = 0;
  // -- lifecycle -------------------------------------------------------------
  uint64_t queries_cancelled = 0;        ///< user Cancel() at the origin
  uint64_t queries_deadline_expired = 0; ///< origin + member self-expiries
  uint64_t leases_reclaimed = 0;         ///< member lease fired (dead origin)
  // -- admission control -----------------------------------------------------
  uint64_t admission_refusals = 0;          ///< origin-side Execute refusals
  uint64_t plans_shed = 0;                  ///< member-side installs refused
  uint64_t admission_rejects_received = 0;  ///< origin-side kAdmissionReject
  // -- acked rehash puts -----------------------------------------------------
  uint64_t rehash_put_failures = 0;  ///< exchange puts dead after DHT retries
  uint64_t rehash_dupes_dropped = 0; ///< arrival instances deduped at stages
  // -- multi-tenant scheduler ------------------------------------------------
  uint64_t store_sweeps = 0;       ///< LocalStore sweeps materialized
  uint64_t shared_scan_hits = 0;   ///< scans served from a shared sweep
  uint64_t sched_rounds = 0;       ///< round-robin dispatch rounds run
  // -- per-query budgets -----------------------------------------------------
  uint64_t budget_trips = 0;           ///< queries that hit a budget (per node)
  uint64_t budget_frames_dropped = 0;  ///< result frames refused post-trip
  uint64_t budget_rehash_dropped = 0;  ///< rehash puts refused post-trip
  uint64_t budget_rows_dropped = 0;    ///< origin rows refused post-trip
};

/// Answer-quality accounting attached to every ResultBatch: how much of the
/// network the answer actually covers and what was lost getting it here.
/// The contract is *degrade loudly, never silently drop rows* — a batch is
/// marked `exact` only when the engine can certify nothing is missing.
struct Completeness {
  /// Members the dissemination tree confirmed covered for this epoch's plan
  /// broadcast (origin included). 0 = coverage unknown (reliable broadcast
  /// disabled or the cover wave had not returned by finalize time).
  uint64_t members_expected = 0;
  /// Members whose results (or per-epoch completion reports) reached the
  /// origin for this epoch, origin included. For scan-fed aggregation, the
  /// contributors the partials that reached the root's combine count.
  uint64_t members_reported = 0;
  /// The broadcast cover wave confirmed every reachable subtree delivered.
  bool coverage_complete = false;
  /// Frame retransmits / frames dropped after the retry budget, summed over
  /// the members that reported (plus the origin's own outbox). Joins add
  /// what their edges lost for good: rehash puts and fetch-matches gets
  /// that ran out of DHT retries, arrivals that failed to decode, and
  /// semi-join fetches that found no row; and fetch-matches gets whose
  /// owner could not vouch for its answer (dht::Dht::GetVouched).
  uint64_t frames_retried = 0;
  uint64_t frames_lost = 0;
  /// Members that refused the plan at admission (kAdmissionReject).
  uint64_t members_shed = 0;
  /// Nodes (members or the origin itself) that stopped work on this query
  /// because a per-query resource budget tripped. Any trip bars exactness:
  /// the rows that were not shipped are declared, never silently dropped.
  uint64_t budget_trips = 0;
  /// Bloom filter waves this query's origin had to broadcast incomplete
  /// (parts lost/late or coverage unknown at bloom_wait): those join edges
  /// ran the full rehash instead of suppressing — slower and heavier, but
  /// no rows were dropped. Any degraded wave bars exactness.
  uint64_t filter_waves_degraded = 0;
  bool cancelled = false;
  bool deadline_expired = false;
  /// Engine-certified: coverage complete, the topology stable, zero
  /// members shed, no budget tripped, and every covered member accounted
  /// for. Scan pipelines account by per-member reports (zero frames lost,
  /// every data frame a member claims to have sent admitted at the
  /// origin); scan-fed aggregation by contributor counts (the root's total
  /// equals members_expected). Joins account by reports too, and each join
  /// edge's books must balance: the rehash frames shipped into it equal the
  /// arrivals consumed from it. That covers join-fed aggregation, whose
  /// rendezvous ship their partial groups to the origin as data frames
  /// their reports claim. Recursion stays non-exact.
  bool exact = false;

  std::string ToString() const {
    std::string s = exact ? "exact" : "degraded";
    s += " members=" + std::to_string(members_reported) + "/" +
         std::to_string(members_expected);
    s += coverage_complete ? " covered" : " coverage-unknown";
    s += " retried=" + std::to_string(frames_retried);
    s += " lost=" + std::to_string(frames_lost);
    s += " shed=" + std::to_string(members_shed);
    if (budget_trips > 0) s += " budget-trips=" + std::to_string(budget_trips);
    if (filter_waves_degraded > 0) {
      s += " filter-waves-degraded=" + std::to_string(filter_waves_degraded);
    }
    if (cancelled) s += " cancelled";
    if (deadline_expired) s += " deadline-expired";
    return s;
  }
};

/// One epoch's worth of answers, delivered to the issuing client.
struct ResultBatch {
  uint64_t query_id = 0;
  uint64_t epoch = 0;
  /// Nodes heard from this epoch (aggregation queries: distinct reporters).
  size_t reporting_nodes = 0;
  /// Result provenance (diagnostic): the distinct hosts whose results or
  /// partials were folded into `rows`, sorted ascending. Under tree
  /// aggregation interior nodes subsume their subtrees, so this is the set
  /// of direct reporters, not every contributor. The fault testkit asserts
  /// its consistency with `reporting_nodes` and surfaces it when
  /// attributing degraded answers; answer scoring itself compares row
  /// multisets only.
  std::vector<uint32_t> reporters;
  std::vector<catalog::Tuple> rows;
  /// How complete this answer is and why (see Completeness).
  Completeness completeness;
};

/// Message types under overlay::Proto::kQuery (direct engine traffic).
/// Result, partial, epoch-report and budget-trip messages are accepted only
/// as the inner bytes of an admitted kFrame; a bare one is dropped.
enum class MsgType : uint8_t {
  kFetchReq = 3,
  kFetchResp = 4,
  kBloomPart = 5,
  /// Result rows (kToOrigin). Payload: [qid][epoch][RowBatch] — one frame
  /// carries a batch of rows, and a single row goes in RowBatch's
  /// tuple-encoded one-row form.
  kResult = 6,
  /// Partial aggregates (kTree / to the origin). Payload: [qid][epoch]
  /// [contributors][RowBatch]: the varint counts the nodes whose partials
  /// are folded into the batch (0 for join-fed aggregation). A count-only
  /// frame carries an empty batch. A frame whose count or batch fails to
  /// decode is dropped whole.
  kPartial = 7,
  /// Reliable envelope: [qid][incarnation][frame_id][inner message bytes].
  /// The inner bytes are a complete direct message (kResult/kPartial/
  /// kEpochReport/kBudgetTrip). Frame ids count from 1 per incarnation: the
  /// sender's install time of the query (ms), so a rebooted or re-installed
  /// sender is not taken for a retransmitter. Receivers always ack —
  /// including duplicates and unknown queries, so retransmit storms die —
  /// and admit the inner message only on first sight of the frame id.
  kFrame = 8,
  /// [qid][frame_id], receiver -> sender.
  kFrameAck = 9,
  /// Member -> origin, per-epoch completion claim (sent as a control frame
  /// when the member's reliable outbox drains): [qid][epoch]
  /// [cumulative data frames sent to origin][retries][losses][flags]
  /// (flags bit 0: a per-query budget tripped on this member). The origin
  /// certifies an epoch exact only when every covered member's claim
  /// matches what it admitted and no flags are set.
  /// Join graphs set flags bit 1 (kReportBooks), and the member's join
  /// books follow: [n]([join node][shipped][consumed])*n, then [bool] and,
  /// if set, the ownership range (from, self] it consumed under as two
  /// node ids. Flags bit 2 (kReportRangeMoved): the member's range may
  /// have moved since the join installed there (its ring neighbourhood
  /// changed), or it holds fetch-matches inner rows no probe can reach.
  /// Reports without joins carry neither bit.
  kEpochReport = 10,
  /// Member -> origin, admission shed: [qid][reason u8]. Sent instead of
  /// installing the plan when the member is over budget.
  kAdmissionReject = 11,
  /// Member -> origin, sent (as a reliable control frame) the first time a
  /// per-query budget trips on the member: [qid]. The origin folds it into
  /// Completeness::budget_trips and withholds the exact certification.
  kBudgetTrip = 12,
};

/// kEpochReport flag bits.
inline constexpr uint64_t kReportBudgetTripped = 1;
inline constexpr uint64_t kReportBooks = 2;
inline constexpr uint64_t kReportRangeMoved = 4;

/// One join's rehash books on one node: the rehash frames into the join's
/// exchange namespace the DHT acked (`shipped`, one per owner bucket, not
/// per row), and the arrivals handed to the join after the runtime's
/// instance dedupe that decoded (`consumed`). Summed over every node, a
/// join's two columns balance once nothing shipped into it is still in
/// flight or unconsumed. Both are cumulative, so reports merge by max.
struct JoinBooks {
  uint32_t join_node = 0;
  uint64_t shipped = 0;
  uint64_t consumed = 0;
};

/// kAdmissionReject reasons.
enum class AdmissionReason : uint8_t {
  kLiveQueries = 1,
  kPendingBytes = 2,
};

/// Broadcast payload kinds (dissemination-tree traffic).
enum class BcastKind : uint8_t {
  kPlan = 1,
  kBloomDist = 2,
  kQueryEnd = 3,
  /// Cancellation/expiry: [qid]. Same member-side teardown as kQueryEnd
  /// (stage state and q<id>.x<n> namespaces dropped immediately, not at
  /// TTL), kept distinct so traces show *why* the query ended.
  kCancel = 4,
};

}  // namespace query
}  // namespace pier

#endif  // PIER_QUERY_PROTOCOL_H_
