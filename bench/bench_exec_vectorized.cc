// Vectorized vs tuple-at-a-time execution on the Table-1-style workload:
// decode a node's stored slice of the raw snort alert feed, filter on hits,
// and aggregate SUM(hits)/COUNT(*) grouped by rule_id — the local pipeline
// every node runs when the paper's top-intrusions query lands on it. The
// stored rows carry the full alert record (timestamps, addresses, ports,
// description) the way a real snort feed does; the Table-1 query touches
// only rule_id and hits. Both planes decode all seven columns of every
// row, as the engine's scan sweep does: the tuple plane boxes them into a
// Tuple, the batch plane appends them to typed column lanes.
//
// Both planes consume identical serialized tuple bytes (what the DHT store
// actually holds) and must drain identical final aggregate rows (the
// tuple plane's one-pass exec::GroupBy is the scalar reference); the
// bench's exit code carries that self-check only. --min-speedup is off by
// default (timing alone never fails CI on a slow machine). The printed
// target is >=5x rows/s for the batch plane over the tuple plane; on the
// all-column decode path it is not met (see docs/benchmarks.md).
//
//   bench_exec_vectorized [--rows=N] [--reps=N] [--min-speedup=X] [--json[=path]]

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "catalog/tuple.h"
#include "common/bench_json.h"
#include "common/rng.h"
#include "exec/batch.h"
#include "exec/kernels.h"
#include "exec/operators.h"
#include "workload/workloads.h"

namespace pier {
namespace {

using catalog::Tuple;

struct Config {
  size_t rows = 200000;
  int reps = 5;
  double min_speedup = 0;
  size_t batch_size = 1024;
};

/// Stored row layout of the raw alert feed, the record shape a snort
/// sensor actually emits: endpoints and classification ride along as
/// strings. Table 1's query reads only kRuleId and kHits.
constexpr size_t kNumCols = 7;
constexpr int kRuleId = 0;
constexpr int kHits = 6;

catalog::Schema RawAlertSchema() {
  return catalog::Schema(
      "alerts", {{"rule_id", ValueType::kInt64},
                 {"ts", ValueType::kDouble},
                 {"src", ValueType::kString},
                 {"dst", ValueType::kString},
                 {"proto", ValueType::kString},
                 {"descr", ValueType::kString},
                 {"hits", ValueType::kInt64}});
}

std::string Endpoint(Rng& rng) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u:%u",
                static_cast<unsigned>(rng.UniformInt(1, 223)),
                static_cast<unsigned>(rng.UniformInt(0, 255)),
                static_cast<unsigned>(rng.UniformInt(0, 255)),
                static_cast<unsigned>(rng.UniformInt(1, 254)),
                static_cast<unsigned>(rng.UniformInt(1024, 65535)));
  return buf;
}

/// A node-local slice of the alert feed in store form: serialized tuple
/// bytes, rule popularity zipf-skewed like the workload generator's.
std::vector<std::string> MakeSlice(size_t rows, uint64_t seed) {
  Rng rng(seed);
  const auto& rules = workload::PaperTable1Rules();
  static const char* kProtos[] = {"TCP", "UDP", "ICMP"};
  std::vector<std::string> bytes;
  bytes.reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    const auto& rule = rules[rng.Zipf(rules.size(), 1.1) - 1];
    Tuple t{Value::Int64(rule.rule_id),
            Value::Double(1.05e9 + static_cast<double>(i)),
            Value::String(Endpoint(rng)),
            Value::String(Endpoint(rng)),
            Value::String(kProtos[rng.UniformInt(0, 2)]),
            Value::String(rule.description),
            Value::Int64(rng.UniformInt(0, 5000))};
    bytes.push_back(catalog::TupleToBytes(t));
  }
  return bytes;
}

exec::ExprPtr HitsPredicate() {
  // WHERE hits > 4000: drops ~80% of rows, the shape filters earn their
  // keep on — the batch plane narrows a selection bitmap and never
  // materializes the dropped rows.
  return exec::Expr::Compare(exec::CompareOp::kGt, exec::Expr::Column(kHits),
                             exec::Expr::Literal(Value::Int64(4000)));
}

std::vector<exec::AggSpec> Aggs() {
  return {{exec::AggFunc::kSum, kHits, "hits"},
          {exec::AggFunc::kCount, -1, "n"}};
}

/// The tuple plane: per-row deserialize, scalar predicate, scalar
/// group-by — the per-tuple scan + filter + aggregation pipeline the
/// engine ran before vectorization.
std::vector<Tuple> RunTuplePlane(const std::vector<std::string>& slice,
                                 const exec::ExprPtr& pred) {
  exec::GroupBy gb({kRuleId}, Aggs());
  Tuple t;
  for (const std::string& bytes : slice) {
    if (!catalog::TupleFromBytes(bytes, &t).ok()) continue;
    if (t.size() != kNumCols) continue;
    bool pass = false;
    if (exec::EvalPredicate(*pred, t, &pass).ok() && pass) gb.Push(t);
  }
  return gb.Drain();
}

/// The batch plane: serialized bytes decode straight into column vectors,
/// the predicate's batch kernels produce a selection bitmap, and VectorGroupBy
/// accumulates grouped partials batch-at-a-time and finalizes them.
std::vector<Tuple> RunBatchPlane(const std::vector<std::string>& slice,
                                 const exec::Expr& pred,
                                 size_t batch_size) {
  exec::RowBatchBuilder builder(RawAlertSchema());
  builder.Reserve(batch_size);
  exec::VectorGroupBy vgb({kRuleId}, Aggs());
  exec::Bitmap keep;
  auto flush = [&]() {
    exec::RowBatch b = builder.Take();
    if (b.num_rows() == 0) return;
    exec::EvalSelection(pred, b, &keep);
    exec::NarrowSelection(&b, keep);
    if (b.ActiveRows() > 0) vgb.PushBatch(b);
  };
  for (const std::string& bytes : slice) {
    builder.AppendSerialized(bytes);
    if (builder.num_rows() >= batch_size) flush();
  }
  flush();
  return vgb.Drain(/*finalize=*/true);
}

int Run(const Config& cfg, bench::JsonReport* report) {
  std::printf("== vectorized exec: filter+agg over a snort_alerts slice ==\n");
  std::printf("rows=%zu reps=%d batch_size=%zu\n", cfg.rows, cfg.reps,
              cfg.batch_size);

  std::vector<std::string> slice = MakeSlice(cfg.rows, /*seed=*/20040613);
  exec::ExprPtr pred = HitsPredicate();

  // Correctness first: both planes must produce identical final rows.
  std::vector<Tuple> want = RunTuplePlane(slice, pred);
  std::vector<Tuple> got = RunBatchPlane(slice, *pred, cfg.batch_size);
  bool identical = want.size() == got.size();
  for (size_t i = 0; identical && i < want.size(); ++i) {
    identical = catalog::CompareTuples(want[i], got[i]) == 0;
  }
  std::printf("groups=%zu identical=%s\n", want.size(),
              identical ? "yes" : "NO");
  if (!identical) return 1;

  // Interleaved best-of timing so cache warmth favors neither plane.
  double tuple_best = 1e100, batch_best = 1e100;
  size_t guard = 0;
  for (int rep = 0; rep < cfg.reps; ++rep) {
    bench::WallTimer tt;
    guard += RunTuplePlane(slice, pred).size();
    tuple_best = std::min(tuple_best, tt.Seconds());
    bench::WallTimer bt;
    guard += RunBatchPlane(slice, *pred, cfg.batch_size).size();
    batch_best = std::min(batch_best, bt.Seconds());
  }
  double tuple_rps = static_cast<double>(cfg.rows) / tuple_best;
  double batch_rps = static_cast<double>(cfg.rows) / batch_best;
  double speedup = batch_rps / tuple_rps;
  std::printf("tuple plane:  %12.0f rows/s (best of %d)\n", tuple_rps,
              cfg.reps);
  std::printf("batch plane:  %12.0f rows/s (best of %d)\n", batch_rps,
              cfg.reps);
  std::printf("speedup:      %12.2fx (target: >=5x)   [guard=%zu]\n",
              speedup, guard);

  report->Metric("tuple_rows_per_s", tuple_rps, "rows/s");
  report->Metric("batch_rows_per_s", batch_rps, "rows/s");
  report->Metric("speedup", speedup, "x");
  report->Metric("groups", static_cast<double>(want.size()), "groups");

  if (cfg.min_speedup > 0 && speedup < cfg.min_speedup) {
    std::printf("FAIL: speedup %.2fx below required %.2fx\n", speedup,
                cfg.min_speedup);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace pier

int main(int argc, char** argv) {
  pier::bench::JsonOptions json = pier::bench::ParseJsonFlag(argc, argv);
  pier::Config cfg;
  for (const std::string& arg : json.args) {
    if (arg.rfind("--rows=", 0) == 0) {
      cfg.rows = static_cast<size_t>(std::atoll(arg.c_str() + 7));
    } else if (arg.rfind("--reps=", 0) == 0) {
      cfg.reps = std::atoi(arg.c_str() + 7);
    } else if (arg.rfind("--min-speedup=", 0) == 0) {
      cfg.min_speedup = std::atof(arg.c_str() + 14);
    } else if (arg.rfind("--batch-size=", 0) == 0) {
      cfg.batch_size = static_cast<size_t>(std::atoll(arg.c_str() + 13));
    }
  }
  pier::bench::JsonReport report("bench_exec_vectorized");
  int rc = pier::Run(cfg, &report);
  if (rc == 0 && json.enabled && !report.WriteMerged(json.path)) {
    std::fprintf(stderr, "failed to write %s\n", json.path.c_str());
    return 1;
  }
  return rc;
}
