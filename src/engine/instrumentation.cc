#include "engine/instrumentation.h"

#include <algorithm>
#include <cstdlib>
#include <unordered_map>
#include <unordered_set>

#include "obs/metrics.h"
#include "obs/profile.h"
#include "planspace/observability.h"
#include "sketch/tap.h"
#include "util/bitmask.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace etlopt {
namespace {

// Fault-injection identity of a tap: the stat_io kind token, so specs read
// "tap:distinct:oom" in the same vocabulary the codec uses.
const char* TapFaultName(StatKind kind) {
  switch (kind) {
    case StatKind::kCard:
      return "card";
    case StatKind::kDistinct:
      return "distinct";
    case StatKind::kHist:
      return "hist";
    case StatKind::kRejectJoinCard:
      return "rejcard";
    case StatKind::kRejectJoinHist:
      return "rejhist";
  }
  return "?";
}

// Per-tap byte allowance for the OOM-downgrade fallback: when an exact
// collector's allocation is failed by injection, the retry uses a sketch
// bounded to this much memory (a deliberately small ask — the premise is
// that memory is tight).
constexpr int64_t kDowngradeTapBytes = 64 * 1024;

// The pipeline-point node for a Card/Distinct/Hist key.
Result<NodeId> PointNode(const BlockContext& ctx, const StatKey& key) {
  if (key.is_chain_stage()) {
    return ctx.StageNode(LowestBit(key.rels), key.stage);
  }
  auto it = ctx.on_path().find(key.rels);
  if (it == ctx.on_path().end()) {
    return Status::InvalidArgument("SE not on-path: " + key.ToString());
  }
  return it->second;
}

// The pipeline-point table for a Card/Distinct/Hist key.
Result<const Table*> PointTable(const BlockContext& ctx,
                                const ExecutionResult& exec,
                                const StatKey& key) {
  ETLOPT_ASSIGN_OR_RETURN(const NodeId node, PointNode(ctx, key));
  auto it = exec.node_outputs.find(node);
  if (it == exec.node_outputs.end()) {
    return Status::Internal("no cached output for node " +
                            std::to_string(node));
  }
  return &it->second;
}

// ---- per-partition tap kernels ------------------------------------------
// Each runs the tap partition-local (optionally on the pool) and merges the
// per-partition states; see ParallelTapContext for the equivalence
// argument. `merge_ns` accumulates only the merge step.

// The partition slices a key can tap, or null when the key's point did not
// run partitioned (serial run, pre/post node, reject-join key).
const std::vector<Table>* KeySlices(const BlockContext& ctx,
                                    const ParallelTapContext& par,
                                    const StatKey& key) {
  if (par.slices == nullptr) return nullptr;
  if (key.kind != StatKind::kCard && key.kind != StatKind::kDistinct &&
      key.kind != StatKind::kHist) {
    return nullptr;
  }
  const Result<NodeId> node = PointNode(ctx, key);
  if (!node.ok()) return nullptr;
  const auto it = par.slices->find(*node);
  if (it == par.slices->end() || it->second.empty()) return nullptr;
  return &it->second;
}

// The key columns of `attrs` as raw column pointers — the zero-copy feed
// the columnar tap kernels consume.
std::vector<const Value*> KeyColumnData(const Table& t, AttrMask attrs) {
  std::vector<const Value*> data;
  for (int idx : MaskToIndices(attrs)) {
    data.push_back(t.column_data(t.schema().IndexOf(static_cast<AttrId>(idx))));
  }
  return data;
}

int64_t MergedSliceRows(const std::vector<Table>& slices) {
  int64_t rows = 0;
  for (const Table& t : slices) rows += t.num_rows();
  return rows;
}

// Exact distinct: per-partition key sets, merged by union.
int64_t MergedDistinctCount(const std::vector<Table>& slices, AttrMask attrs,
                            ThreadPool* pool, int64_t* merge_ns) {
  using KeySet = std::unordered_set<std::vector<Value>, ValueVecHash>;
  std::vector<KeySet> sets(slices.size());
  ParallelForEach(pool, static_cast<int>(slices.size()), [&](int p) {
    const Table& t = slices[static_cast<size_t>(p)];
    if (t.num_rows() == 0) return;
    const std::vector<const Value*> data = KeyColumnData(t, attrs);
    KeySet& set = sets[static_cast<size_t>(p)];
    set.reserve(static_cast<size_t>(t.num_rows()));
    std::vector<Value> probe(data.size());
    for (int64_t r = 0; r < t.num_rows(); ++r) {
      for (size_t c = 0; c < data.size(); ++c) {
        probe[c] = data[c][r];
      }
      set.insert(probe);
    }
  });
  const int64_t merge_start = obs::ProfileNowNs();
  for (size_t p = 1; p < sets.size(); ++p) {
    sets[0].insert(sets[p].begin(), sets[p].end());
  }
  *merge_ns += obs::ProfileNowNs() - merge_start;
  return static_cast<int64_t>(sets[0].size());
}

// Exact histogram: per-partition exact histograms, merged by bucket-wise
// addition — identical buckets to one histogram over the gathered table.
Histogram MergedExactHistogram(const std::vector<Table>& slices,
                               AttrMask attrs, ThreadPool* pool,
                               int64_t* merge_ns) {
  std::vector<Histogram> parts(slices.size());
  ParallelForEach(pool, static_cast<int>(slices.size()), [&](int p) {
    const Table& t = slices[static_cast<size_t>(p)];
    // A crashed partition's slice is empty (default table): contribute an
    // empty histogram rather than probing its absent schema.
    parts[static_cast<size_t>(p)] =
        t.num_rows() > 0 ? t.BuildHistogram(attrs) : Histogram(attrs);
  });
  const int64_t merge_start = obs::ProfileNowNs();
  Histogram merged(attrs);
  for (const Histogram& h : parts) merged.AddAll(h);
  *merge_ns += obs::ProfileNowNs() - merge_start;
  return merged;
}

// Sketch distinct: one HLL per partition, merged register-wise. A serial
// tap is the one-slice case (null `merge_ns`: there is no merge to time).
sketch::DistinctTap MergedDistinctTap(const std::vector<Table>& slices,
                                      AttrMask attrs,
                                      const sketch::TapSketchConfig& config,
                                      ThreadPool* pool, int64_t* merge_ns) {
  std::vector<sketch::DistinctTap> parts(slices.size(),
                                         sketch::DistinctTap(config));
  ParallelForEach(pool, static_cast<int>(slices.size()), [&](int p) {
    const Table& t = slices[static_cast<size_t>(p)];
    if (t.num_rows() == 0) return;
    parts[static_cast<size_t>(p)].AddColumns(KeyColumnData(t, attrs),
                                             t.num_rows());
  });
  const int64_t merge_start = obs::ProfileNowNs();
  for (size_t p = 1; p < parts.size(); ++p) {
    ETLOPT_CHECK_MSG(parts[0].Merge(parts[p]).ok(),
                     "distinct tap shapes diverged");
  }
  if (merge_ns != nullptr) *merge_ns += obs::ProfileNowNs() - merge_start;
  return std::move(parts[0]);
}

// Sketch histogram: one CM+KMV tap per partition, merged losslessly; the
// serial tap is the one-slice case, as above.
sketch::HistTap MergedHistTap(const std::vector<Table>& slices, AttrMask attrs,
                              const sketch::TapSketchConfig& config,
                              ThreadPool* pool, int64_t* merge_ns) {
  std::vector<sketch::HistTap> parts(slices.size(), sketch::HistTap(config));
  ParallelForEach(pool, static_cast<int>(slices.size()), [&](int p) {
    const Table& t = slices[static_cast<size_t>(p)];
    if (t.num_rows() == 0) return;
    parts[static_cast<size_t>(p)].AddColumns(KeyColumnData(t, attrs),
                                             t.num_rows());
  });
  const int64_t merge_start = obs::ProfileNowNs();
  for (size_t p = 1; p < parts.size(); ++p) {
    ETLOPT_CHECK_MSG(parts[0].Merge(parts[p]).ok(),
                     "hist tap shapes diverged");
  }
  if (merge_ns != nullptr) *merge_ns += obs::ProfileNowNs() - merge_start;
  return std::move(parts[0]);
}

// The reject table and R-side table + join attribute of a reject-join key:
// shared lookup for the materializing and the streaming observers.
struct RejectJoinInputs {
  const Table* rejects = nullptr;
  const Table* r_table = nullptr;
  AttrId attr = kInvalidAttr;
};

Result<RejectJoinInputs> FindRejectJoinInputs(const BlockContext& ctx,
                                              const ExecutionResult& exec,
                                              const StatKey& key) {
  const RelMask l = key.reject_left;
  const RelMask k_mask = RelMask{1} << key.reject_k;
  const RelMask r = key.rels;

  // The designed join of L with k.
  auto join_it = ctx.on_path().find(l | k_mask);
  if (join_it == ctx.on_path().end()) {
    return Status::InvalidArgument("L⋈k not on-path for " + key.ToString());
  }
  const NodeId join_node = join_it->second;
  const BlockJoin* bj = nullptr;
  for (const BlockJoin& j : ctx.block().joins) {
    if (j.node == join_node) {
      bj = &j;
      break;
    }
  }
  if (bj == nullptr) return Status::Internal("designed join not found");

  RejectJoinInputs inputs;
  if (bj->left == l && bj->right == k_mask) {
    auto it = exec.join_rejects.find(join_node);
    if (it != exec.join_rejects.end()) inputs.rejects = &it->second;
  } else if (bj->left == k_mask && bj->right == l) {
    auto it = exec.join_rejects_right.find(join_node);
    if (it != exec.join_rejects_right.end()) inputs.rejects = &it->second;
  }
  if (inputs.rejects == nullptr) {
    return Status::Internal("reject rows unavailable for " + key.ToString());
  }

  // Side join with the on-path R table on the edge connecting L and R.
  const int edge = ctx.graph().CrossingEdge(l, r);
  if (edge < 0) {
    return Status::InvalidArgument("no unique edge between L and R for " +
                                   key.ToString());
  }
  inputs.attr = ctx.graph().edges()[static_cast<size_t>(edge)].attr;
  auto r_it = ctx.on_path().find(r);
  if (r_it == ctx.on_path().end()) {
    return Status::InvalidArgument("R not on-path for " + key.ToString());
  }
  // On an aborted parallel run the on-path node may exist without a merged
  // output; salvage must skip the tap, not crash.
  const auto out_it = exec.node_outputs.find(r_it->second);
  if (out_it == exec.node_outputs.end()) {
    return Status::Internal("R table unavailable for " + key.ToString() +
                            " (node output missing after abort)");
  }
  inputs.r_table = &out_it->second;
  return inputs;
}

// Materializes reject(L wrt k) ⋈ R for a reject-join key (exact taps).
Result<Table> RejectSideJoin(const BlockContext& ctx,
                             const ExecutionResult& exec, const StatKey& key) {
  ETLOPT_ASSIGN_OR_RETURN(const RejectJoinInputs in,
                          FindRejectJoinInputs(ctx, exec, key));
  return HashJoin(*in.rejects, *in.r_table, in.attr, nullptr);
}

// Reject rows probed per chunk by StreamRejectSideJoin: bounds the pair
// selections it holds at once to a chunk's matches.
constexpr int64_t kStreamProbeRows = 4096;

// Streams the pairs of reject(L wrt k) ⋈ R without materializing the joined
// table: builds the R-side hash index (needed by any join evaluation),
// probes it chunk by chunk, and hands each matching pair to
// `emit(left_row, r_row_index)` in the join's emission order (left rows in
// order, each key's matches in R order).
template <typename Emit>
Status StreamRejectSideJoin(const RejectJoinInputs& in, Emit&& emit) {
  const int lkey = in.rejects->schema().IndexOf(in.attr);
  const int rkey = in.r_table->schema().IndexOf(in.attr);
  if (lkey < 0 || rkey < 0) {
    return Status::Internal("join key missing from reject-join input");
  }
  const JoinHashTable ht(in.r_table->column_data(rkey),
                         in.r_table->num_rows());
  const Value* lvals = in.rejects->column_data(lkey);
  JoinProbe probe;
  for (int64_t begin = 0; begin < in.rejects->num_rows();
       begin += kStreamProbeRows) {
    ht.Probe(lvals + begin,
             std::min(kStreamProbeRows, in.rejects->num_rows() - begin),
             &probe, nullptr, nullptr);
    for (size_t i = 0; i < probe.probe_sel.size(); ++i) {
      emit(begin + probe.probe_sel[i], probe.build_sel[i]);
    }
  }
  return Status::OK();
}

// Column lookup plan for extracting a histogram key from the (virtual)
// joined row of a reject-side join: each attribute resolves to the left
// (reject) side or, failing that, the R side.
struct JoinedKeyPlan {
  struct Col {
    bool from_left = true;
    int index = 0;
  };
  std::vector<Col> cols;
};

Result<JoinedKeyPlan> PlanJoinedKey(const RejectJoinInputs& in,
                                    AttrMask attrs) {
  JoinedKeyPlan plan;
  for (int idx : MaskToIndices(attrs)) {
    JoinedKeyPlan::Col col;
    const int l = in.rejects->schema().IndexOf(static_cast<AttrId>(idx));
    if (l >= 0) {
      col.from_left = true;
      col.index = l;
    } else {
      const int r = in.r_table->schema().IndexOf(static_cast<AttrId>(idx));
      if (r < 0) {
        return Status::InvalidArgument(
            "histogram attribute missing from reject-join schema");
      }
      col.from_left = false;
      col.index = r;
    }
    plan.cols.push_back(col);
  }
  return plan;
}

// Per-key tap decision computed up-front so the whole observation either
// fits the budget exactly or degrades the sketchable taps together.
struct TapPlan {
  std::vector<char> sketch;     // aligned with keys
  sketch::TapSketchConfig config;
  int64_t exact_bytes_estimate = 0;
};

int Arity(const StatKey& key) { return PopCount(key.attrs); }

Result<TapPlan> PlanTaps(const BlockContext& ctx, const ExecutionResult& exec,
                         const std::vector<StatKey>& keys,
                         const TapOptions& taps) {
  TapPlan plan;
  plan.sketch.assign(keys.size(), 0);
  int sketchable = 0;
  int max_arity = 1;
  for (size_t i = 0; i < keys.size(); ++i) {
    const StatKey& key = keys[i];
    int64_t exact_bytes = 8;  // a counter
    switch (key.kind) {
      case StatKind::kCard:
        break;
      case StatKind::kDistinct:
      case StatKind::kHist: {
        ETLOPT_ASSIGN_OR_RETURN(const Table* table,
                                PointTable(ctx, exec, key));
        exact_bytes = key.kind == StatKind::kDistinct
                          ? sketch::EstimateExactDistinctBytes(
                                table->num_rows(), Arity(key))
                          : sketch::EstimateExactHistBytes(table->num_rows(),
                                                           Arity(key));
        plan.sketch[i] = 1;
        ++sketchable;
        max_arity = std::max(max_arity, Arity(key));
        break;
      }
      case StatKind::kRejectJoinCard:
      case StatKind::kRejectJoinHist: {
        ETLOPT_ASSIGN_OR_RETURN(const RejectJoinInputs in,
                                FindRejectJoinInputs(ctx, exec, key));
        // The exact tap materializes the side join; its output is bounded
        // below by the reject rows that match at all, so use the reject
        // row count as the (optimistic) footprint proxy.
        const int row_width =
            in.rejects->schema().size() + in.r_table->schema().size();
        exact_bytes = in.rejects->num_rows() *
                      (40 + 8 * static_cast<int64_t>(row_width));
        if (key.kind == StatKind::kRejectJoinHist) {
          plan.sketch[i] = 1;
          ++sketchable;
          max_arity = std::max(max_arity, Arity(key));
        }
        break;
      }
    }
    plan.exact_bytes_estimate += exact_bytes;
  }

  if (taps.memory_budget_bytes <= 0 ||
      plan.exact_bytes_estimate <= taps.memory_budget_bytes ||
      sketchable == 0) {
    // Budget absent or sufficient: exact taps throughout.
    plan.sketch.assign(keys.size(), 0);
    return plan;
  }
  plan.config = sketch::TapSketchConfig::ForBudget(
      taps.memory_budget_bytes / sketchable, max_arity);
  return plan;
}

// Whether every table a key's tap reads survived the run — false for keys
// whose pipeline points fall past an abort. Salvage mode filters on this.
bool KeyInputsAvailable(const BlockContext& ctx, const ExecutionResult& exec,
                        const StatKey& key) {
  switch (key.kind) {
    case StatKind::kCard:
    case StatKind::kDistinct:
    case StatKind::kHist:
      return PointTable(ctx, exec, key).ok();
    case StatKind::kRejectJoinCard:
    case StatKind::kRejectJoinHist:
      return FindRejectJoinInputs(ctx, exec, key).ok();
  }
  return false;
}

// Rows one key's tap consumed — the checkpoint cadence currency. Callers
// only ask for keys whose inputs are available.
int64_t TappedRows(const BlockContext& ctx, const ExecutionResult& exec,
                   const StatKey& key) {
  switch (key.kind) {
    case StatKind::kCard:
    case StatKind::kDistinct:
    case StatKind::kHist: {
      const Result<const Table*> table = PointTable(ctx, exec, key);
      return table.ok() ? (*table)->num_rows() : 0;
    }
    case StatKind::kRejectJoinCard:
    case StatKind::kRejectJoinHist: {
      const Result<RejectJoinInputs> in = FindRejectJoinInputs(ctx, exec, key);
      return in.ok() ? in->rejects->num_rows() + in->r_table->num_rows() : 0;
    }
  }
  return 0;
}

}  // namespace

TapOptions TapOptions::FromEnv() {
  TapOptions options;
  const char* value = std::getenv("ETLOPT_TAP_BUDGET");
  if (value != nullptr && *value != '\0') {
    char* end = nullptr;
    const long long parsed = std::strtoll(value, &end, 10);
    if (end != value && parsed > 0) {
      options.memory_budget_bytes = parsed;
    }
  }
  return options;
}

Result<StatStore> ObserveStatistics(const BlockContext& ctx,
                                    const ExecutionResult& exec,
                                    const std::vector<StatKey>& keys,
                                    const TapOptions& taps,
                                    TapReport* report,
                                    const ParallelTapContext& par) {
  const int64_t observe_start_ns = obs::ProfileNowNs();
  TapReport local;
  std::vector<StatKey> observable;
  observable.reserve(keys.size());
  for (const StatKey& key : keys) {
    if (taps.salvage && !KeyInputsAvailable(ctx, exec, key)) {
      // The run aborted before this key's pipeline point materialized —
      // skip it and salvage the rest.
      ++local.salvage_skipped;
      continue;
    }
    if (!IsObservable(key, ctx)) {
      return Status::InvalidArgument("statistic not observable: " +
                                     key.ToString());
    }
    observable.push_back(key);
  }
  ETLOPT_ASSIGN_OR_RETURN(const TapPlan plan,
                          PlanTaps(ctx, exec, observable, taps));

  StatStore store;
  local.exact_bytes_estimate = plan.exact_bytes_estimate;
  fault::FaultInjector* inj = fault::FaultInjector::Global();
  int64_t rows_since_flush = 0;

  for (size_t i = 0; i < observable.size(); ++i) {
    const StatKey& key = observable[i];
    bool use_sketch = plan.sketch[i] != 0;
    sketch::TapSketchConfig tap_config = plan.config;
    if (inj != nullptr) {
      const char* tap_name = TapFaultName(key.kind);
      const fault::Kind fk = inj->OnTap(tap_name);
      if (fk != fault::Kind::kNone) {
        // Allocation for this tap failed. An exact distinct or reject-
        // histogram collector can retry as a bounded-memory sketch (a
        // second, smaller allocation — consulted separately); anything
        // else is disabled and the run continues un-instrumented for this
        // key. Plain join histograms are never downgraded: they feed the
        // exact union-division rules (J4/J5), whose every-bucket-divides
        // invariant a lossy sketch cannot honor.
        const bool sketchable = !use_sketch &&
                                (key.kind == StatKind::kDistinct ||
                                 key.kind == StatKind::kRejectJoinHist);
        if (sketchable && inj->OnTap(tap_name) == fault::Kind::kNone) {
          use_sketch = true;
          tap_config =
              sketch::TapSketchConfig::ForBudget(kDowngradeTapBytes,
                                                 Arity(key));
          ++local.downgraded_taps;
          ETLOPT_COUNTER_ADD("etlopt.tap.downgraded", 1);
          ETLOPT_LOG(Info) << "tap " << key.ToString()
                           << ": exact collector allocation failed ("
                           << fault::KindName(fk)
                           << "), downgraded to sketch";
        } else {
          ++local.disabled_taps;
          ETLOPT_COUNTER_ADD("etlopt.tap.disabled", 1);
          ETLOPT_LOG(Warning) << "tap " << key.ToString() << " disabled ("
                              << fault::KindName(fk)
                              << "); run continues un-instrumented";
          continue;
        }
      }
    }
    switch (key.kind) {
      case StatKind::kCard: {
        const std::vector<Table>* slices = KeySlices(ctx, par, key);
        if (slices != nullptr) {
          // Per-partition counts merge by addition.
          store.Set(key, StatValue::Count(MergedSliceRows(*slices)));
        } else {
          ETLOPT_ASSIGN_OR_RETURN(const Table* table,
                                  PointTable(ctx, exec, key));
          store.Set(key, StatValue::Count(table->num_rows()));
        }
        ++local.exact_taps;
        local.tap_bytes += 8;
        break;
      }
      case StatKind::kDistinct: {
        ETLOPT_ASSIGN_OR_RETURN(const Table* table,
                                PointTable(ctx, exec, key));
        const std::vector<Table>* slices = KeySlices(ctx, par, key);
        if (use_sketch) {
          sketch::DistinctTap tap =
              slices != nullptr
                  ? MergedDistinctTap(*slices, key.attrs, tap_config,
                                      par.pool, &local.merge_ns)
                  : MergedDistinctTap({*table}, key.attrs, tap_config,
                                      nullptr, nullptr);
          store.Set(key, StatValue::CountApprox(tap.Estimate(),
                                                tap.RelError()));
          ++local.sketch_taps;
          local.tap_bytes += tap.MemoryBytes();
        } else {
          const int64_t distinct =
              slices != nullptr
                  ? MergedDistinctCount(*slices, key.attrs, par.pool,
                                        &local.merge_ns)
                  : table->CountDistinct(key.attrs);
          store.Set(key, StatValue::Count(distinct));
          ++local.exact_taps;
          local.tap_bytes += sketch::EstimateExactDistinctBytes(
              table->num_rows(), Arity(key));
        }
        break;
      }
      case StatKind::kHist: {
        ETLOPT_ASSIGN_OR_RETURN(const Table* table,
                                PointTable(ctx, exec, key));
        const std::vector<Table>* slices = KeySlices(ctx, par, key);
        if (use_sketch) {
          sketch::HistTap tap =
              slices != nullptr
                  ? MergedHistTap(*slices, key.attrs, tap_config, par.pool,
                                  &local.merge_ns)
                  : MergedHistTap({*table}, key.attrs, tap_config, nullptr,
                                  nullptr);
          store.Set(key, StatValue::HistApprox(tap.Build(key.attrs),
                                               tap.RelError()));
          ++local.sketch_taps;
          local.tap_bytes += tap.MemoryBytes();
        } else {
          StatValue value =
              slices != nullptr
                  ? StatValue::Hist(MergedExactHistogram(
                        *slices, key.attrs, par.pool, &local.merge_ns))
                  : StatValue::Hist(table->BuildHistogram(key.attrs));
          store.Set(key, std::move(value));
          ++local.exact_taps;
          local.tap_bytes += sketch::EstimateExactHistBytes(table->num_rows(),
                                                            Arity(key));
        }
        break;
      }
      case StatKind::kRejectJoinCard: {
        if (taps.memory_budget_bytes > 0) {
          // Streaming count: never materialize the side join.
          ETLOPT_ASSIGN_OR_RETURN(const RejectJoinInputs in,
                                  FindRejectJoinInputs(ctx, exec, key));
          int64_t count = 0;
          ETLOPT_RETURN_IF_ERROR(StreamRejectSideJoin(
              in, [&count](int64_t, int64_t) { ++count; }));
          store.Set(key, StatValue::Count(count));
          local.tap_bytes += 8;
        } else {
          ETLOPT_ASSIGN_OR_RETURN(Table joined,
                                  RejectSideJoin(ctx, exec, key));
          store.Set(key, StatValue::Count(joined.num_rows()));
          local.tap_bytes += 8;
        }
        ++local.exact_taps;  // the count itself is exact either way
        break;
      }
      case StatKind::kRejectJoinHist: {
        ETLOPT_ASSIGN_OR_RETURN(const RejectJoinInputs in,
                                FindRejectJoinInputs(ctx, exec, key));
        if (use_sketch) {
          ETLOPT_ASSIGN_OR_RETURN(const JoinedKeyPlan key_plan,
                                  PlanJoinedKey(in, key.attrs));
          sketch::HistTap tap(tap_config);
          std::vector<Value> probe(key_plan.cols.size());
          ETLOPT_RETURN_IF_ERROR(StreamRejectSideJoin(
              in, [&](int64_t l, int64_t r) {
                for (size_t c = 0; c < key_plan.cols.size(); ++c) {
                  const JoinedKeyPlan::Col& col = key_plan.cols[c];
                  probe[c] = col.from_left ? in.rejects->at(l, col.index)
                                           : in.r_table->at(r, col.index);
                }
                tap.AddRow(probe);
              }));
          store.Set(key, StatValue::HistApprox(tap.Build(key.attrs),
                                               tap.RelError()));
          ++local.sketch_taps;
          local.tap_bytes += tap.MemoryBytes();
        } else {
          ETLOPT_ASSIGN_OR_RETURN(Table joined,
                                  RejectSideJoin(ctx, exec, key));
          store.Set(key, StatValue::Hist(joined.BuildHistogram(key.attrs)));
          ++local.exact_taps;
          local.tap_bytes += sketch::EstimateExactHistBytes(joined.num_rows(),
                                                            Arity(key));
        }
        break;
      }
    }
    // Checkpoint cadence: snapshot the partial store every N tapped rows so
    // a mid-observation death loses at most one cadence worth of taps.
    const int64_t tapped = TappedRows(ctx, exec, key);
    local.rows_tapped += tapped;
    rows_since_flush += tapped;
    if (taps.checkpoint_every_rows > 0 && taps.on_checkpoint != nullptr &&
        rows_since_flush >= taps.checkpoint_every_rows) {
      taps.on_checkpoint(store);
      ++local.checkpoint_flushes;
      rows_since_flush = 0;
    }
  }

  ETLOPT_COUNTER_ADD("etlopt.tap.exact", local.exact_taps);
  ETLOPT_COUNTER_ADD("etlopt.tap.sketch", local.sketch_taps);
  ETLOPT_COUNTER_ADD("etlopt.tap.bytes", local.tap_bytes);
  ETLOPT_COUNTER_ADD("etlopt.tap.exact_bytes_estimate",
                     local.exact_bytes_estimate);
  if (local.salvage_skipped > 0) {
    ETLOPT_COUNTER_ADD("etlopt.tap.salvage_skipped", local.salvage_skipped);
  }
  if (local.merge_ns > 0) {
    ETLOPT_COUNTER_ADD("etlopt.parallel.tap_merge_ns", local.merge_ns);
  }
  local.observe_ns = obs::ProfileNowNs() - observe_start_ns;
  if (report != nullptr) report->Accumulate(local);
  return store;
}

Result<Table> MaterializeSubexpression(const BlockContext& ctx, RelMask rels,
                                       const ExecutionResult& exec) {
  // Start from the lowest relation's top and join the remaining ones along
  // designed edges (any connected order is equivalent).
  std::vector<int> members = MaskToIndices(rels);
  auto top_table = [&](int rel) -> Result<Table> {
    const NodeId node = ctx.TopNode(rel);
    auto it = exec.node_outputs.find(node);
    if (it == exec.node_outputs.end()) {
      return Status::Internal("no cached output for relation top");
    }
    return it->second;
  };
  ETLOPT_ASSIGN_OR_RETURN(Table acc, top_table(members[0]));
  RelMask done = RelMask{1} << members[0];
  while (done != rels) {
    bool progressed = false;
    for (int rel : members) {
      const RelMask bit = RelMask{1} << rel;
      if (done & bit) continue;
      const int edge = ctx.graph().CrossingEdge(done, bit);
      if (edge < 0) continue;
      const AttrId attr = ctx.graph().edges()[static_cast<size_t>(edge)].attr;
      ETLOPT_ASSIGN_OR_RETURN(Table next, top_table(rel));
      acc = HashJoin(acc, next, attr, nullptr);
      done |= bit;
      progressed = true;
    }
    if (!progressed) {
      return Status::InvalidArgument("SE is not connected");
    }
  }
  return acc;
}

Result<std::unordered_map<RelMask, int64_t>> ComputeGroundTruthCards(
    const BlockContext& ctx, const std::vector<RelMask>& subexpressions,
    const ExecutionResult& exec) {
  std::unordered_map<RelMask, int64_t> cards;
  for (RelMask se : subexpressions) {
    ETLOPT_ASSIGN_OR_RETURN(Table table,
                            MaterializeSubexpression(ctx, se, exec));
    cards[se] = table.num_rows();
  }
  return cards;
}

}  // namespace etlopt
