#include "engine/executor.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/timer.h"

namespace etlopt {
namespace {

// Nanoseconds elapsed on `timer`, floored at 0 (defensive against clock
// quirks; LogHistogram buckets are non-negative).
int64_t ElapsedNs(const Timer& timer) {
  const double ns = timer.ElapsedMicros() * 1e3;
  return ns <= 0.0 ? 0 : static_cast<int64_t>(ns);
}

double EnvDoubleOr(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(value, &end);
  return end != value ? parsed : fallback;
}

// Backoff before retry `attempt` (1-based): exponential with deterministic
// jitter, capped. Returns the delay actually slept, for telemetry.
double BackoffAndSleep(const RetryPolicy& policy, int attempt, Rng& rng) {
  double delay = policy.initial_backoff_ms;
  for (int i = 1; i < attempt; ++i) delay *= policy.backoff_multiplier;
  delay = std::min(delay, policy.max_backoff_ms);
  if (policy.jitter_fraction > 0.0) {
    // Uniform in [1 - j, 1 + j): decorrelates retry storms across sources.
    delay *= 1.0 + policy.jitter_fraction * (2.0 * rng.NextDouble() - 1.0);
  }
  if (delay > 0.0) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<int64_t>(delay * 1000.0)));
  }
  return delay;
}

}  // namespace

std::string OpFaultName(const WorkflowNode& node) {
  std::string name = OpKindName(node.kind);
  for (char& c : name) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return name + std::to_string(node.id);
}

RetryPolicy RetryPolicy::FromEnv() {
  RetryPolicy policy;
  const double attempts =
      EnvDoubleOr("ETLOPT_RETRY_MAX_ATTEMPTS", policy.max_attempts);
  if (attempts >= 1.0) policy.max_attempts = static_cast<int>(attempts);
  policy.initial_backoff_ms =
      EnvDoubleOr("ETLOPT_RETRY_BACKOFF_MS", policy.initial_backoff_ms);
  policy.max_backoff_ms =
      EnvDoubleOr("ETLOPT_RETRY_MAX_BACKOFF_MS", policy.max_backoff_ms);
  return policy;
}

ExecutorOptions ExecutorOptions::FromEnv() {
  ExecutorOptions options;
  options.retry = RetryPolicy::FromEnv();
  const double rate =
      EnvDoubleOr("ETLOPT_MAX_ERROR_RATE", options.max_error_rate);
  if (rate >= 0.0 && rate <= 1.0) options.max_error_rate = rate;
  return options;
}

const char* AbortKindName(AbortKind kind) {
  switch (kind) {
    case AbortKind::kNone:
      return "none";
    case AbortKind::kCrash:
      return "crash";
    case AbortKind::kErrorRate:
      return "error_rate";
    case AbortKind::kSourceFailed:
      return "source_failed";
    case AbortKind::kGuard:
      return "guard";
  }
  return "unknown";
}

Executor::Executor(const Workflow* workflow, ExecutorOptions options)
    : wf_(workflow), options_(std::move(options)) {
  ETLOPT_CHECK(wf_ != nullptr);
}

namespace {

// Output schema of a join: left attrs then right attrs minus the key
// (mirrors Workflow::Finalize).
Schema JoinOutputSchema(const Table& left, const Table& right, AttrId attr) {
  std::vector<AttrId> out_attrs = left.schema().attrs();
  for (AttrId a : right.schema().attrs()) {
    if (a != attr) out_attrs.push_back(a);
  }
  return Schema(out_attrs);
}

// The joined table: left's columns gathered by `lsel`, then right's
// non-key columns gathered by `rsel`.
Table GatherJoin(const Schema& schema, const Table& left, const Table& right,
                 AttrId attr, const SelVector& lsel, const SelVector& rsel) {
  std::vector<ColumnPtr> cols;
  cols.reserve(static_cast<size_t>(schema.size()));
  for (int c = 0; c < left.num_columns(); ++c) {
    auto col = std::make_shared<Column>();
    GatherColumn(left.column(c), lsel, col.get());
    cols.push_back(std::move(col));
  }
  for (int c = 0; c < right.num_columns(); ++c) {
    if (right.schema().attrs()[static_cast<size_t>(c)] == attr) continue;
    auto col = std::make_shared<Column>();
    GatherColumn(right.column(c), rsel, col.get());
    cols.push_back(std::move(col));
  }
  return Table::FromColumns(schema, std::move(cols),
                            static_cast<int64_t>(lsel.size()));
}

}  // namespace

Table ProbeHashJoin(const Schema& schema, const Table& left,
                    const Table& right, AttrId attr, const JoinHashTable& ht,
                    JoinProbe* probe, SelVector* unmatched,
                    std::vector<uint8_t>* build_hits) {
  ht.Probe(left.column_data(left.schema().IndexOf(attr)), left.num_rows(),
           probe, unmatched, build_hits);
  return GatherJoin(schema, left, right, attr, probe->probe_sel,
                    probe->build_sel);
}

Table HashJoin(const Table& left, const Table& right, AttrId attr,
               Table* rejects, int64_t build_rows_hint, Table* right_rejects) {
  const int lkey = left.schema().IndexOf(attr);
  const int rkey = right.schema().IndexOf(attr);
  ETLOPT_CHECK_MSG(lkey >= 0 && rkey >= 0, "join key missing from an input");

  obs::ScopedSpan span("engine.hash_join");
  if (build_rows_hint > 0) {
    ETLOPT_COUNTER_ADD("etlopt.engine.join.build_hint_used", 1);
  }
  Timer phase;
  const JoinHashTable ht(right.column_data(rkey), right.num_rows(),
                         build_rows_hint);
  const int64_t build_ns = ElapsedNs(phase);

  phase.Restart();
  JoinProbe probe;
  SelVector unmatched;
  std::vector<uint8_t> hits;
  Table out = ProbeHashJoin(JoinOutputSchema(left, right, attr), left, right,
                            attr, ht, &probe,
                            rejects != nullptr ? &unmatched : nullptr,
                            right_rejects != nullptr ? &hits : nullptr);
  if (rejects != nullptr) *rejects = Table::Gather(left, unmatched);
  if (right_rejects != nullptr) {
    *right_rejects = Table::Gather(right, UnmarkedRows(hits));
  }
  const int64_t probe_ns = ElapsedNs(phase);
  ETLOPT_HIST_RECORD("etlopt.engine.join.hash_build_ns", build_ns);
  ETLOPT_HIST_RECORD("etlopt.engine.join.hash_probe_ns", probe_ns);
  if (span.active()) {
    span.Arg("build_rows", right.num_rows());
    span.Arg("probe_rows", left.num_rows());
    span.Arg("rows_out", out.num_rows());
    span.Arg("build_ns", build_ns);
    span.Arg("probe_ns", probe_ns);
  }
  return out;
}

Table SortMergeJoin(const Table& left, const Table& right, AttrId attr,
                    Table* rejects, Table* right_rejects) {
  const int lkey = left.schema().IndexOf(attr);
  const int rkey = right.schema().IndexOf(attr);
  ETLOPT_CHECK_MSG(lkey >= 0 && rkey >= 0, "join key missing from an input");
  const Value* lkeys = left.column_data(lkey);
  const Value* rkeys = right.column_data(rkey);

  obs::ScopedSpan span("engine.sort_merge_join");
  Timer phase;
  // Sort row indices of both sides by the key.
  std::vector<int64_t> lidx(static_cast<size_t>(left.num_rows()));
  std::vector<int64_t> ridx(static_cast<size_t>(right.num_rows()));
  std::iota(lidx.begin(), lidx.end(), 0);
  std::iota(ridx.begin(), ridx.end(), 0);
  std::sort(lidx.begin(), lidx.end(),
            [&](int64_t a, int64_t b) { return lkeys[a] < lkeys[b]; });
  std::sort(ridx.begin(), ridx.end(),
            [&](int64_t a, int64_t b) { return rkeys[a] < rkeys[b]; });
  ETLOPT_HIST_RECORD("etlopt.engine.join.sort_ns", ElapsedNs(phase));

  phase.Restart();
  SelVector lsel;
  SelVector rsel;
  SelVector unmatched;
  std::vector<uint8_t> hits(
      right_rejects != nullptr ? static_cast<size_t>(right.num_rows()) : 0,
      0);
  size_t li = 0;
  size_t ri = 0;
  while (li < lidx.size()) {
    const Value lv = lkeys[lidx[li]];
    while (ri < ridx.size() && rkeys[ridx[ri]] < lv) ++ri;
    // Group of right rows with this key.
    size_t rend = ri;
    while (rend < ridx.size() && rkeys[ridx[rend]] == lv) ++rend;
    if (ri == rend) {
      unmatched.push_back(lidx[li]);
      ++li;
      continue;
    }
    // The walk meets each right group once: mark it matched.
    if (!hits.empty()) {
      for (size_t r = ri; r < rend; ++r) {
        hits[static_cast<size_t>(ridx[r])] = 1;
      }
    }
    // All left rows with this key join with the right group.
    while (li < lidx.size() && lkeys[lidx[li]] == lv) {
      for (size_t r = ri; r < rend; ++r) {
        lsel.push_back(lidx[li]);
        rsel.push_back(ridx[r]);
      }
      ++li;
    }
    ri = rend;
  }
  Table out =
      GatherJoin(JoinOutputSchema(left, right, attr), left, right, attr,
                 lsel, rsel);
  if (rejects != nullptr) *rejects = Table::Gather(left, unmatched);
  if (right_rejects != nullptr) {
    *right_rejects = Table::Gather(right, UnmarkedRows(hits));
  }
  ETLOPT_HIST_RECORD("etlopt.engine.join.merge_ns", ElapsedNs(phase));
  if (span.active()) {
    span.Arg("left_rows", left.num_rows());
    span.Arg("right_rows", right.num_rows());
    span.Arg("rows_out", out.num_rows());
  }
  return out;
}

void AbortRun(const NodeStepContext& ctx, AbortKind kind, std::string reason,
              const WorkflowNode& node) {
  ExecutionResult& result = *ctx.result;
  result.abort_kind = kind;
  result.abort_reason = std::move(reason);
  result.abort_node = node.id;
  ETLOPT_COUNTER_ADD("etlopt.engine.aborts", 1);
  ETLOPT_LOG(Warning) << "run aborted (" << AbortKindName(kind) << ") at "
                      << OpFaultName(node) << ": " << result.abort_reason;
}

Status ComputeNodeOutput(const NodeStepContext& ctx, const WorkflowNode& node,
                         Table* out_table) {
  ExecutionResult& result = *ctx.result;
  fault::FaultInjector* inj = ctx.inj;
  Table out{ctx.wf->output_schema(node.id)};
  auto input = [&](int i) -> const Table& {
    return result.node_outputs.at(node.inputs[static_cast<size_t>(i)]);
  };
  switch (node.kind) {
    case OpKind::kSource: {
      auto it = ctx.sources->find(node.table_name);
      if (it == ctx.sources->end()) {
        return Status::NotFound("no source table bound for '" +
                                node.table_name + "'");
      }
      if (!(it->second.schema() == node.source_schema)) {
        return Status::InvalidArgument("source '" + node.table_name +
                                       "' schema mismatch");
      }
      if (inj == nullptr ||
          !inj->HasRules(fault::Scope::kSource, node.table_name)) {
        // The seed fast path: no faults configured for this source. Under
        // an installed injector still record the watermark — a crash
        // elsewhere in the workflow salvages per-source progress from it.
        out = it->second;
        if (inj != nullptr) {
          result.source_rows_read[node.table_name] = out.num_rows();
        }
        break;
      }
      // ---- resilient read: retry/backoff, then row-level quarantine ----
      const std::string& name = node.table_name;
      int attempt = 1;
      for (;; ++attempt) {
        const fault::Kind fk = inj->OnSourceOpen(name);
        if (fk == fault::Kind::kNone) break;
        ETLOPT_COUNTER_ADD(fk == fault::Kind::kTimeout
                               ? "etlopt.engine.source.timeouts"
                               : "etlopt.engine.source.io_errors",
                           1);
        if (attempt >= ctx.options->retry.max_attempts) {
          AbortRun(ctx, AbortKind::kSourceFailed,
                   "source '" + name + "' failed " + std::to_string(attempt) +
                       " attempt(s) (" + fault::KindName(fk) + ")",
                   node);
          break;
        }
        ++result.source_retries[name];
        ETLOPT_COUNTER_ADD("etlopt.engine.source.retries", 1);
        if (obs::ObsEnabled()) {
          obs::MetricsRegistry::Global()
              .GetCounter(obs::MetricName("etlopt.engine.source.retries",
                                          {{"source", name}}))
              .Increment();
        }
        const double slept =
            BackoffAndSleep(ctx.options->retry, attempt, *ctx.backoff_rng);
        ETLOPT_LOG(Info) << "source '" << name << "' " << fault::KindName(fk)
                         << ", retrying (attempt " << attempt + 1 << "/"
                         << ctx.options->retry.max_attempts << ") after "
                         << slept << "ms";
      }
      if (result.aborted()) break;

      Table quarantine{node.source_schema};
      const bool row_faults = inj->HasRules(fault::Scope::kSource, name);
      const Table& src = it->second;
      for (int64_t r = 0; r < src.num_rows(); ++r) {
        if (row_faults &&
            inj->OnSourceRow(name) == fault::Kind::kMalformedRow) {
          quarantine.AppendRowFrom(src, r);
          continue;
        }
        out.AppendRowFrom(src, r);
      }
      const int64_t scanned = it->second.num_rows();
      const int64_t bad = quarantine.num_rows();
      result.source_rows_read[name] = scanned;
      if (bad > 0) {
        ETLOPT_COUNTER_ADD("etlopt.engine.source.quarantined", bad);
        if (obs::ObsEnabled()) {
          obs::MetricsRegistry::Global()
              .GetCounter(obs::MetricName("etlopt.engine.source.quarantined",
                                          {{"source", name}}))
              .Add(bad);
        }
        const double error_rate =
            scanned > 0 ? static_cast<double>(bad) / scanned : 0.0;
        result.quarantined[name] = std::move(quarantine);
        if (scanned >= ctx.options->min_rows_for_error_rate &&
            error_rate > ctx.options->max_error_rate) {
          std::ostringstream reason;
          reason << "source '" << name << "' error rate " << error_rate
                 << " exceeds max_error_rate " << ctx.options->max_error_rate
                 << " (" << bad << "/" << scanned << " rows quarantined)";
          AbortRun(ctx, AbortKind::kErrorRate, reason.str(), node);
        }
      }
      break;
    }
    case OpKind::kFilter: {
      const Table& in = input(0);
      const int col = in.schema().IndexOf(node.predicate.attr);
      // One comparison loop over the predicate column builds the
      // selection, every output column is a gather.
      SelVector sel;
      sel.reserve(static_cast<size_t>(in.num_rows()));
      BuildSelection(node.predicate, in.column_data(col), in.num_rows(),
                     &sel);
      out = Table::Gather(in, sel);
      result.rows_processed += in.num_rows();
      break;
    }
    case OpKind::kProject: {
      const Table& in = input(0);
      // Copy-free: the kept columns are shared by pointer; downstream
      // mutation clones them on write.
      std::vector<ColumnPtr> kept;
      kept.reserve(node.keep.size());
      for (AttrId a : node.keep) {
        kept.push_back(in.shared_column(in.schema().IndexOf(a)));
      }
      out = Table::FromColumns(out.schema(), std::move(kept), in.num_rows());
      result.rows_processed += in.num_rows();
      break;
    }
    case OpKind::kTransform: {
      const Table& in = input(0);
      const TransformSpec& t = node.transform;
      const int col = in.schema().IndexOf(t.input_attr);
      if (t.is_aggregate) {
        // Black-box aggregate UDF: emits one row per distinct transformed
        // key value (a deterministic blocking reduction). Output order
        // depends on input order, so this stays a single row-order loop.
        std::unordered_map<Value, bool> seen;
        for (int64_t r = 0; r < in.num_rows(); ++r) {
          const Value v = t.fn(in.at(r, col));
          if (seen.emplace(v, true).second) {
            std::vector<Value> row = in.row(r);
            row[static_cast<size_t>(col)] = v;
            out.AddRow(row);
          }
        }
      } else {
        // Batched UDF: untouched columns are shared, the transformed (or
        // derived) column is one fn-application loop over the input array.
        auto mapped = std::make_shared<Column>();
        MapColumn(t.fn, in.column_data(col), in.num_rows(), mapped.get());
        std::vector<ColumnPtr> out_cols;
        out_cols.reserve(static_cast<size_t>(out.schema().size()));
        const bool in_place = t.output_attr == t.input_attr;
        for (int c = 0; c < in.schema().size(); ++c) {
          out_cols.push_back(in_place && c == col ? mapped
                                                  : in.shared_column(c));
        }
        if (!in_place) out_cols.push_back(std::move(mapped));
        out = Table::FromColumns(out.schema(), std::move(out_cols),
                                 in.num_rows());
      }
      result.rows_processed += in.num_rows();
      break;
    }
    case OpKind::kAggregate: {
      const Table& in = input(0);
      std::vector<int> cols;
      for (AttrId a : node.aggregate.group_by) {
        cols.push_back(in.schema().IndexOf(a));
      }
      std::vector<const Value*> data;
      data.reserve(cols.size());
      for (int c : cols) data.push_back(in.column_data(c));
      // Output order follows the group map's iteration order, which is a
      // function of the insertion sequence: single implementation so the
      // order is one thing across engine modes.
      std::unordered_map<std::vector<Value>, int64_t, ValueVecHash> groups;
      for (int64_t r = 0; r < in.num_rows(); ++r) {
        std::vector<Value> key;
        key.reserve(cols.size());
        for (const Value* d : data) key.push_back(d[r]);
        ++groups[std::move(key)];
      }
      const bool with_count = node.aggregate.count_attr != kInvalidAttr;
      for (auto& [key, count] : groups) {
        std::vector<Value> row = key;
        if (with_count) row.push_back(count);
        out.AddRow(std::move(row));
      }
      result.rows_processed += in.num_rows();
      break;
    }
    case OpKind::kJoin: {
      const Table& left = input(0);
      const Table& right = input(1);
      // Estimator-predicted build cardinality, when the plan carries one.
      int64_t build_hint = -1;
      if (!ctx.options->build_rows_hints.empty()) {
        const auto hint_it = ctx.options->build_rows_hints.find(node.id);
        if (hint_it != ctx.options->build_rows_hints.end()) {
          build_hint = hint_it->second;
        }
      }
      // Left rejects: probe rows without a match; right rejects: build rows
      // whose key never occurs on the left, from the join's hit marks.
      Table rejects;
      Table rrejects;
      out = node.join.algorithm == JoinAlgorithm::kSortMerge
                ? SortMergeJoin(left, right, node.join.attr, &rejects,
                                &rrejects)
                : HashJoin(left, right, node.join.attr, &rejects, build_hint,
                           &rrejects);
      result.rows_processed += left.num_rows() + right.num_rows();
      result.join_rejects[node.id] = std::move(rejects);
      result.join_rejects_right[node.id] = std::move(rrejects);
      break;
    }
    case OpKind::kMaterialize:
    case OpKind::kSink: {
      out = input(0);
      result.rows_processed += out.num_rows();
      result.targets[node.target_name] = out;
      break;
    }
  }
  *out_table = std::move(out);
  return Status::OK();
}

void FinishNodeStep(const NodeStepContext& ctx, const WorkflowNode& node,
                    Table&& out, int64_t self_ns) {
  ExecutionResult& result = *ctx.result;
  int64_t rows_in = 0;
  for (NodeId in : node.inputs) {
    rows_in += result.node_outputs.at(in).num_rows();
  }
  // Crash points fire after the operator ran but before its output is
  // published — the salvage surface is exactly the completed prefix.
  if (!result.aborted() && ctx.inj != nullptr) {
    const int64_t weight = rows_in > 0 ? rows_in : out.num_rows();
    if (ctx.inj->OnOperator(OpFaultName(node), weight) ==
        fault::Kind::kCrash) {
      result.join_rejects.erase(node.id);
      result.join_rejects_right.erase(node.id);
      result.targets.erase(node.target_name);
      AbortRun(ctx, AbortKind::kCrash,
               "injected crash fault at " + OpFaultName(node), node);
    }
  }
  if (result.aborted()) return;
  // Plan-regression monitors: one branch on an empty map when the guard is
  // disabled (benched by BM_GuardMonitorDisabled). Partitioned nodes reach
  // here with their gathered output, so the observed cardinality — and the
  // verdict — is identical across worker counts.
  if (!ctx.options->monitors.empty()) {
    const auto mon_it = ctx.options->monitors.find(node.id);
    if (mon_it != ctx.options->monitors.end() &&
        mon_it->second.expected_rows >= 0.0) {
      const double expected = std::max(mon_it->second.expected_rows, 1.0);
      const double actual = std::max<double>(out.num_rows(), 1.0);
      const double qerror = std::max(expected / actual, actual / expected);
      if (qerror > ctx.options->monitor_qerror_bound) {
        MonitorViolation violation;
        violation.node = node.id;
        violation.block = mon_it->second.block;
        violation.se = mon_it->second.se;
        violation.expected = mon_it->second.expected_rows;
        violation.actual = static_cast<double>(out.num_rows());
        violation.qerror = qerror;
        result.monitor_violations.push_back(violation);
        ETLOPT_COUNTER_ADD("etlopt.guard.monitor_violations", 1);
        ETLOPT_LOG(Warning)
            << "plan monitor at " << OpFaultName(node) << ": expected "
            << violation.expected << " rows, observed " << violation.actual
            << " (q-error " << qerror << " > "
            << ctx.options->monitor_qerror_bound << ")";
        if (ctx.options->monitor_abort) {
          result.join_rejects.erase(node.id);
          result.join_rejects_right.erase(node.id);
          result.targets.erase(node.target_name);
          AbortRun(ctx, AbortKind::kGuard,
                   "estimate monitor q-error " + std::to_string(qerror) +
                       " at " + OpFaultName(node),
                   node);
          return;
        }
      }
    }
  }
  // Bytes entering the operator: mirrors rows_processed (sources read no
  // upstream node output, so they contribute none).
  int64_t op_bytes = 0;
  for (NodeId in : node.inputs) {
    const Table& t = result.node_outputs.at(in);
    op_bytes += t.num_rows() * 8 * t.schema().size();
  }
  result.bytes_processed += op_bytes;
  const int64_t rows_out = out.num_rows();
  if (ctx.profiling) {
    obs::OpProfile op;
    op.node = static_cast<int>(node.id);
    op.op = OpKindName(node.kind);
    op.label = OpFaultName(node);
    op.inputs.reserve(node.inputs.size());
    for (NodeId in : node.inputs) op.inputs.push_back(static_cast<int>(in));
    op.self_ns = self_ns;
    op.rows_in = rows_in;
    op.rows_out = rows_out;
    op.bytes = op_bytes;
    result.profile.ops.push_back(std::move(op));
  }
  if (obs::ObsEnabled()) {
    auto& registry = obs::MetricsRegistry::Global();
    registry
        .GetCounter(obs::MetricName(
            "etlopt.engine.rows_out",
            {{"wf", ctx.wf->name()},
             {"node", std::to_string(node.id)},
             {"op", OpKindName(node.kind)}}))
        .Add(rows_out);
    ETLOPT_COUNTER_ADD("etlopt.engine.ops_executed", 1);
    ETLOPT_COUNTER_ADD("etlopt.engine.rows_in", rows_in);
    ETLOPT_COUNTER_ADD("etlopt.engine.rows_out", rows_out);
    if (node.kind == OpKind::kJoin) {
      ETLOPT_COUNTER_ADD("etlopt.engine.join.rejects_left",
                         result.join_rejects.at(node.id).num_rows());
      ETLOPT_COUNTER_ADD("etlopt.engine.join.rejects_right",
                         result.join_rejects_right.at(node.id).num_rows());
    }
  }
  result.node_outputs[node.id] = std::move(out);
  ++result.nodes_completed;
}

Status ExecuteNodeStep(const NodeStepContext& ctx, const WorkflowNode& node) {
  obs::ScopedSpan op_span(OpKindName(node.kind));
  int64_t rows_in = 0;
  for (NodeId in : node.inputs) {
    rows_in += ctx.result->node_outputs.at(in).num_rows();
  }
  Table out;
  int64_t op_start_ns = 0;
  if (ctx.profiling) op_start_ns = obs::ProfileNowNs();
  ETLOPT_RETURN_IF_ERROR(ComputeNodeOutput(ctx, node, &out));
  // Self time stops here: fault bookkeeping, byte accounting, and metric
  // emission in FinishNodeStep are harness cost, not operator cost.
  int64_t self_ns = 0;
  if (ctx.profiling) self_ns = obs::ProfileNowNs() - op_start_ns;
  if (ctx.result->aborted()) return Status::OK();  // stopped inside the read
  const int64_t rows_out = out.num_rows();
  if (op_span.active()) {
    op_span.Arg("node", static_cast<int64_t>(node.id));
    op_span.Arg("rows_in", rows_in);
    op_span.Arg("rows_out", rows_out);
  }
  FinishNodeStep(ctx, node, std::move(out), self_ns);
  return Status::OK();
}

std::unordered_map<NodeId, int64_t> BuildSideCardHints(
    const Workflow& wf,
    const std::unordered_map<NodeId, PlanMonitor>& monitors) {
  std::unordered_map<NodeId, int64_t> hints;
  if (monitors.empty()) return hints;
  for (const WorkflowNode& node : wf.nodes()) {
    if (node.kind != OpKind::kJoin || node.inputs.size() < 2) continue;
    const auto it = monitors.find(node.inputs[1]);
    if (it == monitors.end() || it->second.expected_rows < 0.0) continue;
    hints[node.id] =
        static_cast<int64_t>(it->second.expected_rows + 0.5);
  }
  return hints;
}

Result<ExecutionResult> Executor::Execute(const SourceMap& sources) const {
  ExecutionResult result;
  obs::ScopedSpan exec_span("engine.execute");
  exec_span.Arg("workflow", wf_->name());
  exec_span.Arg("nodes", static_cast<int64_t>(wf_->nodes().size()));
  result.nodes_total = static_cast<int>(wf_->nodes().size());
  // One pointer load when no spec is installed — the entire robustness layer
  // costs the un-faulted hot path a single null check per operator.
  fault::FaultInjector* inj = fault::FaultInjector::Global();
  // Deterministic backoff jitter (and nothing else) comes from this stream.
  Rng backoff_rng(inj != nullptr ? inj->seed() : 0x5eedULL);

  NodeStepContext ctx;
  ctx.wf = wf_;
  ctx.sources = &sources;
  ctx.options = &options_;
  ctx.inj = inj;
  // Hoisted once per run: the disabled profiler costs each operator a branch
  // on this cached bool, nothing more (benched in bench/micro_obs.cc).
  ctx.profiling = obs::ProfilerEnabled();
  ctx.backoff_rng = &backoff_rng;
  ctx.result = &result;

  for (const WorkflowNode& node : wf_->nodes()) {
    ETLOPT_RETURN_IF_ERROR(ExecuteNodeStep(ctx, node));
    if (result.aborted()) break;
  }
  if (result.aborted() && exec_span.active()) {
    exec_span.Arg("abort", AbortKindName(result.abort_kind));
    exec_span.Arg("nodes_completed",
                  static_cast<int64_t>(result.nodes_completed));
  }
  ETLOPT_COUNTER_ADD("etlopt.engine.executions", 1);
  ETLOPT_COUNTER_ADD("etlopt.engine.rows_processed", result.rows_processed);
  ETLOPT_COUNTER_ADD("etlopt.engine.bytes_processed", result.bytes_processed);
  return result;
}

}  // namespace etlopt
