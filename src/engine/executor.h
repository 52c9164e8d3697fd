#ifndef ETLOPT_ENGINE_EXECUTOR_H_
#define ETLOPT_ENGINE_EXECUTOR_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "engine/table.h"
#include "etl/workflow.h"
#include "obs/profile.h"
#include "util/bitmask.h"
#include "util/status.h"

namespace etlopt {

namespace fault {
class FaultInjector;
}  // namespace fault
class Rng;

// Source bindings: table name -> data.
using SourceMap = std::unordered_map<std::string, Table>;

// Retry policy for transient source failures (io_error / timeout): attempt,
// back off exponentially with jitter, attempt again. Backoff durations are
// drawn deterministically from a seeded stream so fault-injected runs are
// reproducible.
struct RetryPolicy {
  int max_attempts = 4;            // total attempts per source read
  double initial_backoff_ms = 1.0; // delay before the 2nd attempt
  double backoff_multiplier = 2.0;
  double max_backoff_ms = 100.0;
  double jitter_fraction = 0.25;   // +/- uniform share of the delay

  // Defaults overridden by ETLOPT_RETRY_MAX_ATTEMPTS /
  // ETLOPT_RETRY_BACKOFF_MS / ETLOPT_RETRY_MAX_BACKOFF_MS.
  static RetryPolicy FromEnv();
};

// A runtime plan monitor attached to one node: the cardinality the current
// plan was priced with at this pipeline point (obs/guard.h wires these from
// ledger history). The executor compares the node's observed output rows
// against `expected_rows` and records a violation when the q-error exceeds
// ExecutorOptions::monitor_qerror_bound.
struct PlanMonitor {
  double expected_rows = -1.0;  // < 0 disables the monitor
  int block = 0;
  RelMask se = 0;
};

// Robustness knobs of one Executor. The defaults reproduce the seed
// behavior exactly when no fault injector is installed.
struct ExecutorOptions {
  RetryPolicy retry;
  // Fraction of a source's rows allowed to divert to the quarantine sink
  // before the run aborts (the paper's reject-link semantics, bounded): a
  // few malformed rows are an expected property of foreign sources, a
  // majority means the extract is garbage and continuing would poison every
  // statistic downstream.
  double max_error_rate = 0.05;
  // Error-rate enforcement only kicks in past this many read rows, so a
  // single bad row in a tiny table does not abort the run.
  int64_t min_rows_for_error_rate = 20;

  // ---- plan-regression monitors (empty = disabled, zero overhead) ----
  // Estimate monitors per node: observed output rows are compared against
  // the cardinality the running plan was priced with. The map is consulted
  // only when non-empty, so the unguarded hot path pays one branch.
  std::unordered_map<NodeId, PlanMonitor> monitors;
  // q-error bound above which a monitor raises a violation.
  double monitor_qerror_bound = 4.0;
  // Strict guard: the first violation aborts the run (kGuard) through the
  // salvage path instead of merely recording it.
  bool monitor_abort = false;

  // Per-join build-side cardinality hints (node id -> predicted build
  // rows), derived from the same ledger estimates that arm the monitors:
  // the hash join sizes its table from the prediction instead of the row
  // count when an annotation is present (see BuildSideCardHints). Purely a
  // performance hint — outputs never depend on it.
  std::unordered_map<NodeId, int64_t> build_rows_hints;

  // Defaults overridden by ETLOPT_MAX_ERROR_RATE.
  static ExecutorOptions FromEnv();
};

// Why an execution stopped early. kNone means the run completed.
enum class AbortKind : uint8_t {
  kNone = 0,
  kCrash,          // injected crash fault (process-death stand-in)
  kErrorRate,      // quarantine exceeded ExecutorOptions::max_error_rate
  kSourceFailed,   // transient source errors outlived the retry budget
  kGuard,          // strict plan monitor: estimate q-error exceeded bound
};

// One raised estimate monitor: the running plan expected `expected` rows at
// this node's pipeline point and observed `actual`.
struct MonitorViolation {
  NodeId node = kInvalidNode;
  int block = 0;
  RelMask se = 0;
  double expected = 0.0;
  double actual = 0.0;
  double qerror = 1.0;
};

const char* AbortKindName(AbortKind kind);

// Everything produced by one run of a workflow. `node_outputs` caches every
// node's output so the instrumentation layer can observe any pipeline point
// after the fact — semantically equivalent to the per-tuple handlers that
// commercial engines expose (Section 3.2.5) while keeping the engine simple.
struct ExecutionResult {
  std::unordered_map<NodeId, Table> node_outputs;
  // Rows that found no match, per join node and side (captured for every
  // join so reject links — designed or instrumentation-added — are
  // available).
  std::unordered_map<NodeId, Table> join_rejects;        // left-side rejects
  std::unordered_map<NodeId, Table> join_rejects_right;  // right-side rejects
  // Materialize / Sink outputs, by target name.
  std::unordered_map<std::string, Table> targets;
  // Total tuples flowing through all operators: a machine-independent proxy
  // for the run's work, used to compare initial vs optimized plans.
  int64_t rows_processed = 0;
  // Total bytes those tuples occupied (8 bytes per value, per the row
  // layout): the denominator for per-MB instrumentation overhead reporting.
  int64_t bytes_processed = 0;

  // Per-operator profile (self wall time, rows, bytes), populated only when
  // obs::ProfilerEnabled() — empty otherwise. tap_ns is filled in later by
  // the pipeline once instrumentation has run over the cached outputs.
  obs::RunProfile profile;

  // ---- robustness accounting (all empty/zero on a clean, un-faulted run) --
  // Malformed rows diverted per source — the error-sink tables mirroring
  // the paper's reject links, kept for audit instead of silently dropped.
  std::unordered_map<std::string, Table> quarantined;
  // Transient-failure retries absorbed per source.
  std::unordered_map<std::string, int64_t> source_retries;
  // Rows scanned per source (quarantined rows included) — the per-source
  // progress watermarks a partial ledger record carries.
  std::unordered_map<std::string, int64_t> source_rows_read;

  // Estimate monitors that exceeded the q-error bound during the run
  // (ExecutorOptions::monitors). Under monitor_abort the first violation
  // also aborts with kGuard; otherwise the run completes and the guard
  // layer marks the plan unsafe for reuse.
  std::vector<MonitorViolation> monitor_violations;

  // When the run stopped early: what happened and where. node_outputs then
  // holds only the operators that completed before the abort — the salvage
  // surface for partial-statistics collection.
  AbortKind abort_kind = AbortKind::kNone;
  std::string abort_reason;
  NodeId abort_node = kInvalidNode;
  // Nodes the workflow has in total vs. nodes that completed: the coarse
  // run-completion watermark.
  int nodes_total = 0;
  int nodes_completed = 0;

  // ---- parallelism accounting (all zero on the serial path) ----
  // Worker threads and partition fan-out of the run (engine/parallel/).
  int num_workers = 0;
  int partitions_total = 0;
  int partitions_completed = 0;
  // Nodes whose output covers only the completed partitions — the
  // partition-granular salvage surface after a partition-scoped crash.
  int nodes_partial = 0;
  // Time spent hash-partitioning the partitioned sources.
  int64_t partition_ns = 0;
  // Time spent at the merge barrier reassembling partition slices.
  int64_t merge_ns = 0;
  // max / mean partition cardinality over the partitioned source rows.
  double partition_skew = 0.0;
  // Source rows assigned to each partition — the per-partition progress
  // watermarks a partial checkpoint carries.
  std::vector<int64_t> partition_rows;

  bool aborted() const { return abort_kind != AbortKind::kNone; }
  int64_t quarantined_rows() const {
    int64_t total = 0;
    for (const auto& [name, table] : quarantined) total += table.num_rows();
    return total;
  }
  double completion_fraction() const {
    if (nodes_total <= 0) return 1.0;
    double completed = nodes_completed;
    // A partially-gathered node counts by its completed-partition share,
    // so a partition-scoped crash reports finer progress than whole nodes.
    if (partitions_total > 0 && nodes_partial > 0) {
      completed += nodes_partial * static_cast<double>(partitions_completed) /
                   partitions_total;
    }
    return completed / nodes_total;
  }
};

// Single-threaded columnar executor for ETL workflows.
//
// Failure semantics: unrecoverable *configuration* errors (unbound source,
// schema mismatch) return a non-OK Result as before. Injected *runtime*
// faults that stop the run mid-flight (crash points, quarantine overflow,
// retry exhaustion) return an OK Result whose ExecutionResult carries
// abort_kind != kNone plus everything computed up to the abort — callers
// salvage statistics from the completed prefix instead of losing the run.
class Executor {
 public:
  explicit Executor(const Workflow* workflow, ExecutorOptions options = {});

  Result<ExecutionResult> Execute(const SourceMap& sources) const;

  const ExecutorOptions& options() const { return options_; }

 private:
  const Workflow* wf_;
  ExecutorOptions options_;
};

// ---- shared per-node execution steps ----------------------------------
// The serial loop body, split in two so the partitioned executor
// (engine/parallel/) runs the exact same semantics: kPre/kPost nodes go
// through the full step, while partitioned nodes compute their output on
// the worker pool and re-join the serial bookkeeping at the merge barrier
// via FinishNodeStep. Everything an operator touches travels through the
// context, so a step never reaches for globals the caller didn't choose.

// The fault-injection identity of an operator: lowercased OpKindName +
// node id ("join5"), shared by fault specs and profile frame labels.
std::string OpFaultName(const WorkflowNode& node);

struct NodeStepContext {
  const Workflow* wf = nullptr;
  const SourceMap* sources = nullptr;
  const ExecutorOptions* options = nullptr;
  fault::FaultInjector* inj = nullptr;  // null = fault layer disabled
  bool profiling = false;
  Rng* backoff_rng = nullptr;  // deterministic retry jitter
  ExecutionResult* result = nullptr;
};

// Records an early stop on ctx.result (abort kind/reason/node + telemetry).
void AbortRun(const NodeStepContext& ctx, AbortKind kind, std::string reason,
              const WorkflowNode& node);

// Runs the operator itself: reads inputs from result->node_outputs, fills
// `out`, and does the in-switch bookkeeping (rows_processed, targets,
// join rejects, source retry/quarantine). Configuration errors come back
// as a non-OK Status; runtime aborts land in result->abort_*.
Status ComputeNodeOutput(const NodeStepContext& ctx, const WorkflowNode& node,
                         Table* out);

// The post-operator half: crash-fault consult, byte accounting, profile op,
// per-op metrics, and publication into result->node_outputs. `self_ns` is
// the operator's measured self time (summed across workers when the node
// ran partitioned). No-op beyond the consult when the run aborted.
void FinishNodeStep(const NodeStepContext& ctx, const WorkflowNode& node,
                    Table&& out, int64_t self_ns);

// ComputeNodeOutput + self-time measurement + FinishNodeStep, under the
// operator's trace span: one full serial node step.
Status ExecuteNodeStep(const NodeStepContext& ctx, const WorkflowNode& node);

// Executes a join of two tables on a shared attribute (hash join; build on
// the right input). When `rejects` is non-null it receives the left rows
// with no match, in left order; when `right_rejects` is non-null it
// receives the right rows whose key no left row holds, in right order.
// Exposed for the instrumentation side-joins of the union-division
// statistics. `build_rows_hint` > 0 presizes the build table from the
// estimator's predicted build cardinality
// (ExecutorOptions::build_rows_hints); <= 0 falls back to the row count.
Table HashJoin(const Table& left, const Table& right, AttrId attr,
               Table* rejects, int64_t build_rows_hint = -1,
               Table* right_rejects = nullptr);

// The hash join's probe-and-gather step over a prebuilt `ht` (a
// JoinHashTable on right's `attr` column), shared by HashJoin and the
// partitioned executor's slices: probes with left's `attr` column
// (`unmatched` and `build_hits` as in JoinHashTable::Probe) and gathers the
// joined table in `schema` — left's columns, then right's minus the key.
// `probe` keeps the probe's selections.
Table ProbeHashJoin(const Schema& schema, const Table& left,
                    const Table& right, AttrId attr, const JoinHashTable& ht,
                    JoinProbe* probe, SelVector* unmatched,
                    std::vector<uint8_t>* build_hits);

// Sort-merge implementation of the same join (identical output multiset,
// different physical cost profile; left rows and rejects come in key
// order, right rejects in right order). The executor dispatches on
// JoinSpec::algorithm; kAuto uses hash.
Table SortMergeJoin(const Table& left, const Table& right, AttrId attr,
                    Table* rejects, Table* right_rejects = nullptr);

// Derives ExecutorOptions::build_rows_hints from armed plan monitors: for
// every join node whose build (right) input carries an expected
// cardinality, the hash join reserves from the prediction instead of
// discovering the size row by row.
std::unordered_map<NodeId, int64_t> BuildSideCardHints(
    const Workflow& wf,
    const std::unordered_map<NodeId, PlanMonitor>& monitors);

}  // namespace etlopt

#endif  // ETLOPT_ENGINE_EXECUTOR_H_
