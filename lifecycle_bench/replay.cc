// The traced half of the benchmark: every layer call a cycle made is made
// again from the benchmark's own code, on the cycle's own intermediate
// artifacts, timed one by one and checked against what the pipeline
// returned.

#include <algorithm>
#include <memory>

#include "bench.h"
#include "css/generator.h"
#include "engine/instrumentation.h"
#include "engine/parallel/parallel_executor.h"
#include "estimator/estimator.h"
#include "obs/drift.h"
#include "opt/greedy_selector.h"
#include "optimizer/join_optimizer.h"
#include "optimizer/rewrite.h"
#include "probes.h"
#include "stats/stat_io.h"

namespace lifecycle_bench {

using etlopt::Analysis;
using etlopt::BlockAnalysis;
using etlopt::ExecutionResult;
using etlopt::ExecutorOptions;
using etlopt::PipelineOptions;
using etlopt::Result;
namespace obs = etlopt::obs;

namespace {

constexpr double kMiB = 1 << 20;

// The record whose estimates arm the guard monitors, chosen as
// Pipeline::RunAndObserve chooses it: the newest clean record whose plan no
// later run condemned.
const obs::RunRecord* LastCleanRecord(
    const std::vector<obs::RunRecord>& history) {
  std::vector<std::string> condemned;
  for (const obs::RunRecord& record : history) {
    if (record.guard.plan_unsafe) {
      condemned.push_back(record.guard.unsafe_signature);
    }
  }
  for (auto it = history.rbegin(); it != history.rend(); ++it) {
    if (it->partial ||
        std::find(condemned.begin(), condemned.end(), it->plan_signature) !=
            condemned.end()) {
      continue;
    }
    return &*it;
  }
  return nullptr;
}

// The executor options Pipeline::RunAndObserve derives from history: guard
// monitors at the designed plan's pipeline points, and the build-size hints
// they imply.
ExecutorOptions PipelineExecutorOptions(
    const Analysis& analysis, const PipelineOptions& options,
    const std::vector<obs::RunRecord>* history) {
  ExecutorOptions exec = options.executor;
  if (options.guard.mode == obs::GuardMode::kOff || history == nullptr) {
    return exec;
  }
  const obs::RunRecord* last_clean = LastCleanRecord(*history);
  if (last_clean == nullptr) return exec;
  for (const obs::RunRecord::SeCard& card : last_clean->cards) {
    if (card.estimated < 0 || card.block < 0 ||
        card.block >= static_cast<int>(analysis.blocks.size())) {
      continue;
    }
    const auto& on_path =
        analysis.blocks[static_cast<size_t>(card.block)]->ctx.on_path();
    const auto it = on_path.find(card.se);
    if (it == on_path.end()) continue;
    etlopt::PlanMonitor monitor;
    monitor.expected_rows = card.estimated;
    monitor.block = card.block;
    monitor.se = card.se;
    exec.monitors[it->second] = monitor;
  }
  exec.monitor_qerror_bound = options.guard.monitor_qerror;
  exec.monitor_abort = options.guard.mode == obs::GuardMode::kStrict;
  exec.build_rows_hints =
      etlopt::BuildSideCardHints(*analysis.workflow, exec.monitors);
  return exec;
}

// This run's record as Pipeline::Optimize hands it to the drift detector:
// the observed statistics plus the on-path actual cardinalities.
obs::RunRecord DriftInput(const Analysis& analysis,
                          const etlopt::RunOutcome& run) {
  obs::RunRecord current;
  current.partial = run.exec.aborted();
  current.block_stats = run.block_stats;
  for (size_t b = 0; b < analysis.blocks.size(); ++b) {
    for (const auto& [se, node] : analysis.blocks[b]->ctx.on_path()) {
      const auto out = run.exec.node_outputs.find(node);
      if (out == run.exec.node_outputs.end()) continue;
      obs::RunRecord::SeCard card;
      card.block = static_cast<int>(b);
      card.se = se;
      card.actual = static_cast<double>(out->second.num_rows());
      current.cards.push_back(card);
    }
  }
  return current;
}

// The Card keys RunCycle re-observes because the last history record's
// monitors caught their estimates out.
std::vector<etlopt::StatKey> GuardForceObserve(const Flow& flow) {
  std::vector<etlopt::StatKey> keys;
  if (const auto* history = flow.history_or_null()) {
    for (const auto& m : history->back().guard.violations) {
      keys.push_back(etlopt::StatKey::Card(m.se));
    }
  }
  return keys;
}

bool SameProblem(const etlopt::SelectionProblem& a,
                 const etlopt::SelectionProblem& b) {
  return a.cost == b.cost && a.observable == b.observable &&
         a.required == b.required && a.must_observe == b.must_observe;
}

// Node outputs, targets and reject tables of two executions of one plan.
std::string CompareOutputs(const ExecutionResult& serial,
                           const ExecutionResult& parallel) {
  using TableMap = std::unordered_map<etlopt::NodeId, etlopt::Table>;
  const std::pair<const TableMap*, const TableMap*> maps[] = {
      {&serial.node_outputs, &parallel.node_outputs},
      {&serial.join_rejects, &parallel.join_rejects},
      {&serial.join_rejects_right, &parallel.join_rejects_right},
  };
  for (const auto& [s, p] : maps) {
    if (s->size() != p->size()) return "node count differs";
    for (const auto& [node, table] : *s) {
      const auto it = p->find(node);
      if (it == p->end() || it->second != table) {
        return "output of node " + std::to_string(node) + " differs";
      }
    }
  }
  for (const auto& [name, table] : serial.targets) {
    const auto it = parallel.targets.find(name);
    if (it == parallel.targets.end() || it->second != table) {
      return "target '" + name + "' differs";
    }
  }
  return "";
}

// Steps 1-4: PartitionBlocks, BlockContext::Build, PlanSpace::Build,
// GenerateCss, BuildSelectionProblem, SelectGreedy.
std::string ReplayAnalyze(const Bench& bench, const Flow& flow,
                          const FlowRun& run, LayerSample* s) {
  const Analysis& analysis = *run.cycle.analysis;
  const PipelineOptions& options = bench.pipeline->options();
  double t = WallSeconds();
  const std::vector<etlopt::Block> blocks =
      etlopt::PartitionBlocks(*analysis.workflow);
  double planspace_s = WallSeconds() - t;
  if (blocks.size() != analysis.blocks.size()) {
    return "planspace: PartitionBlocks found " +
           std::to_string(blocks.size()) + " blocks, the pipeline " +
           std::to_string(analysis.blocks.size());
  }
  std::vector<etlopt::StatKey> force_observe = options.force_observe;
  for (const etlopt::StatKey& key : GuardForceObserve(flow)) {
    force_observe.push_back(key);
  }
  double css_s = 0.0;
  double problem_s = 0.0;
  double select_s = 0.0;
  for (size_t b = 0; b < blocks.size(); ++b) {
    const BlockAnalysis& ba = *analysis.blocks[b];
    t = WallSeconds();
    Result<etlopt::BlockContext> ctx =
        etlopt::BlockContext::Build(analysis.workflow.get(), blocks[b]);
    if (!ctx.ok()) return "planspace: " + ctx.status().ToString();
    Result<etlopt::PlanSpace> space =
        etlopt::PlanSpace::Build(*ctx, options.plan_space);
    planspace_s += WallSeconds() - t;
    if (!space.ok()) return "planspace: " + space.status().ToString();
    if (space->subexpressions() != ba.plan_space.subexpressions() ||
        space->num_plans() != ba.plan_space.num_plans()) {
      return "planspace: replayed plan space differs";
    }
    (*s)["planspace.ses"] += space->num_ses();
    (*s)["planspace.plans"] += space->num_plans();

    t = WallSeconds();
    const etlopt::CssCatalog catalog =
        etlopt::GenerateCss(ba.ctx, ba.plan_space, options.css);
    css_s += WallSeconds() - t;
    if (catalog.stats() != ba.catalog.stats() ||
        catalog.num_css() != ba.catalog.num_css()) {
      return "css: replayed catalog differs";
    }
    (*s)["css.css_count"] += catalog.num_css();
    (*s)["css.stat_count"] += catalog.num_stats();

    etlopt::CostModelOptions cost_options = options.cost;
    if (options.tap_memory_budget_bytes > 0 &&
        cost_options.sketch_memory_cap <= 0) {
      cost_options.sketch_memory_cap =
          std::max<int64_t>(1, options.tap_memory_budget_bytes / 8);
    }
    etlopt::SelectionOptions selection_options;
    selection_options.free_source_stats = options.free_source_stats;
    selection_options.force_observe = force_observe;
    t = WallSeconds();
    const etlopt::CostModel cost_model(&analysis.workflow->catalog(),
                                       cost_options);
    const etlopt::SelectionProblem problem = etlopt::BuildSelectionProblem(
        ba.ctx, ba.plan_space, catalog, cost_model, selection_options);
    problem_s += WallSeconds() - t;
    if (!SameProblem(problem, ba.problem)) {
      return "opt: replayed selection problem differs";
    }
    t = WallSeconds();
    const etlopt::SelectionResult selection = etlopt::SelectGreedy(problem);
    select_s += WallSeconds() - t;
    if (selection.observed != ba.selection.observed ||
        selection.total_cost != ba.selection.total_cost) {
      return "opt: replayed selection differs";
    }
    (*s)["opt.selected_stats"] += static_cast<double>(selection.observed.size());
    (*s)["opt.memory_units"] += selection.total_cost;
  }
  (*s)["planspace.build_s"] += planspace_s;
  (*s)["css.generate_s"] += css_s;
  (*s)["opt.problem_s"] += problem_s;
  (*s)["opt.select_s"] += select_s;
  (*s)["layers.analyze_s"] += planspace_s + css_s + problem_s + select_s;
  return "";
}

// One execution of the designed plan, timed: wall and CPU seconds, and the
// resident memory it added at its peak.
struct Timing {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double peak_mb = 0.0;
};

template <typename Call>
auto TimeExecution(const Call& call, Timing* timing) {
  ResetPeakRss();
  const int64_t base = RssBytes();
  const double wall0 = WallSeconds();
  const double cpu0 = CpuSeconds();
  auto result = call();
  timing->cpu_s = CpuSeconds() - cpu0;
  timing->wall_s = WallSeconds() - wall0;
  timing->peak_mb = static_cast<double>(PeakRssBytes() - base) / kMiB;
  return result;
}

// Steps 5-6: the designed plan on the ParallelExecutor with the workload's
// thread count and on the serial Executor, then the taps on the workload's
// own execution.
std::string ReplayRun(const Bench& bench, const Flow& flow, const FlowRun& run,
                      LayerSample* s) {
  const Analysis& analysis = *run.cycle.analysis;
  const PipelineOptions& options = bench.pipeline->options();
  const bool partitioned = bench.def->threads > 1;
  const ExecutorOptions exec_options =
      PipelineExecutorOptions(analysis, options, flow.history_or_null());

  etlopt::parallel::ParallelOptions parallel_options;
  parallel_options.num_threads = bench.def->threads;
  parallel_options.executor = exec_options;
  Timing parallel_time;
  Result<etlopt::parallel::ParallelResult> parallel = TimeExecution(
      [&] {
        return etlopt::parallel::ParallelExecutor(analysis.workflow.get(),
                                                  parallel_options)
            .Execute(flow.sources, bench.pool.get());
      },
      &parallel_time);
  if (!parallel.ok()) return "parallel: " + parallel.status().ToString();
  const double skew = parallel->exec.partition_skew;
  // A serial workload's parallel call delegated to the serial executor;
  // its outputs are not needed, so they are released before the next run.
  if (!partitioned) *parallel = etlopt::parallel::ParallelResult{};

  Timing serial_time;
  Result<ExecutionResult> serial = TimeExecution(
      [&] {
        return etlopt::Executor(analysis.workflow.get(), exec_options)
            .Execute(flow.sources);
      },
      &serial_time);
  if (!serial.ok()) return "engine: " + serial.status().ToString();
  if (serial->rows_processed != run.cycle.run.exec.rows_processed) {
    return "engine: replayed run processed " +
           std::to_string(serial->rows_processed) + " rows, the pipeline " +
           std::to_string(run.cycle.run.exec.rows_processed);
  }
  if (partitioned) {
    const std::string diff = CompareOutputs(*serial, parallel->exec);
    if (!diff.empty()) return "parallel: " + diff + " from the serial run";
  }

  const ExecutionResult& own = partitioned ? parallel->exec : *serial;
  etlopt::ParallelTapContext tap_context;
  if (partitioned && !parallel->slices.empty()) {
    tap_context.slices = &parallel->slices;
    tap_context.pool = bench.pool.get();
  }
  etlopt::TapOptions taps;
  taps.memory_budget_bytes = options.tap_memory_budget_bytes;
  etlopt::TapReport report;
  double observe_s = 0.0;
  for (size_t b = 0; b < analysis.blocks.size(); ++b) {
    const BlockAnalysis& ba = *analysis.blocks[b];
    const double t = WallSeconds();
    const std::vector<etlopt::StatKey> keys =
        ba.selection.ObservedKeys(ba.catalog);
    Result<etlopt::StatStore> store = etlopt::ObserveStatistics(
        ba.ctx, own, keys, taps, &report, tap_context);
    observe_s += WallSeconds() - t;
    if (!store.ok()) return "taps: " + store.status().ToString();
    const std::string text = etlopt::WriteStatStoreText(*store);
    if (text != etlopt::WriteStatStoreText(run.cycle.run.block_stats[b])) {
      return "taps: replayed statistics of block " + std::to_string(b) +
             " differ from the pipeline's";
    }
    if (partitioned) {
      Result<etlopt::StatStore> serial_store =
          etlopt::ObserveStatistics(ba.ctx, *serial, keys, taps);
      if (!serial_store.ok() ||
          etlopt::WriteStatStoreText(*serial_store) != text) {
        return "taps: partition-merged statistics of block " +
               std::to_string(b) + " differ from the serial run's";
      }
    }
  }
  // RunAndObserve frees the partition slices once the taps have read them;
  // the release belongs to the parallel layer's cost.
  const double t = WallSeconds();
  parallel->slices.clear();
  parallel_time.wall_s += WallSeconds() - t;

  (*s)["engine.execute_s"] += serial_time.wall_s;
  (*s)["engine.rows_processed"] += static_cast<double>(serial->rows_processed);
  (*s)["engine.bytes_processed"] +=
      static_cast<double>(serial->bytes_processed);
  (*s)["engine.next_execute_s"] += run.next_s;
  (*s)["parallel.execute_s"] += parallel_time.wall_s;
  (*s)["parallel.cpu_s"] += parallel_time.cpu_s;
  (*s)["parallel.serial_execute_s"] += serial_time.wall_s;
  (*s)["parallel.skew"] = std::max((*s)["parallel.skew"], skew);
  (*s)["parallel.peak_mb"] =
      std::max((*s)["parallel.peak_mb"], parallel_time.peak_mb);
  (*s)["parallel.serial_peak_mb"] =
      std::max((*s)["parallel.serial_peak_mb"], serial_time.peak_mb);
  (*s)["taps.observe_s"] += observe_s;
  (*s)["taps.exact"] += report.exact_taps;
  (*s)["taps.sketch"] += report.sketch_taps;
  (*s)["taps.bytes"] += static_cast<double>(report.tap_bytes);
  (*s)["taps.rows_tapped"] += static_cast<double>(report.rows_tapped);
  (*s)["layers.run_s"] +=
      (partitioned ? parallel_time.wall_s : serial_time.wall_s) + observe_s;
  return "";
}

// Step 7: drift comparison against history, estimation, the guard's
// evidence and adoption verdict, join DP, rewrite.
std::string ReplayOptimize(const Bench& bench, const Flow& flow,
                           const FlowRun& run, LayerSample* s) {
  const Analysis& analysis = *run.cycle.analysis;
  const PipelineOptions& options = bench.pipeline->options();
  const etlopt::OptimizeOutcome& opt = run.cycle.opt;
  const std::vector<obs::RunRecord>* history = flow.history_or_null();

  // Without history the pipeline compares nothing; the replay then compares
  // the run against its own record, so the drift layer is timed everywhere
  // but counted in the phase only where the pipeline called it.
  const std::vector<obs::RunRecord> own_history = {run.record};
  double t = WallSeconds();
  obs::DriftReport drift = obs::DriftDetector().Compare(
      history ? *history : own_history, DriftInput(analysis, run.cycle.run));
  const double drift_s = WallSeconds() - t;
  if (drift.any_drift()) return "obs: drift flagged on a fixed history";

  double derive_s = 0.0;
  double guard_s = 0.0;
  double join_dp_s = 0.0;
  double initial_cost = 0.0;
  double optimized_cost = 0.0;
  std::vector<etlopt::OptimizeOutcome::BlockEstimates> estimates;
  std::vector<obs::SeEvidence> evidence;
  std::vector<etlopt::OptimizedPlan> plans(analysis.blocks.size());
  std::vector<etlopt::PlanRewriter::BlockPlan> rewrites;
  for (size_t b = 0; b < analysis.blocks.size(); ++b) {
    const BlockAnalysis& ba = *analysis.blocks[b];
    // The estimates the outcome keeps are copied out, and the estimator is
    // released, as the pipeline does.
    t = WallSeconds();
    auto estimator = std::make_unique<etlopt::Estimator>(&ba.ctx, &ba.catalog);
    const etlopt::Status derived =
        estimator->DeriveAll(run.cycle.run.block_stats[b]);
    Result<etlopt::CardMap> cards =
        derived.ok() ? estimator->AllCardinalities(
                           ba.plan_space.subexpressions())
                     : Result<etlopt::CardMap>(derived);
    if (cards.ok()) {
      estimates.push_back({estimator->derived(), estimator->provenance()});
    }
    derive_s += WallSeconds() - t;
    if (!cards.ok()) return "estimator: " + cards.status().ToString();
    if (*cards != opt.block_cards[b]) {
      return "estimator: replayed cardinalities of block " +
             std::to_string(b) + " differ from the pipeline's";
    }
    (*s)["estimator.cards"] += static_cast<double>(cards->size());

    t = WallSeconds();
    const std::vector<etlopt::StatKey> distrusted =
        drift.ReinstrumentKeys(static_cast<int>(b));
    for (const auto& [se, rows] : *cards) {
      (void)rows;
      obs::SeEvidence ev;
      ev.block = static_cast<int>(b);
      ev.se = se;
      ev.confidence = estimator->CardinalityConfidence(
          se, distrusted, options.guard.drift_penalty);
      if (estimator->clamped_values() > 0) {
        ev.confidence *= options.guard.drift_penalty;
      }
      evidence.push_back(ev);
    }
    guard_s += WallSeconds() - t;
    t = WallSeconds();
    estimator.reset();
    derive_s += WallSeconds() - t;

    t = WallSeconds();
    Result<etlopt::OptimizedPlan> plan = etlopt::OptimizeJoins(
        ba.ctx, ba.plan_space, *cards, options.optimizer_cost);
    join_dp_s += WallSeconds() - t;
    if (!plan.ok()) return "optimizer: " + plan.status().ToString();
    plans[b] = std::move(plan).value();
    initial_cost += plans[b].initial_cost;
    optimized_cost += plans[b].cost;
    if (ba.block.joins.size() >= 2) {
      rewrites.push_back(etlopt::PlanRewriter::BlockPlan{&ba.block, &plans[b]});
    }
  }
  t = WallSeconds();
  Result<etlopt::Workflow> rewritten =
      etlopt::PlanRewriter::Apply(*analysis.workflow, rewrites);
  const double rewrite_s = WallSeconds() - t;
  if (!rewritten.ok()) return "optimizer: " + rewritten.status().ToString();

  t = WallSeconds();
  obs::GuardInputs inputs;
  inputs.proposed_signature = obs::FingerprintWorkflow(*rewritten);
  inputs.plan_changed =
      inputs.proposed_signature != obs::FingerprintWorkflow(*analysis.workflow);
  inputs.initial_cost = initial_cost;
  inputs.optimized_cost = optimized_cost;
  inputs.evidence = std::move(evidence);
  inputs.calibration_coverage =
      obs::CalibrationCoverage(options.calibration, run.cycle.run.exec.profile);
  if (history != nullptr) {
    inputs.partial_history = history->back().partial;
    for (const obs::RunRecord& record : *history) {
      if (record.guard.plan_unsafe) {
        inputs.unsafe_signatures.push_back(record.guard.unsafe_signature);
      }
    }
  }
  const obs::GuardVerdict verdict =
      obs::EvaluateAdoption(options.guard, inputs);
  guard_s += WallSeconds() - t;

  const etlopt::Workflow& expected =
      verdict.adopt || options.guard.mode != obs::GuardMode::kStrict
          ? *rewritten
          : *analysis.workflow;
  if (verdict.adopt != opt.guard.adopted ||
      obs::FingerprintWorkflow(expected) !=
          obs::FingerprintWorkflow(opt.optimized) ||
      initial_cost != opt.initial_cost) {
    return "optimizer: replayed plan differs from the pipeline's";
  }

  (*s)["obs.drift_s"] += drift_s;
  (*s)["obs.guard_s"] += guard_s;
  (*s)["estimator.derive_s"] += derive_s;
  // The replayed cardinalities equal the pipeline's (checked above), so
  // their q-error is the one the cycle's output check measured.
  (*s)["estimator.qerror_max"] =
      std::max((*s)["estimator.qerror_max"], run.qerror_max);
  (*s)["optimizer.join_dp_s"] += join_dp_s;
  (*s)["optimizer.rewrite_s"] += rewrite_s;
  (*s)["optimizer.initial_cost"] += initial_cost;
  (*s)["optimizer.optimized_cost"] += optimized_cost;
  (*s)["layers.optimize_s"] += (history ? drift_s : 0.0) + derive_s +
                               guard_s + join_dp_s + rewrite_s;
  return "";
}

// The ledger record appended this round: its load, and its size with the
// wall-clock fields and the process-wide counter snapshot left out, so the
// count repeats exactly.
std::string ReplayLedger(const Bench& bench, const FlowRun& run,
                         LayerSample* s) {
  const double t = WallSeconds();
  Result<obs::LedgerLoadResult> loaded =
      obs::RunLedger(bench.round_ledger_path()).Load();
  const double load_s = WallSeconds() - t;
  if (!loaded.ok()) return "obs: " + loaded.status().ToString();
  if (loaded->records.empty() ||
      loaded->records.back().plan_signature != run.record.plan_signature) {
    return "obs: the loaded ledger lacks this round's record";
  }
  obs::RunRecord sized = run.record;
  sized.timestamp_ms = 0;
  sized.analyze_ms = sized.execute_ms = sized.optimize_ms = 0.0;
  sized.metrics.clear();
  (*s)["obs.ledger_load_s"] += load_s;
  (*s)["obs.ledger_append_s"] += run.append_s;
  (*s)["obs.ledger_record_bytes"] +=
      static_cast<double>(sized.ToJsonLine().size());
  return "";
}

// Each pipeline phase call, made again right after its layer calls and
// timed, for the coverage check. Following its replay, the phase finds the
// same data in cache, so the check compares work, not cache state. Each
// result is released only after its clock is read.
std::string TimeAnalyze(const Bench& bench, const Flow& flow,
                        LayerSample* s) {
  const std::vector<etlopt::StatKey> force_observe = GuardForceObserve(flow);
  const double t = WallSeconds();
  const auto phase = bench.pipeline->Analyze(
      flow.spec.workflow, nullptr,
      force_observe.empty() ? nullptr : &force_observe);
  (*s)["phase.analyze_s"] += WallSeconds() - t;
  return phase.ok() ? "" : "Pipeline::Analyze: " + phase.status().ToString();
}

std::string TimeRun(const Bench& bench, const Flow& flow, const FlowRun& run,
                    LayerSample* s) {
  const double t = WallSeconds();
  const auto phase = bench.pipeline->RunAndObserve(
      *run.cycle.analysis, flow.sources, flow.history_or_null());
  (*s)["phase.run_s"] += WallSeconds() - t;
  return phase.ok() ? ""
                    : "Pipeline::RunAndObserve: " + phase.status().ToString();
}

std::string TimeOptimize(const Bench& bench, const Flow& flow,
                         const FlowRun& run, LayerSample* s) {
  const double t = WallSeconds();
  const auto phase = bench.pipeline->Optimize(
      *run.cycle.analysis, run.cycle.run, flow.history_or_null());
  (*s)["phase.optimize_s"] += WallSeconds() - t;
  return phase.ok() ? "" : "Pipeline::Optimize: " + phase.status().ToString();
}

}  // namespace

std::string ReplayFlow(const Bench& bench, const Flow& flow,
                       const FlowRun& run, LayerSample* sample) {
  std::string error = ReplayAnalyze(bench, flow, run, sample);
  if (error.empty()) error = TimeAnalyze(bench, flow, sample);
  if (error.empty()) error = ReplayRun(bench, flow, run, sample);
  if (error.empty()) error = TimeRun(bench, flow, run, sample);
  if (error.empty()) error = ReplayOptimize(bench, flow, run, sample);
  if (error.empty()) error = TimeOptimize(bench, flow, run, sample);
  if (error.empty()) error = ReplayLedger(bench, run, sample);
  return error;
}

}  // namespace lifecycle_bench
