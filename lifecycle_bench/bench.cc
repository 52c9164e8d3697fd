#include "bench.h"

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "engine/column.h"
#include "engine/parallel/parallel_executor.h"
#include "probes.h"

namespace lifecycle_bench {

using etlopt::ExecutionResult;
using etlopt::ExecutorOptions;
using etlopt::Result;
using etlopt::SourceMap;
using etlopt::Table;
using etlopt::Workflow;
namespace obs = etlopt::obs;

namespace {

// Each workflow draws its sources from its own stream of the run's seed.
uint64_t FlowSeed(uint64_t seed, int index) {
  return seed * 1000003ULL + static_cast<uint64_t>(index);
}

// A table as a multiset of rows: row count, the attribute set, and an
// order-independent hash (sum of per-row hashes, columns taken in attribute
// order so a re-ordered plan's schema compares equal).
struct TableDigest {
  int64_t rows = 0;
  std::vector<etlopt::AttrId> attrs;
  uint64_t hash = 0;

  bool operator==(const TableDigest& o) const {
    return rows == o.rows && attrs == o.attrs && hash == o.hash;
  }
};

TableDigest Digest(const Table& table) {
  TableDigest digest;
  digest.rows = table.num_rows();
  const std::vector<etlopt::AttrId>& attrs = table.schema().attrs();
  std::vector<int> order(attrs.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return attrs[static_cast<size_t>(a)] <
                                       attrs[static_cast<size_t>(b)]; });
  std::vector<const etlopt::Value*> columns;
  for (int c : order) {
    digest.attrs.push_back(attrs[static_cast<size_t>(c)]);
    columns.push_back(table.column_data(c));
  }
  for (int64_t r = 0; r < digest.rows; ++r) {
    uint64_t h = 0x243F6A8885A308D3ULL;
    for (const etlopt::Value* column : columns) {
      h = etlopt::Hash64(static_cast<etlopt::Value>(
          h ^ etlopt::Hash64(column[static_cast<size_t>(r)])));
    }
    digest.hash += h;
  }
  return digest;
}

// The designed plan's targets and the re-optimized plan's must hold the
// same rows.
std::string CheckTargets(const ExecutionResult& designed,
                         const ExecutionResult& next) {
  if (designed.targets.size() != next.targets.size()) {
    return "target count differs between designed and re-optimized plan";
  }
  for (const auto& [name, table] : designed.targets) {
    const auto it = next.targets.find(name);
    if (it == next.targets.end()) {
      return "re-optimized plan lacks target '" + name + "'";
    }
    if (!(Digest(table) == Digest(it->second))) {
      return "target '" + name + "' differs between designed (" +
             std::to_string(table.num_rows()) + " rows) and re-optimized (" +
             std::to_string(it->second.num_rows()) + " rows) plan";
    }
  }
  return "";
}

// Largest q-error of an on-path SE estimate against the row count the
// designed run produced there. With `exact` taps every estimate must equal
// its actual count.
std::string CheckEstimates(const etlopt::CycleOutcome& cycle, bool exact,
                           double* qerror_max) {
  const etlopt::Analysis& analysis = *cycle.analysis;
  if (cycle.opt.block_cards.size() != analysis.blocks.size()) {
    return "estimates cover " + std::to_string(cycle.opt.block_cards.size()) +
           " of " + std::to_string(analysis.blocks.size()) + " blocks";
  }
  for (size_t b = 0; b < analysis.blocks.size(); ++b) {
    const etlopt::CardMap& cards = cycle.opt.block_cards[b];
    for (const auto& [se, node] : analysis.blocks[b]->ctx.on_path()) {
      const auto est = cards.find(se);
      const auto out = cycle.run.exec.node_outputs.find(node);
      if (est == cards.end() || out == cycle.run.exec.node_outputs.end()) {
        return "block " + std::to_string(b) + ": on-path SE " +
               std::to_string(se) + " has no estimate or no output";
      }
      const double e = std::max<double>(1.0, static_cast<double>(est->second));
      const double a =
          std::max<double>(1.0, static_cast<double>(out->second.num_rows()));
      *qerror_max = std::max(*qerror_max, std::max(e / a, a / e));
      if (exact && est->second != out->second.num_rows()) {
        return "block " + std::to_string(b) + ": SE " + std::to_string(se) +
               " estimated " + std::to_string(est->second) + " rows, actual " +
               std::to_string(out->second.num_rows());
      }
    }
  }
  return "";
}

// The re-optimized plan's run, without taps, on the workload's executor.
Result<ExecutionResult> RunNext(const Bench& bench, const Workflow& workflow,
                                const SourceMap& sources) {
  if (bench.def->threads > 1) {
    etlopt::parallel::ParallelOptions options;
    options.num_threads = bench.def->threads;
    options.executor = ExecutorOptions{};
    etlopt::parallel::ParallelExecutor executor(&workflow, options);
    ETLOPT_ASSIGN_OR_RETURN(etlopt::parallel::ParallelResult result,
                            executor.Execute(sources, bench.pool.get()));
    return std::move(result.exec);
  }
  return etlopt::Executor(&workflow, ExecutorOptions{}).Execute(sources);
}

void RunFlow(const Bench& bench, const Flow& flow, obs::RunLedger* ledger,
             FlowRun* run) {
  const double wall0 = WallSeconds();
  const double cpu0 = CpuSeconds();
  Result<etlopt::CycleOutcome> cycle = bench.pipeline->RunCycle(
      flow.spec.workflow, flow.sources, flow.history_or_null());
  if (!cycle.ok()) {
    run->error = "RunCycle: " + cycle.status().ToString();
    return;
  }
  run->cycle = std::move(cycle).value();
  run->record = etlopt::MakeRunRecord(run->cycle, "round");
  const double append0 = WallSeconds();
  const etlopt::Status appended = ledger->Append(run->record);
  const double wall1 = WallSeconds();
  run->append_s = wall1 - append0;
  run->cycle_s = wall1 - wall0;
  run->cycle_cpu_s = CpuSeconds() - cpu0;
  if (!appended.ok()) {
    run->error = "ledger append: " + appended.ToString();
    return;
  }
  if (run->cycle.aborted()) {
    run->error = "cycle aborted: " + run->cycle.run.exec.abort_reason;
    return;
  }

  const double next0 = WallSeconds();
  Result<ExecutionResult> next =
      RunNext(bench, run->cycle.opt.optimized, flow.sources);
  run->next_s = WallSeconds() - next0;
  if (!next.ok()) {
    run->error = "next run: " + next.status().ToString();
    return;
  }
  if (next->aborted()) {
    run->error = "next run aborted: " + next->abort_reason;
    return;
  }
  run->next_rows = next->rows_processed;
  run->error = CheckTargets(run->cycle.run.exec, *next);
  if (!run->error.empty()) return;
  run->error = CheckEstimates(run->cycle, bench.def->tap_budget_bytes == 0,
                              &run->qerror_max);
}

// Runs every workflow once with no history and loads the ledger back: the
// fixed history that arms the guard monitors and build-size hints.
bool WriteHistory(Bench* bench) {
  const std::string path = bench->work_dir + "/history.ledger.jsonl";
  std::remove(path.c_str());
  obs::RunLedger ledger(path);
  for (const Flow& flow : bench->flows) {
    Result<etlopt::CycleOutcome> cycle =
        bench->pipeline->RunCycle(flow.spec.workflow, flow.sources);
    if (!cycle.ok() || cycle->aborted()) {
      std::fprintf(stderr, "lifecycle_bench: history cycle of %s failed\n",
                   flow.spec.name.c_str());
      return false;
    }
    const etlopt::Status appended =
        ledger.Append(etlopt::MakeRunRecord(*cycle, "history"));
    if (!appended.ok()) {
      std::fprintf(stderr, "lifecycle_bench: %s\n",
                   appended.ToString().c_str());
      return false;
    }
  }
  Result<obs::LedgerLoadResult> loaded = ledger.Load();
  if (!loaded.ok()) {
    std::fprintf(stderr, "lifecycle_bench: %s\n",
                 loaded.status().ToString().c_str());
    return false;
  }
  for (Flow& flow : bench->flows) {
    flow.history = obs::RunLedger::HistoryFor(
        loaded->records, obs::FingerprintWorkflow(flow.spec.workflow));
    if (flow.history.empty()) {
      std::fprintf(stderr, "lifecycle_bench: no history for %s\n",
                   flow.spec.name.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

const std::vector<WorkloadDef>& Workloads() {
  static const std::vector<WorkloadDef> workloads = {
      {"analyze_wide", {{19, 0.01}, {30, 0.01}}, 1, 0, false},
      {"exec_join", {{20, 0.1}, {27, 1.0}, {3, 1.0}, {25, 1.0}}, 1, 0, true},
      {"exec_join_par", {{3, 1.0}, {25, 1.0}}, 2, 32 * 1024, true},
  };
  return workloads;
}

// A zero tap budget and an empty calibration make the Pipeline constructor
// consult ETLOPT_TAP_BUDGET and ETLOPT_CALIBRATION, which the benchmark
// refuses to run with, so both stay as set here.
etlopt::PipelineOptions MakePipelineOptions(const WorkloadDef& def) {
  etlopt::PipelineOptions options;
  options.selector = etlopt::SelectorKind::kGreedy;
  options.executor = ExecutorOptions{};
  options.guard = obs::GuardOptions{};
  options.calibration = obs::CostCalibration{};
  options.tap_memory_budget_bytes = def.tap_budget_bytes;
  options.checkpoint_path.clear();
  options.checkpoint_every_rows = 100000;
  options.num_threads = def.threads;
  return options;
}

RoundResult RunRound(const Bench& bench, const FlowHook& hook) {
  RoundResult round;
  const std::string ledger_path = bench.round_ledger_path();
  std::remove(ledger_path.c_str());
  obs::RunLedger ledger(ledger_path);
  // Free pages the allocator kept from earlier rounds go back to the
  // kernel, so every round starts from the same resident set and its peak
  // measures what the round itself needs.
  malloc_trim(0);
  if (!ResetPeakRss()) {
    std::fprintf(stderr,
                 "lifecycle_bench: cannot reset VmHWM via "
                 "/proc/self/clear_refs\n");
    std::exit(2);
  }
  const double wall0 = WallSeconds();
  for (const Flow& flow : bench.flows) {
    FlowRun run;
    RunFlow(bench, flow, &ledger, &run);
    if (run.error.empty() && hook) run.error = hook(bench, flow, run);
    ++round.attempted;
    if (!run.error.empty()) {
      ++round.failed;
      std::fprintf(stderr, "lifecycle_bench: %s/%s cycle failed: %s\n",
                   bench.def->name.c_str(), flow.spec.name.c_str(),
                   run.error.c_str());
    }
    round.cycle_s += run.cycle_s;
    round.cycle_cpu_s += run.cycle_cpu_s;
    round.next_run_s += run.next_s;
    round.counts.next_run_rows += run.next_rows;
    round.counts.qerror_max = std::max(round.counts.qerror_max, run.qerror_max);
    if (run.cycle.analysis != nullptr) {
      for (const auto& block : run.cycle.analysis->blocks) {
        round.counts.stat_memory_units += block->selection.total_cost;
      }
    }
  }
  round.wall_s = WallSeconds() - wall0;
  round.peak_rss_mb = static_cast<double>(PeakRssBytes()) / (1 << 20);
  return round;
}

std::unique_ptr<Bench> SetUp(const WorkloadDef& def, uint64_t seed,
                             const std::string& work_dir, RoundResult* cold) {
  auto bench = std::make_unique<Bench>();
  bench->def = &def;
  bench->work_dir = work_dir;
  for (const FlowDef& flow_def : def.flows) {
    Flow flow;
    flow.spec = etlopt::BuildWorkload(flow_def.index);
    const double gen0 = WallSeconds();
    flow.sources = etlopt::GenerateSources(
        flow.spec, FlowSeed(seed, flow_def.index), flow_def.scale);
    bench->datagen_s += WallSeconds() - gen0;
    bench->flows.push_back(std::move(flow));
  }
  bench->pipeline =
      std::make_unique<etlopt::Pipeline>(MakePipelineOptions(def));
  if (def.threads > 1) {
    bench->pool = std::make_unique<etlopt::ThreadPool>(def.threads);
  }
  if (def.history && !WriteHistory(bench.get())) return nullptr;
  *cold = RunRound(*bench);
  return bench;
}

}  // namespace lifecycle_bench
