#ifndef LIFECYCLE_BENCH_BENCH_H_
#define LIFECYCLE_BENCH_BENCH_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "datagen/workload_suite.h"
#include "obs/ledger.h"
#include "util/thread_pool.h"

namespace lifecycle_bench {

// One workflow of a workload: a suite workflow and its data scale.
struct FlowDef {
  int index = 0;       // BuildWorkload index
  double scale = 1.0;  // GenerateSources row_scale
};

// One workload: which workflows a round cycles through, and with which
// pipeline configuration. README.md says why each was chosen.
struct WorkloadDef {
  std::string name;
  std::vector<FlowDef> flows;  // in round order
  int threads = 1;             // PipelineOptions::num_threads
  int64_t tap_budget_bytes = 0;  // 0: exact taps
  bool history = false;  // ledger history written in set-up, fixed after
};

const std::vector<WorkloadDef>& Workloads();

// Every option the workloads rely on, set explicitly rather than left to
// the library's environment-reading defaults.
etlopt::PipelineOptions MakePipelineOptions(const WorkloadDef& def);

struct Flow {
  etlopt::WorkloadSpec spec;
  etlopt::SourceMap sources;
  std::vector<etlopt::obs::RunRecord> history;  // empty: no history

  const std::vector<etlopt::obs::RunRecord>* history_or_null() const {
    return history.empty() ? nullptr : &history;
  }
};

// Everything one set-up produces: data, workflows, the pipeline with its
// worker pool, and the fixed ledger history.
struct Bench {
  const WorkloadDef* def = nullptr;
  std::string work_dir;
  std::unique_ptr<etlopt::Pipeline> pipeline;
  // The benchmark's own pool for next runs and traced replays, sized like
  // the pipeline's; null on serial workloads.
  std::unique_ptr<etlopt::ThreadPool> pool;
  std::vector<Flow> flows;
  double datagen_s = 0.0;

  std::string round_ledger_path() const {
    return work_dir + "/round.ledger.jsonl";
  }
};

// One workflow's cycle within a round, kept for the checks and the replay.
struct FlowRun {
  etlopt::CycleOutcome cycle;
  etlopt::obs::RunRecord record;
  int64_t next_rows = 0;  // rows_processed of the re-optimized plan's run
  double cycle_s = 0.0;          // RunCycle + MakeRunRecord + Append
  double cycle_cpu_s = 0.0;
  double append_s = 0.0;         // RunLedger::Append alone
  double next_s = 0.0;
  double qerror_max = 1.0;       // over the on-path SEs
  std::string error;             // first failed check; empty when passed
};

// Counts of one round. They depend only on the seed and must repeat
// exactly from round to round.
struct RoundCounts {
  int64_t next_run_rows = 0;
  double stat_memory_units = 0.0;
  double qerror_max = 1.0;

  bool operator==(const RoundCounts& o) const {
    return next_run_rows == o.next_run_rows &&
           stat_memory_units == o.stat_memory_units &&
           qerror_max == o.qerror_max;
  }
};

struct RoundResult {
  double wall_s = 0.0;
  double cycle_s = 0.0;
  double cycle_cpu_s = 0.0;
  double next_run_s = 0.0;
  double peak_rss_mb = 0.0;
  RoundCounts counts;
  int attempted = 0;
  int failed = 0;
};

// Runs after a workflow's cycle passed its checks (the traced replay);
// returns an error that fails the cycle, or "".
using FlowHook = std::function<std::string(const Bench&, const Flow&,
                                           const FlowRun&)>;

// One round: a full cycle of every workflow in order, each followed by a
// run of its re-optimized plan, with the output checks.
RoundResult RunRound(const Bench& bench, const FlowHook& hook = {});

// One set-up: generates the sources, builds the workflows and the
// pipeline, writes and loads the fixed history, and runs the cold first
// round (`cold`). Returns null after printing an error.
std::unique_ptr<Bench> SetUp(const WorkloadDef& def, uint64_t seed,
                             const std::string& work_dir, RoundResult* cold);

// Per-layer numbers of one traced round, by metric name, summed over the
// round's workflows.
using LayerSample = std::map<std::string, double>;

// Replays the layer calls of one workflow's cycle on the cycle's own
// artifacts, timing each call, and checks every result against what the
// pipeline returned. Returns an error, or "".
std::string ReplayFlow(const Bench& bench, const Flow& flow,
                       const FlowRun& run, LayerSample* sample);

}  // namespace lifecycle_bench

#endif  // LIFECYCLE_BENCH_BENCH_H_
