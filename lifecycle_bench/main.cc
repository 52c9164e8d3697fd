// End-to-end lifecycle benchmark: drives Pipeline::RunCycle over suite
// workflows in a closed loop (one client, the next round starts when the
// previous one ends) and prints one JSON result line. See README.md.
//
//   lifecycle_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   --work-dir <dir>

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench.h"
#include "engine/column.h"
#include "obs/build_info.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "probes.h"

extern char** environ;

namespace lifecycle_bench {
namespace {

// Set-ups per run; setup_s is their median.
constexpr int kSetUps = 3;
// RSS past which the run stops with a named error instead of meeting the
// OOM killer. The largest workload peaks near 0.55 GiB per round, and its
// traced rounds hold about twice that.
constexpr int64_t kMemoryCeilingBytes = int64_t{4} << 30;
// The replayed layer calls must cover at least this share of each pipeline
// phase's wall time (medians over traced rounds). Measured coverage lies
// between 0.89 and 1.05; the floor sits lower because on a shared host two timings of the
// same work a second apart differ by up to 10 %. A gap below it is work the
// replay misses.
constexpr double kMinCoverage = 0.75;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string work_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (*end != '\0' || args->seconds <= 0) return false;
    } else if (flag == "--trace") {
      args->trace = std::atoi(value);
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1) && !args->work_dir.empty();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string Number(double v) {
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, result.ptr);
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (const Metric& m : metrics) {
    if (out.size() > 1) out += ", ";
    out += Quote(m.name) + ": {\"value\": " + Number(m.value) +
           ", \"unit\": " + Quote(m.unit) + "}";
  }
  return out + "}";
}

// Per-layer metrics of the traced run, in output order. `count` marks the
// ones that must repeat exactly from round to round.
struct LayerMetric {
  const char* name;
  const char* unit;
  bool count;
};

const LayerMetric kLayerMetrics[] = {
    {"datagen.generate_s", "s", false},
    {"planspace.build_s", "s", false},
    {"planspace.ses", "count", true},
    {"planspace.plans", "count", true},
    {"css.generate_s", "s", false},
    {"css.css_count", "count", true},
    {"css.stat_count", "count", true},
    {"opt.problem_s", "s", false},
    {"opt.select_s", "s", false},
    {"opt.selected_stats", "count", true},
    {"opt.memory_units", "units", true},
    {"engine.execute_s", "s", false},
    {"engine.rows_processed", "count", true},
    {"engine.bytes_processed", "bytes", true},
    {"engine.next_execute_s", "s", false},
    {"parallel.execute_s", "s", false},
    {"parallel.cpu_s", "s", false},
    {"parallel.serial_execute_s", "s", false},
    {"parallel.speedup", "x", false},
    {"parallel.skew", "ratio", true},
    {"parallel.peak_mb", "MB", false},
    {"parallel.serial_peak_mb", "MB", false},
    {"parallel.mem_ratio", "x", false},
    {"taps.observe_s", "s", false},
    {"taps.exact", "count", true},
    {"taps.sketch", "count", true},
    {"taps.bytes", "bytes", true},
    {"taps.rows_tapped", "count", true},
    {"taps.bytes_per_mb", "B/MB", true},
    {"estimator.derive_s", "s", false},
    {"estimator.cards", "count", true},
    {"estimator.qerror_max", "ratio", true},
    {"optimizer.join_dp_s", "s", false},
    {"optimizer.rewrite_s", "s", false},
    {"optimizer.initial_cost", "units", true},
    {"optimizer.optimized_cost", "units", true},
    {"obs.ledger_load_s", "s", false},
    {"obs.ledger_append_s", "s", false},
    {"obs.drift_s", "s", false},
    {"obs.guard_s", "s", false},
    {"obs.ledger_record_bytes", "bytes", true},
    {"core.unaccounted_s", "s", false},
    {"core.coverage_min", "share", false},
    {"trace.overhead_s", "s", false},
};

// Ratios of one traced round, from its summed layer numbers.
void Derive(LayerSample* s) {
  LayerSample& m = *s;
  m["parallel.speedup"] = m["parallel.serial_execute_s"] /
                          std::max(m["parallel.execute_s"], 1e-9);
  m["parallel.mem_ratio"] =
      m["parallel.peak_mb"] / std::max(m["parallel.serial_peak_mb"], 1e-3);
  m["taps.bytes_per_mb"] =
      m["taps.bytes"] / std::max(m["engine.bytes_processed"] / (1 << 20), 1e-9);
}

// Coverage of the pipeline's phases by the replayed layer calls, from the
// medians over traced rounds: the phase wall time not covered, summed, and
// the smallest covered share. A phase and its replay are separate
// executions, so single rounds scatter around full coverage.
void Coverage(const std::vector<LayerSample>& samples, double* unaccounted_s,
              double* coverage_min) {
  *unaccounted_s = 0.0;
  *coverage_min = 1e300;
  for (const char* phase : {"analyze", "run", "optimize"}) {
    std::vector<double> wall;
    std::vector<double> layers;
    for (const LayerSample& s : samples) {
      wall.push_back(s.at(std::string("phase.") + phase + "_s"));
      layers.push_back(s.at(std::string("layers.") + phase + "_s"));
    }
    *unaccounted_s += Median(wall) - Median(layers);
    *coverage_min = std::min(*coverage_min,
                             Median(layers) / std::max(Median(wall), 1e-9));
    std::fprintf(stderr,
                 "lifecycle_bench: phase %s: wall %.6f s, layer calls %.6f s\n",
                 phase, Median(wall), Median(layers));
  }
}

// The workload's workflows and data scales, for the stamp.
std::string FlowsJson(const WorkloadDef& def) {
  std::string out = "[";
  for (const FlowDef& flow : def.flows) {
    if (out.size() > 1) out += ", ";
    out += "{\"workflow\": " + std::to_string(flow.index) +
           ", \"scale\": " + Number(flow.scale) + "}";
  }
  return out + "]";
}

const char* SetEtloptVariable() {
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "ETLOPT_", 7) == 0) return *env;
  }
  return nullptr;
}

void RemoveWorkDir(const std::string& dir) {
  for (const char* name : {"/round.ledger.jsonl", "/round.ledger.jsonl.tmp",
                           "/history.ledger.jsonl",
                           "/history.ledger.jsonl.tmp"}) {
    std::remove((dir + name).c_str());
  }
  rmdir(dir.c_str());
}

int Run(const Args& args) {
  if (const char* var = SetEtloptVariable()) {
    std::fprintf(stderr,
                 "lifecycle_bench: refusing to run with %s set: the "
                 "benchmark sets every option itself\n",
                 var);
    return 2;
  }
  const etlopt::obs::BuildInfo& build = etlopt::obs::CurrentBuildInfo();
  if (build.build_type != "Release" || !build.sanitizers.empty()) {
    std::fprintf(stderr,
                 "lifecycle_bench: refusing a library built as '%s%s%s'; "
                 "build it as Release\n",
                 build.build_type.c_str(), build.sanitizers.empty() ? "" : "+",
                 build.sanitizers.c_str());
    return 2;
  }
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& w : Workloads()) {
    if (w.name == args.workload) def = &w;
  }
  if (def == nullptr) {
    std::fprintf(stderr, "lifecycle_bench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  if (mkdir(args.work_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "lifecycle_bench: cannot create %s\n",
                 args.work_dir.c_str());
    return 2;
  }
  etlopt::obs::SetObsEnabled(true);
  etlopt::obs::SetProfilerEnabled(false);
  etlopt::SetVectorizedKernels(true);

  const int nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  // The sampling thread runs beside the busy workers (the main thread
  // waits while a pool runs); it is started only if that fits the cores.
  const MemoryWatchdog watchdog(kMemoryCeilingBytes,
                                def->threads + 1 <= nproc);

  std::vector<double> setup_s;
  std::vector<double> datagen_s;
  std::vector<RoundResult> cold(kSetUps);  // each set-up's first round
  std::unique_ptr<Bench> bench;
  for (int i = 0; i < kSetUps; ++i) {
    bench.reset();
    const double t0 = WallSeconds();
    bench = SetUp(*def, args.seed, args.work_dir, &cold[i]);
    if (bench == nullptr) {
      RemoveWorkDir(args.work_dir);
      return 1;
    }
    setup_s.push_back(WallSeconds() - t0);
    datagen_s.push_back(bench->datagen_s);
    watchdog.Check();
  }

  std::vector<RoundResult> rounds;     // untraced, timed
  std::vector<RoundResult> traced;     // traced (--trace 1 only)
  std::vector<LayerSample> samples;    // one per traced round
  const double start = WallSeconds();
  do {
    rounds.push_back(RunRound(*bench));
    watchdog.Check();
    if (args.trace == 1) {
      LayerSample sample;
      traced.push_back(RunRound(
          *bench, [&sample](const Bench& b, const Flow& f, const FlowRun& r) {
            return ReplayFlow(b, f, r, &sample);
          }));
      watchdog.Check();
      Derive(&sample);
      samples.push_back(std::move(sample));
    }
  } while (WallSeconds() - start < args.seconds);

  // Counts depend only on the seed: every round must reproduce the first.
  int attempted = 0;
  int failed = 0;
  bool correct = true;
  for (const std::vector<RoundResult>* set : {&cold, &rounds, &traced}) {
    for (const RoundResult& r : *set) {
      attempted += r.attempted;
      failed += r.failed;
      if (!(r.counts == rounds.front().counts)) {
        std::fprintf(stderr, "lifecycle_bench: round counts moved\n");
        failed += r.attempted - r.failed;
      }
    }
  }

  std::vector<Metric> metrics;
  auto median_of = [](const std::vector<RoundResult>& rs,
                      double RoundResult::*field) {
    std::vector<double> v;
    for (const RoundResult& r : rs) v.push_back(r.*field);
    return Median(v);
  };
  if (args.trace == 0) {
    const RoundCounts& counts = rounds.front().counts;
    metrics = {
        {"setup_s", "s", Median(setup_s)},
        {"cycle_s.p50", "s", median_of(rounds, &RoundResult::cycle_s)},
        {"cycle_cpu_s.p50", "s", median_of(rounds, &RoundResult::cycle_cpu_s)},
        {"next_run_s.p50", "s", median_of(rounds, &RoundResult::next_run_s)},
        {"next_run_rows", "count", static_cast<double>(counts.next_run_rows)},
        {"peak_rss_mb", "MB", median_of(rounds, &RoundResult::peak_rss_mb)},
        {"stat_memory_units", "units", counts.stat_memory_units},
        {"qerror_max", "ratio", counts.qerror_max},
    };
  } else {
    for (const LayerMetric& lm : kLayerMetrics) {
      std::vector<double> values;
      for (const LayerSample& s : samples) {
        const auto it = s.find(lm.name);
        values.push_back(it == s.end() ? 0.0 : it->second);
      }
      if (lm.count &&
          std::adjacent_find(values.begin(), values.end(),
                             std::not_equal_to<>()) != values.end()) {
        std::fprintf(stderr, "lifecycle_bench: count %s moved\n", lm.name);
        correct = false;
      }
      metrics.push_back({lm.name, lm.unit, Median(values)});
    }
    double unaccounted_s = 0.0;
    double coverage_min = 0.0;
    Coverage(samples, &unaccounted_s, &coverage_min);
    if (coverage_min < kMinCoverage) {
      std::fprintf(stderr,
                   "lifecycle_bench: replayed layer calls cover only %.3f of "
                   "a pipeline phase\n",
                   coverage_min);
      correct = false;
    }
    for (Metric& m : metrics) {
      if (m.name == "datagen.generate_s") m.value = Median(datagen_s);
      if (m.name == "core.unaccounted_s") m.value = unaccounted_s;
      if (m.name == "core.coverage_min") m.value = coverage_min;
      if (m.name == "trace.overhead_s") {
        m.value = median_of(traced, &RoundResult::wall_s) -
                  median_of(rounds, &RoundResult::wall_s);
      }
    }
  }
  correct = correct && failed == 0;

  const std::string n_rounds = std::to_string(rounds.size());
  std::printf(
      "{\"stamp\": {\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
      "\"build_type\": %s, \"compiler\": %s, \"git_sha\": %s, \"nproc\": %d, "
      "\"threads\": %d, \"flows\": %s, \"tap_budget_bytes\": %lld, "
      "\"memory_ceiling_mb\": %lld, \"rss_sampler\": %s, \"setups\": %d, "
      "\"rounds\": %s, \"traced_rounds\": %zu}}\n",
      Quote(def->name).c_str(), static_cast<unsigned long long>(args.seed),
      args.trace, Quote(build.build_type).c_str(),
      Quote(build.compiler).c_str(), Quote(build.git_sha).c_str(), nproc,
      def->threads, FlowsJson(*def).c_str(),
      static_cast<long long>(def->tap_budget_bytes),
      static_cast<long long>(watchdog.ceiling_bytes() >> 20),
      watchdog.sampling() ? "true" : "false", kSetUps, n_rounds.c_str(),
      traced.size());
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              MetricsJson(metrics).c_str());
  std::fflush(stdout);
  bench.reset();
  RemoveWorkDir(args.work_dir);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace lifecycle_bench

int main(int argc, char** argv) {
  lifecycle_bench::Args args;
  if (!lifecycle_bench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: lifecycle_bench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --work-dir <dir>\n");
    return 2;
  }
  return lifecycle_bench::Run(args);
}
