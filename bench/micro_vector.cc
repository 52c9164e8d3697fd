// Micro-benchmarks for the columnar engine: vectorized kernels (selection
// vectors, column gathers, the counting-sort hash join) against a
// row-at-a-time baseline written here, the shape of the row kernels they
// replaced. Two modes:
//
//   micro_vector                       google-benchmark kernels
//   micro_vector --selfcheck           timed row-vs-vectorized comparison
//       [--min-speedup=3]              ... failing (exit 1) if the combined
//                                      filter+join speedup at the largest
//                                      size falls below the floor
//       [--out=BENCH_vector.json]      ... writing the comparison, stamped
//                                      with the build type, to a JSON file
//
// The speedup gate is only meaningful on a Release build; the selfcheck
// stamps `library_build_type` so CI (and readers of the committed JSON) can
// tell a gated Release run from an informational debug one, and the core
// count so the committed JSON says what machine it came from.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "engine/column.h"
#include "engine/executor.h"
#include "etl/workflow_builder.h"
#include "obs/build_info.h"
#include "util/json.h"
#include "util/random.h"
#include "util/timer.h"

namespace etlopt {
namespace {

// A wide key domain keeps the join fanout near one output row per probe
// row: the measured time is selection + hash build + probe, not the (mode-
// independent) cost of materializing a huge join output.
constexpr int64_t kKeyDomain = 1000000;
constexpr int64_t kValDomain = 100;

// A filter+join workload: probe table (k, x), build table (k), predicate
// on x keeping roughly half the rows. Mirrors BM_HashJoin in micro_engine
// but runs the full operator path, so both sides pay their real
// per-operator costs (selection build + gather vs. row append; hash table
// build + probe in either layout).
struct FilterJoinFixture {
  Table left;
  Table right;
  Predicate pred;

  explicit FilterJoinFixture(int64_t rows)
      : left{Schema({0, 1})}, right{Schema({0})}, pred{1, CompareOp::kLe,
                                                       kValDomain / 2} {
    Rng rng(9);
    std::vector<ColumnPtr> lcols{std::make_shared<Column>(),
                                 std::make_shared<Column>()};
    for (int64_t i = 0; i < rows; ++i) {
      lcols[0]->push_back(rng.NextInRange(1, kKeyDomain));
      lcols[1]->push_back(rng.NextInRange(1, kValDomain));
    }
    std::vector<ColumnPtr> rcols{std::make_shared<Column>()};
    for (int64_t i = 0; i < rows / 4; ++i) {
      rcols[0]->push_back(rng.NextInRange(1, kKeyDomain));
    }
    left = Table::FromColumns(Schema({0, 1}), std::move(lcols), rows);
    right =
        Table::FromColumns(Schema({0}), std::move(rcols), rows / 4);
  }

  // One filter+join pass through the engine's kernels; returns the output
  // cardinality so the work cannot be optimized away.
  int64_t RunVectorized() const {
    Table filtered;
    {
      // The selection is freed before the join allocates.
      SelVector sel;
      sel.reserve(static_cast<size_t>(left.num_rows()));
      BuildSelection(pred, left.column_data(1), left.num_rows(), &sel);
      filtered = Table::Gather(left, sel);
    }
    return HashJoin(filtered, right, 0, nullptr).num_rows();
  }

  // The same pass row at a time: Predicate::Matches + AppendRowFrom per
  // row, then an unordered_map hash join materializing each output row.
  int64_t RunRowAtATime() const {
    Table filtered{left.schema()};
    for (int64_t r = 0; r < left.num_rows(); ++r) {
      if (pred.Matches(left.at(r, 1))) filtered.AppendRowFrom(left, r);
    }
    std::unordered_map<Value, std::vector<int64_t>> build;
    build.reserve(static_cast<size_t>(right.num_rows()));
    for (int64_t r = 0; r < right.num_rows(); ++r) {
      build[right.at(r, 0)].push_back(r);
    }
    // The build side holds only the key, so an output row is the probe row.
    Table out{left.schema()};
    for (int64_t l = 0; l < filtered.num_rows(); ++l) {
      const auto it = build.find(filtered.at(l, 0));
      if (it == build.end()) continue;
      for (size_t m = 0; m < it->second.size(); ++m) {
        out.AddRow(filtered.row(l));
      }
    }
    return out.num_rows();
  }

  int64_t Run(bool vectorized) const {
    return vectorized ? RunVectorized() : RunRowAtATime();
  }
};

// ---- google-benchmark kernels ----

void BM_FilterJoin(benchmark::State& state, bool vectorized) {
  const FilterJoinFixture fx(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.Run(vectorized));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
void BM_FilterJoinRowAtATime(benchmark::State& state) {
  BM_FilterJoin(state, false);
}
void BM_FilterJoinVectorized(benchmark::State& state) {
  BM_FilterJoin(state, true);
}
BENCHMARK(BM_FilterJoinRowAtATime)
    ->Arg(100000)
    ->Arg(1000000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FilterJoinVectorized)
    ->Arg(100000)
    ->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

void BM_BuildSelection(benchmark::State& state) {
  const FilterJoinFixture fx(state.range(0));
  SelVector sel;
  for (auto _ : state) {
    sel.clear();
    BuildSelection(fx.pred, fx.left.column_data(1), fx.left.num_rows(),
                   &sel);
    benchmark::DoNotOptimize(sel.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BuildSelection)->Arg(100000)->Arg(1000000);

void BM_JoinHashTableBuild(benchmark::State& state) {
  const FilterJoinFixture fx(state.range(0));
  for (auto _ : state) {
    const JoinHashTable ht(fx.left.column_data(0), fx.left.num_rows());
    benchmark::DoNotOptimize(ht.num_keys());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_JoinHashTableBuild)
    ->Arg(100000)
    ->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

// ---- selfcheck mode ----

double BestOfMillis(int reps, const FilterJoinFixture& fx, bool vectorized) {
  double best = 0.0;
  int64_t rows_out = 0;
  for (int i = 0; i < reps; ++i) {
    Timer t;
    const int64_t out = fx.Run(vectorized);
    const double ms = t.ElapsedMillis();
    if (i == 0 || ms < best) best = ms;
    if (i == 0) {
      rows_out = out;
    } else if (out != rows_out) {
      std::fprintf(stderr, "selfcheck: nondeterministic output size\n");
      std::exit(2);
    }
  }
  return best;
}

int RunSelfCheck(double min_speedup, const std::string& out_path) {
  const obs::BuildInfo& build = obs::CurrentBuildInfo();
  Json doc = Json::Object();
  doc.Set("benchmark", Json::Str("bench/micro_vector"));
  doc.Set("library_build_type", Json::Str(build.build_type));
  doc.Set("compiler", Json::Str(build.compiler));
  doc.Set("git_sha", Json::Str(build.git_sha));
  doc.Set("num_cpus",
          Json::Int(static_cast<int64_t>(std::thread::hardware_concurrency())));
  doc.Set("min_speedup_gate", Json::Double(min_speedup));
  Json notes = Json::Object();
  notes.Set("workload",
            Json::Str("filter (x <= 50, ~50% selective) then hash join on a "
                      "1e6-value key against a build side of rows/4; "
                      "row = the row-at-a-time baseline in "
                      "bench/micro_vector.cc (Predicate::Matches + "
                      "AppendRowFrom + unordered_map join), vectorized = "
                      "BuildSelection + Table::Gather + counting-sort "
                      "JoinHashTable through the engine's HashJoin. Output "
                      "sizes are checked identical before timing; best-of-N "
                      "wall time per mode."));
  notes.Set("acceptance",
            Json::Str("the >=3x gate applies to the largest size on a "
                      "Release build only (see library_build_type)"));
  doc.Set("notes", std::move(notes));

  Json results = Json::Array();
  double gated_speedup = 0.0;
  for (const int64_t rows : {int64_t{100000}, int64_t{1000000}}) {
    const FilterJoinFixture fx(rows);
    const int reps = rows >= 1000000 ? 3 : 5;
    int64_t row_out = 0;
    int64_t vector_out = 0;
    double row_ms = 0.0;
    double vector_ms = 0.0;
    row_out = fx.Run(false);  // warm + record output
    row_ms = BestOfMillis(reps, fx, false);
    vector_out = fx.Run(true);
    vector_ms = BestOfMillis(reps, fx, true);
    if (row_out != vector_out) {
      std::fprintf(stderr,
                   "selfcheck: outputs disagree at %lld rows "
                   "(row-at-a-time %lld vs vectorized %lld)\n",
                   static_cast<long long>(rows),
                   static_cast<long long>(row_out),
                   static_cast<long long>(vector_out));
      return 2;
    }
    const double speedup = vector_ms > 0.0 ? row_ms / vector_ms : 0.0;
    gated_speedup = speedup;  // last (largest) size carries the gate
    Json row = Json::Object();
    row.Set("rows", Json::Int(rows));
    row.Set("join_rows_out", Json::Int(row_out));
    row.Set("row_ms", Json::Double(row_ms));
    row.Set("vectorized_ms", Json::Double(vector_ms));
    row.Set("speedup", Json::Double(speedup));
    results.push_back(std::move(row));
    std::printf("rows=%-8lld row=%9.3f ms  vectorized=%9.3f ms  "
                "speedup=%.2fx\n",
                static_cast<long long>(rows), row_ms, vector_ms, speedup);
  }
  doc.Set("results", std::move(results));
  const bool pass = min_speedup <= 0.0 || gated_speedup >= min_speedup;
  doc.Set("gate_passed", Json::Bool(pass));

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "selfcheck: cannot write %s\n", out_path.c_str());
    return 2;
  }
  out << doc.Dump() << "\n";
  std::printf("wrote %s (build type %s)\n", out_path.c_str(),
              build.build_type.c_str());
  if (!pass) {
    std::fprintf(stderr,
                 "selfcheck FAILED: speedup %.2fx at 1e6 rows is below the "
                 "--min-speedup=%.2f floor\n",
                 gated_speedup, min_speedup);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace etlopt

int main(int argc, char** argv) {
  bool selfcheck = false;
  double min_speedup = 0.0;
  std::string out_path = "BENCH_vector.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--selfcheck") == 0) {
      selfcheck = true;
    } else if (std::strncmp(argv[i], "--min-speedup=", 14) == 0) {
      min_speedup = std::atof(argv[i] + 14);
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    }
  }
  if (selfcheck) {
    return etlopt::RunSelfCheck(min_speedup, out_path);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
