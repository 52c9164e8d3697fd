// Exact-vs-sketch collector micro-benchmarks: what a distinct count and a
// frequency histogram cost to collect at 1e4 / 1e6 / 1e7 rows, exactly
// (hash-table collectors, O(distinct) memory) and through the budget-bounded
// sketch taps (HLL; Count-Min + KMV). Each run reports the collector's
// memory footprint and the estimate's q-error as benchmark counters — the
// committed BENCH_sketch.json is the acceptance evidence that at 1e6 rows
// under a 1 MiB budget the distinct estimate stays within 5% of exact while
// tap memory drops by >= 10x.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "sketch/sketch.h"
#include "sketch/tap.h"

namespace etlopt {
namespace {

constexpr int64_t kTapBudgetBytes = int64_t{1} << 20;  // 1 MiB

// Distinct keys per stream: every row distinct for the distinct-count
// benchmarks, 1% distinct for the histogram benchmarks (100 rows/bucket).
int64_t HistKey(int64_t i, int64_t rows) { return i % (rows / 100); }

double QError(double estimated, double actual) {
  const double lo = std::max(std::min(estimated, actual), 1.0);
  const double hi = std::max(std::max(estimated, actual), 1.0);
  return hi / lo;
}

void BM_ExactDistinct(benchmark::State& state) {
  const int64_t rows = state.range(0);
  for (auto _ : state) {
    std::unordered_set<Value> seen;
    seen.reserve(static_cast<size_t>(rows));
    for (int64_t i = 0; i < rows; ++i) seen.insert(i);
    benchmark::DoNotOptimize(seen.size());
  }
  state.SetItemsProcessed(state.iterations() * rows);
  state.counters["bytes"] = static_cast<double>(
      sketch::EstimateExactDistinctBytes(rows, 1));
  state.counters["qerror"] = 1.0;
}
BENCHMARK(BM_ExactDistinct)
    ->Arg(10000)
    ->Arg(1000000)
    ->Arg(10000000)
    ->Unit(benchmark::kMillisecond);

void BM_SketchDistinct(benchmark::State& state) {
  const int64_t rows = state.range(0);
  const auto config = sketch::TapSketchConfig::ForBudget(kTapBudgetBytes, 1);
  double qerror = 1.0;
  int64_t bytes = 0;
  for (auto _ : state) {
    sketch::Hll hll(config.hll_precision);
    for (int64_t i = 0; i < rows; ++i) {
      hll.AddHash(sketch::HashValue(i));
    }
    qerror = QError(static_cast<double>(hll.Estimate()),
                    static_cast<double>(rows));
    bytes = hll.MemoryBytes();
    benchmark::DoNotOptimize(hll.Estimate());
  }
  state.SetItemsProcessed(state.iterations() * rows);
  state.counters["bytes"] = static_cast<double>(bytes);
  state.counters["qerror"] = qerror;
}
BENCHMARK(BM_SketchDistinct)
    ->Arg(10000)
    ->Arg(1000000)
    ->Arg(10000000)
    ->Unit(benchmark::kMillisecond);

void BM_ExactHistogram(benchmark::State& state) {
  const int64_t rows = state.range(0);
  for (auto _ : state) {
    std::unordered_map<Value, int64_t> hist;
    hist.reserve(static_cast<size_t>(rows / 100));
    for (int64_t i = 0; i < rows; ++i) ++hist[HistKey(i, rows)];
    benchmark::DoNotOptimize(hist.size());
  }
  state.SetItemsProcessed(state.iterations() * rows);
  state.counters["bytes"] = static_cast<double>(
      sketch::EstimateExactHistBytes(rows / 100, 1));
  state.counters["qerror"] = 1.0;
}
BENCHMARK(BM_ExactHistogram)
    ->Arg(10000)
    ->Arg(1000000)
    ->Arg(10000000)
    ->Unit(benchmark::kMillisecond);

void BM_SketchHistogram(benchmark::State& state) {
  const int64_t rows = state.range(0);
  const auto config = sketch::TapSketchConfig::ForBudget(kTapBudgetBytes, 1);
  double qerror = 1.0;
  int64_t bytes = 0;
  for (auto _ : state) {
    sketch::HistTap tap(config);
    for (int64_t i = 0; i < rows; ++i) tap.AddRow({HistKey(i, rows)});
    const Histogram hist = tap.Build(AttrMask{1});
    qerror = QError(static_cast<double>(hist.TotalCount()),
                    static_cast<double>(rows));
    bytes = tap.MemoryBytes();
    benchmark::DoNotOptimize(hist.NumBuckets());
  }
  state.SetItemsProcessed(state.iterations() * rows);
  state.counters["bytes"] = static_cast<double>(bytes);
  state.counters["qerror"] = qerror;
}
BENCHMARK(BM_SketchHistogram)
    ->Arg(10000)
    ->Arg(1000000)
    ->Arg(10000000)
    ->Unit(benchmark::kMillisecond);

// Mergeability at scale: sketching 8 partitions independently and merging
// must match the single-stream sketch — the building block for future
// partitioned (parallel) tap collection.
void BM_SketchMerge8Way(benchmark::State& state) {
  const int64_t rows = state.range(0);
  const auto config = sketch::TapSketchConfig::ForBudget(kTapBudgetBytes, 1);
  for (auto _ : state) {
    std::vector<sketch::Hll> parts(8, sketch::Hll(config.hll_precision));
    for (int64_t i = 0; i < rows; ++i) {
      parts[static_cast<size_t>(i & 7)].AddHash(sketch::HashValue(i));
    }
    sketch::Hll merged = parts[0];
    for (size_t p = 1; p < parts.size(); ++p) {
      benchmark::DoNotOptimize(merged.Merge(parts[p]).ok());
    }
    benchmark::DoNotOptimize(merged.Estimate());
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_SketchMerge8Way)
    ->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace etlopt

BENCHMARK_MAIN();
