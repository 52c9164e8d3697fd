#include <gtest/gtest.h>

#include <cmath>
#include <unordered_map>

#include "core/pipeline.h"
#include "obs/drift.h"
#include "sketch/countmin.h"
#include "sketch/hll.h"
#include "sketch/kmv.h"
#include "sketch/reservoir.h"
#include "sketch/sketch.h"
#include "sketch/tap.h"
#include "stats/stat_io.h"
#include "test_util.h"

namespace etlopt {
namespace {

using sketch::CountMin;
using sketch::HashValue;
using sketch::Hll;
using sketch::Kmv;
using sketch::Reservoir;

// ---------------------------------------------------------------------------
// HyperLogLog

TEST(HllTest, SmallStreamsUseLinearCounting) {
  Hll hll(12);
  for (int64_t i = 0; i < 100; ++i) hll.AddHash(HashValue(i));
  // Linear counting is near-exact far below m = 4096 registers.
  EXPECT_NEAR(static_cast<double>(hll.Estimate()), 100.0, 3.0);
}

TEST(HllTest, EstimateWithinTwoSigma) {
  for (const int64_t n : {int64_t{1000}, int64_t{100000}}) {
    Hll hll(12);
    for (int64_t i = 0; i < n; ++i) hll.AddHash(HashValue(i));
    const double tolerance = 2.0 * hll.StandardError() * static_cast<double>(n);
    EXPECT_NEAR(static_cast<double>(hll.Estimate()), static_cast<double>(n),
                tolerance)
        << "n=" << n;
  }
}

TEST(HllTest, DuplicatesDoNotInflate) {
  Hll once(12), tenfold(12);
  for (int64_t i = 0; i < 5000; ++i) {
    once.AddHash(HashValue(i));
    for (int r = 0; r < 10; ++r) tenfold.AddHash(HashValue(i));
  }
  EXPECT_EQ(once.Estimate(), tenfold.Estimate());
}

TEST(HllTest, MergeEqualsUnion) {
  Hll a(12), b(12), both(12);
  for (int64_t i = 0; i < 3000; ++i) {
    a.AddHash(HashValue(i));
    both.AddHash(HashValue(i));
  }
  for (int64_t i = 2000; i < 6000; ++i) {  // overlapping range
    b.AddHash(HashValue(i));
    both.AddHash(HashValue(i));
  }
  ASSERT_TRUE(a.Merge(b).ok());
  // Register-wise max makes the merged state identical to one sketch having
  // seen the concatenated streams — not just close, bit-identical.
  EXPECT_EQ(a.registers(), both.registers());
  EXPECT_EQ(a.Estimate(), both.Estimate());
}

TEST(HllTest, MergeRejectsPrecisionMismatch) {
  Hll a(10), b(12);
  EXPECT_FALSE(a.Merge(b).ok());
}

TEST(HllTest, JsonRoundTrip) {
  Hll hll(8);
  for (int64_t i = 0; i < 500; ++i) hll.AddHash(HashValue(i * 31));
  const Result<Hll> back = Hll::FromJson(hll.ToJson());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->precision(), 8);
  EXPECT_EQ(back->registers(), hll.registers());
  EXPECT_EQ(back->Estimate(), hll.Estimate());
}

// ---------------------------------------------------------------------------
// Count-Min

TEST(CountMinTest, NeverUnderestimatesAndBoundsOvershoot) {
  CountMin cm(256, 4);
  std::unordered_map<int64_t, int64_t> truth;
  // Zipf-ish stream: key i appears 1000 / (i + 1) times.
  for (int64_t i = 0; i < 400; ++i) {
    const int64_t count = 1000 / (i + 1);
    truth[i] = count;
    cm.AddHash(HashValue(i), count);
  }
  const double max_over =
      cm.EpsilonFraction() * static_cast<double>(cm.TotalCount());
  for (const auto& [key, count] : truth) {
    const int64_t est = cm.Estimate(HashValue(key));
    EXPECT_GE(est, count) << "key " << key;  // one-sided by construction
    EXPECT_LE(static_cast<double>(est - count), max_over) << "key " << key;
  }
}

TEST(CountMinTest, MergeEqualsConcatenatedStream) {
  CountMin a(128, 4), b(128, 4), both(128, 4);
  for (int64_t i = 0; i < 300; ++i) {
    a.AddHash(HashValue(i), i + 1);
    both.AddHash(HashValue(i), i + 1);
  }
  for (int64_t i = 150; i < 450; ++i) {
    b.AddHash(HashValue(i), 2);
    both.AddHash(HashValue(i), 2);
  }
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_EQ(a.TotalCount(), both.TotalCount());
  for (int64_t i = 0; i < 450; ++i) {
    EXPECT_EQ(a.Estimate(HashValue(i)), both.Estimate(HashValue(i)));
  }
}

TEST(CountMinTest, MergeRejectsShapeMismatch) {
  CountMin a(128, 4), b(256, 4), c(128, 5);
  EXPECT_FALSE(a.Merge(b).ok());
  EXPECT_FALSE(a.Merge(c).ok());
}

TEST(CountMinTest, ForErrorSizesWidth) {
  const CountMin cm = CountMin::ForError(0.01, 0.01);
  EXPECT_LE(cm.EpsilonFraction(), 0.01);
  EXPECT_GE(cm.depth(), 5);  // ceil(ln 100)
}

TEST(CountMinTest, JsonRoundTrip) {
  CountMin cm(64, 3);
  for (int64_t i = 0; i < 200; ++i) cm.AddHash(HashValue(i), i % 7 + 1);
  const Result<CountMin> back = CountMin::FromJson(cm.ToJson());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->width(), 64);
  EXPECT_EQ(back->depth(), 3);
  EXPECT_EQ(back->TotalCount(), cm.TotalCount());
  for (int64_t i = 0; i < 200; ++i) {
    EXPECT_EQ(back->Estimate(HashValue(i)), cm.Estimate(HashValue(i)));
  }
}

// ---------------------------------------------------------------------------
// KMV

TEST(KmvTest, ExactWhileUnderK) {
  Kmv kmv(64);
  for (int64_t i = 0; i < 50; ++i) kmv.AddHash(HashValue(i));
  for (int64_t i = 0; i < 50; ++i) kmv.AddHash(HashValue(i));  // duplicates
  EXPECT_FALSE(kmv.saturated());
  EXPECT_EQ(kmv.Estimate(), 50);
  EXPECT_EQ(kmv.StandardError(), 0.0);
}

TEST(KmvTest, SaturatedEstimateWithinThreeSigma) {
  const int64_t n = 50000;
  Kmv kmv(1024);
  for (int64_t i = 0; i < n; ++i) kmv.AddHash(HashValue(i));
  ASSERT_TRUE(kmv.saturated());
  const double tolerance = 3.0 * kmv.StandardError() * static_cast<double>(n);
  EXPECT_NEAR(static_cast<double>(kmv.Estimate()), static_cast<double>(n),
              tolerance);
}

TEST(KmvTest, RejectedDistinctHashStillSaturates) {
  // Regression: a distinct hash larger than the current k-th minimum must
  // still flip the sketch to saturated, or Estimate() under-reports.
  Kmv kmv(16);
  std::vector<uint64_t> hashes;
  for (int64_t i = 0; i < 17; ++i) hashes.push_back(HashValue(i));
  std::sort(hashes.begin(), hashes.end());
  for (size_t i = 0; i < 16; ++i) kmv.AddHash(hashes[i]);
  EXPECT_FALSE(kmv.saturated());
  kmv.AddHash(hashes[16]);  // larger than every retained hash: rejected
  EXPECT_TRUE(kmv.saturated());
}

TEST(KmvTest, MergeEqualsConcatenatedStream) {
  Kmv a(128), b(128), both(128);
  for (int64_t i = 0; i < 2000; ++i) {
    a.AddHash(HashValue(i));
    both.AddHash(HashValue(i));
  }
  for (int64_t i = 1000; i < 3000; ++i) {
    b.AddHash(HashValue(i));
    both.AddHash(HashValue(i));
  }
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_EQ(a.entries(), both.entries());
  EXPECT_EQ(a.Estimate(), both.Estimate());
}

TEST(KmvTest, IntersectionEstimate) {
  // |A| = |B| = 20000 with 10000 shared keys.
  Kmv a(1024), b(1024);
  for (int64_t i = 0; i < 20000; ++i) a.AddHash(HashValue(i));
  for (int64_t i = 10000; i < 30000; ++i) b.AddHash(HashValue(i));
  const Result<double> inter = Kmv::EstimateIntersection(a, b);
  ASSERT_TRUE(inter.ok()) << inter.status().ToString();
  EXPECT_NEAR(*inter, 10000.0, 2500.0);  // Jaccard estimate is noisier
}

TEST(KmvTest, PayloadKeysSurviveJsonRoundTrip) {
  Kmv kmv(32);
  for (int64_t i = 0; i < 20; ++i) {
    kmv.AddHashWithKey(HashValue(i), {i, i * 2});
  }
  const Result<Kmv> back = Kmv::FromJson(kmv.ToJson());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->k(), 32);
  EXPECT_EQ(back->saturated(), kmv.saturated());
  EXPECT_EQ(back->entries(), kmv.entries());
}

// ---------------------------------------------------------------------------
// Weighted reservoir

TEST(ReservoirTest, CapsAtCapacityAndCountsStream) {
  Reservoir res(10);
  for (int64_t i = 0; i < 1000; ++i) res.Add({i});
  EXPECT_EQ(res.size(), 10u);
  EXPECT_EQ(res.total_seen(), 1000);
  EXPECT_DOUBLE_EQ(res.total_weight(), 1000.0);
}

TEST(ReservoirTest, WeightBiasesInclusion) {
  // One item carries half the total weight; over independent seeds it must
  // be retained far more often than any uniform item would be.
  int kept = 0;
  const int trials = 50;
  for (int t = 0; t < trials; ++t) {
    Reservoir res(8, /*seed=*/0x9000 + static_cast<uint64_t>(t));
    for (int64_t i = 0; i < 200; ++i) res.Add({i}, 1.0);
    res.Add({-1}, 200.0);
    for (const auto& item : res.items()) {
      if (item.row[0] == -1) {
        ++kept;
        break;
      }
    }
  }
  // Uniform inclusion would keep it ~8/201 of the time (~2 of 50 trials).
  EXPECT_GT(kept, trials / 2);
}

TEST(ReservoirTest, MergeKeepsLargestPriorities) {
  Reservoir a(16, 1), b(16, 2);
  for (int64_t i = 0; i < 100; ++i) a.Add({i});
  for (int64_t i = 100; i < 200; ++i) b.Add({i});
  std::vector<Reservoir::Item> pool = a.Sorted();
  const std::vector<Reservoir::Item> b_items = b.Sorted();
  pool.insert(pool.end(), b_items.begin(), b_items.end());
  std::sort(pool.begin(), pool.end(),
            [](const Reservoir::Item& x, const Reservoir::Item& y) {
              return x.priority > y.priority;
            });
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_EQ(a.size(), 16u);
  EXPECT_EQ(a.total_seen(), 200);
  const std::vector<Reservoir::Item> merged = a.Sorted();
  for (size_t i = 0; i < merged.size(); ++i) {
    EXPECT_DOUBLE_EQ(merged[i].priority, pool[i].priority);
    EXPECT_EQ(merged[i].row, pool[i].row);
  }
}

TEST(ReservoirTest, JsonRoundTrip) {
  Reservoir res(8, 42);
  for (int64_t i = 0; i < 50; ++i) res.Add({i, i % 5}, 1.0 + i % 3);
  const Result<Reservoir> back = Reservoir::FromJson(res.ToJson());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->capacity(), 8);
  EXPECT_EQ(back->total_seen(), res.total_seen());
  const auto ra = res.Sorted();
  const auto rb = back->Sorted();
  ASSERT_EQ(ra.size(), rb.size());
  for (size_t i = 0; i < ra.size(); ++i) {
    EXPECT_DOUBLE_EQ(ra[i].priority, rb[i].priority);
    EXPECT_EQ(ra[i].row, rb[i].row);
  }
}

// ---------------------------------------------------------------------------
// Taps

TEST(TapConfigTest, ForBudgetFitsShare) {
  for (const int64_t budget : {int64_t{4096}, int64_t{65536}, int64_t{1 << 20}}) {
    const auto config = sketch::TapSketchConfig::ForBudget(budget, 2);
    EXPECT_LE(config.DistinctTapBytes(), budget + 128) << budget;
    EXPECT_LE(config.HistTapBytes(2), budget + 1024) << budget;
  }
}

TEST(TapTest, HistTapExactOnSmallStream) {
  // Far under both the CM width and the KMV k: the rebuilt histogram matches
  // the exact one bucket for bucket.
  sketch::TapSketchConfig config;
  sketch::HistTap tap(config);
  Histogram exact(AttrMask{1} << 3);
  for (int64_t i = 0; i < 200; ++i) {
    const std::vector<Value> key{i % 40};
    tap.AddRow(key);
    exact.Add(key);
  }
  const Histogram rebuilt = tap.Build(AttrMask{1} << 3);
  EXPECT_TRUE(rebuilt == exact);
}

TEST(TapTest, HistTapPreservesTotalMassWhenSaturated) {
  sketch::TapSketchConfig config;
  config.kmv_k = 64;  // force saturation
  sketch::HistTap tap(config);
  const int64_t rows = 20000;
  for (int64_t i = 0; i < rows; ++i) tap.AddRow({i % 1000});
  const Histogram rebuilt = tap.Build(AttrMask{1} << 3);
  EXPECT_EQ(rebuilt.NumBuckets(), 64);
  // Rescaling keeps |H| ~= |T| (the I1 identity), within rounding.
  EXPECT_NEAR(static_cast<double>(rebuilt.TotalCount()),
              static_cast<double>(rows), static_cast<double>(rows) * 0.02);
}

TEST(TapTest, ObserveFallsBackToExactWhenBudgetSuffices) {
  auto ex = testing_util::MakePaperExample();
  PipelineOptions options;
  options.tap_memory_budget_bytes = int64_t{1} << 30;  // plenty
  Pipeline pipeline(options);
  const auto analysis = pipeline.Analyze(ex.workflow).value();
  const Result<RunOutcome> run = pipeline.RunAndObserve(*analysis, ex.sources);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->tap_report.sketch_taps, 0);
  EXPECT_GT(run->tap_report.exact_taps, 0);
  for (const StatStore& store : run->block_stats) {
    for (const auto& [key, value] : store.values()) {
      EXPECT_FALSE(value.is_approx()) << key.ToString();
    }
  }
}

TEST(TapTest, TightBudgetSwitchesToSketchesWithErrorAnnotations) {
  auto ex = testing_util::MakePaperExample();
  PipelineOptions exact_options;
  Pipeline exact_pipeline(exact_options);
  const auto analysis = exact_pipeline.Analyze(ex.workflow).value();
  const RunOutcome exact_run =
      exact_pipeline.RunAndObserve(*analysis, ex.sources).value();

  PipelineOptions options;
  options.tap_memory_budget_bytes = 4096;  // below the exact footprint
  Pipeline pipeline(options);
  const Result<RunOutcome> run = pipeline.RunAndObserve(*analysis, ex.sources);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_GT(run->tap_report.sketch_taps, 0);
  EXPECT_LE(run->tap_report.tap_bytes, run->tap_report.exact_bytes_estimate);

  ASSERT_EQ(run->block_stats.size(), exact_run.block_stats.size());
  int approx_values = 0;
  for (size_t b = 0; b < run->block_stats.size(); ++b) {
    for (const auto& [key, value] : run->block_stats[b].values()) {
      const StatValue* truth = exact_run.block_stats[b].Find(key);
      ASSERT_NE(truth, nullptr) << key.ToString();
      if (!value.is_approx()) continue;
      ++approx_values;
      EXPECT_GT(value.rel_error(), 0.0);
      if (value.is_count() && truth->is_count()) {
        // Distinct estimates stay within a loose 5-sigma guard band.
        const double tol = std::max(
            5.0 * value.rel_error() * static_cast<double>(truth->count()),
            3.0);
        EXPECT_NEAR(static_cast<double>(value.count()),
                    static_cast<double>(truth->count()), tol)
            << key.ToString();
      } else if (!value.is_count() && !truth->is_count()) {
        // The rebuilt histogram preserves the row mass it summarizes.
        EXPECT_NEAR(static_cast<double>(value.hist().TotalCount()),
                    static_cast<double>(truth->hist().TotalCount()),
                    std::max(5.0, 0.05 * static_cast<double>(
                                             truth->hist().TotalCount())))
            << key.ToString();
      }
    }
  }
  EXPECT_GT(approx_values, 0);
}

TEST(TapTest, EstimatorPropagatesErrorBounds) {
  auto ex = testing_util::MakePaperExample();
  PipelineOptions options;
  options.tap_memory_budget_bytes = 4096;
  Pipeline pipeline(options);
  const Result<CycleOutcome> cycle = pipeline.RunCycle(ex.workflow, ex.sources);
  ASSERT_TRUE(cycle.ok()) << cycle.status().ToString();
  ASSERT_GT(cycle->run.tap_report.sketch_taps, 0);
  // Any estimate derived from a sketch-collected statistic must carry a
  // non-zero propagated error bound.
  int derived_approx = 0;
  for (const auto& be : cycle->opt.block_estimates) {
    for (const auto& [key, prov] : be.provenance) {
      if (prov.observed) continue;
      bool approx_input = false;
      for (const StatKey& in : prov.inputs) {
        const StatValue* iv = be.derived.Find(in);
        if (iv != nullptr && iv->is_approx()) approx_input = true;
      }
      if (!approx_input) continue;
      const StatValue* v = be.derived.Find(key);
      ASSERT_NE(v, nullptr);
      EXPECT_TRUE(v->is_approx()) << key.ToString();
      EXPECT_GT(v->rel_error(), 0.0) << key.ToString();
      ++derived_approx;
    }
  }
  EXPECT_GT(derived_approx, 0);
}

// ---------------------------------------------------------------------------
// Mode-annotated persistence and drift

TEST(SketchStatIoTest, ModeSuffixRoundTrips) {
  StatStore store;
  store.Set(StatKey::Card(5), StatValue::Count(1234));
  store.Set(StatKey::Distinct(2, AttrMask{1} << 4),
            StatValue::CountApprox(9984, 0.0163));
  Histogram h(AttrMask{1} << 2);
  h.Add({7}, 13);
  h.Add({9}, 5);
  store.Set(StatKey::Hist(3, AttrMask{1} << 2),
            StatValue::HistApprox(h, 0.025));

  const std::string text = WriteStatStoreText(store);
  EXPECT_NE(text.find("mode=sketch err="), std::string::npos);
  const Result<StatStore> back = ParseStatStoreText(text);
  ASSERT_TRUE(back.ok()) << back.status().ToString();

  const StatValue* card = back->Find(StatKey::Card(5));
  ASSERT_NE(card, nullptr);
  EXPECT_FALSE(card->is_approx());

  const StatValue* distinct = back->Find(StatKey::Distinct(2, AttrMask{1} << 4));
  ASSERT_NE(distinct, nullptr);
  EXPECT_TRUE(distinct->is_approx());
  EXPECT_EQ(distinct->count(), 9984);
  EXPECT_NEAR(distinct->rel_error(), 0.0163, 1e-9);

  const StatValue* hist = back->Find(StatKey::Hist(3, AttrMask{1} << 2));
  ASSERT_NE(hist, nullptr);
  EXPECT_TRUE(hist->is_approx());
  EXPECT_NEAR(hist->rel_error(), 0.025, 1e-9);
  EXPECT_EQ(hist->hist().TotalCount(), 18);
}

TEST(SketchDriftTest, SketchBackedStatsGetWidenedThresholds) {
  // Same numeric change, once exact and once sketch-collected: only the
  // exact one exceeds the (unwidened) relative-change threshold.
  const StatKey exact_key = StatKey::Card(1);
  const StatKey sketch_key = StatKey::Distinct(1, AttrMask{1} << 1);

  obs::RunRecord past;
  past.block_stats.emplace_back();
  past.block_stats[0].Set(exact_key, StatValue::Count(100));
  past.block_stats[0].Set(sketch_key, StatValue::CountApprox(100, 0.05));

  obs::RunRecord now = past;
  now.block_stats[0].Set(exact_key, StatValue::Count(180));
  now.block_stats[0].Set(sketch_key, StatValue::CountApprox(180, 0.05));

  obs::DriftOptions options;
  options.rel_change_threshold = 0.5;
  options.qerror_threshold = 2.0;
  options.sketch_widen_factor = 2.0;
  const obs::DriftReport report =
      obs::DriftDetector(options).Compare({past}, now);

  EXPECT_TRUE(report.IsDrifted(0, exact_key));
  EXPECT_FALSE(report.IsDrifted(0, sketch_key));
  for (const obs::DriftFinding& f : report.findings) {
    if (f.key == sketch_key) {
      EXPECT_TRUE(f.sketch_backed);
    }
    if (f.key == exact_key) {
      EXPECT_FALSE(f.sketch_backed);
    }
  }
}

TEST(SketchLedgerTest, CollectionModeSurvivesLedgerRoundTrip) {
  obs::RunRecord record;
  record.run_id = "run-1";
  record.fingerprint = "deadbeefdeadbeef";
  record.workflow = "wf";
  record.block_stats.emplace_back();
  record.block_stats[0].Set(StatKey::Card(3), StatValue::Count(42));
  record.block_stats[0].Set(StatKey::Distinct(1, AttrMask{1} << 2),
                            StatValue::CountApprox(1000, 0.016));

  const Result<obs::RunRecord> back =
      obs::RunRecord::FromJsonLine(record.ToJsonLine());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  const StatValue* v =
      back->block_stats[0].Find(StatKey::Distinct(1, AttrMask{1} << 2));
  ASSERT_NE(v, nullptr);
  EXPECT_TRUE(v->is_approx());
  EXPECT_NEAR(v->rel_error(), 0.016, 1e-9);
  const StatValue* c = back->block_stats[0].Find(StatKey::Card(3));
  ASSERT_NE(c, nullptr);
  EXPECT_FALSE(c->is_approx());
}

}  // namespace
}  // namespace etlopt
