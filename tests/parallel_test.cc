// Tests for the partitioned parallel executor (engine/parallel/): the
// worker pool's error contract, deterministic hash/range partitioning,
// bit-identical serial-vs-parallel execution and observed statistics,
// mergeable per-partition sketch taps, and partition-scoped crash salvage.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "engine/instrumentation.h"
#include "engine/parallel/parallel_executor.h"
#include "engine/parallel/partition.h"
#include "obs/checkpoint.h"
#include "obs/ledger.h"
#include "sketch/tap.h"
#include "stats/stat_io.h"
#include "test_util.h"
#include "util/fault.h"
#include "util/thread_pool.h"

namespace etlopt {
namespace {

using fault::FaultInjector;
using parallel::HashPartition;
using parallel::HashPartitionIndex;
using parallel::ParallelExecutor;
using parallel::ParallelOptions;
using parallel::ParallelResult;
using parallel::PartitionSkew;
using parallel::RangePartition;
using parallel::TablePartitions;

std::string TempPath(const std::string& name) {
  // Pid-qualified so the sanitizer twin of this suite can run under the
  // same ctest invocation without clobbering this process's files.
  const std::string path =
      ::testing::TempDir() + std::to_string(getpid()) + "_" + name;
  std::remove(path.c_str());
  return path;
}

// ---- worker pool -------------------------------------------------------

TEST(ThreadPoolTest, ParallelForRunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::vector<std::atomic<int>> hits(64);
  const Status s = pool.ParallelFor(64, [&](int i) {
    hits[static_cast<size_t>(i)].fetch_add(1);
    return Status::OK();
  });
  ASSERT_TRUE(s.ok());
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, LowestFailingIndexWins) {
  ThreadPool pool(4);
  const Status s = pool.ParallelFor(16, [&](int i) {
    if (i == 11 || i == 5 || i == 13) {
      return Status::Internal("task " + std::to_string(i));
    }
    return Status::OK();
  });
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("task 5"), std::string::npos) << s.ToString();
}

TEST(ThreadPoolTest, ThrownExceptionBecomesInternalStatus) {
  ThreadPool pool(2);
  const Status s = pool.ParallelFor(4, [&](int i) -> Status {
    if (i == 2) throw std::runtime_error("boom");
    return Status::OK();
  });
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal);
}

TEST(ThreadPoolTest, PoolIsReusableAndHandlesEmptyRounds) {
  ThreadPool pool(3);
  ASSERT_TRUE(pool.ParallelFor(0, [](int) { return Status::OK(); }).ok());
  for (int round = 0; round < 5; ++round) {
    std::atomic<int> count{0};
    ASSERT_TRUE(pool.ParallelFor(10, [&](int) {
      count.fetch_add(1);
      return Status::OK();
    }).ok());
    EXPECT_EQ(count.load(), 10);
  }
}

// ---- partitioning ------------------------------------------------------

TEST(PartitionTest, HashPlacementIsDeterministicAndComplete) {
  Schema schema({0, 1});
  Table t{schema};
  Rng rng(42);
  for (int i = 0; i < 500; ++i) {
    t.AddRow({rng.NextInRange(1, 40), rng.NextInRange(1, 9)});
  }
  const TablePartitions parts = HashPartition(t, 0, 4);
  ASSERT_EQ(parts.num_partitions(), 4);
  EXPECT_EQ(parts.total_rows(), t.num_rows());

  // Every original row lands in exactly one slice, in a slot that agrees
  // with the pure value hash, preserving in-slice order.
  std::set<int64_t> seen;
  for (int p = 0; p < 4; ++p) {
    ASSERT_EQ(parts.parts[p].num_rows(),
              static_cast<int64_t>(parts.row_index[p].size()));
    int64_t prev = -1;
    for (size_t i = 0; i < parts.row_index[p].size(); ++i) {
      const int64_t orig = parts.row_index[p][i];
      EXPECT_TRUE(seen.insert(orig).second);
      EXPECT_GT(orig, prev);  // in-slice order = original order
      prev = orig;
      EXPECT_EQ(parts.parts[p].row(static_cast<int64_t>(i)), t.row(orig));
      EXPECT_EQ(HashPartitionIndex(t.at(orig, 0), 4), p);
    }
  }
  EXPECT_EQ(seen.size(), static_cast<size_t>(t.num_rows()));

  // Same table, same fan-out: identical placement on a repeat run.
  const TablePartitions again = HashPartition(t, 0, 4);
  for (int p = 0; p < 4; ++p) {
    EXPECT_EQ(parts.row_index[p], again.row_index[p]);
  }
}

TEST(PartitionTest, RangePartitionControlsSkewDirectly) {
  Schema schema({0});
  Table t{schema};
  for (int i = 1; i <= 100; ++i) t.AddRow({i});
  // Bounds {90, 95, 98}: slice 0 gets 90 rows, the rest split the tail.
  const TablePartitions parts = RangePartition(t, 0, {90, 95, 98});
  ASSERT_EQ(parts.num_partitions(), 4);
  EXPECT_EQ(parts.parts[0].num_rows(), 90);
  EXPECT_EQ(parts.parts[1].num_rows(), 5);
  EXPECT_EQ(parts.parts[2].num_rows(), 3);
  EXPECT_EQ(parts.parts[3].num_rows(), 2);
  // skew = max/mean = 90 / 25.
  EXPECT_DOUBLE_EQ(PartitionSkew(parts), 90.0 / 25.0);
}

// ---- serial vs parallel equivalence ------------------------------------

void ExpectTablesIdentical(const Table& a, const Table& b,
                           const std::string& what) {
  ASSERT_EQ(a.schema().mask(), b.schema().mask()) << what;
  ASSERT_EQ(a.num_rows(), b.num_rows()) << what;
  EXPECT_EQ(a.MaterializeRows(), b.MaterializeRows())
      << what << ": row content or order differs";
}

// Bit-identical equivalence of everything downstream consumers read:
// cached node outputs, join rejects (both sides), targets, and the row /
// byte accounting the plan-cost comparison uses.
void ExpectExecutionsIdentical(const ExecutionResult& serial,
                               const ExecutionResult& par) {
  ASSERT_EQ(serial.node_outputs.size(), par.node_outputs.size());
  for (const auto& [id, table] : serial.node_outputs) {
    const auto it = par.node_outputs.find(id);
    ASSERT_NE(it, par.node_outputs.end()) << "node " << id;
    ExpectTablesIdentical(table, it->second, "node " + std::to_string(id));
  }
  ASSERT_EQ(serial.join_rejects.size(), par.join_rejects.size());
  for (const auto& [id, table] : serial.join_rejects) {
    ExpectTablesIdentical(table, par.join_rejects.at(id),
                          "rejects of join " + std::to_string(id));
  }
  ASSERT_EQ(serial.join_rejects_right.size(), par.join_rejects_right.size());
  for (const auto& [id, table] : serial.join_rejects_right) {
    ExpectTablesIdentical(table, par.join_rejects_right.at(id),
                          "right rejects of join " + std::to_string(id));
  }
  ASSERT_EQ(serial.targets.size(), par.targets.size());
  for (const auto& [name, table] : serial.targets) {
    ExpectTablesIdentical(table, par.targets.at(name), "target " + name);
  }
  EXPECT_EQ(serial.rows_processed, par.rows_processed);
  EXPECT_EQ(serial.bytes_processed, par.bytes_processed);
}

TEST(ParallelExecutorTest, PaperExampleBitIdenticalAcrossWorkerCounts) {
  auto ex = testing_util::MakePaperExample();
  const ExecutionResult serial =
      Executor(&ex.workflow).Execute(ex.sources).value();
  for (int threads : {2, 3, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ParallelOptions opts;
    opts.num_threads = threads;
    const ParallelResult par =
        ParallelExecutor(&ex.workflow, opts).Execute(ex.sources).value();
    EXPECT_TRUE(par.used_parallel_path);
    EXPECT_EQ(par.exec.num_workers, threads);
    EXPECT_GT(par.exec.partitions_total, 0);
    ExpectExecutionsIdentical(serial, par.exec);
  }
}

TEST(ParallelExecutorTest, FilterTransformChainBitIdentical) {
  WorkflowBuilder b("chain");
  const AttrId k = b.DeclareAttr("k", 60);
  const AttrId v = b.DeclareAttr("v", 20);
  const NodeId src = b.Source("Fact", {k, v});
  const NodeId dim = b.Source("Dim", {k});
  const NodeId f = b.Filter(src, {v, CompareOp::kLt, 15});
  const NodeId t = b.Transform(f, v, [](Value x) { return x * 2 + 1; });
  const NodeId j = b.Join(t, dim, k, {/*reject_link=*/true});
  const NodeId p = b.Project(j, {k});
  b.Sink(p, "out");
  Workflow wf = std::move(b).Build().value();

  Rng rng(3);
  SourceMap sources;
  Table fact{Schema({k, v})};
  for (int i = 0; i < 1000; ++i) {
    fact.AddRow({rng.NextInRange(1, 60), rng.NextInRange(1, 20)});
  }
  Table dim_t{Schema({k})};
  for (int i = 0; i < 45; ++i) dim_t.AddRow({rng.NextInRange(1, 60)});
  sources["Fact"] = std::move(fact);
  sources["Dim"] = std::move(dim_t);

  const ExecutionResult serial = Executor(&wf).Execute(sources).value();
  ParallelOptions opts;
  opts.num_threads = 4;
  const ParallelResult par =
      ParallelExecutor(&wf, opts).Execute(sources).value();
  EXPECT_TRUE(par.used_parallel_path);
  ExpectExecutionsIdentical(serial, par.exec);
}

TEST(ParallelExecutorTest, AggregateGathersAndStaysBitIdentical) {
  WorkflowBuilder b("agg");
  const AttrId k = b.DeclareAttr("k", 30);
  const AttrId g = b.DeclareAttr("g", 8);
  const NodeId src = b.Source("Fact", {k, g});
  const NodeId dim = b.Source("Dim", {k});
  const NodeId j = b.Join(src, dim, k);
  const NodeId a = b.Aggregate(j, {g});
  b.Sink(a, "agg_out");
  Workflow wf = std::move(b).Build().value();

  Rng rng(11);
  SourceMap sources;
  Table fact{Schema({k, g})};
  for (int i = 0; i < 600; ++i) {
    fact.AddRow({rng.NextInRange(1, 30), rng.NextInRange(1, 8)});
  }
  Table dim_t{Schema({k})};
  for (int i = 0; i < 25; ++i) dim_t.AddRow({rng.NextInRange(1, 30)});
  sources["Fact"] = std::move(fact);
  sources["Dim"] = std::move(dim_t);

  const ExecutionResult serial = Executor(&wf).Execute(sources).value();
  ParallelOptions opts;
  opts.num_threads = 4;
  const ParallelResult par =
      ParallelExecutor(&wf, opts).Execute(sources).value();
  EXPECT_TRUE(par.used_parallel_path);
  ExpectExecutionsIdentical(serial, par.exec);
}

TEST(ParallelExecutorTest, SortMergeJoinWorkflowFallsBackToSerial) {
  // Sort-merge joins never partition (their row order is the sorted one);
  // a workflow where that's the only candidate chain runs serially.
  WorkflowBuilder b("sm");
  const AttrId k = b.DeclareAttr("k", 10);
  const NodeId l = b.Source("L", {k});
  const NodeId r = b.Source("R", {k});
  const NodeId j = b.Join(l, r, k);
  b.SetJoinAlgorithm(j, JoinAlgorithm::kSortMerge);
  b.Sink(j, "out");
  Workflow wf = std::move(b).Build().value();

  SourceMap sources;
  Table lt{Schema({k})};
  Table rt{Schema({k})};
  for (int i = 0; i < 50; ++i) {
    lt.AddRow({(i % 10) + 1});
    rt.AddRow({(i % 7) + 1});
  }
  sources["L"] = std::move(lt);
  sources["R"] = std::move(rt);

  const ExecutionResult serial = Executor(&wf).Execute(sources).value();
  ParallelOptions opts;
  opts.num_threads = 4;
  const ParallelResult par =
      ParallelExecutor(&wf, opts).Execute(sources).value();
  ExpectExecutionsIdentical(serial, par.exec);
}

TEST(ParallelExecutorTest, RepeatedRunsWithPinnedPartitionsAreIdentical) {
  auto ex = testing_util::MakePaperExample();
  ParallelOptions opts;
  opts.num_threads = 4;
  opts.num_partitions = 8;
  ThreadPool pool(4);
  const ParallelExecutor exec(&ex.workflow, opts);
  const ParallelResult first = exec.Execute(ex.sources, &pool).value();
  const ParallelResult second = exec.Execute(ex.sources, &pool).value();
  ASSERT_TRUE(first.used_parallel_path);
  ASSERT_TRUE(second.used_parallel_path);
  EXPECT_EQ(first.exec.partitions_total, 8);
  EXPECT_EQ(first.partition_attr, second.partition_attr);
  EXPECT_EQ(first.exec.partition_rows, second.exec.partition_rows);
  ExpectExecutionsIdentical(first.exec, second.exec);
  // And both match the serial run.
  const ExecutionResult serial =
      Executor(&ex.workflow).Execute(ex.sources).value();
  ExpectExecutionsIdentical(serial, first.exec);
}

// Runs `wf` partitioned at 1, 2, 3, 4 and 8 partitions on two workers and
// checks every run against the serial executor, including that each
// node's slices hold exactly its gathered rows.
void ExpectBitIdenticalAcrossPartitionCounts(const Workflow& wf,
                                             const SourceMap& sources) {
  const ExecutionResult serial = Executor(&wf).Execute(sources).value();
  ThreadPool pool(2);
  for (int parts : {1, 2, 3, 4, 8}) {
    SCOPED_TRACE("partitions=" + std::to_string(parts));
    ParallelOptions opts;
    opts.num_threads = 2;
    opts.num_partitions = parts;
    const ParallelResult par =
        ParallelExecutor(&wf, opts).Execute(sources, &pool).value();
    ASSERT_TRUE(par.used_parallel_path);
    EXPECT_EQ(par.exec.partitions_total, parts);
    ExpectExecutionsIdentical(serial, par.exec);
    for (const auto& [id, tables] : par.slices) {
      ASSERT_EQ(tables.size(), static_cast<size_t>(parts)) << "node " << id;
      int64_t rows = 0;
      for (const Table& t : tables) rows += t.num_rows();
      EXPECT_EQ(rows, serial.node_outputs.at(id).num_rows()) << "node " << id;
    }
  }
}

Table RandomTable(const std::vector<AttrId>& attrs,
                  const std::vector<int64_t>& domains, int rows,
                  uint64_t seed) {
  Rng rng(seed);
  Table t{Schema(attrs)};
  for (int i = 0; i < rows; ++i) {
    std::vector<Value> row;
    for (int64_t domain : domains) row.push_back(rng.NextInRange(1, domain));
    t.AddRow(row);
  }
  return t;
}

TEST(ParallelExecutorTest, CoPartitionedDuplicateKeysDeepChainBitIdentical) {
  // Three nested co-partitioned joins with duplicate keys on both sides:
  // every probe row fans out to several build rows at every level, so the
  // serial order of the top join is decided by ties several joins deep.
  WorkflowBuilder b("deep");
  const AttrId k = b.DeclareAttr("k", 20);
  const AttrId a = b.DeclareAttr("a", 10);
  const AttrId bb = b.DeclareAttr("b", 10);
  const AttrId c = b.DeclareAttr("c", 10);
  const AttrId d = b.DeclareAttr("d", 10);
  const NodeId fact = b.Source("A", {k, a});
  const NodeId f = b.Filter(fact, {a, CompareOp::kLt, 8});
  const NodeId j1 = b.Join(f, b.Source("B", {k, bb}), k);
  const NodeId t = b.Transform(j1, bb, [](Value x) { return x % 3; });
  const NodeId j2 = b.Join(t, b.Source("C", {k, c}), k, {/*reject_link=*/true});
  const NodeId j3 = b.Join(j2, b.Source("D", {k, d}), k);
  b.Sink(j3, "out");
  Workflow wf = std::move(b).Build().value();

  SourceMap sources;
  sources["A"] = RandomTable({k, a}, {20, 10}, 400, 21);
  sources["B"] = RandomTable({k, bb}, {20, 10}, 150, 22);
  sources["C"] = RandomTable({k, c}, {24, 10}, 90, 23);
  sources["D"] = RandomTable({k, d}, {20, 10}, 60, 24);
  ExpectBitIdenticalAcrossPartitionCounts(wf, sources);
}

TEST(ParallelExecutorTest, MorePartitionsThanDistinctKeysLeavesEmptySlices) {
  WorkflowBuilder b("few_keys");
  const AttrId k = b.DeclareAttr("k", 3);
  const AttrId v = b.DeclareAttr("v", 10);
  const NodeId f =
      b.Filter(b.Source("Fact", {k, v}), {v, CompareOp::kGe, 3});
  const NodeId j = b.Join(f, b.Source("Dim", {k}), k);
  const NodeId t = b.Transform(j, v, [](Value x) { return x + 100; });
  b.Sink(t, "out");
  Workflow wf = std::move(b).Build().value();

  SourceMap sources;
  sources["Fact"] = RandomTable({k, v}, {3, 10}, 300, 31);
  sources["Dim"] = RandomTable({k}, {3}, 5, 32);
  ExpectBitIdenticalAcrossPartitionCounts(wf, sources);

  ParallelOptions opts;
  opts.num_threads = 2;
  opts.num_partitions = 8;
  const ParallelResult par =
      ParallelExecutor(&wf, opts).Execute(sources).value();
  int empty = 0;
  for (int64_t rows : par.exec.partition_rows) empty += rows == 0 ? 1 : 0;
  EXPECT_GE(empty, 5);  // at most three partitions can receive a key
}

TEST(ParallelExecutorTest, OneToOneNodesAfterJoinShareTheGatheredColumns) {
  // Project, transform and materialize above a co-partitioned and a
  // broadcast join: their gathered outputs are built from the join's, as
  // the serial kernels build them, instead of being merged again.
  WorkflowBuilder b("reuse");
  const AttrId k = b.DeclareAttr("k", 40);
  const AttrId g = b.DeclareAttr("g", 6);
  const AttrId v = b.DeclareAttr("v", 50);
  const AttrId w = b.DeclareAttr("w", 9);
  const AttrId x = b.DeclareAttr("x", 7);
  const NodeId j1 =
      b.Join(b.Source("Fact", {k, g, v}), b.Source("Dim", {k, w}), k);
  const NodeId j2 = b.Join(j1, b.Source("Grp", {g, x}), g);
  const NodeId p = b.Project(j2, {k, v, x});
  const NodeId t = b.Transform(p, v, [](Value y) { return y * 7 % 11; });
  const NodeId m = b.Materialize(t, "staged");
  b.Sink(m, "out");
  Workflow wf = std::move(b).Build().value();

  SourceMap sources;
  sources["Fact"] = RandomTable({k, g, v}, {40, 6, 50}, 700, 41);
  sources["Dim"] = RandomTable({k, w}, {40, 9}, 50, 42);
  sources["Grp"] = RandomTable({g, x}, {7, 7}, 12, 43);
  ExpectBitIdenticalAcrossPartitionCounts(wf, sources);

  ParallelOptions opts;
  opts.num_threads = 4;
  const ParallelResult par =
      ParallelExecutor(&wf, opts).Execute(sources).value();
  ASSERT_TRUE(par.used_parallel_path);
  const Table& joined = par.exec.node_outputs.at(j2);
  const Table& projected = par.exec.node_outputs.at(p);
  const Table& transformed = par.exec.node_outputs.at(t);
  EXPECT_EQ(projected.shared_column(0),
            joined.shared_column(joined.schema().IndexOf(k)));
  EXPECT_EQ(projected.shared_column(2),
            joined.shared_column(joined.schema().IndexOf(x)));
  EXPECT_EQ(transformed.shared_column(0), projected.shared_column(0));
  EXPECT_NE(transformed.shared_column(1), projected.shared_column(1));
  EXPECT_EQ(par.exec.node_outputs.at(m).shared_column(1),
            transformed.shared_column(1));
}

// ---- observed statistics through the pipeline --------------------------

std::vector<std::string> BlockStatsText(const RunOutcome& run) {
  std::vector<std::string> text;
  for (const StatStore& store : run.block_stats) {
    text.push_back(WriteStatStoreText(store));
  }
  return text;
}

TEST(ParallelPipelineTest, ObservedStatisticsBitIdenticalToSerial) {
  auto ex = testing_util::MakePaperExample();

  Pipeline serial;
  const CycleOutcome sc = serial.RunCycle(ex.workflow, ex.sources).value();

  PipelineOptions popts;
  popts.num_threads = 4;
  Pipeline par(popts);
  const CycleOutcome pc = par.RunCycle(ex.workflow, ex.sources).value();

  EXPECT_EQ(pc.run.exec.num_workers, 4);
  EXPECT_GT(pc.run.exec.partitions_total, 0);
  // Exact taps: every observed statistic identical, down to the text codec.
  EXPECT_EQ(BlockStatsText(sc.run), BlockStatsText(pc.run));
  // Downstream consequences identical too: same estimates, same plan.
  EXPECT_EQ(sc.opt.optimized.ToString(), pc.opt.optimized.ToString());
  ASSERT_EQ(sc.opt.block_cards.size(), pc.opt.block_cards.size());
  for (size_t i = 0; i < sc.opt.block_cards.size(); ++i) {
    EXPECT_EQ(sc.opt.block_cards[i], pc.opt.block_cards[i]) << "block " << i;
  }
  for (const auto& [name, table] : sc.run.exec.targets) {
    ExpectTablesIdentical(table, pc.run.exec.targets.at(name),
                          "target " + name);
  }
}

TEST(ParallelPipelineTest, SketchTapsMergeToSingleStreamStatistics) {
  // A tiny tap budget forces distinct/hist taps onto sketches; the
  // partition-merged sketch state must equal the single-stream state, so
  // serial and parallel runs serialize the same approximate values.
  auto ex = testing_util::MakePaperExample(/*seed=*/7, /*orders=*/2000);
  PipelineOptions base;
  base.tap_memory_budget_bytes = 4096;

  Pipeline serial(base);
  const CycleOutcome sc = serial.RunCycle(ex.workflow, ex.sources).value();

  PipelineOptions popts = base;
  popts.num_threads = 4;
  Pipeline par(popts);
  const CycleOutcome pc = par.RunCycle(ex.workflow, ex.sources).value();

  EXPECT_GT(sc.run.tap_report.sketch_taps, 0);
  EXPECT_EQ(sc.run.tap_report.sketch_taps, pc.run.tap_report.sketch_taps);
  EXPECT_EQ(BlockStatsText(sc.run), BlockStatsText(pc.run));
}

// ---- mergeable sketch taps, directly -----------------------------------

TEST(SketchMergeTest, DistinctTapPartitionMergeEqualsSingleStream) {
  const sketch::TapSketchConfig config;
  sketch::DistinctTap whole(config);
  std::vector<sketch::DistinctTap> parts(4, sketch::DistinctTap(config));
  Rng rng(123);
  for (int i = 0; i < 20000; ++i) {
    const std::vector<Value> key{rng.NextInRange(1, 5000)};
    whole.AddRow(key);
    parts[static_cast<size_t>(HashPartitionIndex(key[0], 4))].AddRow(key);
  }
  sketch::DistinctTap merged = parts[0];
  for (int p = 1; p < 4; ++p) ASSERT_TRUE(merged.Merge(parts[p]).ok());
  // HLL registers keep maxima, so the union is placement-insensitive:
  // merged state estimates identically to the single-stream tap.
  EXPECT_EQ(merged.Estimate(), whole.Estimate());
  EXPECT_EQ(merged.MemoryBytes(), whole.MemoryBytes());
}

TEST(SketchMergeTest, HistTapPartitionMergeEqualsSingleStream) {
  const sketch::TapSketchConfig config;
  sketch::HistTap whole(config);
  std::vector<sketch::HistTap> parts(4, sketch::HistTap(config));
  Rng rng(321);
  for (int i = 0; i < 20000; ++i) {
    const std::vector<Value> key{rng.NextInRange(1, 800)};
    whole.AddRow(key);
    parts[static_cast<size_t>(HashPartitionIndex(key[0], 4))].AddRow(key);
  }
  sketch::HistTap merged = parts[0];
  for (int p = 1; p < 4; ++p) ASSERT_TRUE(merged.Merge(parts[p]).ok());
  EXPECT_EQ(merged.rows_seen(), whole.rows_seen());
  const AttrMask attrs = AttrMask{1} << 0;
  EXPECT_TRUE(merged.Build(attrs) == whole.Build(attrs));
}

// ---- partition-scoped faults -------------------------------------------

class ParallelFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_TRUE(FaultInjector::InstallGlobal("").ok()); }
  void TearDown() override {
    ASSERT_TRUE(FaultInjector::InstallGlobal("").ok());
  }
};

TEST_F(ParallelFaultTest, PartitionCrashSalvagesCompletedPartitions) {
  auto ex = testing_util::MakePaperExample();
  ASSERT_TRUE(FaultInjector::InstallGlobal("seed=17;partition:1:crash").ok());

  PipelineOptions popts;
  popts.num_threads = 4;
  popts.checkpoint_path = TempPath("parallel_crash.ckpt");
  popts.checkpoint_every_rows = 10;
  Pipeline pipeline(popts);
  const CycleOutcome cycle =
      pipeline.RunCycle(ex.workflow, ex.sources).value();
  ASSERT_TRUE(cycle.aborted());
  EXPECT_EQ(cycle.run.exec.abort_kind, AbortKind::kCrash);

  // Partition granularity: the other partitions were gathered into partial
  // node outputs, so completion sits strictly between "node lost" and
  // "node done".
  const ExecutionResult& exec = cycle.run.exec;
  EXPECT_EQ(exec.partitions_total, 4);
  EXPECT_EQ(exec.partitions_completed, 3);
  EXPECT_GT(exec.nodes_partial, 0);

  // The ledger record is partial, carries the thread count, and both
  // round-trip through the line codec.
  const obs::RunRecord record = MakeRunRecord(cycle, "run-1");
  EXPECT_TRUE(record.partial);
  EXPECT_LT(record.completion, 1.0);
  EXPECT_GT(record.completion, 0.0);
  EXPECT_EQ(record.num_threads, 4);
  const auto round = obs::RunRecord::FromJsonLine(record.ToJsonLine());
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_TRUE(round->partial);
  EXPECT_EQ(round->num_threads, 4);

  // The checkpoint sidecar keeps the per-partition salvage watermarks.
  const Result<obs::TapCheckpoint> ckpt =
      obs::LoadTapCheckpoint(popts.checkpoint_path);
  ASSERT_TRUE(ckpt.ok()) << ckpt.status().ToString();
  EXPECT_TRUE(ckpt->partial);
  ASSERT_EQ(ckpt->partition_rows.size(), 4u);
  int64_t watermark_rows = 0;
  for (int64_t rows : ckpt->partition_rows) watermark_rows += rows;
  EXPECT_GT(watermark_rows, 0);
}

TEST_F(ParallelFaultTest, PartitionCrashMidChainSalvagesOtherPartitionsRows) {
  // Partition 1 crashes at the second chain node (its input rows push the
  // crash threshold past the filter's). Nodes before the crash gather
  // every partition; the crash node and everything after it gather the
  // other partitions, which on the key-preserving chain are exactly the
  // serial rows whose key does not hash to partition 1.
  WorkflowBuilder b("crash_chain");
  const AttrId k = b.DeclareAttr("k", 30);
  const AttrId v = b.DeclareAttr("v", 20);
  const AttrId w = b.DeclareAttr("w", 5);
  const NodeId src = b.Source("Fact", {k, v});
  const NodeId f = b.Filter(src, {v, CompareOp::kLt, 16});
  const NodeId j1 = b.Join(f, b.Source("Dim", {k, w}), k);
  const NodeId t = b.Transform(j1, v, [](Value x) { return x * 3; });
  const NodeId p = b.Project(t, {k, v});
  b.Sink(p, "out");
  Workflow wf = std::move(b).Build().value();

  SourceMap sources;
  sources["Fact"] = RandomTable({k, v}, {30, 20}, 500, 51);
  sources["Dim"] = RandomTable({k, w}, {30, 5}, 40, 52);
  constexpr int kParts = 4;
  int64_t part1_rows = 0;
  const Table& fact = sources.at("Fact");
  for (int64_t r = 0; r < fact.num_rows(); ++r) {
    part1_rows += HashPartitionIndex(fact.at(r, 0), kParts) == 1 ? 1 : 0;
  }
  const ExecutionResult serial = Executor(&wf).Execute(sources).value();
  ASSERT_TRUE(FaultInjector::InstallGlobal(
                  "seed=3;partition:1:crash_after_rows=" +
                  std::to_string(part1_rows + 1))
                  .ok());
  ParallelOptions opts;
  opts.num_threads = 2;
  opts.num_partitions = kParts;
  const ParallelResult par =
      ParallelExecutor(&wf, opts).Execute(sources).value();
  const ExecutionResult& exec = par.exec;
  ASSERT_TRUE(exec.aborted());
  EXPECT_EQ(exec.abort_kind, AbortKind::kCrash);
  EXPECT_EQ(exec.abort_node, j1);
  EXPECT_EQ(exec.partitions_completed, kParts - 1);
  EXPECT_EQ(exec.targets.count("out"), 0u);

  auto without_partition1 = [&](const Table& table) {
    const int key = table.schema().IndexOf(k);
    SelVector keep;
    for (int64_t r = 0; r < table.num_rows(); ++r) {
      if (HashPartitionIndex(table.at(r, key), kParts) != 1) keep.push_back(r);
    }
    return Table::Gather(table, keep);
  };
  ExpectTablesIdentical(serial.node_outputs.at(f), exec.node_outputs.at(f),
                        "filter before the crash");
  for (NodeId id : {j1, t, p}) {
    ExpectTablesIdentical(without_partition1(serial.node_outputs.at(id)),
                          exec.node_outputs.at(id),
                          "salvaged node " + std::to_string(id));
  }
  ExpectTablesIdentical(without_partition1(serial.join_rejects.at(j1)),
                        exec.join_rejects.at(j1), "salvaged join rejects");
  ExpectTablesIdentical(without_partition1(serial.join_rejects_right.at(j1)),
                        exec.join_rejects_right.at(j1),
                        "salvaged build-side rejects");
  EXPECT_EQ(exec.nodes_partial, 4);  // the join, transform, project, sink
  // Slices: every partition's before the crash, none of partition 1's
  // from the crash node on.
  int64_t filter_rows = 0;
  for (const Table& slice : par.slices.at(f)) filter_rows += slice.num_rows();
  EXPECT_EQ(filter_rows, serial.node_outputs.at(f).num_rows());
  EXPECT_EQ(par.slices.at(j1)[1].num_rows(), 0);
}

TEST_F(ParallelFaultTest, PartitionCrashIsDeterministic) {
  auto run_once = [] {
    EXPECT_TRUE(
        FaultInjector::InstallGlobal("seed=17;partition:2:crash").ok());
    auto ex = testing_util::MakePaperExample();
    PipelineOptions popts;
    popts.num_threads = 4;
    const CycleOutcome cycle =
        Pipeline(popts).RunCycle(ex.workflow, ex.sources).value();
    const obs::RunRecord record = MakeRunRecord(cycle, "run-1");
    return std::make_tuple(record.partial, record.completion,
                           record.abort_reason, record.cards.size());
  };
  const auto first = run_once();
  const auto second = run_once();
  EXPECT_TRUE(std::get<0>(first));
  EXPECT_EQ(first, second);
}

TEST_F(ParallelFaultTest, SerialRunIgnoresPartitionScopedFaults) {
  auto ex = testing_util::MakePaperExample();
  ASSERT_TRUE(FaultInjector::InstallGlobal("seed=17;partition:1:crash").ok());
  Pipeline pipeline;  // num_threads = 1: no partitions exist to crash
  const CycleOutcome cycle =
      pipeline.RunCycle(ex.workflow, ex.sources).value();
  EXPECT_FALSE(cycle.aborted());
}

// ---- ledger codec ------------------------------------------------------

TEST(ParallelLedgerTest, NumThreadsSerializesOnlyWhenNotOne) {
  obs::RunRecord serial_record;
  serial_record.run_id = "run-1";
  serial_record.fingerprint = "feedfacefeedface";
  EXPECT_EQ(serial_record.ToJsonLine().find("num_threads"),
            std::string::npos);

  obs::RunRecord par_record = serial_record;
  par_record.num_threads = 4;
  const std::string line = par_record.ToJsonLine();
  EXPECT_NE(line.find("\"num_threads\":4"), std::string::npos) << line;
  const auto round = obs::RunRecord::FromJsonLine(line);
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round->num_threads, 4);
}

}  // namespace
}  // namespace etlopt
