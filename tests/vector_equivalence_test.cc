// Golden suite for the columnar engine, with two independent oracles:
//  - the naive row-at-a-time reference executor (reference_executor.h):
//    every node output, target and join reject table of each cycle's run,
//    and of a run of its re-optimized plan, must equal the reference's;
//  - digests of every workload's observed statistics (down to the text
//    codec), optimized plan and per-block SE cards, recorded from the
//    row-at-a-time kernel generation the vectorized one replaced (both
//    generations produced them bit for bit).
// Partitioned (threads=4) runs must match serial runs bit for bit, and a
// pinned fault-injection spec must salvage the same prefix either way.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "datagen/workload_suite.h"
#include "obs/ledger.h"
#include "reference_executor.h"
#include "stats/stat_io.h"
#include "test_util.h"
#include "util/fault.h"

namespace etlopt {
namespace {

using testing_util::ExpectMatchesReference;

// Per workload (seed 7, scale 0.01): FingerprintText of the block stores'
// text, of the optimized plan's ToString, and of the sorted block cards.
struct GoldenDigest {
  int workload;
  const char* stats;
  const char* plan;
  const char* cards;
};

constexpr GoldenDigest kGoldenDigests[] = {
    {1, "541aee5dbe71b56a", "5bb3f5e487e19e8b", "ca945c45cd44704c"},
    {2, "db5ad1d8f1badb2b", "7ebf66d7fbcbe06f", "a2367128fcaa282b"},
    {3, "c7b62bc79d3e1877", "7e259c9190f1a1cd", "dff11f908914a176"},
    {4, "8ab11badba62d0f0", "3716ef05b665cfaf", "e6a281f7a790bcc7"},
    {5, "5289a869d65a1a1d", "ceb810cdeba007a5", "b132e13b0b208031"},
    {6, "e5f3ec4ea2737ce3", "1a44c77faf98063e", "59f3d7b0ae06f6ba"},
    {7, "611f30a37f4c1353", "e506efcd4de5281a", "b495d8cca97632bc"},
    {8, "84fda0dab4f19d75", "272fa3d40896ce41", "1fd07cfbbd47713f"},
    {9, "8e4316e1ba4b0f56", "aaeeda6367db7ad0", "15167699ef15c89e"},
    {10, "89ffb53e4ffd469b", "325b38573c527a30", "aeb7f520e42c831b"},
    {11, "fd7053393e4c4b1f", "f4bc6505d1c839a8", "43e15e3e87ad20e1"},
    {12, "94a4c48f12486b65", "2021426f7c7f24c4", "c2e50e54c5621082"},
    {13, "65e980f1486e260e", "fdbec7a6fc69df18", "feda61f56ddbbee6"},
    {14, "68d7807d8e206c2f", "796caec45fe38a0d", "236ae0b061d58b63"},
    {15, "fd8237ab5e86df80", "a1bace02754f1eb4", "f4f9f868068b2702"},
    {16, "02fbcf398c5f357e", "46815e810811fe77", "b762fe43edcea9d6"},
    {17, "e26cf7fe4f2b961a", "5dae6c91e6b51f42", "70f4cf551c1aa2ae"},
    {18, "a9dd1198a06b66ce", "d0b4af37ac7ced25", "5c44268e9dc1de34"},
    {19, "b43fbbb71c238df7", "378afb045395d693", "1aea796f898ddd85"},
    {20, "dbef4f4eefac9877", "5844af719ebccbed", "ec57e8f381003e73"},
    {21, "044d467fbd68285f", "38fee559d8e54ac1", "a9b3d0b90e7e040d"},
    {22, "cd29a9124e1e66d5", "777b327a62747225", "2f133b9be6f77842"},
    {23, "5b0a7722e7108f50", "8b28ad4e73e9ad3d", "56cdcf9046f02d01"},
    {24, "985cfccb7773851d", "9546b6267e695351", "ef9262ca2cd41b00"},
    {25, "d56c75e3f89fae44", "9d23a8a5bae5599b", "aaed452e72fa52a0"},
    {26, "c93d1e66d085af8f", "f732f9f504f1a9cd", "b59cd7aa959efaed"},
    {27, "69b30af63d0c535f", "6f5a59cdfc6ca555", "547d0d25cd5331a1"},
    {28, "449519cfc0c28930", "2987224f283938ca", "8cf94524a7b4783c"},
    {29, "770829ce8ccda70c", "01950f485dfe0008", "7ee51abd1cddea66"},
    {30, "1d21b0b19dc14df6", "06d7cf952970aeb2", "8be0640226e4df2d"},
};

// The pinned crash spec on the paper example salvages this prefix.
constexpr const char* kCrashSpec = "seed=17;op:join:crash";
constexpr int kCrashNodesCompleted = 3;
constexpr const char* kCrashStatsDigest = "67e1582a51abc3ba";

std::vector<std::string> BlockStatsText(const RunOutcome& run) {
  std::vector<std::string> text;
  for (const StatStore& store : run.block_stats) {
    text.push_back(WriteStatStoreText(store));
  }
  return text;
}

std::string StatsDigest(const RunOutcome& run) {
  std::string text;
  for (const std::string& store : BlockStatsText(run)) {
    text += store;
    text += "\n--\n";
  }
  return obs::FingerprintText(text);
}

std::string CardsDigest(const OptimizeOutcome& opt) {
  std::string text;
  for (const CardMap& cards : opt.block_cards) {
    std::vector<std::pair<RelMask, int64_t>> sorted(cards.begin(),
                                                    cards.end());
    std::sort(sorted.begin(), sorted.end());
    for (const auto& [se, card] : sorted) {
      text += std::to_string(se) + "=" + std::to_string(card) + ";";
    }
    text += "\n";
  }
  return obs::FingerprintText(text);
}

void ExpectGoldenDigests(const CycleOutcome& cycle, int workload,
                         const std::string& what) {
  const GoldenDigest& want = kGoldenDigests[workload - 1];
  ASSERT_EQ(want.workload, workload);
  EXPECT_EQ(StatsDigest(cycle.run), want.stats) << what << " statistics";
  EXPECT_EQ(obs::FingerprintText(cycle.opt.optimized.ToString()), want.plan)
      << what << " optimized plan";
  EXPECT_EQ(CardsDigest(cycle.opt), want.cards) << what << " block cards";
}

void ExpectCyclesIdentical(const CycleOutcome& a, const CycleOutcome& b,
                           const std::string& what) {
  // Observed statistics, down to the text codec.
  EXPECT_EQ(BlockStatsText(a.run), BlockStatsText(b.run)) << what;
  // Target tables, row for row.
  ASSERT_EQ(a.run.exec.targets.size(), b.run.exec.targets.size()) << what;
  for (const auto& [name, table] : a.run.exec.targets) {
    EXPECT_TRUE(table == b.run.exec.targets.at(name))
        << what << " target " << name;
  }
  // Downstream consequences: same estimates, same chosen plan.
  EXPECT_EQ(a.opt.optimized.ToString(), b.opt.optimized.ToString()) << what;
  ASSERT_EQ(a.opt.block_cards.size(), b.opt.block_cards.size()) << what;
  for (size_t i = 0; i < a.opt.block_cards.size(); ++i) {
    EXPECT_EQ(a.opt.block_cards[i], b.opt.block_cards[i])
        << what << " block " << i;
  }
  // Ledger per-SE cards.
  const obs::RunRecord arec = MakeRunRecord(a, "golden");
  const obs::RunRecord brec = MakeRunRecord(b, "golden");
  ASSERT_EQ(arec.cards.size(), brec.cards.size()) << what;
  for (size_t i = 0; i < arec.cards.size(); ++i) {
    EXPECT_EQ(arec.cards[i].block, brec.cards[i].block) << what;
    EXPECT_EQ(arec.cards[i].se, brec.cards[i].se) << what;
    EXPECT_EQ(arec.cards[i].estimated, brec.cards[i].estimated) << what;
  }
}

CycleOutcome RunCycleWith(const WorkloadSpec& spec, const SourceMap& sources,
                          int threads, PipelineOptions opts = {}) {
  opts.num_threads = threads;
  Pipeline pipeline(opts);
  Result<CycleOutcome> cycle = pipeline.RunCycle(spec.workflow, sources);
  ETLOPT_CHECK_MSG(cycle.ok(), spec.name + ": " + cycle.status().ToString());
  return std::move(cycle).value();
}

int SortMergeJoins(const Workflow& wf) {
  int count = 0;
  for (const WorkflowNode& node : wf.nodes()) {
    if (node.kind == OpKind::kJoin &&
        node.join.algorithm == JoinAlgorithm::kSortMerge) {
      ++count;
    }
  }
  return count;
}

TEST(VectorGoldenSuite, WorkloadSuiteBitIdenticalSerial) {
  for (int i = 1; i <= 30; ++i) {
    const WorkloadSpec spec = BuildWorkload(i);
    const SourceMap sources = GenerateSources(spec, 7, 0.01);
    const CycleOutcome cycle = RunCycleWith(spec, sources, 1);
    ExpectGoldenDigests(cycle, i, spec.name);
    ExpectMatchesReference(spec.workflow, sources, cycle.run.exec, spec.name);
    // The re-optimized plan: the join orders and physical algorithms the
    // optimizer picked.
    const Workflow& optimized = cycle.opt.optimized;
    const ExecutionResult next =
        Executor(&optimized).Execute(sources).value();
    ExpectMatchesReference(optimized, sources, next,
                           spec.name + " optimized");
  }
}

TEST(VectorGoldenSuite, SortMergePlansMatchReference) {
  // The default cost parameters make hash joins win almost everywhere, so
  // cheap sorts steer the optimizer to sort-merge joins on part of each
  // plan, and the re-optimized plans run both join kernels.
  PipelineOptions opts;
  opts.optimizer_cost.sort = 0.05;
  int sort_merge_joins = 0;
  for (int i : {3, 10, 11, 16, 17, 21, 23, 28, 30}) {
    const WorkloadSpec spec = BuildWorkload(i);
    const SourceMap sources = GenerateSources(spec, 7, 0.01);
    const CycleOutcome cycle = RunCycleWith(spec, sources, 1, opts);
    const Workflow& optimized = cycle.opt.optimized;
    sort_merge_joins += SortMergeJoins(optimized);
    const ExecutionResult next =
        Executor(&optimized).Execute(sources).value();
    ExpectMatchesReference(optimized, sources, next,
                           spec.name + " optimized, cheap sorts");
  }
  EXPECT_GT(sort_merge_joins, 0);
}

TEST(VectorGoldenSuite, WorkloadSuiteBitIdenticalPartitioned) {
  // Partitioned execution exercises the slice kernels, the provenance
  // merge, and the per-partition tap feeds. The anchor workloads cover
  // star/snowflake/chain shapes, reject links, agg UDFs, materialized
  // intermediates, and the widest joins (wf21: 8-way, wf30: 6-way).
  for (int i : {3, 10, 11, 16, 17, 21, 23, 28, 30}) {
    const WorkloadSpec spec = BuildWorkload(i);
    const SourceMap sources = GenerateSources(spec, 7, 0.01);
    const std::string what = spec.name + " threads=4";
    const CycleOutcome par = RunCycleWith(spec, sources, 4);
    ExpectGoldenDigests(par, i, what);
    ExpectMatchesReference(spec.workflow, sources, par.run.exec, what);
    const CycleOutcome serial = RunCycleWith(spec, sources, 1);
    ExpectCyclesIdentical(serial, par, spec.name + " serial-vs-par");
  }
}

class VectorGoldenFaultSuite : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(fault::FaultInjector::InstallGlobal("").ok());
  }
  void TearDown() override {
    ASSERT_TRUE(fault::FaultInjector::InstallGlobal("").ok());
  }
};

TEST_F(VectorGoldenFaultSuite, PinnedCrashSpecSalvagesIdentically) {
  // The pinned spec: deterministic seed, crash at the first join. The
  // salvaged prefix — completed node outputs, partial statistics, abort
  // bookkeeping — must match the reference and the recorded digest, serial
  // and partitioned alike.
  auto ex = testing_util::MakePaperExample();
  std::vector<CycleOutcome> cycles;
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ETLOPT_CHECK(fault::FaultInjector::InstallGlobal(kCrashSpec).ok());
    PipelineOptions opts;
    opts.num_threads = threads;
    Pipeline pipeline(opts);
    Result<CycleOutcome> cycle = pipeline.RunCycle(ex.workflow, ex.sources);
    ETLOPT_CHECK_MSG(cycle.ok(), cycle.status().ToString());
    ETLOPT_CHECK(fault::FaultInjector::InstallGlobal("").ok());
    EXPECT_TRUE(cycle->aborted());  // the spec fires on this workflow
    EXPECT_EQ(cycle->run.exec.nodes_completed, kCrashNodesCompleted);
    EXPECT_EQ(StatsDigest(cycle->run), kCrashStatsDigest);
    ExpectMatchesReference(ex.workflow, ex.sources, cycle->run.exec,
                           "crash prefix");
    cycles.push_back(std::move(cycle).value());
  }
  const CycleOutcome& serial = cycles[0];
  const CycleOutcome& par = cycles[1];
  EXPECT_EQ(serial.run.tap_report.salvage_skipped,
            par.run.tap_report.salvage_skipped);
  EXPECT_EQ(BlockStatsText(serial.run), BlockStatsText(par.run));
  ASSERT_EQ(serial.run.exec.node_outputs.size(),
            par.run.exec.node_outputs.size());
  for (const auto& [id, table] : serial.run.exec.node_outputs) {
    EXPECT_TRUE(table == par.run.exec.node_outputs.at(id)) << "node " << id;
  }
}

}  // namespace
}  // namespace etlopt
