#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "css/generator.h"
#include "datagen/workload_suite.h"
#include "obs/metrics.h"
#include "opt/closure.h"
#include "opt/greedy_selector.h"
#include "opt/ilp_selector.h"
#include "opt/resource.h"
#include "test_util.h"

namespace etlopt {
namespace {

// Hand-built catalog for closure unit tests:
//   s0, s1, s2 are leaves; s3 <- {s0, s1}; s4 <- {s3, s2}; s5 <- {s4} | {s0}.
CssCatalog TinyCatalog(std::vector<StatKey>* keys) {
  CssCatalog catalog;
  keys->clear();
  for (int i = 0; i < 6; ++i) {
    keys->push_back(StatKey::Card(RelMask{1} << i));
    catalog.AddStat(keys->back());
  }
  auto add = [&](int target, std::vector<int> inputs) {
    CssEntry e;
    e.rule = RuleId::kJ1;
    e.target = (*keys)[static_cast<size_t>(target)];
    for (int i : inputs) e.inputs.push_back((*keys)[static_cast<size_t>(i)]);
    catalog.AddCss(std::move(e));
  };
  add(3, {0, 1});
  add(4, {3, 2});
  add(5, {4});
  add(5, {0});
  return catalog;
}

TEST(ClosureTest, FixpointPropagates) {
  std::vector<StatKey> keys;
  const CssCatalog catalog = TinyCatalog(&keys);
  std::vector<char> observed(6, 0);
  observed[0] = observed[1] = observed[2] = 1;
  const std::vector<char> computable = ComputeClosure(catalog, observed);
  for (int i = 0; i < 6; ++i) EXPECT_TRUE(computable[static_cast<size_t>(i)]);
}

TEST(ClosureTest, MissingInputBlocksDerivation) {
  std::vector<StatKey> keys;
  const CssCatalog catalog = TinyCatalog(&keys);
  std::vector<char> observed(6, 0);
  observed[1] = observed[2] = 1;  // s0 missing
  const std::vector<char> computable = ComputeClosure(catalog, observed);
  EXPECT_FALSE(computable[3]);
  EXPECT_FALSE(computable[4]);
  EXPECT_FALSE(computable[5]);
}

TEST(ClosureTest, AlternativeCssSuffices) {
  std::vector<StatKey> keys;
  const CssCatalog catalog = TinyCatalog(&keys);
  std::vector<char> observed(6, 0);
  observed[0] = 1;  // s5 <- {s0} fires
  const std::vector<char> computable = ComputeClosure(catalog, observed);
  EXPECT_TRUE(computable[5]);
  EXPECT_FALSE(computable[4]);
}

TEST(ClosureTest, DerivationIsAcyclic) {
  std::vector<StatKey> keys;
  const CssCatalog catalog = TinyCatalog(&keys);
  std::vector<char> observed(6, 0);
  observed[0] = observed[1] = observed[2] = 1;
  std::vector<int> derivation;
  ComputeClosure(catalog, observed, &derivation);
  EXPECT_EQ(derivation[0], -1);  // observed
  EXPECT_GE(derivation[3], 0);
  EXPECT_GE(derivation[4], 0);
  EXPECT_GE(derivation[5], 0);
}

// The reference semantics of the closure: fire every CSS whose inputs are
// all computable, until nothing changes.
std::vector<char> NaiveClosure(const CssCatalog& catalog,
                               const std::vector<char>& observed) {
  std::vector<char> computable = observed;
  for (bool changed = true; changed;) {
    changed = false;
    for (int c = 0; c < catalog.num_css(); ++c) {
      const int target = catalog.css_target(c);
      if (computable[static_cast<size_t>(target)]) continue;
      bool all = true;
      for (int in : catalog.css_inputs(c)) {
        all = all && computable[static_cast<size_t>(in)];
      }
      if (all) {
        computable[static_cast<size_t>(target)] = 1;
        changed = true;
      }
    }
  }
  return computable;
}

// Follows the derivation of `stat` down to observed leaves; false when a
// derivation edge leaves the closure or closes a cycle.
bool DerivationGrounded(const CssCatalog& catalog,
                        const std::vector<char>& observed,
                        const std::vector<char>& computable,
                        const std::vector<int>& derivation, int stat,
                        std::vector<int>* state) {
  int& st = (*state)[static_cast<size_t>(stat)];
  if (st == 2) return true;
  if (st == 1) return false;  // back edge: a cycle
  st = 1;
  const int css = derivation[static_cast<size_t>(stat)];
  if (observed[static_cast<size_t>(stat)]) {
    if (css != -1) return false;
  } else {
    if (css < 0 || catalog.css_target(css) != stat) return false;
    for (int in : catalog.css_inputs(css)) {
      if (!computable[static_cast<size_t>(in)] ||
          !DerivationGrounded(catalog, observed, computable, derivation, in,
                              state)) {
        return false;
      }
    }
  }
  st = 2;
  return true;
}

class SuiteClosure : public ::testing::TestWithParam<int> {};

TEST_P(SuiteClosure, MatchesNaiveFixpointWithAcyclicDerivation) {
  const WorkloadSpec spec = BuildWorkload(GetParam());
  const std::vector<Block> blocks = PartitionBlocks(spec.workflow);
  ASSERT_FALSE(blocks.empty());
  const BlockContext ctx =
      BlockContext::Build(&spec.workflow, blocks[0]).value();
  const PlanSpace ps = PlanSpace::Build(ctx).value();
  const CssCatalog catalog = GenerateCss(ctx, ps, {});
  const int n = catalog.num_stats();
  std::mt19937_64 rng(1000 + static_cast<uint64_t>(GetParam()));
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int trial = 0; trial < 12; ++trial) {
    const double density = 0.02 + 0.08 * trial;
    std::vector<char> observed(static_cast<size_t>(n), 0);
    for (int s = 0; s < n; ++s) {
      observed[static_cast<size_t>(s)] = unit(rng) < density ? 1 : 0;
    }
    std::vector<int> derivation;
    const std::vector<char> computable =
        ComputeClosure(catalog, observed, &derivation);
    ASSERT_EQ(computable, NaiveClosure(catalog, observed)) << "trial " << trial;
    std::vector<int> state(static_cast<size_t>(n), 0);
    for (int s = 0; s < n; ++s) {
      if (!computable[static_cast<size_t>(s)]) {
        EXPECT_EQ(derivation[static_cast<size_t>(s)], -1);
        continue;
      }
      ASSERT_TRUE(DerivationGrounded(catalog, observed, computable,
                                     derivation, s, &state))
          << "trial " << trial << " stat " << s;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, SuiteClosure, ::testing::Values(5, 19, 30),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "wf" + std::to_string(info.param);
                         });

class PaperSelection : public ::testing::Test {
 protected:
  void SetUp() override {
    ex_ = testing_util::MakePaperExample();
    const std::vector<Block> blocks = PartitionBlocks(ex_.workflow);
    ctx_ = BlockContext::Build(&ex_.workflow, blocks[0]).value();
    ps_ = PlanSpace::Build(ctx_).value();
    catalog_ = GenerateCss(ctx_, ps_, {});
    CostModel cost_model(&ex_.workflow.catalog(), {});
    problem_ = BuildSelectionProblem(ctx_, ps_, catalog_, cost_model);
  }

  testing_util::PaperExample ex_;
  BlockContext ctx_;
  PlanSpace ps_;
  CssCatalog catalog_;
  SelectionProblem problem_;
};

TEST_F(PaperSelection, GreedyCoversAllRequired) {
  const SelectionResult result = SelectGreedy(problem_);
  ASSERT_TRUE(result.feasible);
  EXPECT_TRUE(SelectionCovers(problem_, result.observed));
  EXPECT_GT(result.total_cost, 0.0);
}

TEST_F(PaperSelection, GreedyObservesOnlyObservableStats) {
  const SelectionResult result = SelectGreedy(problem_);
  for (int s : result.observed) {
    EXPECT_TRUE(problem_.observable[static_cast<size_t>(s)])
        << catalog_.stat(s).ToString(&ex_.workflow.catalog());
  }
}

TEST_F(PaperSelection, GreedyHasNoRedundantObservation) {
  const SelectionResult result = SelectGreedy(problem_);
  for (size_t drop = 0; drop < result.observed.size(); ++drop) {
    std::vector<int> reduced;
    for (size_t i = 0; i < result.observed.size(); ++i) {
      if (i != drop) reduced.push_back(result.observed[i]);
    }
    EXPECT_FALSE(SelectionCovers(problem_, reduced))
        << "redundant: "
        << catalog_.stat(result.observed[drop])
               .ToString(&ex_.workflow.catalog());
  }
}

TEST_F(PaperSelection, IlpMatchesExhaustiveOptimum) {
  const SelectionResult ilp = SelectIlp(problem_);
  ASSERT_TRUE(ilp.feasible);
  EXPECT_TRUE(SelectionCovers(problem_, ilp.observed));

  const SelectionResult brute = SelectExhaustive(problem_, 26);
  if (brute.feasible) {
    EXPECT_NEAR(ilp.total_cost, brute.total_cost, 1e-6) << ilp.method;
  }
  // Greedy is never better than the ILP optimum.
  const SelectionResult greedy = SelectGreedy(problem_);
  EXPECT_GE(greedy.total_cost + 1e-9, ilp.total_cost);
}

TEST_F(PaperSelection, CheapOnPathCountersArePreferred) {
  // The cardinalities of on-path SEs (O, P, C, OP, OPC) cost 1 each; the
  // only genuinely expensive need is |OC|. The optimal solution should not
  // cost more than a couple of histograms.
  const SelectionResult result = SelectIlp(problem_);
  const AttrCatalog& catalog = ex_.workflow.catalog();
  const double cust_dom =
      static_cast<double>(catalog.domain_size(ex_.cust_id));
  const double prod_dom =
      static_cast<double>(catalog.domain_size(ex_.prod_id));
  EXPECT_LE(result.total_cost,
            5.0 + 2.0 * std::max(cust_dom, prod_dom) + 2.0 * cust_dom);
}

TEST_F(PaperSelection, SourceStatsReduceCost) {
  const SelectionResult base = SelectGreedy(problem_);
  // Make every base-relation histogram free (Section 6.2).
  SelectionOptions options;
  for (int s = 0; s < catalog_.num_stats(); ++s) {
    const StatKey& key = catalog_.stat(s);
    if (key.kind == StatKind::kHist && IsSingleton(key.rels) &&
        !key.is_chain_stage()) {
      options.free_source_stats.push_back(key);
    }
  }
  CostModel cost_model(&ex_.workflow.catalog(), {});
  const SelectionProblem with_free =
      BuildSelectionProblem(ctx_, ps_, catalog_, cost_model, options);
  const SelectionResult freed = SelectGreedy(with_free);
  ASSERT_TRUE(freed.feasible);
  EXPECT_LT(freed.total_cost, base.total_cost);
}

TEST_F(PaperSelection, BudgetedSelectionDefersToReorderedRuns) {
  // A budget of 6 units only allows counters: |OC| cannot be covered in the
  // first run and must come from a re-ordered execution.
  const BudgetedSelection budgeted =
      SelectWithBudget(problem_, ctx_, ps_, 6.0);
  EXPECT_FALSE(budgeted.first_run.feasible);
  EXPECT_LE(budgeted.memory_used, 6.0);
  ASSERT_FALSE(budgeted.deferred.empty());
  EXPECT_EQ(budgeted.deferred[0], 0b101u);  // OC
  EXPECT_GE(budgeted.total_executions(), 2);
}

TEST_F(PaperSelection, LargeBudgetBehavesLikeUnbudgeted) {
  const BudgetedSelection budgeted =
      SelectWithBudget(problem_, ctx_, ps_, 1e12);
  EXPECT_TRUE(budgeted.first_run.feasible);
  EXPECT_TRUE(budgeted.deferred.empty());
  EXPECT_EQ(budgeted.total_executions(), 1);
}

TEST_F(PaperSelection, BudgetedPartialCoverRecordsIterations) {
  const bool was_enabled = obs::ObsEnabled();
  obs::SetObsEnabled(true);
  if (!obs::ObsEnabled()) GTEST_SKIP() << "metrics compiled out";
  obs::Counter& iterations = obs::MetricsRegistry::Global().GetCounter(
      "etlopt.opt.greedy.iterations");
  const int64_t before = iterations.Get();
  std::vector<int> uncovered;
  const SelectionResult partial =
      SelectGreedyWithBudget(problem_, 6.0, &uncovered);
  obs::SetObsEnabled(was_enabled);
  EXPECT_FALSE(partial.feasible);
  EXPECT_FALSE(uncovered.empty());
  EXPECT_GT(iterations.Get(), before);
}

// Greedy selections on every block of the 30-workflow suite (default CSS
// generation and cost model): the unbudgeted selection, then the budgeted
// one at half its cost. The values were recorded from the selector that
// rebuilt the CSS graph on every pass; the stored-graph selector must agree
// exactly, costs included.
struct GoldenSelection {
  int workload;
  int block;
  const char* method;
  double total_cost;
  std::vector<int> observed;
  std::vector<int> half_budget_observed;
  std::vector<int> half_budget_uncovered;
  bool half_budget_feasible;
};

const std::vector<GoldenSelection>& GoldenSelections() {
  static const std::vector<GoldenSelection> golden = {
    {1, 0, "greedy", 1,
     {0},
     {},
     {0},
     false},
    {2, 0, "greedy", 1,
     {0},
     {},
     {0},
     false},
    {3, 0, "greedy", 29924,
     {0, 2, 3, 7, 10, 11},
     {0, 1, 2, 3, 5},
     {4},
     false},
    {4, 0, "greedy", 2,
     {0, 1},
     {0},
     {1},
     false},
    {5, 0, "greedy", 300121,
     {1, 7, 10, 17, 21, 27, 48},
     {0, 1, 2, 3, 4, 7, 10, 16, 17, 20, 21, 27},
     {9},
     false},
    {6, 0, "greedy", 1517,
     {0, 3, 5, 8, 9},
     {0, 1, 2, 3, 5},
     {4},
     false},
    {7, 0, "greedy", 1710,
     {1, 2, 3, 8, 12, 13},
     {0, 1, 2, 3, 5},
     {4},
     false},
    {8, 0, "greedy(no-ud-pass)", 460857,
     {9, 12, 14, 17, 18, 21, 26, 30, 51},
     {0, 1, 2, 3, 4, 5, 9, 12, 14, 17, 18, 21, 22, 25, 26, 31, 32},
     {11, 13},
     false},
    {9, 0, "greedy", 3,
     {0, 1, 2},
     {0},
     {1, 2},
     false},
    {10, 0, "greedy", 3,
     {0, 1, 2},
     {0},
     {1, 2},
     false},
    {10, 1, "greedy", 3,
     {0, 1, 2},
     {0},
     {1, 2},
     false},
    {11, 0, "greedy", 3,
     {0, 1, 2},
     {0},
     {1, 2},
     false},
    {11, 1, "greedy", 3,
     {0, 1, 2},
     {0},
     {1, 2},
     false},
    {12, 0, "greedy(no-ud-pass)", 247137,
     {9, 12, 14, 17, 18, 21, 26, 30, 51},
     {0, 1, 2, 3, 4, 5, 9, 12, 14, 17, 18, 21, 22, 25, 26, 31, 32},
     {11, 13},
     false},
    {13, 0, "greedy(no-ud-pass)", 1051247,
     {15, 18, 20, 23, 28, 29, 34, 40, 48, 65, 74},
     {0, 1, 2, 3, 4, 5, 6, 11, 15, 18, 20, 23, 24, 27, 28, 29, 30, 33, 34, 40,
      49, 50, 65},
     {14, 17, 19},
     false},
    {14, 0, "greedy", 337003,
     {0, 4, 7, 9, 15, 20, 32},
     {0, 1, 2, 3, 4, 7, 9, 15, 16, 19, 20},
     {8},
     false},
    {15, 0, "greedy", 3,
     {0, 1, 2},
     {0},
     {1, 2},
     false},
    {16, 0, "greedy", 67589,
     {0, 5, 9, 12, 14, 17, 24, 40, 43},
     {0, 1, 2, 3, 4, 5, 9, 12, 14, 17, 18, 21, 22, 23, 24},
     {10, 11, 13},
     false},
    {17, 0, "greedy", 3,
     {0, 1, 2},
     {0},
     {1, 2},
     false},
    {17, 1, "greedy", 3,
     {0, 1, 2},
     {0},
     {1, 2},
     false},
    {18, 0, "greedy", 813232,
     {1, 5, 15, 21, 24, 41, 42, 43},
     {0, 1, 2, 3, 4, 5, 9, 12, 14, 15, 19, 20, 21, 22, 23, 24, 41, 42},
     {11, 13},
     false},
    {19, 0, "greedy", 311078387157,
     {1, 63, 69, 74, 78, 82, 86, 90, 270, 644, 1118, 1528, 1756},
     {0, 1, 2, 3, 4, 5, 6, 7, 13, 28, 48, 63, 69, 73, 74, 77, 78, 81, 82, 85,
      86, 89, 90, 96, 102, 110, 120, 136, 147, 167, 204, 222, 270, 324, 335,
      340, 351, 356, 361, 372, 377, 382, 387, 405, 424, 434, 456, 466, 479, 516,
      551, 573, 644, 788, 811, 828, 835, 860, 877, 884, 901, 908, 915, 955, 997,
      1026, 1040, 1118, 1347, 1389, 1422, 1445, 1454, 1528},
     {68},
     false},
    {20, 0, "greedy", 60003,
     {1, 3, 5, 6, 8},
     {0, 1, 2, 3, 5},
     {4},
     false},
    {21, 0, "greedy", 512442272920352,
     {1, 127, 134, 139, 143, 147, 151, 155, 159, 593, 1473, 2649, 3838, 4714,
      5196},
     {0, 1, 2, 3, 4, 5, 6, 7, 8, 15, 36, 71, 106, 127, 134, 138, 139, 142, 143,
      146, 147, 150, 151, 154, 155, 158, 159, 165, 171, 179, 189, 201, 219, 230,
      250, 282, 334, 352, 394, 482, 509, 593, 663, 674, 679, 690, 695, 700, 711,
      716, 721, 726, 737, 742, 747, 752, 757, 775, 794, 804, 826, 836, 849, 874,
      884, 897, 913, 953, 988, 1010, 1063, 1085, 1125, 1220, 1282, 1326, 1473,
      1696, 1719, 1736, 1743, 1768, 1785, 1792, 1809, 1816, 1823, 1848, 1865,
      1872, 1889, 1896, 1903, 1920, 1927, 1934, 1941, 1981, 2023, 2052, 2066,
      2114, 2143, 2157, 2190, 2204, 2222, 2304, 2387, 2446, 2482, 2649, 3084,
      3126, 3159, 3182, 3191, 3238, 3271, 3294, 3303, 3339, 3362, 3371, 3394,
      3403, 3412, 3486, 3567, 3627, 3666, 3684, 3838, 4390, 4456, 4510, 4553,
      4582, 4593, 4714},
     {133},
     false},
    {22, 0, "greedy", 3605,
     {1, 3, 5, 8, 9},
     {0, 1, 2, 3, 5},
     {4},
     false},
    {23, 0, "greedy", 3443,
     {0, 3, 5, 8, 9},
     {0, 1, 2, 3, 5},
     {4},
     false},
    {24, 0, "greedy", 12205,
     {1, 3, 5, 10, 11},
     {0, 1, 2, 3, 5},
     {4},
     false},
    {25, 0, "greedy", 4,
     {0, 1, 2, 3},
     {0, 1},
     {2, 3},
     false},
    {26, 0, "greedy", 460031,
     {0, 6, 11, 15, 18, 20, 23, 32, 56, 59, 60},
     {0, 1, 2, 3, 4, 5, 6, 11, 15, 18, 20, 23, 24, 27, 28, 29, 30, 31, 32, 59},
     {12, 14, 16, 17, 19},
     false},
    {27, 0, "greedy", 7303,
     {1, 3, 5, 9, 10},
     {0, 1, 2, 3, 5},
     {4},
     false},
    {28, 0, "greedy", 3,
     {0, 1, 2},
     {0},
     {1, 2},
     false},
    {28, 1, "greedy", 3,
     {0, 1, 2},
     {0},
     {1, 2},
     false},
    {29, 0, "greedy", 3,
     {0, 1, 2},
     {0},
     {1, 2},
     false},
    {29, 1, "greedy", 7303,
     {1, 3, 5, 8, 9},
     {0, 1, 2, 3, 5},
     {4},
     false},
    {30, 0, "greedy", 95603018003,
     {1, 31, 36, 40, 44, 48, 52, 122, 276, 444, 551},
     {0, 1, 2, 3, 4, 5, 6, 11, 21, 31, 36, 39, 40, 43, 44, 47, 48, 51, 52, 58,
      64, 72, 86, 97, 122, 158, 169, 174, 185, 190, 195, 213, 232, 242, 276,
      357, 380, 397, 404, 444},
     {35},
     false},
  };
  return golden;
}

class GoldenSuiteSelection : public ::testing::TestWithParam<int> {};

TEST_P(GoldenSuiteSelection, MatchesRecordedSelections) {
  const int workload = GetParam();
  std::vector<const GoldenSelection*> expected;
  for (const GoldenSelection& g : GoldenSelections()) {
    if (g.workload == workload) expected.push_back(&g);
  }
  const WorkloadSpec spec = BuildWorkload(workload);
  const std::vector<Block> blocks = PartitionBlocks(spec.workflow);
  ASSERT_EQ(blocks.size(), expected.size());
  for (size_t b = 0; b < blocks.size(); ++b) {
    SCOPED_TRACE("block " + std::to_string(b));
    const GoldenSelection& want = *expected[b];
    ASSERT_EQ(want.block, static_cast<int>(b));
    const BlockContext ctx =
        BlockContext::Build(&spec.workflow, blocks[b]).value();
    const PlanSpace ps = PlanSpace::Build(ctx).value();
    const CssCatalog catalog = GenerateCss(ctx, ps, {});
    const CostModel cost_model(&spec.workflow.catalog(), {});
    const SelectionProblem problem =
        BuildSelectionProblem(ctx, ps, catalog, cost_model);

    const SelectionResult greedy = SelectGreedy(problem);
    EXPECT_TRUE(greedy.feasible);
    EXPECT_EQ(greedy.method, want.method);
    EXPECT_EQ(greedy.total_cost, want.total_cost);
    EXPECT_EQ(greedy.observed, want.observed);

    std::vector<int> uncovered;
    const SelectionResult half =
        SelectGreedyWithBudget(problem, greedy.total_cost / 2, &uncovered);
    EXPECT_EQ(half.observed, want.half_budget_observed);
    EXPECT_EQ(uncovered, want.half_budget_uncovered);
    EXPECT_EQ(half.feasible, want.half_budget_feasible);
  }
}

INSTANTIATE_TEST_SUITE_P(Suite, GoldenSuiteSelection, ::testing::Range(1, 31),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "wf" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace etlopt
