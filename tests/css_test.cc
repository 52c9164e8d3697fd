#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "css/generator.h"
#include "test_util.h"

namespace etlopt {
namespace {

struct PaperCss : ::testing::Test {
  void SetUp() override {
    ex = testing_util::MakePaperExample();
    const std::vector<Block> blocks = PartitionBlocks(ex.workflow);
    ASSERT_EQ(blocks.size(), 1u);
    ctx = BlockContext::Build(&ex.workflow, blocks[0]).value();
    ps = PlanSpace::Build(ctx).value();
  }

  // Finds a CSS of `target` whose inputs (as a set) equal `inputs`.
  static bool HasCss(const CssCatalog& catalog, const StatKey& target,
                     std::vector<StatKey> inputs) {
    const int t = catalog.IndexOf(target);
    if (t < 0) return false;
    for (int c : catalog.css_of(t)) {
      std::vector<StatKey> got = catalog.entry(c).inputs;
      if (got.size() != inputs.size()) continue;
      bool all = true;
      for (const StatKey& want : inputs) {
        if (std::find(got.begin(), got.end(), want) == got.end()) {
          all = false;
          break;
        }
      }
      if (all) return true;
    }
    return false;
  }

  testing_util::PaperExample ex;
  BlockContext ctx;
  PlanSpace ps;
};

// Section 4.3 walk-through: rels O=0b001, P=0b010, C=0b100.
TEST_F(PaperCss, J1GeneratesJoinAttributeHistogramCss) {
  const CssCatalog catalog = GenerateCss(ctx, ps, {});
  const AttrMask pid = AttrMask{1} << ex.prod_id;
  const AttrMask cid = AttrMask{1} << ex.cust_id;
  // |OPC| <- {H^cid_OP, H^cid_C} via plan (OP, C).
  EXPECT_TRUE(HasCss(catalog, StatKey::Card(0b111),
                     {StatKey::Hist(0b011, cid), StatKey::Hist(0b100, cid)}));
  // |OPC| <- {H^pid_OC, H^pid_P} via plan (OC, P).
  EXPECT_TRUE(HasCss(catalog, StatKey::Card(0b111),
                     {StatKey::Hist(0b101, pid), StatKey::Hist(0b010, pid)}));
  // |OP| <- {H^pid_O, H^pid_P}.
  EXPECT_TRUE(HasCss(catalog, StatKey::Card(0b011),
                     {StatKey::Hist(0b001, pid), StatKey::Hist(0b010, pid)}));
}

TEST_F(PaperCss, J2GeneratesJointDistributionCss) {
  const CssCatalog catalog = GenerateCss(ctx, ps, {});
  const AttrMask pid = AttrMask{1} << ex.prod_id;
  const AttrMask cid = AttrMask{1} << ex.cust_id;
  // H^pid_OC <- {H^{pid,cid}_O, H^cid_C} (rule J2, Section 4.3).
  EXPECT_TRUE(HasCss(catalog, StatKey::Hist(0b101, pid),
                     {StatKey::Hist(0b001, pid | cid),
                      StatKey::Hist(0b100, cid)}));
  // H^cid_OP <- {H^{cid,pid}_O, H^pid_P}.
  EXPECT_TRUE(HasCss(catalog, StatKey::Hist(0b011, cid),
                     {StatKey::Hist(0b001, pid | cid),
                      StatKey::Hist(0b010, pid)}));
}

TEST_F(PaperCss, UnionDivisionGeneratesJ4J5) {
  CssGenOptions with_ud;
  with_ud.enable_union_division = true;
  const CssCatalog catalog = GenerateCss(ctx, ps, with_ud);
  const AttrMask pid = AttrMask{1} << ex.prod_id;
  // |OC| via union-division: O's next designed partner is P; OCP == full is
  // on-path. Inputs: H^pid_OPC, H^pid_P, |reject(O wrt P) ⋈ C|.
  EXPECT_TRUE(HasCss(catalog, StatKey::Card(0b101),
                     {StatKey::Hist(0b111, pid), StatKey::Hist(0b010, pid),
                      StatKey::RejectJoinCard(0b001, 1, 0b100)}));
}

TEST_F(PaperCss, UnionDivisionCanBeDisabled) {
  CssGenOptions no_ud;
  no_ud.enable_union_division = false;
  const CssCatalog catalog = GenerateCss(ctx, ps, no_ud);
  for (int c = 0; c < catalog.num_css(); ++c) {
    EXPECT_NE(catalog.entry(c).rule, RuleId::kJ4);
    EXPECT_NE(catalog.entry(c).rule, RuleId::kJ5);
  }
  // And no reject statistics should exist at all.
  for (int s = 0; s < catalog.num_stats(); ++s) {
    EXPECT_FALSE(catalog.stat(s).is_reject());
  }
}

TEST_F(PaperCss, UnionDivisionAddsCss) {
  CssGenOptions no_ud;
  no_ud.enable_union_division = false;
  const CssCatalog without = GenerateCss(ctx, ps, no_ud);
  const CssCatalog with = GenerateCss(ctx, ps, {});
  EXPECT_GT(with.num_css(), without.num_css());
}

TEST_F(PaperCss, IdentityRulesOnlyUseExistingStats) {
  const CssCatalog catalog = GenerateCss(ctx, ps, {});
  const AttrMask pid = AttrMask{1} << ex.prod_id;
  const AttrMask cid = AttrMask{1} << ex.cust_id;
  // I1: |O| <- {H^{pid,cid}_O} — that histogram exists from J2 recursion.
  EXPECT_TRUE(HasCss(catalog, StatKey::Card(0b001),
                     {StatKey::Hist(0b001, pid | cid)}));
  // I2: H^pid_O <- {H^{pid,cid}_O}.
  EXPECT_TRUE(HasCss(catalog, StatKey::Hist(0b001, pid),
                     {StatKey::Hist(0b001, pid | cid)}));
  // The identity pass must not have invented new statistics: every stat in
  // a CSS target/input set is in the catalog by construction, and no
  // histogram with attributes outside the schema exists.
  for (int s = 0; s < catalog.num_stats(); ++s) {
    const StatKey& key = catalog.stat(s);
    if (key.kind == StatKind::kHist) {
      EXPECT_TRUE(IsSubset(key.attrs, ctx.SchemaMask(key.rels)))
          << key.ToString(&ex.workflow.catalog());
    }
  }
}

TEST_F(PaperCss, EveryRequiredCardHasTrivialOrDerivedPath) {
  const CssCatalog catalog = GenerateCss(ctx, ps, {});
  for (RelMask se : ps.subexpressions()) {
    EXPECT_GE(catalog.IndexOf(StatKey::Card(se)), 0);
  }
}

TEST(CssChainTest, FilterRulesS1S2) {
  WorkflowBuilder b("chain");
  const AttrId k = b.DeclareAttr("k", 10);
  const AttrId x = b.DeclareAttr("x", 10);
  const NodeId a = b.Source("A", {k, x});
  const NodeId f = b.Filter(a, {x, CompareOp::kLt, 5});
  const NodeId d = b.Source("D", {k});
  const NodeId j = b.Join(f, d, k);
  b.Sink(j, "out");
  Workflow wf = std::move(b).Build().value();
  const std::vector<Block> blocks = PartitionBlocks(wf);
  const BlockContext ctx = BlockContext::Build(&wf, blocks[0]).value();
  const PlanSpace ps = PlanSpace::Build(ctx).value();
  const CssCatalog catalog = GenerateCss(ctx, ps, {});

  const AttrMask kbit = AttrMask{1} << k;
  const AttrMask xbit = AttrMask{1} << x;
  // |A_filtered| (singleton top of rel 0) <- S1 {H^x at stage 0}.
  EXPECT_TRUE(PaperCss::HasCss(catalog, StatKey::Card(0b01),
                               {StatKey::HistStage(0, 0, xbit)}));
  // H^k of the filtered top <- S2 {H^{k,x} at stage 0}.
  EXPECT_TRUE(PaperCss::HasCss(catalog, StatKey::Hist(0b01, kbit),
                               {StatKey::HistStage(0, 0, kbit | xbit)}));
}

TEST(CssChainTest, GroupByRulesG1G2) {
  WorkflowBuilder b("g");
  const AttrId k = b.DeclareAttr("k", 10);
  const AttrId x = b.DeclareAttr("x", 10);
  const NodeId a = b.Source("A", {k, x});
  const NodeId g = b.Aggregate(a, {k});
  const NodeId d = b.Source("D", {k});
  const NodeId j = b.Join(g, d, k);
  b.Sink(j, "out");
  Workflow wf = std::move(b).Build().value();
  const std::vector<Block> blocks = PartitionBlocks(wf);
  ASSERT_EQ(blocks.size(), 1u);
  const BlockContext ctx = BlockContext::Build(&wf, blocks[0]).value();
  const PlanSpace ps = PlanSpace::Build(ctx).value();
  const CssCatalog catalog = GenerateCss(ctx, ps, {});
  const AttrMask kbit = AttrMask{1} << k;
  (void)x;
  // G1: |G(A,k)| <- {D^k at stage 0}.
  EXPECT_TRUE(PaperCss::HasCss(catalog, StatKey::Card(0b01),
                               {StatKey::DistinctStage(0, 0, kbit)}));
  // G2: H^k of group-by output <- {H^k at stage 0}.
  EXPECT_TRUE(PaperCss::HasCss(catalog, StatKey::Hist(0b01, kbit),
                               {StatKey::HistStage(0, 0, kbit)}));
  // D1 identity: D^k at stage 0 <- {H^k at stage 0}.
  EXPECT_TRUE(PaperCss::HasCss(catalog, StatKey::DistinctStage(0, 0, kbit),
                               {StatKey::HistStage(0, 0, kbit)}));
}

TEST(CssFkTest, FkRuleGeneratesCardShortcut) {
  WorkflowBuilder b("fk");
  const AttrId k = b.DeclareAttr("k", 100);
  const AttrId k2 = b.DeclareAttr("k2", 100);
  const NodeId fact = b.Source("F", {k, k2});
  const NodeId dim = b.Source("D", {k});
  const NodeId dim2 = b.Source("D2", {k2});
  JoinOptions fk;
  fk.fk_lookup = true;
  const NodeId j1 = b.Join(fact, dim, k, fk);
  const NodeId j2 = b.Join(j1, dim2, k2, fk);
  b.Sink(j2, "out");
  Workflow wf = std::move(b).Build().value();
  const std::vector<Block> blocks = PartitionBlocks(wf);
  const BlockContext ctx = BlockContext::Build(&wf, blocks[0]).value();
  const PlanSpace ps = PlanSpace::Build(ctx).value();
  const CssCatalog catalog = GenerateCss(ctx, ps, {});
  // |F ⋈ D| = |F| via the FK shortcut (rel 0 = F, rel 1 = D).
  EXPECT_TRUE(PaperCss::HasCss(catalog, StatKey::Card(0b011),
                               {StatKey::Card(0b001)}));
  // And the full SE via |F ⋈ D2|.
  EXPECT_TRUE(PaperCss::HasCss(catalog, StatKey::Card(0b111),
                               {StatKey::Card(0b101)}));

  CssGenOptions no_fk;
  no_fk.enable_fk_rules = false;
  const CssCatalog without = GenerateCss(ctx, ps, no_fk);
  EXPECT_FALSE(PaperCss::HasCss(without, StatKey::Card(0b011),
                                {StatKey::Card(0b001)}));
}

// Duplicate CSSs are detected on the input multiset: a repeated input makes
// a different CSS, input order does not. The graph views keep each input
// once.
TEST(CssCatalogTest, DeduplicatesOnInputMultiset) {
  const StatKey a = StatKey::Card(0b001);
  const StatKey b = StatKey::Card(0b010);
  const StatKey t = StatKey::Card(0b011);
  CssCatalog catalog;
  auto add = [&](std::vector<StatKey> inputs) {
    CssEntry e;
    e.rule = RuleId::kJ1;
    e.target = t;
    e.inputs = std::move(inputs);
    catalog.AddCss(std::move(e));
  };
  add({a, a});
  add({a});
  add({a, a});     // duplicate of the first
  add({a, a, b});
  add({b, a, b});  // different multiplicities: kept
  add({a, b, a});  // duplicate of {a, a, b}
  add({b, a});
  add({a, b});     // duplicate of {b, a}
  ASSERT_EQ(catalog.num_css(), 5);
  const int ia = catalog.IndexOf(a);
  const int ib = catalog.IndexOf(b);
  const auto vec = [](std::span<const int> in) {
    return std::vector<int>(in.begin(), in.end());
  };
  EXPECT_EQ(vec(catalog.css_inputs(0)), (std::vector<int>{ia, ia}));
  EXPECT_EQ(vec(catalog.css_inputs(1)), (std::vector<int>{ia}));
  EXPECT_EQ(vec(catalog.css_inputs(3)), (std::vector<int>{ib, ia, ib}));
  EXPECT_EQ(vec(catalog.css_inputs(4)), (std::vector<int>{ib, ia}));
  EXPECT_EQ(vec(catalog.css_distinct_inputs(0)), (std::vector<int>{ia}));
  EXPECT_EQ(vec(catalog.css_distinct_inputs(1)), (std::vector<int>{ia}));
  EXPECT_EQ(vec(catalog.css_distinct_inputs(2)), (std::vector<int>{ia, ib}));
  EXPECT_EQ(vec(catalog.css_distinct_inputs(3)), (std::vector<int>{ia, ib}));
  EXPECT_EQ(vec(catalog.css_distinct_inputs(4)), (std::vector<int>{ia, ib}));
  EXPECT_EQ(catalog.consumers_of(ia), (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(catalog.consumers_of(ib), (std::vector<int>{2, 3, 4}));
  EXPECT_TRUE(catalog.consumers_of(catalog.IndexOf(t)).empty());
  EXPECT_EQ(catalog.css_of(catalog.IndexOf(t)),
            (std::vector<int>{0, 1, 2, 3, 4}));
}

}  // namespace
}  // namespace etlopt
