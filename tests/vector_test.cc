// Unit tests for the columnar storage layer and vectorized kernels
// (engine/column.*): selection vectors, gather, the join hash table's
// build-order grouping and probe, build-side rejects from hit marks under
// both join algorithms, dictionary encoding, copy-on-write column sharing,
// agreement with the naive reference executor, and the columnar tap feeds'
// agreement with row-at-a-time feeding.
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "engine/column.h"
#include "engine/executor.h"
#include "engine/table.h"
#include "reference_executor.h"
#include "sketch/sketch.h"
#include "sketch/tap.h"
#include "test_util.h"
#include "util/random.h"

namespace etlopt {
namespace {

TEST(BuildSelectionTest, MatchesPredicateForEveryOperator) {
  Rng rng(5);
  Column data;
  for (int i = 0; i < 500; ++i) data.push_back(rng.NextInRange(1, 40));
  for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                       CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
    const Predicate pred{0, op, 17};
    SelVector sel;
    BuildSelection(pred, data.data(), static_cast<int64_t>(data.size()),
                   &sel);
    SelVector expected;
    for (int64_t r = 0; r < static_cast<int64_t>(data.size()); ++r) {
      if (pred.Matches(data[static_cast<size_t>(r)])) expected.push_back(r);
    }
    EXPECT_EQ(sel, expected) << "op " << static_cast<int>(op);
  }
}

TEST(GatherTest, GatherColumnAndTableAgree) {
  Schema schema({0, 1});
  Table t{schema};
  for (int i = 0; i < 20; ++i) t.AddRow({i + 1, (i % 5) + 1});
  const SelVector sel{0, 3, 3, 19, 7};
  const Table picked = Table::Gather(t, sel);
  ASSERT_EQ(picked.num_rows(), 5);
  for (size_t i = 0; i < sel.size(); ++i) {
    EXPECT_EQ(picked.row(static_cast<int64_t>(i)), t.row(sel[i]));
  }
  Column col;
  GatherColumn(t.column(0), sel, &col);
  EXPECT_EQ(col, picked.column(0));
}

TEST(JoinHashTableTest, LookupReturnsBuildOrderGroups) {
  // Keys with duplicates, scattered: groups must come back contiguous and
  // in build row order (the emission-order invariant of the hash join).
  const Column keys{7, 3, 7, 9, 3, 7};
  const JoinHashTable ht(keys.data(), static_cast<int64_t>(keys.size()));
  EXPECT_EQ(ht.num_keys(), 3);
  EXPECT_EQ(ht.num_rows(), 6);

  const JoinHashTable::RowRange r7 = ht.Lookup(7);
  ASSERT_EQ(r7.size(), 3);
  EXPECT_EQ(std::vector<int64_t>(r7.begin, r7.end),
            (std::vector<int64_t>{0, 2, 5}));
  const JoinHashTable::RowRange r3 = ht.Lookup(3);
  EXPECT_EQ(std::vector<int64_t>(r3.begin, r3.end),
            (std::vector<int64_t>{1, 4}));
  const JoinHashTable::RowRange r9 = ht.Lookup(9);
  EXPECT_EQ(std::vector<int64_t>(r9.begin, r9.end),
            (std::vector<int64_t>{3}));
  EXPECT_TRUE(ht.Lookup(42).empty());
  EXPECT_TRUE(ht.Lookup(8).empty());
}

TEST(JoinHashTableTest, CapacityHintOnlyGrowsTheDirectory) {
  Rng rng(9);
  Column keys;
  for (int i = 0; i < 300; ++i) keys.push_back(rng.NextInRange(1, 50));
  const JoinHashTable plain(keys.data(), 300);
  const JoinHashTable hinted(keys.data(), 300, /*capacity_hint=*/5000);
  EXPECT_GT(hinted.capacity(), plain.capacity());
  // Results are identical either way: the hint is purely a sizing input.
  for (Value v = 1; v <= 50; ++v) {
    const JoinHashTable::RowRange a = plain.Lookup(v);
    const JoinHashTable::RowRange b = hinted.Lookup(v);
    EXPECT_EQ(std::vector<int64_t>(a.begin, a.end),
              std::vector<int64_t>(b.begin, b.end))
        << "key " << v;
  }
  // An undersized hint falls back to the row count.
  const JoinHashTable lowballed(keys.data(), 300, /*capacity_hint=*/1);
  EXPECT_EQ(lowballed.capacity(), plain.capacity());
}

TEST(JoinHashTableTest, ProbeEmitsProbeOrderAndMarksHitGroups) {
  const Column build{7, 3, 7, 9, 3, 7};
  const Column probe_keys{3, 8, 7, 3};
  const JoinHashTable ht(build.data(), static_cast<int64_t>(build.size()));
  JoinProbe probe;
  SelVector unmatched;
  std::vector<uint8_t> hits;
  ht.Probe(probe_keys.data(), static_cast<int64_t>(probe_keys.size()),
           &probe, &unmatched, &hits);
  EXPECT_EQ(probe.probe_sel, (SelVector{0, 0, 2, 2, 2, 3, 3}));
  EXPECT_EQ(probe.build_sel, (SelVector{1, 4, 0, 2, 5, 1, 4}));
  EXPECT_EQ(unmatched, (SelVector{1}));
  EXPECT_EQ(hits, (std::vector<uint8_t>{1, 1, 1, 0, 1, 1}));
  EXPECT_EQ(UnmarkedRows(hits), (SelVector{3}));
}

TEST(JoinHashTableTest, EmptyBuildSide) {
  const JoinHashTable ht(nullptr, 0);
  EXPECT_EQ(ht.num_keys(), 0);
  EXPECT_TRUE(ht.Lookup(1).empty());
}

TEST(StringDictionaryTest, InternsFirstSeenOrder) {
  StringDictionary dict;
  EXPECT_EQ(dict.Intern("red"), 1);
  EXPECT_EQ(dict.Intern("green"), 2);
  EXPECT_EQ(dict.Intern("red"), 1);  // stable on re-intern
  EXPECT_EQ(dict.Intern("blue"), 3);
  EXPECT_EQ(dict.size(), 3);
  EXPECT_EQ(dict.Find("green"), 2);
  EXPECT_EQ(dict.Find("mauve"), 0);
  EXPECT_EQ(dict.LookupId(3), "blue");
}

TEST(TableCowTest, CopySharesColumnsUntilMutation) {
  Schema schema({0, 1});
  Table a{schema};
  for (int i = 0; i < 10; ++i) a.AddRow({i, i * 2});
  Table b = a;  // shares both columns
  EXPECT_EQ(a.column_data(0), b.column_data(0));
  EXPECT_EQ(a.column_data(1), b.column_data(1));

  b.AddRow({99, 98});  // clones on first write
  EXPECT_NE(a.column_data(0), b.column_data(0));
  EXPECT_EQ(a.num_rows(), 10);
  EXPECT_EQ(b.num_rows(), 11);
  EXPECT_EQ(a.at(9, 0), 9);    // original untouched
  EXPECT_EQ(b.at(10, 0), 99);
}

TEST(TableCowTest, EqualityComparesContentNotSharing) {
  Schema schema({0});
  Table a{schema};
  a.AddRow({1});
  a.AddRow({2});
  Table shared = a;
  EXPECT_TRUE(a == shared);
  Table rebuilt{schema};
  rebuilt.AddRow({1});
  rebuilt.AddRow({2});
  EXPECT_TRUE(a == rebuilt);
  rebuilt.AddRow({3});
  EXPECT_TRUE(a != rebuilt);
}

// ---- build-side rejects from hit marks ---------------------------------

Table KeyedTable(const std::vector<Value>& keys, AttrId payload, Value base) {
  Table t{Schema({0, payload})};
  for (size_t i = 0; i < keys.size(); ++i) {
    t.AddRow({keys[i], base + static_cast<Value>(i)});
  }
  return t;
}

// Right rows whose key no left row holds, ascending.
Table NaiveBuildRejects(const Table& left, const Table& right) {
  Table rejects{right.schema()};
  for (int64_t r = 0; r < right.num_rows(); ++r) {
    bool hit = false;
    for (int64_t l = 0; l < left.num_rows(); ++l) {
      hit = hit || left.at(l, 0) == right.at(r, 0);
    }
    if (!hit) rejects.AppendRowFrom(right, r);
  }
  return rejects;
}

TEST(JoinHitMarksTest, BuildSideRejectsUnderBothAlgorithms) {
  struct Case {
    const char* name;
    std::vector<Value> probe;
    std::vector<Value> build;
  };
  const std::vector<Case> cases = {
      {"duplicates on both sides", {3, 1, 3, 5, 1, 3}, {1, 4, 3, 3, 4, 1, 6}},
      {"empty build side", {1, 2, 2}, {}},
      {"empty probe side", {}, {1, 2, 2, 5}},
      {"all rows hit", {2, 1, 2}, {1, 2, 1, 2}},
      {"no rows hit", {1, 2, 1}, {3, 4, 3}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const Table left = KeyedTable(c.probe, 1, 100);
    const Table right = KeyedTable(c.build, 2, 200);
    const Table want = NaiveBuildRejects(left, right);
    Table hash_rejects;
    Table hash_rrejects;
    const Table hash =
        HashJoin(left, right, 0, &hash_rejects, -1, &hash_rrejects);
    EXPECT_TRUE(hash_rrejects == want);
    Table merge_rejects;
    Table merge_rrejects;
    const Table merge =
        SortMergeJoin(left, right, 0, &merge_rejects, &merge_rrejects);
    EXPECT_TRUE(merge_rrejects == want);
    EXPECT_TRUE(testing_util::SameMultiset(hash, merge));
    EXPECT_TRUE(testing_util::SameMultiset(hash_rejects, merge_rejects));
  }
}

// ---- agreement with the naive reference executor ------------------------

TEST(KernelEquivalenceTest, OperatorChainBitIdentical) {
  WorkflowBuilder b("chain");
  const AttrId k = b.DeclareAttr("k", 60);
  const AttrId v = b.DeclareAttr("v", 20);
  const AttrId d = b.DeclareAttr("d", 200);
  const NodeId src = b.Source("Fact", {k, v});
  const NodeId dim = b.Source("Dim", {k});
  const NodeId f = b.Filter(src, {v, CompareOp::kLt, 15});
  const NodeId t = b.DeriveAttr(f, v, d, [](Value x) { return x * 3 + 1; });
  const NodeId j = b.Join(t, dim, k, {/*reject_link=*/true});
  const NodeId p = b.Project(j, {k, d});
  const NodeId g = b.Aggregate(p, {k});
  b.Sink(g, "out");
  Workflow wf = std::move(b).Build().value();

  Rng rng(13);
  SourceMap sources;
  Table fact{Schema({k, v})};
  for (int i = 0; i < 2000; ++i) {
    fact.AddRow({rng.NextInRange(1, 60), rng.NextInRange(1, 20)});
  }
  Table dim_t{Schema({k})};
  for (int i = 0; i < 40; ++i) dim_t.AddRow({rng.NextInRange(1, 60)});
  sources["Fact"] = std::move(fact);
  sources["Dim"] = std::move(dim_t);

  const ExecutionResult exec = Executor(&wf).Execute(sources).value();
  testing_util::ExpectMatchesReference(wf, sources, exec, "chain");
}

TEST(KernelEquivalenceTest, HashJoinWithDuplicatesAndHint) {
  // Duplicate-heavy keys on both sides: per-key fan-out emission order
  // (probe order, then build order) is what the hint must not disturb.
  Schema ls({0, 1});
  Schema rs({0, 2});
  Table left{ls};
  Table right{rs};
  Rng rng(21);
  for (int i = 0; i < 500; ++i) {
    left.AddRow({rng.NextInRange(1, 12), i});
  }
  for (int i = 0; i < 80; ++i) {
    right.AddRow({rng.NextInRange(1, 15), 1000 + i});
  }
  // Nested loops: probe rows in order, each one's matches in build order.
  Table want{Schema({0, 1, 2})};
  Table want_rejects{ls};
  for (int64_t l = 0; l < left.num_rows(); ++l) {
    bool matched = false;
    for (int64_t r = 0; r < right.num_rows(); ++r) {
      if (left.at(l, 0) != right.at(r, 0)) continue;
      want.AddRow({left.at(l, 0), left.at(l, 1), right.at(r, 1)});
      matched = true;
    }
    if (!matched) want_rejects.AppendRowFrom(left, l);
  }
  for (int64_t hint : {-1, 10, 100000}) {
    Table rejects;
    Table rrejects;
    const Table out = HashJoin(left, right, 0, &rejects, hint, &rrejects);
    EXPECT_TRUE(out == want) << "hint " << hint;
    EXPECT_TRUE(rejects == want_rejects) << "hint " << hint;
    EXPECT_TRUE(rrejects == NaiveBuildRejects(left, right)) << "hint " << hint;
  }
}

TEST(KernelEquivalenceTest, TapColumnarFeedBitIdentical) {
  Rng rng(31);
  AttrCatalog catalog;
  const AttrId a = catalog.Register("a", 100);
  const AttrId b = catalog.Register("b", 40);
  const Table t = testing_util::RandomTable(catalog, {a, b}, 3000, rng);
  std::vector<const Value*> cols{t.column_data(0), t.column_data(1)};

  sketch::TapSketchConfig config;
  config.kmv_k = 64;  // small k so the KMV saturates and truncates

  sketch::DistinctTap by_row(config);
  sketch::DistinctTap by_col(config);
  std::vector<Value> probe(2);
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    probe[0] = t.at(r, 0);
    probe[1] = t.at(r, 1);
    by_row.AddRow(probe);
  }
  by_col.AddColumns(cols, t.num_rows());
  EXPECT_EQ(by_row.Estimate(), by_col.Estimate());
  EXPECT_EQ(by_row.hll().ToJson().Dump(), by_col.hll().ToJson().Dump());

  sketch::HistTap hist_row(config);
  sketch::HistTap hist_col(config);
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    probe[0] = t.at(r, 0);
    probe[1] = t.at(r, 1);
    hist_row.AddRow(probe);
  }
  hist_col.AddColumns(cols, t.num_rows());
  EXPECT_EQ(hist_row.rows_seen(), hist_col.rows_seen());
  EXPECT_EQ(hist_row.kmv().saturated(), hist_col.kmv().saturated());
  EXPECT_EQ(hist_row.kmv().ToJson().Dump(), hist_col.kmv().ToJson().Dump());
  const AttrMask attrs = (AttrMask{1} << a) | (AttrMask{1} << b);
  EXPECT_TRUE(hist_row.Build(attrs) == hist_col.Build(attrs));
}

TEST(KernelEquivalenceTest, BuildHistogramMatchesManualCount) {
  Rng rng(41);
  AttrCatalog catalog;
  const AttrId a = catalog.Register("a", 25);
  const Table t = testing_util::RandomTable(catalog, {a}, 800, rng);
  const Histogram h = t.BuildHistogram(AttrMask{1} << a);
  std::unordered_map<Value, int64_t> manual;
  for (int64_t r = 0; r < t.num_rows(); ++r) ++manual[t.at(r, 0)];
  int64_t total = 0;
  for (const auto& [key, count] : h.buckets()) {
    ASSERT_EQ(key.size(), 1u);
    EXPECT_EQ(count, manual.at(key[0]));
    total += count;
  }
  EXPECT_EQ(total, t.num_rows());
}

}  // namespace
}  // namespace etlopt
