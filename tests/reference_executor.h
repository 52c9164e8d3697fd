#ifndef ETLOPT_TESTS_REFERENCE_EXECUTOR_H_
#define ETLOPT_TESTS_REFERENCE_EXECUTOR_H_

// A deliberately naive, row-at-a-time reference executor: the golden
// suite's oracle for the engine's kernels. It shares no kernel code with
// the engine — rows are copied one at a time, predicates are evaluated per
// row with Predicate::Matches, joins and groupings use ordered std::map /
// std::set instead of hash tables. No faults, retries, monitors or
// partitioning: it computes what each operator means, nothing more.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/executor.h"
#include "etl/workflow.h"

namespace etlopt {
namespace testing_util {

// One operator's reference result. The engine defines the row order of
// most outputs (input order, a join's probe order × build order, build
// order for build-side rejects); where it does not — aggregates (hash-map
// order) and a sort-merge join's output and left rejects (key order, ties
// unspecified) — the `*_ordered` flag is false and the tables compare as
// multisets.
struct ReferenceStep {
  Table out;
  Table rejects;   // joins: left rows without a match
  Table rrejects;  // joins: right rows whose key no left row holds
  bool out_ordered = true;
  bool rejects_ordered = true;
  int64_t rows_processed = 0;
};

class ReferenceExecutor {
 public:
  ReferenceExecutor(const Workflow& wf, const SourceMap& sources)
      : wf_(wf), sources_(sources) {}

  // Computes `node` from the published outputs of its inputs.
  ReferenceStep Step(const WorkflowNode& node) const {
    ReferenceStep step;
    step.out = Table{wf_.output_schema(node.id)};
    const auto input = [&](size_t i) -> const Table& {
      return outputs_.at(node.inputs[i]);
    };
    std::vector<Value> row;
    switch (node.kind) {
      case OpKind::kSource:
        step.out = sources_.at(node.table_name);
        break;
      case OpKind::kFilter: {
        const Table& in = input(0);
        const int col = in.schema().IndexOf(node.predicate.attr);
        for (int64_t r = 0; r < in.num_rows(); ++r) {
          if (node.predicate.Matches(in.at(r, col))) {
            step.out.AddRow(in.row(r));
          }
        }
        step.rows_processed = in.num_rows();
        break;
      }
      case OpKind::kProject: {
        const Table& in = input(0);
        for (int64_t r = 0; r < in.num_rows(); ++r) {
          row.clear();
          for (AttrId a : node.keep) {
            row.push_back(in.at(r, in.schema().IndexOf(a)));
          }
          step.out.AddRow(row);
        }
        step.rows_processed = in.num_rows();
        break;
      }
      case OpKind::kTransform: {
        const Table& in = input(0);
        const TransformSpec& t = node.transform;
        const size_t col =
            static_cast<size_t>(in.schema().IndexOf(t.input_attr));
        const bool in_place = t.output_attr == t.input_attr;
        // An aggregate UDF keeps the first row of each transformed value.
        std::set<Value> seen;
        for (int64_t r = 0; r < in.num_rows(); ++r) {
          row = in.row(r);
          const Value v = t.fn(row[col]);
          if (t.is_aggregate && !seen.insert(v).second) continue;
          if (in_place) {
            row[col] = v;
          } else {
            row.push_back(v);
          }
          step.out.AddRow(row);
        }
        step.rows_processed = in.num_rows();
        break;
      }
      case OpKind::kAggregate: {
        const Table& in = input(0);
        std::map<std::vector<Value>, int64_t> groups;
        for (int64_t r = 0; r < in.num_rows(); ++r) {
          row.clear();
          for (AttrId a : node.aggregate.group_by) {
            row.push_back(in.at(r, in.schema().IndexOf(a)));
          }
          ++groups[row];
        }
        for (const auto& [key, count] : groups) {
          row = key;
          if (node.aggregate.count_attr != kInvalidAttr) row.push_back(count);
          step.out.AddRow(row);
        }
        step.out_ordered = false;
        step.rows_processed = in.num_rows();
        break;
      }
      case OpKind::kJoin: {
        const Table& left = input(0);
        const Table& right = input(1);
        const AttrId attr = node.join.attr;
        const int lkey = left.schema().IndexOf(attr);
        const int rkey = right.schema().IndexOf(attr);
        std::map<Value, std::vector<int64_t>> build;
        for (int64_t r = 0; r < right.num_rows(); ++r) {
          build[right.at(r, rkey)].push_back(r);
        }
        step.rejects = Table{left.schema()};
        step.rrejects = Table{right.schema()};
        std::set<Value> left_keys;
        for (int64_t l = 0; l < left.num_rows(); ++l) {
          left_keys.insert(left.at(l, lkey));
          const auto it = build.find(left.at(l, lkey));
          if (it == build.end()) {
            step.rejects.AddRow(left.row(l));
            continue;
          }
          for (int64_t r : it->second) {
            row = left.row(l);
            for (int c = 0; c < right.num_columns(); ++c) {
              if (c != rkey) row.push_back(right.at(r, c));
            }
            step.out.AddRow(row);
          }
        }
        for (int64_t r = 0; r < right.num_rows(); ++r) {
          if (left_keys.count(right.at(r, rkey)) == 0) {
            step.rrejects.AddRow(right.row(r));
          }
        }
        const bool merge = node.join.algorithm == JoinAlgorithm::kSortMerge;
        step.out_ordered = !merge;
        step.rejects_ordered = !merge;
        step.rows_processed = left.num_rows() + right.num_rows();
        break;
      }
      case OpKind::kMaterialize:
      case OpKind::kSink:
        step.out = input(0);
        step.rows_processed = step.out.num_rows();
        break;
    }
    return step;
  }

  // Makes `out` the table `id`'s consumers read.
  void Publish(NodeId id, Table out) { outputs_[id] = std::move(out); }

 private:
  const Workflow& wf_;
  const SourceMap& sources_;
  std::unordered_map<NodeId, Table> outputs_;
};

// Row order of `t` sorted lexicographically by row content.
inline std::vector<int64_t> ContentOrder(const Table& t) {
  std::vector<int64_t> order(static_cast<size_t>(t.num_rows()));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    for (int c = 0; c < t.num_columns(); ++c) {
      if (t.at(a, c) != t.at(b, c)) return t.at(a, c) < t.at(b, c);
    }
    return false;
  });
  return order;
}

inline bool SameMultiset(const Table& a, const Table& b) {
  if (!(a.schema() == b.schema()) || a.num_rows() != b.num_rows()) {
    return false;
  }
  const std::vector<int64_t> ia = ContentOrder(a);
  const std::vector<int64_t> ib = ContentOrder(b);
  for (size_t i = 0; i < ia.size(); ++i) {
    for (int c = 0; c < a.num_columns(); ++c) {
      if (a.at(ia[i], c) != b.at(ib[i], c)) return false;
    }
  }
  return true;
}

inline bool SameTable(const Table& engine, const Table& reference,
                      bool ordered) {
  return ordered ? engine == reference : SameMultiset(engine, reference);
}

// Checks every node output, target and join reject table of `exec` (a run
// of `wf` over `sources`) against the reference, node by node in plan
// order. Nodes the run did not publish (past an abort) are skipped. Each
// node is computed from the engine's own, already checked, input tables:
// the reference then adopts the engine's order where the engine leaves it
// open, and holds one node's output at a time. On a completed run the
// work counters are checked too.
inline void ExpectMatchesReference(const Workflow& wf,
                                   const SourceMap& sources,
                                   const ExecutionResult& exec,
                                   const std::string& what) {
  ReferenceExecutor ref(wf, sources);
  int64_t rows_processed = 0;
  int64_t bytes_processed = 0;
  for (const WorkflowNode& node : wf.nodes()) {
    const auto it = exec.node_outputs.find(node.id);
    if (it == exec.node_outputs.end()) continue;
    const Table& engine = it->second;
    const ReferenceStep step = ref.Step(node);
    const std::string label = what + " node " + std::to_string(node.id) +
                              " (" + OpKindName(node.kind) + ")";
    EXPECT_TRUE(SameTable(engine, step.out, step.out_ordered)) << label;
    if (node.kind == OpKind::kJoin) {
      EXPECT_TRUE(SameTable(exec.join_rejects.at(node.id), step.rejects,
                            step.rejects_ordered))
          << label << " left rejects";
      EXPECT_TRUE(exec.join_rejects_right.at(node.id) == step.rrejects)
          << label << " right rejects";
    }
    if (node.kind == OpKind::kMaterialize || node.kind == OpKind::kSink) {
      EXPECT_TRUE(exec.targets.at(node.target_name) == engine)
          << label << " target " << node.target_name;
    }
    rows_processed += step.rows_processed;
    for (NodeId in : node.inputs) {
      const Table& t = exec.node_outputs.at(in);
      bytes_processed += t.num_rows() * 8 * t.schema().size();
    }
    ref.Publish(node.id, engine);
  }
  if (!exec.aborted()) {
    EXPECT_EQ(exec.rows_processed, rows_processed) << what;
    EXPECT_EQ(exec.bytes_processed, bytes_processed) << what;
  }
}

}  // namespace testing_util
}  // namespace etlopt

#endif  // ETLOPT_TESTS_REFERENCE_EXECUTOR_H_
