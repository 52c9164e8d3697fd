#include "engine/parallel/parallel_executor.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "engine/parallel/partition.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "util/common.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/random.h"

namespace etlopt {
namespace parallel {
namespace {

// Where a node executes. kPre nodes run serially before the partition
// phase (sources, and chains feeding broadcast build sides); kPartitioned
// nodes run per-partition on the pool; kPost nodes run serially on the
// gathered outputs after the merge barrier.
enum class Mode : uint8_t { kPre = 0, kPartitioned, kPost };

struct NodeClass {
  Mode mode = Mode::kPre;
  // True while partition placement still equals hash(partition attr) of the
  // row's current key value — the precondition for co-partitioned joins. A
  // transform that rewrites the key in place clears it.
  bool copart = false;
};

std::vector<NodeClass> Classify(const Workflow& wf, AttrId p) {
  std::vector<NodeClass> classes(static_cast<size_t>(wf.num_nodes()));
  for (const WorkflowNode& node : wf.nodes()) {
    NodeClass cls;
    auto in_class = [&](int i) -> const NodeClass& {
      return classes[static_cast<size_t>(node.inputs[static_cast<size_t>(i)])];
    };
    switch (node.kind) {
      case OpKind::kSource:
        cls.mode = node.source_schema.Contains(p) ? Mode::kPartitioned
                                                  : Mode::kPre;
        cls.copart = cls.mode == Mode::kPartitioned;
        break;
      case OpKind::kFilter:
      case OpKind::kProject:
      case OpKind::kMaterialize:
      case OpKind::kSink:
        cls = in_class(0);
        break;
      case OpKind::kTransform:
        if (node.transform.is_aggregate) {
          // Blocking reduction whose surviving rows depend on input order:
          // runs serially on the gathered (serial-order) input.
          cls.mode =
              in_class(0).mode == Mode::kPre ? Mode::kPre : Mode::kPost;
          cls.copart = false;
        } else {
          cls = in_class(0);
          // Rewriting the partition key in place invalidates placement.
          if (node.transform.output_attr == p) cls.copart = false;
        }
        break;
      case OpKind::kAggregate:
        cls.mode = in_class(0).mode == Mode::kPre ? Mode::kPre : Mode::kPost;
        cls.copart = false;
        break;
      case OpKind::kJoin: {
        const NodeClass& left = in_class(0);
        const NodeClass& right = in_class(1);
        if (left.mode == Mode::kPre && right.mode == Mode::kPre) {
          cls.mode = Mode::kPre;
        } else if (left.mode == Mode::kPartitioned &&
                   node.join.algorithm != JoinAlgorithm::kSortMerge &&
                   ((right.mode == Mode::kPartitioned && node.join.attr == p &&
                     left.copart && right.copart) ||
                    right.mode == Mode::kPre)) {
          // Co-partitioned on the partition key, or partitioned probe
          // against a broadcast build side computed in the pre phase.
          // Sort-merge joins gather instead: their (sorted) row order is
          // kept exact by running the serial kernel.
          cls.mode = Mode::kPartitioned;
          cls.copart = left.copart;
        } else {
          cls.mode = Mode::kPost;
        }
        break;
      }
    }
    classes[static_cast<size_t>(node.id)] = cls;
  }
  return classes;
}

int CountPartitionedOperators(const Workflow& wf,
                              const std::vector<NodeClass>& classes) {
  int count = 0;
  for (const WorkflowNode& node : wf.nodes()) {
    if (node.kind != OpKind::kSource &&
        classes[static_cast<size_t>(node.id)].mode == Mode::kPartitioned) {
      ++count;
    }
  }
  return count;
}

// The candidate key that partitions the most operators wins; ties go to the
// smallest attribute id so the choice is stable run to run. Returns
// kInvalidAttr when no candidate partitions any non-source operator.
AttrId ChoosePartitionAttr(const Workflow& wf,
                           std::vector<NodeClass>* best_classes) {
  std::vector<AttrId> candidates;
  for (const WorkflowNode& node : wf.nodes()) {
    if (node.kind == OpKind::kJoin) candidates.push_back(node.join.attr);
    if (node.kind == OpKind::kSource) {
      const auto& attrs = node.source_schema.attrs();
      candidates.insert(candidates.end(), attrs.begin(), attrs.end());
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  AttrId best = kInvalidAttr;
  int best_score = 0;
  for (AttrId a : candidates) {
    std::vector<NodeClass> classes = Classify(wf, a);
    const int score = CountPartitionedOperators(wf, classes);
    if (score > best_score) {
      best_score = score;
      best = a;
      *best_classes = std::move(classes);
    }
  }
  return best;
}

// A partition-local table plus its provenance: sel[i] is the row of the
// node's primary input slice (a join's probe side, the only input
// otherwise) that row i descends from, i.e. the selection vector the
// kernel gathered with. Nodes whose rows map 1:1 onto their input
// (project, row transform, materialize, sink) leave it empty.
struct Slice {
  Table table;
  SelVector sel;
};

// Everything one partitioned node produces, one slot per partition so
// workers never contend.
struct NodeSlices {
  std::vector<Slice> out;
  std::vector<Slice> rejects;   // joins: probe rows without a match
  std::vector<Slice> rrejects;  // co-partitioned joins: unmatched build rows
  // Broadcast joins: the build table, hashed once before the partition
  // phase and probed read-only by every partition, and per partition the
  // build rows it matched (the build-side rejects are the rows no
  // partition matched).
  const Table* build = nullptr;
  std::optional<JoinHashTable> broadcast;
  int64_t build_ns = 0;
  std::vector<std::vector<uint8_t>> build_hits;
};

// Per partition: the row each slice row holds in the node's gathered
// (serial-order) output. Nodes that map rows 1:1 share their input's.
using Positions = std::shared_ptr<const std::vector<SelVector>>;

bool MapsRowsOneToOne(const WorkflowNode& node) {
  return node.kind == OpKind::kProject || node.kind == OpKind::kTransform ||
         node.kind == OpKind::kMaterialize || node.kind == OpKind::kSink;
}

// `in`'s columns, shared, with column `c` replaced by `col` (appended when
// c is one past the last column).
Table WithColumn(const Schema& schema, const Table& in, int c, ColumnPtr col) {
  std::vector<ColumnPtr> cols;
  cols.reserve(static_cast<size_t>(schema.size()));
  for (int i = 0; i < in.num_columns(); ++i) {
    cols.push_back(i == c ? col : in.shared_column(i));
  }
  if (c == in.num_columns()) cols.push_back(std::move(col));
  return Table::FromColumns(schema, std::move(cols), in.num_rows());
}

// The output column a row transform writes: its input column when in
// place, else a new last column.
int TransformColumn(const TransformSpec& t, const Schema& in_schema) {
  return t.output_attr == t.input_attr ? in_schema.IndexOf(t.input_attr)
                                       : in_schema.size();
}

Slice FilterSlice(const WorkflowNode& node, const Table& in) {
  Slice out;
  const int col = in.schema().IndexOf(node.predicate.attr);
  BuildSelection(node.predicate, in.column_data(col), in.num_rows(),
                 &out.sel);
  out.table = Table::Gather(in, out.sel);
  return out;
}

Table ProjectSlice(const WorkflowNode& node, const Schema& out_schema,
                   const Table& in) {
  std::vector<ColumnPtr> kept;
  kept.reserve(node.keep.size());
  for (AttrId a : node.keep) {
    kept.push_back(in.shared_column(in.schema().IndexOf(a)));
  }
  return Table::FromColumns(out_schema, std::move(kept), in.num_rows());
}

Table TransformSlice(const WorkflowNode& node, const Schema& out_schema,
                     const Table& in) {
  const TransformSpec& t = node.transform;
  auto mapped = std::make_shared<Column>();
  MapColumn(t.fn, in.column_data(in.schema().IndexOf(t.input_attr)),
            in.num_rows(), mapped.get());
  return WithColumn(out_schema, in, TransformColumn(t, in.schema()),
                    std::move(mapped));
}

// Partition-local hash join through the serial kernel's probe-and-gather
// step, so the emission order is the serial one: probe rows in slice
// order, each key's matches in build order. `ht` indexes `right` on the
// join key. The output's provenance is the probe selection, and `rejects`
// gets the unmatched probe rows. `hits` marks the build rows some probe
// row matched: a co-partitioned build side holds only this partition's
// keys, so its unmatched rows are the build-side rejects (`rrejects`); a
// broadcast build side (null `rrejects`) sees every partition's keys, and
// the merge barrier combines the partitions' hits instead.
void JoinSlice(const WorkflowNode& node, const Schema& out_schema,
               const Table& left, const Table& right, const JoinHashTable& ht,
               Slice* out, Slice* rejects, Slice* rrejects,
               std::vector<uint8_t>* hits) {
  JoinProbe probe;
  out->table = ProbeHashJoin(out_schema, left, right, node.join.attr, ht,
                             &probe, &rejects->sel, hits);
  out->sel = std::move(probe.probe_sel);
  rejects->table = Table::Gather(left, rejects->sel);
  if (rrejects != nullptr) {
    rrejects->sel = UnmarkedRows(*hits);
    rrejects->table = Table::Gather(right, rrejects->sel);
  }
}

// ---- merge barrier ------------------------------------------------------
// The serial kernels emit a node's rows in the order of the primary-input
// rows they descend from (a join: each probe row's matches together, in
// build order). The key of slice row i of partition p is therefore
// in_pos[p][sel[i]], that ancestor's row in the gathered input: every
// input row lives in one partition, and a slice holds all of its input
// rows' descendants, contiguously and in serial order.

// Below this many values a merge step is not worth a pool hand-off.
constexpr int64_t kPoolMergeValues = int64_t{1} << 16;

// `pool` when a merge step moves enough values to repay the hand-off,
// else null (the step runs on the calling thread).
ThreadPool* MergePool(ThreadPool* pool, int64_t values) {
  return values >= kPoolMergeValues ? pool : nullptr;
}

// Merges a node's slices into its gathered table, by counting: every
// gathered input row gets its number of descendants, an exclusive prefix
// sum turns the counts into its first output row, and each slice then
// hands out its rows' destinations in order and scatters its columns to
// them. Slices touch disjoint input and output rows, so every pass but the
// prefix sum runs on the pool. `identity` reads the slices as 1:1 with their
// input (no selection). `first_rows` is scratch reused across merges, so
// its pages are touched once per run. `dest`, when given, receives each slice
// row's destination row: the node's positions.
Table MergeSlices(const Schema& schema, const std::vector<Slice>& parts,
                  const std::vector<SelVector>& in_pos, bool identity,
                  ThreadPool* pool, std::vector<int64_t>* first_rows,
                  std::vector<SelVector>* dest = nullptr) {
  const int k = static_cast<int>(parts.size());
  size_t in_rows = 0;
  for (const SelVector& pos : in_pos) in_rows += pos.size();
  int64_t out_rows = 0;
  for (const Slice& s : parts) out_rows += s.table.num_rows();
  auto key = [&](size_t p, int64_t i) {
    const size_t row = static_cast<size_t>(
        identity ? i : parts[p].sel[static_cast<size_t>(i)]);
    return static_cast<size_t>(in_pos[p][row]);
  };
  const int num_cols = schema.size();
  ThreadPool* const by_rows = MergePool(pool, out_rows);
  ThreadPool* const by_values = MergePool(pool, out_rows * num_cols);
  // first[g]: descendants of input rows before g, then g's next free row.
  std::vector<int64_t>& first = *first_rows;
  first.assign(in_rows + 1, 0);
  ParallelForEach(by_rows, k, [&](int p) {
    const size_t sp = static_cast<size_t>(p);
    for (int64_t i = 0; i < parts[sp].table.num_rows(); ++i) {
      ++first[key(sp, i) + 1];
    }
  });
  for (size_t g = 1; g <= in_rows; ++g) first[g] += first[g - 1];

  std::vector<ColumnPtr> cols(static_cast<size_t>(num_cols));
  ParallelForEach(by_values, num_cols, [&](int c) {
    cols[static_cast<size_t>(c)] =
        std::make_shared<Column>(static_cast<size_t>(out_rows));
  });
  std::vector<SelVector> local;
  std::vector<SelVector>& to = dest != nullptr ? *dest : local;
  to.assign(static_cast<size_t>(k), SelVector());
  ParallelForEach(by_rows, k, [&](int p) {
    const size_t sp = static_cast<size_t>(p);
    SelVector& d = to[sp];
    d.resize(static_cast<size_t>(parts[sp].table.num_rows()));
    for (size_t i = 0; i < d.size(); ++i) {
      d[i] = first[key(sp, static_cast<int64_t>(i))]++;
    }
  });
  // One task per (slice, column), so a skewed slice still spreads over
  // the pool.
  ParallelForEach(by_values, k * num_cols, [&](int task) {
    const size_t sp = static_cast<size_t>(task / num_cols);
    const int c = task % num_cols;
    const SelVector& d = to[sp];
    if (d.empty()) return;
    Value* out = cols[static_cast<size_t>(c)]->data();
    const Value* in = parts[sp].table.column_data(c);
    for (size_t i = 0; i < d.size(); ++i) out[d[i]] = in[i];
  });
  return Table::FromColumns(schema, std::move(cols), out_rows);
}

// A row transform's gathered output: the gathered input's columns, shared
// as the serial kernel shares them, plus the slices' mapped column
// scattered to the input's positions.
Table GatherTransform(const WorkflowNode& node, const Schema& schema,
                      const Table& in, const std::vector<Slice>& parts,
                      const std::vector<SelVector>& in_pos) {
  const int c = TransformColumn(node.transform, in.schema());
  auto col = std::make_shared<Column>(static_cast<size_t>(in.num_rows()));
  Value* out = col->data();
  for (size_t p = 0; p < parts.size(); ++p) {
    const Value* mapped = parts[p].table.column_data(c);
    const SelVector& d = in_pos[p];
    for (size_t i = 0; i < d.size(); ++i) out[d[i]] = mapped[i];
  }
  return WithColumn(schema, in, c, std::move(col));
}

// A broadcast join's build-side rejects: the build rows no partition
// matched, in build order.
Table BroadcastBuildRejects(const Table& build,
                            const std::vector<std::vector<uint8_t>>& hits) {
  std::vector<uint8_t> hit(static_cast<size_t>(build.num_rows()), 0);
  for (const std::vector<uint8_t>& h : hits) {
    for (size_t r = 0; r < h.size(); ++r) hit[r] |= h[r];
  }
  return Table::Gather(build, UnmarkedRows(hit));
}

// One partition's view of the run: chain progress and per-node self time.
struct PartitionOutcome {
  bool completed = true;
  NodeId failed_node = kInvalidNode;
  std::vector<int64_t> self_ns;  // by node id
};

}  // namespace

ParallelExecutor::ParallelExecutor(const Workflow* workflow,
                                   ParallelOptions options)
    : wf_(workflow), options_(std::move(options)) {
  ETLOPT_CHECK(wf_ != nullptr);
}

Result<ParallelResult> ParallelExecutor::Execute(const SourceMap& sources,
                                                 ThreadPool* pool) const {
  ParallelResult pres;
  const int threads = std::max(1, options_.num_threads);
  std::vector<NodeClass> classes;
  AttrId part_attr = kInvalidAttr;
  if (threads > 1) part_attr = ChoosePartitionAttr(*wf_, &classes);
  if (threads <= 1 || part_attr == kInvalidAttr) {
    // Nothing to fan out: the serial path, bit for bit.
    Executor serial(wf_, options_.executor);
    ETLOPT_ASSIGN_OR_RETURN(pres.exec, serial.Execute(sources));
    return pres;
  }
  const int num_partitions =
      options_.num_partitions > 0 ? options_.num_partitions : threads;
  const size_t num_parts = static_cast<size_t>(num_partitions);
  const size_t num_nodes = wf_->nodes().size();
  pres.partition_attr = part_attr;
  pres.used_parallel_path = true;

  ExecutionResult& result = pres.exec;
  obs::ScopedSpan exec_span("engine.parallel_execute");
  exec_span.Arg("workflow", wf_->name());
  exec_span.Arg("nodes", static_cast<int64_t>(num_nodes));
  exec_span.Arg("workers", static_cast<int64_t>(threads));
  exec_span.Arg("partitions", static_cast<int64_t>(num_partitions));
  result.nodes_total = static_cast<int>(num_nodes);
  result.num_workers = threads;
  result.partitions_total = num_partitions;

  fault::FaultInjector* inj = fault::FaultInjector::Global();
  const bool profiling = obs::ProfilerEnabled();
  Rng backoff_rng(inj != nullptr ? inj->seed() : 0x5eedULL);
  NodeStepContext ctx;
  ctx.wf = wf_;
  ctx.sources = &sources;
  ctx.options = &options_.executor;
  ctx.inj = inj;
  ctx.profiling = profiling;
  ctx.backoff_rng = &backoff_rng;
  ctx.result = &result;

  auto cls = [&](NodeId id) -> const NodeClass& {
    return classes[static_cast<size_t>(id)];
  };
  auto copartitioned = [&](const WorkflowNode& join) {
    return cls(join.inputs[1]).mode == Mode::kPartitioned;
  };

  // ---- pre phase: sources and broadcast chains, fully serial -------------
  // Source reads keep the exact serial semantics (retry/backoff, row
  // quarantine, error-rate aborts, watermarks); a partitioned source's
  // published output is partitioned afterwards.
  for (const WorkflowNode& node : wf_->nodes()) {
    if (cls(node.id).mode == Mode::kPre ||
        (cls(node.id).mode == Mode::kPartitioned &&
         node.kind == OpKind::kSource)) {
      ETLOPT_RETURN_IF_ERROR(ExecuteNodeStep(ctx, node));
      if (result.aborted()) break;
    }
  }

  // The chain the workers run: partitioned non-source nodes in plan order.
  std::vector<const WorkflowNode*> chain;
  for (const WorkflowNode& node : wf_->nodes()) {
    if (cls(node.id).mode == Mode::kPartitioned &&
        node.kind != OpKind::kSource) {
      chain.push_back(&node);
    }
  }

  std::vector<NodeSlices> slices(num_nodes);
  std::vector<Positions> positions(num_nodes);
  std::vector<PartitionOutcome> outcomes(num_parts);
  std::optional<ThreadPool> local_pool;
  if (!result.aborted()) {
    if (pool == nullptr) {
      local_pool.emplace(threads);
      pool = &*local_pool;
    }
    // ---- partition the partitioned sources -------------------------------
    // A source's gathered output is the source table itself, so its
    // positions are the partitioner's row indices.
    const int64_t partition_start = obs::ProfileNowNs();
    result.partition_rows.assign(num_parts, 0);
    for (const WorkflowNode& node : wf_->nodes()) {
      if (node.kind != OpKind::kSource ||
          cls(node.id).mode != Mode::kPartitioned) {
        continue;
      }
      TablePartitions parts = HashPartition(result.node_outputs.at(node.id),
                                            part_attr, num_partitions, pool);
      std::vector<Slice>& out = slices[static_cast<size_t>(node.id)].out;
      out.resize(num_parts);
      for (size_t p = 0; p < num_parts; ++p) {
        result.partition_rows[p] += parts.parts[p].num_rows();
        out[p].table = std::move(parts.parts[p]);
      }
      positions[static_cast<size_t>(node.id)] =
          std::make_shared<const std::vector<SelVector>>(
              std::move(parts.row_index));
    }
    result.partition_ns = obs::ProfileNowNs() - partition_start;
    {
      int64_t max_rows = 0;
      int64_t total_rows = 0;
      for (int64_t rows : result.partition_rows) {
        max_rows = std::max(max_rows, rows);
        total_rows += rows;
      }
      result.partition_skew =
          total_rows > 0 ? static_cast<double>(max_rows) * num_partitions /
                               static_cast<double>(total_rows)
                         : 0.0;
    }
    for (const WorkflowNode* node : chain) {
      NodeSlices& ns = slices[static_cast<size_t>(node->id)];
      ns.out.resize(num_parts);
      if (node->kind != OpKind::kJoin) continue;
      ns.rejects.resize(num_parts);
      if (copartitioned(*node)) {
        ns.rrejects.resize(num_parts);
        continue;
      }
      // Broadcast build side: the full pre-phase table, hashed once.
      const int64_t build_start = profiling ? obs::ProfileNowNs() : 0;
      ns.build = &result.node_outputs.at(node->inputs[1]);
      const auto hint = options_.executor.build_rows_hints.find(node->id);
      ns.broadcast.emplace(
          ns.build->column_data(ns.build->schema().IndexOf(node->join.attr)),
          ns.build->num_rows(),
          hint != options_.executor.build_rows_hints.end() ? hint->second
                                                           : -1);
      if (profiling) ns.build_ns = obs::ProfileNowNs() - build_start;
      ns.build_hits.resize(num_parts);
    }

    // ---- partition phase: chains on the worker pool ----------------------
    const Status pf = pool->ParallelFor(num_partitions, [&](int p) -> Status {
      const size_t sp = static_cast<size_t>(p);
      PartitionOutcome& outcome = outcomes[sp];
      if (profiling) outcome.self_ns.assign(num_nodes, 0);
      obs::ScopedSpan part_span("parallel.partition");
      if (part_span.active()) {
        part_span.Arg("partition", static_cast<int64_t>(p));
      }
      const std::string part_name = std::to_string(p);
      for (const WorkflowNode* nodep : chain) {
        const WorkflowNode& node = *nodep;
        NodeSlices& ns = slices[static_cast<size_t>(node.id)];
        const Schema& out_schema = wf_->output_schema(node.id);
        auto input = [&](int i) -> const Table& {
          const NodeId in = node.inputs[static_cast<size_t>(i)];
          return slices[static_cast<size_t>(in)].out[sp].table;
        };
        obs::ScopedSpan op_span(OpKindName(node.kind));
        int64_t start_ns = 0;
        if (profiling) start_ns = obs::ProfileNowNs();
        Slice out;
        Slice rejects;
        Slice rrejects;
        std::vector<uint8_t> hits;
        switch (node.kind) {
          case OpKind::kFilter:
            out = FilterSlice(node, input(0));
            break;
          case OpKind::kProject:
            out.table = ProjectSlice(node, out_schema, input(0));
            break;
          case OpKind::kTransform:
            out.table = TransformSlice(node, out_schema, input(0));
            break;
          case OpKind::kMaterialize:
          case OpKind::kSink:
            out.table = input(0);
            break;
          case OpKind::kJoin:
            if (ns.broadcast.has_value()) {
              JoinSlice(node, out_schema, input(0), *ns.build, *ns.broadcast,
                        &out, &rejects, nullptr, &hits);
            } else {
              const Table& right = input(1);
              const JoinHashTable ht(
                  right.column_data(right.schema().IndexOf(node.join.attr)),
                  right.num_rows());
              JoinSlice(node, out_schema, input(0), right, ht, &out, &rejects,
                        &rrejects, &hits);
            }
            break;
          case OpKind::kSource:
          case OpKind::kAggregate:
            ETLOPT_CHECK_MSG(false, "node kind cannot run partitioned");
            break;
        }
        if (profiling) {
          outcome.self_ns[static_cast<size_t>(node.id)] =
              obs::ProfileNowNs() - start_ns;
        }
        if (op_span.active()) {
          op_span.Arg("node", static_cast<int64_t>(node.id));
          op_span.Arg("partition", static_cast<int64_t>(p));
          op_span.Arg("rows_out", out.table.num_rows());
        }
        // Partition-scoped crash faults mirror the serial crash point:
        // after the operator ran, before its slice is published — the
        // partition's salvage surface is its completed prefix.
        if (inj != nullptr) {
          int64_t slice_rows_in = 0;
          for (size_t i = 0; i < node.inputs.size(); ++i) {
            if (cls(node.inputs[i]).mode == Mode::kPartitioned) {
              slice_rows_in += input(static_cast<int>(i)).num_rows();
            }
          }
          if (inj->OnPartition(part_name, std::max<int64_t>(
                                              slice_rows_in, 1)) ==
              fault::Kind::kCrash) {
            outcome.completed = false;
            outcome.failed_node = node.id;
            return Status::OK();
          }
        }
        ns.out[sp] = std::move(out);
        if (node.kind == OpKind::kJoin) {
          ns.rejects[sp] = std::move(rejects);
          if (ns.broadcast.has_value()) {
            ns.build_hits[sp] = std::move(hits);
          } else {
            ns.rrejects[sp] = std::move(rrejects);
          }
        }
      }
      return Status::OK();
    });
    ETLOPT_RETURN_IF_ERROR(pf);
  }

  // Earliest partition failure (by chain position, then partition index):
  // the run's abort point.
  bool partition_crashed = false;
  NodeId crash_node = kInvalidNode;
  int crash_partition = -1;
  for (int p = 0; p < num_partitions; ++p) {
    const PartitionOutcome& o = outcomes[static_cast<size_t>(p)];
    if (o.completed) {
      ++result.partitions_completed;
    } else if (!partition_crashed || o.failed_node < crash_node) {
      partition_crashed = true;
      crash_node = o.failed_node;
      crash_partition = p;
    }
  }
  if (result.aborted()) result.partitions_completed = 0;

  // Merges still to read each node's positions; a node's positions are
  // dropped once its last consumer has merged.
  std::vector<int> uses(num_nodes, 0);
  for (const WorkflowNode* node : chain) {
    ++uses[static_cast<size_t>(node->inputs[0])];
    if (node->kind == OpKind::kJoin && copartitioned(*node)) {
      ++uses[static_cast<size_t>(node->inputs[1])];
    }
  }
  auto release = [&](NodeId id) {
    if (--uses[static_cast<size_t>(id)] == 0) {
      positions[static_cast<size_t>(id)].reset();
    }
  };

  // ---- merge barrier + post phase, interleaved in plan order -------------
  std::vector<int64_t> first_rows;  // MergeSlices scratch
  if (!result.aborted()) {
    for (const WorkflowNode& node : wf_->nodes()) {
      const NodeClass& c = cls(node.id);
      if (c.mode == Mode::kPre ||
          (c.mode == Mode::kPartitioned && node.kind == OpKind::kSource)) {
        continue;
      }
      if (partition_crashed && node.id >= crash_node && !result.aborted()) {
        AbortRun(ctx, AbortKind::kCrash,
                 "injected crash fault at partition " +
                     std::to_string(crash_partition) + " (" +
                     OpFaultName(wf_->node(crash_node)) + ")",
                 wf_->node(crash_node));
      }
      if (result.aborted() && !partition_crashed) {
        // An operator-scoped abort (injected crash or guard monitor, both
        // fired from FinishNodeStep on a gathered output) deliberately
        // leaves the failed node unpublished, so downstream nodes have no
        // merge surface: the salvage stops at the completed prefix.
        continue;
      }
      if (c.mode == Mode::kPost) {
        if (result.aborted()) continue;
        ETLOPT_RETURN_IF_ERROR(ExecuteNodeStep(ctx, node));
        continue;
      }
      // Partitioned node: gather its slices back into the serial row order.
      // After a partition crash some slices are missing, so every node
      // merges from its slices; otherwise a 1:1 node is built from its
      // gathered input as the serial kernel builds it.
      const bool partial = result.aborted();
      const int64_t merge_start = obs::ProfileNowNs();
      NodeSlices& ns = slices[static_cast<size_t>(node.id)];
      const NodeId left = node.inputs[0];
      const Positions& in_pos = positions[static_cast<size_t>(left)];
      Positions& pos = positions[static_cast<size_t>(node.id)];
      Table gathered;
      Table rejects;
      Table rrejects;
      bool computed = false;  // ComputeNodeOutput did the bookkeeping
      if (!partial && MapsRowsOneToOne(node)) {
        pos = in_pos;
        if (node.kind == OpKind::kTransform) {
          gathered = GatherTransform(node, wf_->output_schema(node.id),
                                     result.node_outputs.at(left), ns.out,
                                     *in_pos);
        } else {
          ETLOPT_RETURN_IF_ERROR(ComputeNodeOutput(ctx, node, &gathered));
          computed = true;
        }
      } else {
        std::vector<SelVector> dest;
        gathered = MergeSlices(wf_->output_schema(node.id), ns.out, *in_pos,
                               MapsRowsOneToOne(node), pool, &first_rows,
                               &dest);
        pos = std::make_shared<const std::vector<SelVector>>(std::move(dest));
        if (node.kind == OpKind::kJoin) {
          rejects = MergeSlices(wf_->output_schema(left), ns.rejects, *in_pos,
                                false, pool, &first_rows);
          const NodeId right = node.inputs[1];
          rrejects = ns.broadcast.has_value()
                         ? BroadcastBuildRejects(*ns.build, ns.build_hits)
                         : MergeSlices(wf_->output_schema(right), ns.rrejects,
                                       *positions[static_cast<size_t>(right)],
                                       false, pool, &first_rows);
        }
      }
      // The node's provenance and join side tables are spent; its slice
      // tables stay for the taps.
      for (Slice& s : ns.out) s.sel = SelVector();
      ns.rejects.clear();
      ns.rrejects.clear();
      ns.build_hits.clear();
      ns.broadcast.reset();
      release(left);
      if (node.kind == OpKind::kJoin && copartitioned(node)) {
        release(node.inputs[1]);
      }
      if (uses[static_cast<size_t>(node.id)] == 0) pos.reset();
      result.merge_ns += obs::ProfileNowNs() - merge_start;

      if (!partial) {
        if (node.kind == OpKind::kJoin) {
          result.join_rejects[node.id] = std::move(rejects);
          result.join_rejects_right[node.id] = std::move(rrejects);
        }
        if (!computed) {
          // The serial kernels' bookkeeping: every partitioned kind
          // processes exactly its input rows.
          for (NodeId in : node.inputs) {
            result.rows_processed += result.node_outputs.at(in).num_rows();
          }
        }
        int64_t self_ns = ns.build_ns;
        if (profiling) {
          for (const PartitionOutcome& o : outcomes) {
            if (!o.self_ns.empty()) {
              self_ns += o.self_ns[static_cast<size_t>(node.id)];
            }
          }
        }
        FinishNodeStep(ctx, node, std::move(gathered), self_ns);
      } else if (partition_crashed) {
        // Salvage: publish what the completed partitions produced — the
        // partition-granular analog of the serial completed-prefix rule.
        result.node_outputs[node.id] = std::move(gathered);
        if (node.kind == OpKind::kJoin) {
          result.join_rejects[node.id] = std::move(rejects);
          result.join_rejects_right[node.id] = std::move(rrejects);
        }
        ++result.nodes_partial;
      }
    }
  }

  if (result.aborted() && exec_span.active()) {
    exec_span.Arg("abort", AbortKindName(result.abort_kind));
    exec_span.Arg("nodes_completed",
                  static_cast<int64_t>(result.nodes_completed));
  }
  ETLOPT_COUNTER_ADD("etlopt.engine.executions", 1);
  ETLOPT_COUNTER_ADD("etlopt.engine.rows_processed", result.rows_processed);
  ETLOPT_COUNTER_ADD("etlopt.engine.bytes_processed", result.bytes_processed);
  ETLOPT_COUNTER_ADD("etlopt.parallel.partition_ns", result.partition_ns);
  ETLOPT_COUNTER_ADD("etlopt.parallel.merge_ns", result.merge_ns);
  ETLOPT_GAUGE_SET("etlopt.parallel.workers", result.num_workers);
  ETLOPT_GAUGE_SET("etlopt.parallel.partitions", result.partitions_total);
  ETLOPT_GAUGE_SET("etlopt.parallel.skew", result.partition_skew);

  // Hand the slices to the caller (the per-partition tap surface).
  for (size_t id = 0; id < num_nodes; ++id) {
    std::vector<Slice>& out = slices[id].out;
    if (out.empty()) continue;
    std::vector<Table>& tables = pres.slices[static_cast<NodeId>(id)];
    tables.reserve(num_parts);
    for (Slice& s : out) tables.push_back(std::move(s.table));
  }
  return pres;
}

}  // namespace parallel
}  // namespace etlopt
