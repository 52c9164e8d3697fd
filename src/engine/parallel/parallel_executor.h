#ifndef ETLOPT_ENGINE_PARALLEL_PARALLEL_EXECUTOR_H_
#define ETLOPT_ENGINE_PARALLEL_PARALLEL_EXECUTOR_H_

#include <unordered_map>
#include <vector>

#include "engine/executor.h"
#include "util/thread_pool.h"

namespace etlopt {
namespace parallel {

// Knobs of one partitioned execution. The serial ExecutorOptions ride along
// unchanged: retry, quarantine, and error-rate semantics are identical on
// both paths (sources are always read serially, see below).
struct ParallelOptions {
  // Worker threads; <= 1 delegates to the serial Executor outright.
  int num_threads = 1;
  // Partition fan-out; 0 = one partition per worker. Output is bit-identical
  // for every partition count, so this only shapes load balance — pin it
  // when comparing runs that must consult partition-scoped faults alike.
  int num_partitions = 0;
  ExecutorOptions executor;
};

// What a partitioned run produces beyond the serial ExecutionResult: the
// per-partition output slices of every node that ran partitioned (sources
// included) — the surface the instrumentation layer taps partition-locally
// and merges, instead of re-scanning the gathered tables single-threaded.
// A partition that crashed contributes no slice from its failure node on.
struct ParallelResult {
  ExecutionResult exec;
  std::unordered_map<NodeId, std::vector<Table>> slices;
  AttrId partition_attr = kInvalidAttr;
  // False when the run delegated to the serial executor (num_threads <= 1,
  // or no partitionable operator chain under any candidate key).
  bool used_parallel_path = false;
};

// Partition-driven parallel executor.
//
// Plan shape: one partition attribute is chosen (the candidate key that
// partitions the most operators); sources carrying it are hash-partitioned
// after a fully serial read (so retry/quarantine semantics are untouched);
// filter/project/row-transform chains, co-partitioned hash joins on that
// key, and hash joins whose build side is a serial ("broadcast") chain run
// partition-local on the worker pool; blocking operators (aggregates,
// aggregate UDF transforms) and sort-merge joins gather first and run
// serially, exactly like every node does on the serial path.
//
// Determinism and equivalence: partition placement is a pure hash of the
// key value, and every partition-local row carries its provenance (the row
// of its primary input slice it descends from). The serial kernels emit
// rows in the order of the input rows they descend from, so the merge
// barrier reassembles each node from its input's gathered positions in the
// serial executor's emission order — node outputs, targets, reject tables,
// and therefore every observed statistic are bit-identical to a serial
// run, for any worker or partition count. (One caveat: a co-partitioned
// join always uses the hash kernel, so joins explicitly planned as
// sort-merge gather instead of partitioning, keeping even their row order
// exact.)
//
// Failure semantics mirror the serial executor, partition-granular: a
// partition-scoped crash ("partition:1:crash") drops that partition from
// its failure node onward, the merge barrier gathers the completed
// partitions into partial node outputs (nodes_partial / partition_rows
// watermarks record the salvage surface), and the run aborts with kCrash
// before any downstream serial node runs.
class ParallelExecutor {
 public:
  explicit ParallelExecutor(const Workflow* workflow,
                            ParallelOptions options = {});

  // Runs the workflow. `pool` lets a caller amortize worker threads across
  // runs; null spins up a pool for this execution only.
  Result<ParallelResult> Execute(const SourceMap& sources,
                                 ThreadPool* pool = nullptr) const;

  const ParallelOptions& options() const { return options_; }

 private:
  const Workflow* wf_;
  ParallelOptions options_;
};

}  // namespace parallel
}  // namespace etlopt

#endif  // ETLOPT_ENGINE_PARALLEL_PARALLEL_EXECUTOR_H_
