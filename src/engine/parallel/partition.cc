#include "engine/parallel/partition.h"

#include <algorithm>

#include "util/logging.h"

namespace etlopt {
namespace parallel {

uint64_t PartitionHashValue(Value v) {
  // splitmix64 finalizer: full-avalanche, constant-time, and stable across
  // platforms — unlike std::hash, whose result is implementation-defined.
  // Shared with the columnar join kernels (engine/column.h), so partition
  // placement and hash-table slotting agree on the same mix.
  return Hash64(v);
}

int HashPartitionIndex(Value v, int num_partitions) {
  ETLOPT_CHECK(num_partitions > 0);
  return static_cast<int>(PartitionHashValue(v) %
                          static_cast<uint64_t>(num_partitions));
}

namespace {

// `part[r]` is row r's partition. Each slice selects its rows and gathers
// them (on the pool when one is given); the selection becomes its
// row_index.
TablePartitions GatherPartitions(const Table& table,
                                 const std::vector<uint32_t>& part,
                                 int num_partitions, ThreadPool* pool) {
  std::vector<size_t> counts(static_cast<size_t>(num_partitions), 0);
  for (uint32_t p : part) ++counts[p];
  TablePartitions out;
  out.parts.resize(static_cast<size_t>(num_partitions));
  out.row_index.resize(static_cast<size_t>(num_partitions));
  auto slice = [&](int p) {
    const uint32_t up = static_cast<uint32_t>(p);
    SelVector& sel = out.row_index[up];
    // Branchless selection, as BuildSelection does it; the spare slot
    // takes the write after the last match.
    sel.resize(counts[up] + 1);
    size_t k = 0;
    for (size_t r = 0; r < part.size(); ++r) {
      sel[k] = static_cast<int64_t>(r);
      k += part[r] == up ? 1 : 0;
    }
    sel.resize(k);
    out.parts[up] = Table::Gather(table, sel);
  };
  ParallelForEach(pool, num_partitions, slice);
  return out;
}

}  // namespace

TablePartitions HashPartition(const Table& table, AttrId attr,
                              int num_partitions, ThreadPool* pool) {
  ETLOPT_CHECK(num_partitions > 0);
  const int col = table.schema().IndexOf(attr);
  ETLOPT_CHECK_MSG(col >= 0, "partition attribute missing from schema");
  const Value* keys = table.column_data(col);
  const uint64_t fan_out = static_cast<uint64_t>(num_partitions);
  std::vector<uint32_t> part(static_cast<size_t>(table.num_rows()));
  // Placement in num_partitions row ranges, one task each.
  ParallelForEach(pool, num_partitions, [&](int chunk) {
    const size_t n = part.size();
    const size_t end = n * static_cast<size_t>(chunk + 1) / fan_out;
    for (size_t r = n * static_cast<size_t>(chunk) / fan_out; r < end; ++r) {
      part[r] = static_cast<uint32_t>(PartitionHashValue(keys[r]) % fan_out);
    }
  });
  return GatherPartitions(table, part, num_partitions, pool);
}

TablePartitions RangePartition(const Table& table, AttrId attr,
                               const std::vector<Value>& upper_bounds) {
  ETLOPT_CHECK(!upper_bounds.empty());
  const int col = table.schema().IndexOf(attr);
  ETLOPT_CHECK_MSG(col >= 0, "partition attribute missing from schema");
  const int num_partitions = static_cast<int>(upper_bounds.size()) + 1;
  const Value* keys = table.column_data(col);
  std::vector<uint32_t> part(static_cast<size_t>(table.num_rows()));
  for (size_t r = 0; r < part.size(); ++r) {
    uint32_t p = static_cast<uint32_t>(upper_bounds.size());
    for (size_t b = 0; b < upper_bounds.size(); ++b) {
      if (keys[r] <= upper_bounds[b]) {
        p = static_cast<uint32_t>(b);
        break;
      }
    }
    part[r] = p;
  }
  return GatherPartitions(table, part, num_partitions, nullptr);
}

double PartitionSkew(const TablePartitions& partitions) {
  if (partitions.parts.empty()) return 0.0;
  int64_t max_rows = 0;
  int64_t total = 0;
  for (const Table& t : partitions.parts) {
    max_rows = std::max(max_rows, t.num_rows());
    total += t.num_rows();
  }
  if (total == 0) return 0.0;
  const double mean =
      static_cast<double>(total) / partitions.num_partitions();
  return static_cast<double>(max_rows) / mean;
}

}  // namespace parallel
}  // namespace etlopt
