#include "engine/column.h"

#include "util/logging.h"

namespace etlopt {

void SetVectorizedKernels(bool on) {
  ETLOPT_CHECK_MSG(on, "the row-at-a-time kernels were removed; only the "
                       "vectorized engine remains");
}

namespace {

// Branchless selection: always write the row index, advance the cursor by
// the comparison result. No per-element branch to mispredict, so the loop
// runs at memory speed regardless of selectivity.
template <typename Cmp>
int64_t SelectInto(const Value* data, int64_t n, int64_t* out, Cmp cmp) {
  int64_t k = 0;
  for (int64_t i = 0; i < n; ++i) {
    out[k] = i;
    k += static_cast<int64_t>(cmp(data[i]));
  }
  return k;
}

}  // namespace

void BuildSelection(const Predicate& pred, const Value* data, int64_t n,
                    SelVector* sel) {
  const size_t base = sel->size();
  sel->resize(base + static_cast<size_t>(n));
  int64_t* out = sel->data() + base;
  const Value c = pred.constant;
  int64_t k = 0;
  switch (pred.op) {
    case CompareOp::kEq:
      k = SelectInto(data, n, out, [c](Value v) { return v == c; });
      break;
    case CompareOp::kNe:
      k = SelectInto(data, n, out, [c](Value v) { return v != c; });
      break;
    case CompareOp::kLt:
      k = SelectInto(data, n, out, [c](Value v) { return v < c; });
      break;
    case CompareOp::kLe:
      k = SelectInto(data, n, out, [c](Value v) { return v <= c; });
      break;
    case CompareOp::kGt:
      k = SelectInto(data, n, out, [c](Value v) { return v > c; });
      break;
    case CompareOp::kGe:
      k = SelectInto(data, n, out, [c](Value v) { return v >= c; });
      break;
  }
  sel->resize(base + static_cast<size_t>(k));
}

void GatherColumn(const Column& src, const SelVector& sel, Column* out) {
  out->resize(sel.size());
  Value* dst = out->data();
  const Value* in = src.data();
  for (size_t i = 0; i < sel.size(); ++i) {
    dst[i] = in[sel[i]];
  }
}

void MapColumn(const std::function<Value(Value)>& fn, const Value* in,
               int64_t n, Column* out) {
  out->resize(static_cast<size_t>(n));
  Value* dst = out->data();
  for (int64_t i = 0; i < n; ++i) {
    dst[i] = fn(in[i]);
  }
}

JoinHashTable::JoinHashTable(const Value* keys, int64_t n,
                             int64_t capacity_hint) {
  // Slot directory sized for ~50% max load over the larger of the actual
  // row count and the predicted cardinality (the hint can only grow it;
  // correctness never depends on the prediction).
  const int64_t target = capacity_hint > n ? capacity_hint : n;
  uint64_t cap = 16;
  while (cap < 2 * static_cast<uint64_t>(target > 0 ? target : 1)) cap <<= 1;
  mask_ = cap - 1;
  slot_group_.assign(cap, -1);

  // Pass 1: one hash per build row, linear probing into the slot
  // directory; first occurrence of a key opens its group.
  std::vector<int64_t> group_of(static_cast<size_t>(n));
  std::vector<int64_t> counts;
  for (int64_t r = 0; r < n; ++r) {
    const Value key = keys[r];
    uint64_t slot = Hash64(key) & mask_;
    int64_t gid;
    for (;;) {
      gid = slot_group_[slot];
      if (gid < 0) {
        gid = static_cast<int64_t>(group_key_.size());
        group_key_.push_back(key);
        counts.push_back(0);
        slot_group_[slot] = gid;
        break;
      }
      if (group_key_[static_cast<size_t>(gid)] == key) break;
      slot = (slot + 1) & mask_;
    }
    ++counts[static_cast<size_t>(gid)];
    group_of[static_cast<size_t>(r)] = gid;
  }

  // Pass 2: prefix-sum the group sizes and scatter row ids, so each group's
  // rows land contiguously and keep ascending (build) order.
  group_start_.resize(group_key_.size() + 1, 0);
  for (size_t g = 0; g < counts.size(); ++g) {
    group_start_[g + 1] = group_start_[g] + counts[g];
  }
  std::vector<int64_t> cursor(group_start_.begin(), group_start_.end() - 1);
  row_ids_.resize(static_cast<size_t>(n));
  for (int64_t r = 0; r < n; ++r) {
    row_ids_[static_cast<size_t>(
        cursor[static_cast<size_t>(group_of[static_cast<size_t>(r)])]++)] = r;
  }
}

JoinHashTable::RowRange JoinHashTable::Lookup(Value key) const {
  uint64_t slot = Hash64(key) & mask_;
  for (;;) {
    const int64_t gid = slot_group_[slot];
    if (gid < 0) return {};
    if (group_key_[static_cast<size_t>(gid)] == key) {
      const int64_t* base = row_ids_.data();
      return {base + group_start_[static_cast<size_t>(gid)],
              base + group_start_[static_cast<size_t>(gid) + 1]};
    }
    slot = (slot + 1) & mask_;
  }
}

void JoinHashTable::Probe(const Value* keys, int64_t n, JoinProbe* out,
                          SelVector* unmatched,
                          std::vector<uint8_t>* build_hits) const {
  out->probe_sel.clear();
  out->build_sel.clear();
  if (unmatched != nullptr) unmatched->clear();
  out->probe_sel.reserve(static_cast<size_t>(n));
  out->build_sel.reserve(static_cast<size_t>(n));
  if (build_hits != nullptr) build_hits->assign(row_ids_.size(), 0);
  for (int64_t l = 0; l < n; ++l) {
    const RowRange range = Lookup(keys[l]);
    if (range.empty()) {
      if (unmatched != nullptr) unmatched->push_back(l);
      continue;
    }
    // A group's rows are marked together, so its first row tells whether
    // the group was hit before.
    if (build_hits != nullptr &&
        (*build_hits)[static_cast<size_t>(*range.begin)] == 0) {
      for (const int64_t* r = range.begin; r != range.end; ++r) {
        (*build_hits)[static_cast<size_t>(*r)] = 1;
      }
    }
    for (const int64_t* r = range.begin; r != range.end; ++r) {
      out->probe_sel.push_back(l);
      out->build_sel.push_back(*r);
    }
  }
}

SelVector UnmarkedRows(const std::vector<uint8_t>& marks) {
  SelVector rows;
  for (size_t r = 0; r < marks.size(); ++r) {
    if (marks[r] == 0) rows.push_back(static_cast<int64_t>(r));
  }
  return rows;
}

Value StringDictionary::Intern(const std::string& s) {
  const auto it = ids_.find(s);
  if (it != ids_.end()) return it->second;
  strings_.push_back(s);
  const Value id = static_cast<Value>(strings_.size());
  ids_.emplace(s, id);
  return id;
}

Value StringDictionary::Find(const std::string& s) const {
  const auto it = ids_.find(s);
  return it != ids_.end() ? it->second : 0;
}

const std::string& StringDictionary::LookupId(Value id) const {
  ETLOPT_CHECK_MSG(id >= 1 && id <= static_cast<Value>(strings_.size()),
                   "string id outside the interned range");
  return strings_[static_cast<size_t>(id - 1)];
}

}  // namespace etlopt
