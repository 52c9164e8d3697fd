#ifndef ETLOPT_CSS_CSS_H_
#define ETLOPT_CSS_CSS_H_

#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "stats/stat_key.h"

namespace etlopt {

// Identifies the rule that produced a CSS — and therefore the evaluation
// semantics the estimator uses to compute the target from the inputs.
// Mapping to the paper's tables:
//   kS1/kS2          Table 2 select rules
//   kCopyCard        P1 and U1 (projection/transform preserve cardinality)
//   kCopyHist        P2 and U2 (distribution unchanged)
//   kG1/kG2          Table 4 group-by rules
//   kJ1              Table 3 J1 (dot product of join-attribute histograms)
//   kJ2              Table 3 J2/J3 unified (multiply through the join;
//                    marginalizes the join attribute away when absent from
//                    the target)
//   kJ4/kJ5          Table 3 union-division rules
//   kFk              the foreign-key lookup shortcut of Section 3.2.2
//   kI1/kI2/kD1      identity rules (I1, I2, and distinct-from-histogram)
enum class RuleId : uint8_t {
  kS1,
  kS2,
  kCopyCard,
  kCopyHist,
  kG1,
  kG2,
  kJ1,
  kJ2,
  kJ4,
  kJ5,
  kFk,
  kI1,
  kI2,
  kD1,
};

const char* RuleName(RuleId rule);

// One candidate statistics set for one target statistic: the inputs that
// suffice to compute it, plus the evaluation payload.
struct CssEntry {
  RuleId rule = RuleId::kJ1;
  StatKey target;
  std::vector<StatKey> inputs;

  // Payloads (rule-dependent):
  NodeId op_node = kInvalidNode;    // chain rules: the operator node
  AttrId join_attr = kInvalidAttr;  // join rules: a (J1/J2) or J (J4/J5)
  bool marginalize = false;         // kJ2: drop join attr after multiplying
  AttrMask aux_mask = 0;            // kG2: the group-by attribute mask

  std::string ToString(const AttrCatalog* catalog = nullptr) const;
};

// The output of Algorithm 1 for one block: the statistics universe S and the
// generated CSSs, with input references resolved to dense indices for the
// closure/selection algorithms.
class CssCatalog {
 public:
  // Adds (or finds) a statistic; returns its dense index.
  int AddStat(const StatKey& key);
  // Returns -1 when unknown.
  int IndexOf(const StatKey& key) const;

  // Registers a CSS; inputs are interned automatically. Duplicate CSSs
  // (same target + same input multiset) are dropped.
  void AddCss(CssEntry entry);

  int num_stats() const { return static_cast<int>(stats_.size()); }
  int num_css() const { return static_cast<int>(entries_.size()); }

  const StatKey& stat(int idx) const {
    return stats_[static_cast<size_t>(idx)];
  }
  const std::vector<StatKey>& stats() const { return stats_; }

  const CssEntry& entry(int css_idx) const {
    return entries_[static_cast<size_t>(css_idx)];
  }

  // CSS indices whose target is `stat_idx`.
  const std::vector<int>& css_of(int stat_idx) const {
    return css_by_stat_[static_cast<size_t>(stat_idx)];
  }

  // Dense input stat indices of a CSS, in the entry's input order.
  std::span<const int> css_inputs(int css_idx) const {
    return InputRange(inputs_, css_idx);
  }
  // The distinct input stat indices of a CSS, ascending: the AND-edges the
  // closure and the selectors walk.
  std::span<const int> css_distinct_inputs(int css_idx) const {
    const int distinct = num_distinct_[static_cast<size_t>(css_idx)];
    return InputRange(canonical_inputs_, css_idx)
        .first(static_cast<size_t>(distinct));
  }
  int css_target(int css_idx) const {
    return entry_target_[static_cast<size_t>(css_idx)];
  }

  // CSS indices that have `stat_idx` among their inputs, ascending.
  const std::vector<int>& consumers_of(int stat_idx) const {
    return consumers_[static_cast<size_t>(stat_idx)];
  }

  std::string ToString(const AttrCatalog* catalog = nullptr) const;

 private:
  std::span<const int> InputRange(const std::vector<int>& list,
                                  int css_idx) const {
    const size_t c = static_cast<size_t>(css_idx);
    return std::span<const int>(list).subspan(
        static_cast<size_t>(input_begin_[c]),
        static_cast<size_t>(input_begin_[c + 1] - input_begin_[c]));
  }

  std::vector<StatKey> stats_;
  std::unordered_map<StatKey, int, StatKeyHash> index_;
  std::vector<CssEntry> entries_;
  std::vector<int> entry_target_;
  // Input stat indices of all CSSs, concatenated; CSS c owns positions
  // [input_begin_[c], input_begin_[c + 1]) of both lists. canonical_inputs_
  // orders each CSS's inputs as its distinct indices ascending, then the
  // repeated occurrences ascending, so equal ranges mean equal input
  // multisets and the first num_distinct_[c] are the distinct inputs.
  std::vector<int> input_begin_{0};
  std::vector<int> inputs_;
  std::vector<int> canonical_inputs_;
  std::vector<int> num_distinct_;
  std::vector<std::vector<int>> css_by_stat_;
  std::vector<std::vector<int>> consumers_;
};

}  // namespace etlopt

#endif  // ETLOPT_CSS_CSS_H_
