#include "css/css.h"

#include <algorithm>
#include <sstream>

namespace etlopt {

const char* RuleName(RuleId rule) {
  switch (rule) {
    case RuleId::kS1:
      return "S1";
    case RuleId::kS2:
      return "S2";
    case RuleId::kCopyCard:
      return "P1/U1";
    case RuleId::kCopyHist:
      return "P2/U2";
    case RuleId::kG1:
      return "G1";
    case RuleId::kG2:
      return "G2";
    case RuleId::kJ1:
      return "J1";
    case RuleId::kJ2:
      return "J2/J3";
    case RuleId::kJ4:
      return "J4";
    case RuleId::kJ5:
      return "J5";
    case RuleId::kFk:
      return "FK";
    case RuleId::kI1:
      return "I1";
    case RuleId::kI2:
      return "I2";
    case RuleId::kD1:
      return "D1";
  }
  return "?";
}

std::string CssEntry::ToString(const AttrCatalog* catalog) const {
  std::ostringstream out;
  out << target.ToString(catalog) << " <- " << RuleName(rule) << "{";
  for (size_t i = 0; i < inputs.size(); ++i) {
    if (i != 0) out << ", ";
    out << inputs[i].ToString(catalog);
  }
  out << "}";
  return out.str();
}

int CssCatalog::AddStat(const StatKey& key) {
  auto it = index_.find(key);
  if (it != index_.end()) return it->second;
  const int idx = static_cast<int>(stats_.size());
  stats_.push_back(key);
  index_[key] = idx;
  css_by_stat_.emplace_back();
  consumers_.emplace_back();
  return idx;
}

int CssCatalog::IndexOf(const StatKey& key) const {
  auto it = index_.find(key);
  return it == index_.end() ? -1 : it->second;
}

void CssCatalog::AddCss(CssEntry entry) {
  const int target = AddStat(entry.target);
  std::vector<int> inputs;
  inputs.reserve(entry.inputs.size());
  for (const StatKey& in : entry.inputs) {
    inputs.push_back(AddStat(in));
  }
  // Canonical multiset order: the distinct inputs ascending, then the
  // repeated occurrences ascending.
  std::vector<int> ascending = inputs;
  std::sort(ascending.begin(), ascending.end());
  std::vector<int> canonical;
  std::vector<int> repeats;
  canonical.reserve(ascending.size());
  for (size_t i = 0; i < ascending.size(); ++i) {
    if (i > 0 && ascending[i] == ascending[i - 1]) {
      repeats.push_back(ascending[i]);
    } else {
      canonical.push_back(ascending[i]);
    }
  }
  const int num_distinct = static_cast<int>(canonical.size());
  canonical.insert(canonical.end(), repeats.begin(), repeats.end());
  // Duplicates: same target and same input multiset.
  for (int existing : css_by_stat_[static_cast<size_t>(target)]) {
    if (std::ranges::equal(InputRange(canonical_inputs_, existing),
                           canonical)) {
      return;
    }
  }
  const int css_idx = static_cast<int>(entries_.size());
  for (int i = 0; i < num_distinct; ++i) {
    consumers_[static_cast<size_t>(canonical[static_cast<size_t>(i)])]
        .push_back(css_idx);
  }
  entries_.push_back(std::move(entry));
  entry_target_.push_back(target);
  inputs_.insert(inputs_.end(), inputs.begin(), inputs.end());
  canonical_inputs_.insert(canonical_inputs_.end(), canonical.begin(),
                           canonical.end());
  input_begin_.push_back(static_cast<int>(inputs_.size()));
  num_distinct_.push_back(num_distinct);
  css_by_stat_[static_cast<size_t>(target)].push_back(css_idx);
}

std::string CssCatalog::ToString(const AttrCatalog* catalog) const {
  std::ostringstream out;
  out << "CssCatalog: " << num_stats() << " statistics, " << num_css()
      << " CSS\n";
  for (int s = 0; s < num_stats(); ++s) {
    out << "  " << stat(s).ToString(catalog) << "\n";
    for (int c : css_of(s)) {
      out << "    " << entry(c).ToString(catalog) << "\n";
    }
  }
  return out.str();
}

}  // namespace etlopt
