#include "opt/closure.h"

#include "util/common.h"

namespace etlopt {

std::vector<char> ComputeClosure(const CssCatalog& catalog,
                                 const std::vector<char>& observed,
                                 std::vector<int>* derivation) {
  const int n = catalog.num_stats();
  const int m = catalog.num_css();
  ETLOPT_CHECK(static_cast<int>(observed.size()) == n);
  std::vector<char> computable = observed;
  if (derivation != nullptr) derivation->assign(static_cast<size_t>(n), -1);

  // Counting-based fixpoint: each CSS fires once all its inputs are
  // computable; firing makes its target computable. A first scan in CSS
  // order fires every CSS whose inputs are computable at that point and
  // counts, per CSS, the inputs it still waits on. `since[s]` is the scan
  // position after which s counted as computable (-1: observed; m: not
  // during the scan), so CSS c waited on s exactly when c < since[s].
  std::vector<int> since(static_cast<size_t>(n), m);
  for (int s = 0; s < n; ++s) {
    if (computable[static_cast<size_t>(s)]) since[static_cast<size_t>(s)] = -1;
  }
  std::vector<int> missing(static_cast<size_t>(m), 0);
  std::vector<int> ready;  // newly computable stats, in firing order
  auto fire = [&](int c) {
    const int target = catalog.css_target(c);
    if (computable[static_cast<size_t>(target)]) return false;
    computable[static_cast<size_t>(target)] = 1;
    if (derivation != nullptr) (*derivation)[static_cast<size_t>(target)] = c;
    ready.push_back(target);
    return true;
  };
  for (int c = 0; c < m; ++c) {
    int need = 0;
    for (int input : catalog.css_distinct_inputs(c)) {
      if (!computable[static_cast<size_t>(input)]) ++need;
    }
    missing[static_cast<size_t>(c)] = need;
    if (need == 0 && fire(c)) {
      since[static_cast<size_t>(catalog.css_target(c))] = c;
    }
  }

  for (size_t next = 0; next < ready.size(); ++next) {
    const int s = ready[next];
    for (int c : catalog.consumers_of(s)) {
      if (c >= since[static_cast<size_t>(s)]) break;  // consumers ascend
      if (--missing[static_cast<size_t>(c)] == 0) fire(c);
    }
  }
  return computable;
}

}  // namespace etlopt
