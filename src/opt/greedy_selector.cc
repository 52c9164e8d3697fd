#include "opt/greedy_selector.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <queue>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/common.h"

namespace etlopt {
namespace {

constexpr double kInf = 1e300;

struct Derivation {
  double cost = kInf;
  int via_css = -1;  // -1: observe directly
  bool reachable = false;
};

// Knuth's generalization of Dijkstra over the AND-OR CSS graph: the cheapest
// way to make each statistic computable, where a CSS's cost is the sum of
// its inputs' costs (sharing between inputs is ignored here — the greedy
// outer loop recovers sharing through residual costs). Queue items are
// (cost, stat, css), popped in lexicographic order; an item is only queued
// when it beats its stat's best offer so far (tie-breaks: see the header).
std::vector<Derivation> BestDerivations(const CssCatalog& catalog,
                                        const std::vector<char>& observable,
                                        const std::vector<double>& residual) {
  const int n = catalog.num_stats();
  const int m = catalog.num_css();
  std::vector<Derivation> best(static_cast<size_t>(n));
  std::vector<std::pair<double, int>> offer(
      static_cast<size_t>(n),
      {std::numeric_limits<double>::infinity(),
       std::numeric_limits<int>::max()});
  std::vector<int> missing(static_cast<size_t>(m), 0);
  std::vector<double> css_sum(static_cast<size_t>(m), 0.0);

  using Item = std::pair<double, std::pair<int, int>>;  // (cost, (stat, css))
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> pq;
  auto push = [&](double cost, int stat, int css) {
    if (best[static_cast<size_t>(stat)].reachable) return;
    std::pair<double, int>& o = offer[static_cast<size_t>(stat)];
    if (std::make_pair(cost, css) < o) {
      o = {cost, css};
      pq.push({cost, {stat, css}});
    }
  };

  for (int c = 0; c < m; ++c) {
    missing[static_cast<size_t>(c)] =
        static_cast<int>(catalog.css_distinct_inputs(c).size());
    if (missing[static_cast<size_t>(c)] == 0) {
      push(0.0, catalog.css_target(c), c);
    }
  }
  for (int s = 0; s < n; ++s) {
    if (observable[static_cast<size_t>(s)]) {
      push(residual[static_cast<size_t>(s)], s, -1);
    }
  }

  while (!pq.empty()) {
    const auto [cost, who] = pq.top();
    pq.pop();
    const int s = who.first;
    if (best[static_cast<size_t>(s)].reachable) continue;
    best[static_cast<size_t>(s)] = Derivation{cost, who.second, true};
    for (int c : catalog.consumers_of(s)) {
      css_sum[static_cast<size_t>(c)] += cost;
      if (--missing[static_cast<size_t>(c)] == 0) {
        push(css_sum[static_cast<size_t>(c)], catalog.css_target(c), c);
      }
    }
  }
  return best;
}

// Collects the observable leaves of the chosen derivation of `stat`.
void CollectBundle(const CssCatalog& catalog,
                   const std::vector<Derivation>& derivs, int stat,
                   std::vector<char>* visited, std::vector<int>* bundle) {
  if ((*visited)[static_cast<size_t>(stat)]) return;
  (*visited)[static_cast<size_t>(stat)] = 1;
  const Derivation& d = derivs[static_cast<size_t>(stat)];
  ETLOPT_CHECK(d.reachable);
  if (d.via_css < 0) {
    bundle->push_back(stat);
    return;
  }
  for (int in : catalog.css_distinct_inputs(d.via_css)) {
    CollectBundle(catalog, derivs, in, visited, bundle);
  }
}

// The computability closure of a growing observed set: observing a
// statistic propagates only through the CSSs consuming what it newly makes
// computable, so a whole greedy run walks each CSS edge at most once.
class GrowingClosure {
 public:
  GrowingClosure(const CssCatalog& catalog, const std::vector<char>& observed)
      : catalog_(catalog),
        computable_(static_cast<size_t>(catalog.num_stats()), 0),
        missing_(static_cast<size_t>(catalog.num_css()), 0) {
    for (int c = 0; c < catalog.num_css(); ++c) {
      missing_[static_cast<size_t>(c)] =
          static_cast<int>(catalog.css_distinct_inputs(c).size());
    }
    for (int c = 0; c < catalog.num_css(); ++c) {
      if (missing_[static_cast<size_t>(c)] == 0) {
        Observe(catalog.css_target(c));
      }
    }
    for (int s = 0; s < catalog.num_stats(); ++s) {
      if (observed[static_cast<size_t>(s)]) Observe(s);
    }
  }

  void Observe(int stat) {
    if (computable_[static_cast<size_t>(stat)]) return;
    computable_[static_cast<size_t>(stat)] = 1;
    std::vector<int> ready{stat};
    while (!ready.empty()) {
      const int s = ready.back();
      ready.pop_back();
      for (int c : catalog_.consumers_of(s)) {
        const int target = catalog_.css_target(c);
        if (--missing_[static_cast<size_t>(c)] == 0 &&
            !computable_[static_cast<size_t>(target)]) {
          computable_[static_cast<size_t>(target)] = 1;
          ready.push_back(target);
        }
      }
    }
  }

  bool computable(int stat) const {
    return computable_[static_cast<size_t>(stat)] != 0;
  }

 private:
  const CssCatalog& catalog_;
  std::vector<char> computable_;
  std::vector<int> missing_;  // per CSS: inputs not yet computable
};

}  // namespace

SelectionResult SelectGreedyWithBudget(const SelectionProblem& problem,
                                       double budget,
                                       std::vector<int>* uncovered_required) {
  const CssCatalog& catalog = *problem.catalog;
  const int n = catalog.num_stats();

  SelectionResult result;
  result.method = "greedy";
  if (uncovered_required != nullptr) uncovered_required->clear();

  obs::ScopedSpan span("opt.select_greedy");
  span.Arg("stats", static_cast<int64_t>(n));
  span.Arg("css", static_cast<int64_t>(catalog.num_css()));
  int64_t iterations = 0;

  std::vector<char> observed(static_cast<size_t>(n), 0);
  std::vector<double> residual = problem.cost;
  double spent = 0.0;
  // Drift-flagged statistics are pre-seeded into the cover: they must be
  // re-observed regardless of what the derivation graph could supply.
  for (size_t s = 0; s < problem.must_observe.size(); ++s) {
    if (problem.must_observe[s]) {
      observed[s] = 1;
      residual[s] = 0.0;
      spent += problem.cost[s];
    }
  }
  // `observed` only grows until the reverse-delete pass, so computability
  // is maintained incrementally.
  GrowingClosure closure(catalog, observed);
  std::vector<char> deferred(static_cast<size_t>(n), 0);

  for (;;) {
    ++iterations;
    bool progressed = false;
    {
      const std::vector<Derivation> derivs =
          BestDerivations(catalog, problem.observable, residual);
      ETLOPT_COUNTER_ADD("etlopt.opt.greedy.derivation_passes", 1);
      // Uncovered, not yet deferred required statistics, cheapest first.
      std::vector<int> pending;
      for (int s = 0; s < n; ++s) {
        if (problem.required[static_cast<size_t>(s)] &&
            !closure.computable(s) && !deferred[static_cast<size_t>(s)]) {
          pending.push_back(s);
        }
      }
      if (pending.empty()) break;
      ETLOPT_HIST_RECORD("etlopt.opt.greedy.candidate_set_size",
                         static_cast<int64_t>(pending.size()));
      std::sort(pending.begin(), pending.end(), [&](int a, int b) {
        return derivs[static_cast<size_t>(a)].cost <
               derivs[static_cast<size_t>(b)].cost;
      });
      for (int pick : pending) {
        const Derivation& d = derivs[static_cast<size_t>(pick)];
        if (!d.reachable) {
          deferred[static_cast<size_t>(pick)] = 1;
          continue;
        }
        std::vector<char> visited(static_cast<size_t>(n), 0);
        std::vector<int> bundle;
        CollectBundle(catalog, derivs, pick, &visited, &bundle);
        // Actual incremental cost (the scalar derivation cost may double
        // count shared inputs).
        double added = 0.0;
        for (int s : bundle) {
          if (!observed[static_cast<size_t>(s)]) {
            added += problem.cost[static_cast<size_t>(s)];
          }
        }
        if (spent + added > budget) {
          deferred[static_cast<size_t>(pick)] = 1;
          continue;
        }
        for (int s : bundle) {
          if (!observed[static_cast<size_t>(s)]) {
            observed[static_cast<size_t>(s)] = 1;
            residual[static_cast<size_t>(s)] = 0.0;
            closure.Observe(s);
          }
        }
        spent += added;
        progressed = true;
        break;
      }
      if (!progressed) break;  // nothing affordable/reachable remains
    }
  }

  bool all_covered = true;
  for (int s = 0; s < n; ++s) {
    if (problem.required[static_cast<size_t>(s)] && !closure.computable(s)) {
      all_covered = false;
      if (uncovered_required != nullptr) uncovered_required->push_back(s);
    }
  }
  // Reverse-delete: drop observations that became redundant (most expensive
  // first). A partial cover (budget mode) is reported as chosen so far.
  if (all_covered) {
    std::vector<int> kept;
    for (int s = 0; s < n; ++s) {
      if (observed[static_cast<size_t>(s)]) kept.push_back(s);
    }
    std::sort(kept.begin(), kept.end(), [&](int a, int b) {
      return problem.cost[static_cast<size_t>(a)] >
             problem.cost[static_cast<size_t>(b)];
    });
    for (int s : kept) {
      if (static_cast<size_t>(s) < problem.must_observe.size() &&
          problem.must_observe[static_cast<size_t>(s)]) {
        continue;  // forced observations are never redundant
      }
      observed[static_cast<size_t>(s)] = 0;
      std::vector<int> trial;
      for (int t = 0; t < n; ++t) {
        if (observed[static_cast<size_t>(t)]) trial.push_back(t);
      }
      if (!SelectionCovers(problem, trial)) {
        observed[static_cast<size_t>(s)] = 1;  // still needed
      }
    }
  }

  result.feasible = all_covered;
  for (int s = 0; s < n; ++s) {
    if (observed[static_cast<size_t>(s)]) {
      result.observed.push_back(s);
      result.total_cost += problem.cost[static_cast<size_t>(s)];
    }
  }
  ETLOPT_COUNTER_ADD("etlopt.opt.greedy.iterations", iterations);
  span.Arg("iterations", iterations);
  span.Arg("observed", static_cast<int64_t>(result.observed.size()));
  return result;
}

SelectionResult SelectGreedy(const SelectionProblem& problem) {
  SelectionResult best = SelectGreedyWithBudget(problem, kInf, nullptr);

  // The union-division CSSs strictly enlarge the search space, but a greedy
  // heuristic with more options can land on a worse cover. Re-run with the
  // reject statistics disabled (which neutralizes every J4/J5 CSS, since
  // reject statistics are observation-only) and keep the cheaper cover —
  // any cover found this way is valid for the original problem.
  bool has_reject = false;
  for (int s = 0; s < problem.num_stats(); ++s) {
    if (problem.observable[static_cast<size_t>(s)] &&
        problem.catalog->stat(s).is_reject()) {
      has_reject = true;
      break;
    }
  }
  if (has_reject) {
    SelectionProblem no_ud = problem;
    for (int s = 0; s < problem.num_stats(); ++s) {
      if (problem.catalog->stat(s).is_reject()) {
        no_ud.observable[static_cast<size_t>(s)] = 0;
      }
    }
    SelectionResult alt = SelectGreedyWithBudget(no_ud, kInf, nullptr);
    if (alt.feasible &&
        (!best.feasible || alt.total_cost < best.total_cost - 1e-9)) {
      alt.method = "greedy(no-ud-pass)";
      best = std::move(alt);
    }
  }
  return best;
}

SelectionResult SelectExhaustive(const SelectionProblem& problem,
                                 int max_candidates) {
  const int n = problem.num_stats();
  // Forced statistics are part of every candidate cover, so they leave the
  // include/exclude search entirely.
  std::vector<int> forced;
  double forced_cost = 0.0;
  std::vector<int> candidates;
  for (int s = 0; s < n; ++s) {
    if (!problem.observable[static_cast<size_t>(s)]) continue;
    if (static_cast<size_t>(s) < problem.must_observe.size() &&
        problem.must_observe[static_cast<size_t>(s)]) {
      forced.push_back(s);
      forced_cost += problem.cost[static_cast<size_t>(s)];
    } else {
      candidates.push_back(s);
    }
  }
  SelectionResult result;
  result.method = "exhaustive";
  if (static_cast<int>(candidates.size()) > max_candidates) {
    result.feasible = false;
    return result;
  }
  // Cheapest-first ordering helps the branch-and-bound prune.
  std::sort(candidates.begin(), candidates.end(), [&](int a, int b) {
    return problem.cost[static_cast<size_t>(a)] <
           problem.cost[static_cast<size_t>(b)];
  });

  std::vector<int> current = forced;
  std::vector<int> best;
  double best_cost = kInf;

  // DFS over include/exclude decisions with cost pruning.
  std::function<void(size_t, double)> dfs = [&](size_t i, double cost) {
    if (cost >= best_cost) return;
    if (SelectionCovers(problem, current)) {
      best_cost = cost;
      best = current;
      return;
    }
    if (i >= candidates.size()) return;
    // Include candidate i.
    current.push_back(candidates[i]);
    dfs(i + 1, cost + problem.cost[static_cast<size_t>(candidates[i])]);
    current.pop_back();
    // Exclude candidate i.
    dfs(i + 1, cost);
  };
  dfs(0, forced_cost);

  if (best_cost >= kInf) {
    result.feasible = false;
    return result;
  }
  result.feasible = true;
  result.proven_optimal = true;
  result.total_cost = best_cost;
  result.observed = best;
  std::sort(result.observed.begin(), result.observed.end());
  return result;
}

}  // namespace etlopt
