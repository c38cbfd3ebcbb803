// Cross-validates the production simplex against an independent oracle:
// exhaustive vertex enumeration. For a bounded LP the optimum is attained
// at a basic feasible point, i.e. at the intersection of n active
// constraints drawn from the rows (at either side) and the variable bounds.
// The oracle enumerates every such intersection with dense Gaussian
// elimination — O(C(k, n)) and only usable for tiny instances, but sharing
// no code whatsoever with the revised simplex under test. Each instance is
// solved twice: with no basis (the primal loop) and from an explicit slack
// basis (the dual loop), and both must match the oracle.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "milp/model.h"
#include "milp/simplex.h"
#include "slack_basis.h"
#include "util/rng.h"

namespace cgraf::milp {
namespace {

// One hyperplane a.x = b.
struct Plane {
  std::vector<double> a;
  double b;
};

// Solves the n x n system (returns false if singular).
bool solve_dense(std::vector<std::vector<double>> m, std::vector<double> rhs,
                 std::vector<double>* out) {
  const int n = static_cast<int>(rhs.size());
  for (int col = 0; col < n; ++col) {
    int pivot = -1;
    double best = 1e-9;
    for (int row = col; row < n; ++row) {
      if (std::abs(m[static_cast<size_t>(row)][static_cast<size_t>(col)]) >
          best) {
        best = std::abs(m[static_cast<size_t>(row)][static_cast<size_t>(col)]);
        pivot = row;
      }
    }
    if (pivot < 0) return false;
    std::swap(m[static_cast<size_t>(col)], m[static_cast<size_t>(pivot)]);
    std::swap(rhs[static_cast<size_t>(col)], rhs[static_cast<size_t>(pivot)]);
    for (int row = 0; row < n; ++row) {
      if (row == col) continue;
      const double f = m[static_cast<size_t>(row)][static_cast<size_t>(col)] /
                       m[static_cast<size_t>(col)][static_cast<size_t>(col)];
      if (f == 0.0) continue;
      for (int k = col; k < n; ++k)
        m[static_cast<size_t>(row)][static_cast<size_t>(k)] -=
            f * m[static_cast<size_t>(col)][static_cast<size_t>(k)];
      rhs[static_cast<size_t>(row)] -= f * rhs[static_cast<size_t>(col)];
    }
  }
  out->resize(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    (*out)[static_cast<size_t>(i)] =
        rhs[static_cast<size_t>(i)] /
        m[static_cast<size_t>(i)][static_cast<size_t>(i)];
  }
  return true;
}

// Best objective over all vertices, or nullopt when no vertex is feasible.
std::optional<double> oracle_optimum(const Model& model) {
  const int n = model.num_vars();
  std::vector<Plane> planes;
  for (int j = 0; j < n; ++j) {
    std::vector<double> unit(static_cast<size_t>(n), 0.0);
    unit[static_cast<size_t>(j)] = 1.0;
    if (model.var(j).lb != -kInf) planes.push_back({unit, model.var(j).lb});
    if (model.var(j).ub != kInf) planes.push_back({unit, model.var(j).ub});
  }
  for (int r = 0; r < model.num_constraints(); ++r) {
    std::vector<double> a(static_cast<size_t>(n), 0.0);
    for (const auto& [j, coeff] : model.constraint(r).terms)
      a[static_cast<size_t>(j)] = coeff;
    if (model.constraint(r).lb != -kInf)
      planes.push_back({a, model.constraint(r).lb});
    if (model.constraint(r).ub != kInf &&
        model.constraint(r).ub != model.constraint(r).lb)
      planes.push_back({a, model.constraint(r).ub});
  }

  const int k = static_cast<int>(planes.size());
  const double sign = model.sense() == Sense::kMinimize ? 1.0 : -1.0;
  std::optional<double> best;
  // Enumerate all n-subsets of planes with a simple odometer.
  std::vector<int> idx(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) idx[static_cast<size_t>(i)] = i;
  if (k < n) return std::nullopt;
  for (;;) {
    std::vector<std::vector<double>> m;
    std::vector<double> rhs;
    for (int i = 0; i < n; ++i) {
      m.push_back(planes[static_cast<size_t>(idx[static_cast<size_t>(i)])].a);
      rhs.push_back(planes[static_cast<size_t>(idx[static_cast<size_t>(i)])].b);
    }
    std::vector<double> x;
    if (solve_dense(std::move(m), std::move(rhs), &x)) {
      if (model.max_violation(x) <= 1e-7) {
        const double obj = sign * model.objective_value(x);
        if (!best || obj < *best) best = obj;
      }
    }
    // Next combination.
    int pos = n - 1;
    while (pos >= 0 && idx[static_cast<size_t>(pos)] == k - n + pos) --pos;
    if (pos < 0) break;
    ++idx[static_cast<size_t>(pos)];
    for (int i = pos + 1; i < n; ++i)
      idx[static_cast<size_t>(i)] = idx[static_cast<size_t>(i - 1)] + 1;
  }
  if (best) *best *= sign;
  return best;
}

class VertexOracle : public ::testing::TestWithParam<int> {};

TEST_P(VertexOracle, SimplexMatchesVertexEnumeration) {
  Rng rng(31337 + static_cast<std::uint64_t>(GetParam()));
  Model m;
  const int nv = 2 + static_cast<int>(rng.next_below(3));  // 2..4 vars
  for (int j = 0; j < nv; ++j) {
    // Finite boxes keep the LP bounded, so vertex enumeration is complete.
    m.add_continuous(-2.0 - rng.next_double() * 2, 2.0 + rng.next_double() * 2,
                     rng.next_double() * 6 - 3);
  }
  const int nc = 1 + static_cast<int>(rng.next_below(4));
  for (int r = 0; r < nc; ++r) {
    std::vector<std::pair<int, double>> terms;
    for (int j = 0; j < nv; ++j)
      if (rng.next_bool(0.7)) terms.emplace_back(j, rng.next_double() * 4 - 2);
    if (terms.empty()) terms.emplace_back(0, 1.0);
    const double rhs = rng.next_double() * 4 - 1;
    if (rng.next_bool(0.5)) m.add_le(std::move(terms), rhs);
    else m.add_ge(std::move(terms), -rhs);
  }
  if (rng.next_bool(0.5)) m.set_sense(Sense::kMaximize);

  const std::optional<double> want = oracle_optimum(m);
  const LpResult primal = solve_lp(m);
  const LpResult dual = solve_lp_from_slack(m);
  EXPECT_TRUE(dual.warm_used);

  for (const LpResult* got : {&primal, &dual}) {
    const char* label = got == &primal ? "no basis" : "slack basis";
    if (!want.has_value()) {
      EXPECT_EQ(got->status, SolveStatus::kInfeasible)
          << label << ": oracle found no feasible vertex but simplex said "
          << to_string(got->status);
      continue;
    }
    ASSERT_EQ(got->status, SolveStatus::kOptimal) << label;
    EXPECT_NEAR(got->obj, *want, 1e-6 * (1.0 + std::abs(*want))) << label;
    EXPECT_LE(m.max_violation(got->x), 1e-7) << label;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VertexOracle, ::testing::Range(0, 60));

}  // namespace
}  // namespace cgraf::milp
