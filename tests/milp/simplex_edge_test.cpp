// Edge-case coverage for the simplex engine beyond the happy path.
#include <gtest/gtest.h>

#include <cmath>

#include "milp/simplex.h"

namespace cgraf::milp {
namespace {

TEST(SimplexEdge, NoConstraintsBoundsOnly) {
  Model m;
  m.add_continuous(-3, 5, 1.0);   // min -> lower bound
  m.add_continuous(-3, 5, -1.0);  // min of -x -> upper bound
  const LpResult r = solve_lp(m);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.x[0], -3.0, 1e-9);
  EXPECT_NEAR(r.x[1], 5.0, 1e-9);
}

TEST(SimplexEdge, EmptyModelIsOptimal) {
  // No columns and no rows: what a remap model with every op frozen
  // relaxes to. Pricing must not divide by the zero column count.
  const LpResult r = solve_lp(Model{});
  EXPECT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_TRUE(r.x.empty());
}

TEST(SimplexEdge, EverythingFixed) {
  Model m;
  m.add_continuous(2, 2, 1.0);
  m.add_continuous(-1, -1, 1.0);
  m.add_le({{0, 1.0}, {1, 1.0}}, 5.0);
  const LpResult r = solve_lp(m);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.obj, 1.0, 1e-9);
}

TEST(SimplexEdge, EverythingFixedButInfeasible) {
  Model m;
  m.add_continuous(2, 2, 1.0);
  m.add_ge({{0, 1.0}}, 3.0);
  EXPECT_EQ(solve_lp(m).status, SolveStatus::kInfeasible);
}

TEST(SimplexEdge, DuplicateRowsAreHarmless) {
  Model m;
  const int x = m.add_continuous(0, kInf, 1.0);
  for (int i = 0; i < 6; ++i) m.add_ge({{x, 1.0}}, 2.0);
  const LpResult r = solve_lp(m);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.obj, 2.0, 1e-9);
}

TEST(SimplexEdge, WideRangeOfCoefficientMagnitudes) {
  Model m;
  const int x = m.add_continuous(0, kInf, 1.0);
  const int y = m.add_continuous(0, kInf, 1.0);
  m.add_ge({{x, 1e-4}, {y, 1e3}}, 1.0);
  const LpResult r = solve_lp(m);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_LE(m.max_violation(r.x), 1e-6);
  EXPECT_NEAR(r.obj, 1e-3, 1e-6);  // y = 1/1000 is the cheap option
}

TEST(SimplexEdge, EqualityChainPropagates) {
  // x0 = 1, x_{i} = x_{i-1} + 1 via equalities.
  Model m;
  const int n = 20;
  std::vector<int> xs;
  for (int i = 0; i < n; ++i) xs.push_back(m.add_continuous(-kInf, kInf, 0));
  m.add_eq({{xs[0], 1.0}}, 1.0);
  for (int i = 1; i < n; ++i)
    m.add_eq({{xs[static_cast<size_t>(i)], 1.0},
              {xs[static_cast<size_t>(i - 1)], -1.0}},
             1.0);
  const LpResult r = solve_lp(m);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  for (int i = 0; i < n; ++i)
    EXPECT_NEAR(r.x[static_cast<size_t>(i)], 1.0 + i, 1e-6);
}

TEST(SimplexEdge, RangedRowActsAsTwoInequalities) {
  Model m;
  const int x = m.add_continuous(-kInf, kInf, 1.0);
  const int y = m.add_continuous(-kInf, kInf, 2.0);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, 2.0, 6.0);
  m.add_constraint({{x, 1.0}, {y, -1.0}}, -1.0, 1.0);
  const LpResult r = solve_lp(m);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_LE(m.max_violation(r.x), 1e-7);
  // Optimum at x+y=2, x-y=1 -> x=1.5, y=0.5, obj=2.5.
  EXPECT_NEAR(r.obj, 2.5, 1e-7);
}

TEST(SimplexEdge, ManyBoundFlips) {
  // Box-constrained minimization where most variables just flip to a
  // bound without ever entering the basis.
  Model m;
  std::vector<std::pair<int, double>> row;
  for (int i = 0; i < 50; ++i) {
    const double c = (i % 2 == 0) ? 1.0 : -1.0;
    row.emplace_back(m.add_continuous(-1, 1, c), 1.0);
  }
  m.add_le(std::move(row), 100.0);  // never binding
  const LpResult r = solve_lp(m);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.obj, -50.0, 1e-7);
}

TEST(SimplexEdge, WarmStartFromStaleBasisIsSafe) {
  Model m;
  const int x = m.add_continuous(0, 10, -1.0);
  const int y = m.add_continuous(0, 10, -1.0);
  m.add_le({{x, 1.0}, {y, 1.0}}, 12.0);
  SimplexEngine engine(m);
  const LpResult first = engine.solve();
  ASSERT_EQ(first.status, SolveStatus::kOptimal);
  // Drastically different bounds; the stale basis must still converge.
  std::vector<double> lb{5.0, 5.0};
  std::vector<double> ub{6.0, 6.0};
  const LpResult second = engine.solve(lb, ub, &first.basis);
  ASSERT_EQ(second.status, SolveStatus::kOptimal);
  EXPECT_NEAR(second.obj, -12.0, 1e-7);  // x + y <= 12 binds
}

TEST(SimplexEdge, ZeroObjectiveReportsAnyVertex) {
  Model m;
  const int x = m.add_continuous(0, 1);
  const int y = m.add_continuous(0, 1);
  m.add_eq({{x, 1.0}, {y, 1.0}}, 1.0);
  const LpResult r = solve_lp(m);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_LE(m.max_violation(r.x), 1e-9);
}

}  // namespace
}  // namespace cgraf::milp
