// Randomized dual-vs-primal equivalence corpus (labelled `slow`): on boxed
// LPs — where the dual-feasibility repair can always flip its way to a
// usable start — the dual loop must reach exactly the verdicts and
// objectives of the primal loop, both from the slack basis and along warm
// re-solve chains of tightening bounds (the B&B / probe-session access
// pattern). A solve handed a starting basis runs the dual loop; the primal
// reference is the same solve with no basis.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "boxed_lp.h"
#include "milp/model.h"
#include "milp/simplex.h"
#include "slack_basis.h"
#include "util/rng.h"

namespace cgraf::milp {
namespace {

void expect_same(const LpResult& dual, const LpResult& primal,
                 const char* label) {
  ASSERT_EQ(dual.status, primal.status) << label;
  if (primal.status == SolveStatus::kOptimal) {
    EXPECT_NEAR(dual.obj, primal.obj, 1e-6 * (1.0 + std::abs(primal.obj)))
        << label;
  }
}

class DualEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(DualEquivalence, ColdSolvesAgree) {
  Rng rng(52000 + static_cast<std::uint64_t>(GetParam()));
  const Model m = random_boxed_lp(rng, 14, 10);
  const LpResult rp = solve_lp(m);
  const LpResult rd = solve_lp_from_slack(m);
  EXPECT_FALSE(rp.dual_used);
  expect_same(rd, rp, "cold boxed");
  if (rp.status == SolveStatus::kOptimal) {
    EXPECT_LE(m.max_violation(rd.x), 1e-6);
  }
}

TEST_P(DualEquivalence, WarmResolveChainsAgree) {
  Rng rng(53000 + static_cast<std::uint64_t>(GetParam()));
  const Model m = random_boxed_lp(rng, 12, 8);
  SimplexEngine pe(m);
  SimplexEngine de(m);
  const LpResult proot = pe.solve();
  const LpResult droot = de.solve();
  expect_same(droot, proot, "chain root");
  if (proot.status != SolveStatus::kOptimal) return;

  // Chain of tightenings, each re-solved warm from the previous basis by
  // the dual engine — exactly how B&B descends and how probe sessions
  // step — and from no basis by the primal reference.
  std::vector<double> lb = pe.model_lb();
  std::vector<double> ub = pe.model_ub();
  const std::vector<ColStatus>* dwarm = &droot.basis;
  LpResult plast, dlast;
  for (int step = 0; step < 6; ++step) {
    const auto v = static_cast<size_t>(
        rng.next_below(static_cast<std::uint64_t>(pe.num_structural())));
    const double mid = lb[v] + 0.4 * (ub[v] - lb[v]);
    if (rng.next_bool(0.5)) ub[v] = mid; else lb[v] = mid;
    plast = pe.solve(lb, ub);
    dlast = de.solve(lb, ub, dwarm);
    EXPECT_FALSE(plast.dual_used);
    expect_same(dlast, plast, "chain step");
    if (plast.status != SolveStatus::kOptimal) break;
    dwarm = &dlast.basis;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DualEquivalence, ::testing::Range(0, 120));

}  // namespace
}  // namespace cgraf::milp
