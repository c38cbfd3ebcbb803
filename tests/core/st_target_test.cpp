#include "core/st_target.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "cgrra/stress.h"
#include "core/remapper.h"
#include "workloads/suite.h"

namespace cgraf::core {
namespace {

TEST(StTarget, BoundsComeFromTheBaselineStressMap) {
  const auto bench =
      workloads::generate_benchmark(workloads::table1_specs(false)[0]);
  const StressMap stress = compute_stress(bench.design, bench.baseline);
  const StTargetResult r = find_st_target(bench.design, bench.baseline);
  ASSERT_TRUE(r.ok);
  EXPECT_DOUBLE_EQ(r.st_up, stress.max_accumulated());
  EXPECT_DOUBLE_EQ(r.st_low, stress.avg_accumulated());
}

TEST(StTarget, ResultIsWithinTheBracket) {
  const auto bench =
      workloads::generate_benchmark(workloads::table1_specs(false)[3]);
  const StTargetResult r = find_st_target(bench.design, bench.baseline);
  ASSERT_TRUE(r.ok);
  EXPECT_GE(r.st_target, r.st_low - 1e-12);
  EXPECT_LE(r.st_target, r.st_up + 1e-12);
}

TEST(StTarget, PerfectlyBalanceableDesignReachesTheAverage) {
  // 4 identical ops in one context on a 2x2 fabric: every PE can take
  // exactly one, so the average *of used stress spread over all PEs* is
  // achievable... with one op per PE the max equals each op's stress.
  Design d{Fabric(2, 2), 1, {}, {}};
  Floorplan base;
  for (int i = 0; i < 4; ++i) {
    Operation op;
    op.id = i;
    op.kind = OpKind::kAdd;
    op.context = 0;
    d.ops.push_back(op);
    base.op_to_pe.push_back(i);
  }
  const StTargetResult r = find_st_target(d, base);
  ASSERT_TRUE(r.ok);
  // All PEs hold one op each: ST_low == ST_up == per-op stress.
  EXPECT_NEAR(r.st_target, r.st_low, 1e-9);
}

TEST(StTarget, LowerBoundIsActuallyFeasibleDelayUnaware) {
  // The found target must admit a real (integer) delay-unaware floorplan
  // at or slightly above it (it is a relaxation-based lower bound).
  const auto bench =
      workloads::generate_benchmark(workloads::table1_specs(false)[1]);
  StTargetOptions opts;
  opts.confirm_with_ilp = true;  // run the full LP->round->ILP per probe
  const StTargetResult r = find_st_target(bench.design, bench.baseline, opts);
  ASSERT_TRUE(r.ok);
  EXPECT_LE(r.st_target, r.st_up);
}

TEST(StTarget, LpModeIsAnsweredInClosedForm) {
  // The uniform point x[o][p] = 1/P is LP-feasible at ST_low, so the
  // default search returns ST_low without a probe, a model or an LP.
  const auto bench =
      workloads::generate_benchmark(workloads::table1_specs(false)[2]);
  for (const bool warm : {true, false}) {
    StTargetOptions opts;
    opts.warm_probes = warm;
    const StTargetResult r =
        find_st_target(bench.design, bench.baseline, opts);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.st_target, r.st_low);
    EXPECT_EQ(r.probes, 0);
    EXPECT_EQ(r.lp_iterations, 0);
    EXPECT_EQ(r.session.model_rebuilds, 0);
    EXPECT_EQ(r.session.warm_hits, 0);
    EXPECT_TRUE(r.probe_log.empty());
  }
}

TEST(StTarget, VerifyModeCertifiesTheUniformPoint) {
  // Certifies the closed form's uniform point against the real Step-1 model
  // built at ST_low.
  for (int i = 0; i <= 5; ++i) {
    const auto bench =
        workloads::generate_benchmark(workloads::table1_specs(false)[i]);
    StTargetOptions opts;
    opts.solver.verify.enabled = true;
    const StTargetResult r =
        find_st_target(bench.design, bench.baseline, opts);
    ASSERT_TRUE(r.ok) << i;
    EXPECT_EQ(r.st_target, r.st_low) << i;
    EXPECT_EQ(r.certify_failures, 0) << i;
    EXPECT_EQ(r.probes, 0) << i;
  }
}

TEST(StTarget, RejectedClosedFormFallsBackToTheBaselineMax) {
  // A certifier that accepts nothing (negative feasibility tolerance): the
  // closed form is not trusted, and the baseline's own max is returned.
  const auto bench =
      workloads::generate_benchmark(workloads::table1_specs(false)[0]);
  StTargetOptions opts;
  opts.solver.verify.enabled = true;
  opts.solver.verify.tol.tol_feas = -1.0;
  const StTargetResult r = find_st_target(bench.design, bench.baseline, opts);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.certify_failures, 1);
  EXPECT_EQ(r.st_target, r.st_up);
  EXPECT_EQ(r.probes, 0);
}

// search_st_target under a synthetic threshold oracle, accepts(t) = t >= θ,
// recording every probed target in order.
struct Threshold {
  double theta;
  std::vector<double> probes;
};

std::optional<double> run_search(double start, double cap,
                                 const TargetSearchPlan& plan,
                                 Threshold& oracle) {
  return search_st_target(start, cap, plan, [&](double t) {
    oracle.probes.push_back(t);
    return t >= oracle.theta;
  });
}

// The three plans the remap flow runs (DESIGN.md §7).
TargetSearchPlan presearch_plan() {
  TargetSearchPlan plan;
  plan.bisect_probes = kPresearchProbes;
  return plan;
}

TargetSearchPlan ilp_plan(double bracket) {
  TargetSearchPlan plan;
  plan.bisect_probes = 16;
  plan.min_width = std::max(1e-9, 0.02 * bracket);
  return plan;
}

TargetSearchPlan scan_plan(double delta) {
  TargetSearchPlan plan;
  plan.scan = true;
  plan.scan_step = delta;
  plan.bisect_probes = kRefineProbes;
  plan.min_width = delta;
  return plan;
}

TEST(StTarget, SearchPresearchPlanProbesTheExactLadder) {
  Threshold oracle{2.3, {}};
  EXPECT_EQ(run_search(1.0, 9.0, presearch_plan(), oracle), 2.375);
  EXPECT_EQ(oracle.probes,
            (std::vector<double>{1.0, 5.0, 3.0, 2.0, 2.5, 2.25, 2.375}));

  // An accepted start ends the search at once.
  Threshold easy{0.5, {}};
  EXPECT_EQ(run_search(1.0, 9.0, presearch_plan(), easy), 1.0);
  EXPECT_EQ(easy.probes, std::vector<double>{1.0});

  // No width stop: a degenerate bracket still spends the whole budget.
  Threshold none{5.0, {}};
  EXPECT_EQ(run_search(4.0, 4.0, presearch_plan(), none), 4.0);
  EXPECT_EQ(none.probes, std::vector<double>(1 + kPresearchProbes, 4.0));
}

TEST(StTarget, SearchIlpPlanProbesTheExactLadder) {
  Threshold oracle{5.1, {}};
  EXPECT_EQ(run_search(0.0, 16.0, ilp_plan(16.0), oracle), 5.25);
  // Stops once the bracket [5, 5.25] is within 2% of 16 (0.32).
  EXPECT_EQ(oracle.probes,
            (std::vector<double>{0.0, 8.0, 4.0, 6.0, 5.0, 5.5, 5.25}));
}

TEST(StTarget, SearchScanPlanProbesTheExactLadder) {
  Threshold oracle{5.2, {}};
  EXPECT_EQ(run_search(1.0, 10.0, scan_plan(0.5), oracle), 5.5);
  // Scan: 1 + max(0.5, 9/3) = 4, 4 + max(0.5, 6/3) = 6 (accepted); then
  // bisect [4, 6] while wider than the step: 5 (rejected), 5.5 (accepted).
  EXPECT_EQ(oracle.probes, (std::vector<double>{1.0, 4.0, 6.0, 5.0, 5.5}));
}

TEST(StTarget, SearchNeverProbesTheTrustedTop) {
  // Nothing below the cap is accepted: a trusted top is still the answer,
  // and it is never handed to the oracle.
  for (const TargetSearchPlan& plan : {presearch_plan(), ilp_plan(8.0)}) {
    Threshold oracle{100.0, {}};
    EXPECT_EQ(run_search(1.0, 9.0, plan, oracle), 9.0);
    ASSERT_FALSE(oracle.probes.empty());
    for (const double t : oracle.probes) EXPECT_LT(t, 9.0);
  }
}

TEST(StTarget, SearchScanClampsAtTheCapAndGivesUp) {
  // A reachable cap: the last probe is the clamped cap, then the scan gives
  // up without bisecting.
  const double clamp = 10.0 * (1.0 + 1e-9);
  Threshold oracle{100.0, {}};
  EXPECT_EQ(run_search(1.0, 10.0, scan_plan(0.5), oracle), std::nullopt);
  ASSERT_FALSE(oracle.probes.empty());
  EXPECT_EQ(oracle.probes.back(), clamp);
  for (const double t : oracle.probes) EXPECT_LE(t, clamp);
  EXPECT_TRUE(std::is_sorted(oracle.probes.begin(), oracle.probes.end()));

  // A start at the clamp: one probe, no step.
  Threshold at_cap{100.0, {}};
  EXPECT_EQ(run_search(clamp, 10.0, scan_plan(0.5), at_cap), std::nullopt);
  EXPECT_EQ(at_cap.probes, std::vector<double>{clamp});

  // A cap the geometric steps never reach: the scan spends its probe budget
  // (the start included) and gives up.
  Threshold far{2e9, {}};
  EXPECT_EQ(run_search(1.0, 1e9, scan_plan(1e-9), far), std::nullopt);
  ASSERT_EQ(static_cast<int>(far.probes.size()), kMaxScanProbes);
  EXPECT_LT(far.probes.back(), 1e9);

  // Accepted on the budget's last probe: the refinement still runs.
  Threshold last{far.probes.back(), {}};
  EXPECT_TRUE(run_search(1.0, 1e9, scan_plan(1e-9), last).has_value());
  EXPECT_EQ(static_cast<int>(last.probes.size()),
            kMaxScanProbes + kRefineProbes);
}

TEST(StTarget, NarrowerMinWidthNeverReturnsAHigherTarget) {
  // Under a monotone oracle a narrower width stop only adds bisection
  // probes, and each accepted one lowers the top.
  for (const bool scan : {false, true}) {
    for (const double theta : {0.3, 1.7, 2.05, 4.4, 6.999, 7.9}) {
      double previous = 1e300;
      for (const double width : {2.0, 1.0, 0.5, 0.1, 0.01, 1e-9}) {
        TargetSearchPlan plan = scan ? scan_plan(0.25) : ilp_plan(8.0);
        plan.bisect_probes = 24;
        plan.min_width = width;
        Threshold oracle{theta, {}};
        const std::optional<double> t = run_search(0.0, 8.0, plan, oracle);
        ASSERT_TRUE(t.has_value());
        EXPECT_GE(*t, theta);
        EXPECT_LE(*t, previous) << (scan ? "scan" : "trusted") << " theta "
                                << theta << " width " << width;
        previous = *t;
      }
    }
  }
}

TEST(StTarget, SearchProbeCountIsBounded) {
  // A trusted top spends at most the start plus its bisection budget; a
  // scan at most its probe budget plus the refinement.
  for (double theta = -1.0; theta < 12.0; theta += 0.37) {
    Threshold a{theta, {}};
    run_search(1.0, 9.0, presearch_plan(), a);
    EXPECT_LE(a.probes.size(), 1u + kPresearchProbes);
    Threshold b{theta, {}};
    run_search(1.0, 9.0, ilp_plan(8.0), b);
    EXPECT_LE(b.probes.size(), 1u + 16);
    Threshold c{theta, {}};
    run_search(1.0, 9.0, scan_plan(0.4), c);
    EXPECT_LE(c.probes.size(),
              static_cast<std::size_t>(kMaxScanProbes + kRefineProbes));
  }
}

}  // namespace
}  // namespace cgraf::core
