#include "core/st_target.h"

#include <gtest/gtest.h>

#include "cgrra/stress.h"
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
    EXPECT_EQ(r.model_rebuilds, 0);
    EXPECT_EQ(r.warm_hits, 0);
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

TEST(StTarget, TighterToleranceNeverWorsensTheBound) {
  // The tolerance only steers the ILP-confirmed bisection.
  const auto bench =
      workloads::generate_benchmark(workloads::table1_specs(false)[0]);
  StTargetOptions loose;
  loose.confirm_with_ilp = true;
  loose.tol_frac = 0.10;
  StTargetOptions tight;
  tight.confirm_with_ilp = true;
  tight.tol_frac = 0.01;
  tight.max_iters = 24;
  const double t_loose =
      find_st_target(bench.design, bench.baseline, loose).st_target;
  const double t_tight =
      find_st_target(bench.design, bench.baseline, tight).st_target;
  EXPECT_LE(t_tight, t_loose + 1e-9);
}

TEST(StTarget, ProbeCountIsBounded) {
  const auto bench =
      workloads::generate_benchmark(workloads::table1_specs(false)[0]);
  StTargetOptions opts;
  opts.confirm_with_ilp = true;  // only the ILP-confirmed search probes
  opts.max_iters = 5;
  const StTargetResult r = find_st_target(bench.design, bench.baseline, opts);
  ASSERT_TRUE(r.ok);
  EXPECT_GT(r.probes, 0);
  EXPECT_LE(r.probes, 5 + 1);  // initial ST_low probe + max_iters
}

}  // namespace
}  // namespace cgraf::core
