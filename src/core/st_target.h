// Step 1 of Algorithm 1: MILP-based stress-time constraint determination.
//
// Finds the smallest accumulated-stress target ST_target in [ST_low, ST_up]
// for which formulation (3) *without* critical-path and path-delay
// constraints is feasible. ST_up is the highest accumulated stress of the
// aging-unaware floorplan; ST_low its fabric-wide average. Because the delay
// constraints are ignored, the result is a lower bound on any
// delay-feasible target (the paper's "initial value").
//
// The default oracle is the LP relaxation, and it is answered in closed
// form: the uniform point x[o][p] = 1/P is LP-feasible at ST_low, so the
// result is ST_low with no simplex (and no model build unless
// solver.verify.enabled asks to certify that point). Only the
// ILP-confirmed Step 1 (confirm_with_ilp, the paper's LP-round-ILP at each
// probe) binary-searches the bracket.
#pragma once

#include "cgrra/design.h"
#include "cgrra/floorplan.h"
#include "core/two_step.h"

namespace cgraf::core {

struct StTargetOptions {
  // ILP-confirmed search only: stop when the bracket is narrower than
  // tol_frac * (ST_up - ST_low), or after max_iters bisection probes.
  double tol_frac = 0.02;
  int max_iters = 16;
  // Feasibility oracle. Default: the LP relaxation, answered in closed form
  // (ST_low; the searched value is explicitly a lower bound). Set
  // confirm_with_ilp to run the paper's full LP-round-ILP at each probe of a
  // binary search instead.
  bool confirm_with_ilp = false;
  // ILP-confirmed search only. Incremental probing (core/probe_session.h):
  // build the remap model once, patch only the stress rows' RHS between
  // probes and warm-start each LP from the previous probe's basis. Off =
  // the legacy cold rebuild per probe.
  bool warm_probes = true;
  // Options of each ILP-confirmed probe. In either mode verify.enabled
  // certifies the answer: accepted probes' floorplans, or the closed form's
  // uniform point against the Step-1 model built at ST_low.
  TwoStepOptions solver;
};

// One binary-search probe, in solve order.
struct StProbe {
  double st_target = 0.0;
  bool feasible = false;
  double seconds = 0.0;  // wall time of this probe's solve
};

struct StTargetResult {
  bool ok = false;
  double st_target = 0.0;  // smallest feasible target found
  double st_low = 0.0;     // fabric-average accumulated stress
  double st_up = 0.0;      // max accumulated stress of the baseline
  int probes = 0;
  long lp_iterations = 0;
  milp::LpStageStats lp_stage;  // aggregated over all probe LPs
  // Answers that failed independent certification (solver.verify.enabled
  // turns the check on): rejected probes, counted as infeasible, or a
  // rejected closed form, which then falls back to ST_up.
  int certify_failures = 0;
  // Incremental-session accounting of the ILP-confirmed search (all zero
  // with warm_probes == false except model_rebuilds, which then equals
  // probes; all zero for the closed form).
  int warm_hits = 0;        // solves started from the previous probe's basis
  int basis_fallbacks = 0;  // chained basis abandoned for the slack basis
  int model_rebuilds = 0;   // full build_remap_model calls
  int dual_solves = 0;      // probes whose LPs ran the dual simplex loop
  // Per-probe log, in solve order: target, verdict, wall seconds (empty for
  // the closed form). The differential tests compare it probe by probe; the
  // benches derive their probe-time percentiles from it.
  std::vector<StProbe> probe_log;
};

StTargetResult find_st_target(const Design& design, const Floorplan& baseline,
                              const StTargetOptions& opts = {});

}  // namespace cgraf::core
