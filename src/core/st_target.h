// Step 1 of Algorithm 1: MILP-based stress-time constraint determination,
// and search_st_target, the one search over ST_target that Step 1's
// ILP-confirmed bisection, the remapper's LP presearch and its Delta-scan
// with refinement all call.
//
// find_st_target finds the smallest accumulated-stress target ST_target in
// [ST_low, ST_up] for which formulation (3) *without* critical-path and
// path-delay constraints is feasible. ST_up is the highest accumulated
// stress of the aging-unaware floorplan; ST_low its fabric-wide average.
// Because the delay constraints are ignored, the result is a lower bound on
// any delay-feasible target (the paper's "initial value").
//
// The default oracle is the LP relaxation, and it is answered in closed
// form: the uniform point x[o][p] = 1/P is LP-feasible at ST_low, so the
// result is ST_low with no simplex (and no model build unless
// solver.verify.enabled asks to certify that point). Only the
// ILP-confirmed Step 1 (confirm_with_ilp, the paper's LP-round-ILP at each
// probe) searches the bracket.
#pragma once

#include <functional>
#include <limits>
#include <optional>

#include "cgrra/design.h"
#include "cgrra/floorplan.h"
#include "core/probe_session.h"
#include "core/two_step.h"

namespace cgraf::core {

// A scan's probe budget, its start included.
inline constexpr int kMaxScanProbes = 40;

// How search_st_target finds a feasible top above a rejected start, and how
// far it then bisects. DESIGN.md §7 lists the three plans the flow runs.
struct TargetSearchPlan {
  // false: `cap` is trusted feasible, so it is never probed. true: scan up
  // by max(scan_step, (cap - t) / 3), clamped to cap * (1 + 1e-9), until a
  // probe is accepted; give up once a clamped or the kMaxScanProbes-th
  // probe is rejected.
  bool scan = false;
  double scan_step = 0.0;
  int bisect_probes = 0;  // budget, spent while hi - lo > min_width
  double min_width = -std::numeric_limits<double>::infinity();
};

// Probes `start`; if it is rejected, finds a top as `plan` says and bisects
// between the last rejection and the lowest acceptance at 0.5 * (lo + hi).
// Returns the lowest accepted target (or the trusted cap), or nullopt when a
// scan gives up. `accepts` must be monotone, so an oracle that keeps the
// result of its latest acceptance keeps the lowest.
std::optional<double> search_st_target(
    double start, double cap, const TargetSearchPlan& plan,
    const std::function<bool(double)>& accepts);

struct StTargetOptions {
  // Feasibility oracle. Default: the LP relaxation, answered in closed form
  // (ST_low; the searched value is explicitly a lower bound). Set
  // confirm_with_ilp to run the paper's full LP-round-ILP at each probe of a
  // trusted-top search_st_target over [ST_low, ST_up] instead.
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

// One ILP-confirmed probe, in solve order.
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
  // for the closed form; with warm_probes == false model_rebuilds equals
  // probes and the basis counters stay zero).
  ProbeSessionStats session;
  // Per-probe log, in solve order: target, verdict, wall seconds (empty for
  // the closed form). The differential tests compare it probe by probe; the
  // benches derive their probe-time percentiles from it.
  std::vector<StProbe> probe_log;
};

StTargetResult find_st_target(const Design& design, const Floorplan& baseline,
                              const StTargetOptions& opts = {});

}  // namespace cgraf::core
