// Incremental ST_target probe solving.
//
// Algorithm 1 solves formulation (3) again and again on one frozen
// geometry; between two probes only the stress rows' right-hand side
// (`ST_target`) changes. The remapper opens one ProbeSession per geometry
// and serves both its LP presearch (solve_lp) and its Delta-loop attempts
// (solve) from it; the ILP-confirmed Step 1 uses solve alone. The session
// builds the RemapModel once and patches only the stress rows between
// probes (RemapModel::patch_st_target), so a patched model is bit-identical
// to a fresh build at the same target.
//
// The two calls keep separate basis chains. solve_lp keeps one
// SimplexEngine alive across its probes, so the computational form is
// standardized once, and warm-starts each probe from the previous LP
// probe's basis; with no basis to chain (the first LP probe after every
// (re)build) it starts from RemapModel::crash_basis at the base floorplan,
// which under kMinPerturbation is dual feasible, so the dual simplex
// re-solves it with no primal phase 1. solve runs the full two-step solve
// and chains the basis of its own previous solve; its first solve starts
// from the slack basis, whatever solve_lp ran before. A stale or singular
// starting basis, or a numerical-error LP probe from one, falls back to the
// slack basis. With warm == false every probe rebuilds the model first,
// which resets the engine and both chains; the differential tests and the
// `--warm-probes=off` escape hatch rely on that.
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "core/model_builder.h"
#include "core/two_step.h"
#include "milp/simplex.h"

namespace cgraf::core {

struct ProbeSessionStats {
  // solve_lp and solve calls together.
  int probes = 0;
  // Solves that actually started from their chain's previous basis.
  int warm_hits = 0;
  // solve_lp probes that started from the base floorplan's crash basis
  // (RemapModel::crash_basis) because no chained basis existed. Never
  // counted as warm hits.
  int crash_starts = 0;
  // A chained or crash basis was available but abandoned for the slack
  // basis (engine-side rejection of a stale/singular basis, or a
  // numerical-error retry).
  int basis_fallbacks = 0;
  // Full build_remap_model calls (the first build counts; warm sessions
  // rebuild only when a trivially-infeasible model must be re-attempted at
  // a different target, cold sessions at every probe).
  int model_rebuilds = 0;
  // RHS-only patches that replaced a rebuild.
  int patches = 0;
  // Probes whose LP work engaged the dual simplex loop — the expected case
  // for every probe that starts from a chained or crash basis.
  int dual_solves = 0;
};

class ProbeSession {
 public:
  // `spec.st_target` is ignored; every probe supplies its own target. The
  // pointers inside `spec` (design, base floorplan, monitored paths) are
  // borrowed and must outlive the session.
  ProbeSession(RemapModelSpec spec, TwoStepOptions solver, bool warm = true);

  // LP-feasibility probe: solves the LP relaxation at `st_target` on the
  // persistent engine. kOptimal means LP feasible; with solver.verify on,
  // the LP point is certified (integrality waived) and a rejection
  // downgrades the status to kNumericalError. No floorplan is decoded.
  TwoStepResult solve_lp(double st_target);

  // Full two-step solve at `st_target`, warm-started from the previous
  // solve()'s basis. Results are verdict-identical to a cold rebuild at the
  // same target.
  TwoStepResult solve(double st_target);

  const ProbeSessionStats& stats() const { return stats_; }
  // The spec every probe builds or patches from (st_target aside).
  const RemapModelSpec& spec() const { return spec_; }
  // The session's model as of the last probe (valid once one ran).
  const RemapModel& model() const { return rm_; }

  // Brings the session's model to `target` without solving and returns it
  // (nullptr when the target is trivially infeasible). The portfolio uses
  // this to encode a heuristic incumbent against the exact model before
  // racing it.
  const RemapModel* model_at(double target);

  // Seed the next solve()'s branch & bound with a known-feasible solution
  // vector (see MipOptions::initial_incumbent; same not-owned lifetime
  // rules). Null clears the seed. No effect on solve_lp.
  void set_initial_incumbent(const std::vector<double>* seed) {
    solver_.mip.initial_incumbent = seed;
  }
  // Cooperative cancellation for every solve this session runs (the
  // portfolio race's kill switch). Null clears it.
  void set_cancel(const std::atomic<bool>* cancel) {
    solver_.cancel = cancel;
  }

 private:
  // Brings rm_ (and the persistent engine's row bounds) to `target`.
  // Returns false when the target is trivially infeasible.
  bool ensure_model(double target);
  // Runs one probe (`lp` picks the call) with the probe.solve accounting.
  TwoStepResult probe(double st_target, bool lp);
  TwoStepResult run_lp();
  TwoStepResult run_two_step();

  RemapModelSpec spec_;
  TwoStepOptions solver_;
  bool warm_ = true;
  RemapModel rm_;
  bool built_ = false;
  std::unique_ptr<milp::SimplexEngine> engine_;  // solve_lp's engine
  std::vector<milp::ColStatus> lp_basis_;        // solve_lp's chain
  std::vector<milp::ColStatus> basis_;           // solve's chain
  ProbeSessionStats stats_;
};

}  // namespace cgraf::core
