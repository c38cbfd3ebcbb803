#include "core/st_target.h"

#include <algorithm>

#include "cgrra/stress.h"
#include "core/probe_session.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/clock.h"
#include "verify/certify.h"
#include "verify/input_lint.h"

namespace cgraf::core {
namespace {

// The ILP-confirmed bisection's budget and width stop (a fraction of
// ST_up - ST_low).
constexpr int kIlpBisectProbes = 16;
constexpr double kIlpWidthFrac = 0.02;

// Step 1's model shape at `st_target`: delay-unaware, so every op is free
// and every PE is a candidate.
RemapModelSpec step1_spec(const Design& design, const Floorplan& baseline,
                          double st_target) {
  const int n_ops = design.num_ops();
  RemapModelSpec spec;
  spec.design = &design;
  spec.base = &baseline;
  spec.frozen.assign(static_cast<std::size_t>(n_ops), 0);
  spec.candidates.resize(static_cast<std::size_t>(n_ops));
  for (auto& c : spec.candidates) {
    c.resize(static_cast<std::size_t>(design.fabric.num_pes()));
    for (int pe = 0; pe < design.fabric.num_pes(); ++pe)
      c[static_cast<std::size_t>(pe)] = pe;
  }
  spec.monitored = nullptr;  // no CP / path-delay constraints in Step 1
  spec.st_target = st_target;
  return spec;
}

// Independent check of the closed form: the uniform point x[o][p] = 1/P
// must satisfy the Step-1 model built at ST_low (integrality waived).
bool uniform_point_certifies(const Design& design, const Floorplan& baseline,
                             double st_low,
                             const verify::CertifyOptions& tol) {
  obs::Span span("st_target.certify");
  const RemapModel rm =
      build_remap_model(step1_spec(design, baseline, st_low));
  bool ok = !rm.trivially_infeasible;
  if (ok) {
    std::vector<double> x(static_cast<std::size_t>(rm.model.num_vars()), 0.0);
    const double share = 1.0 / static_cast<double>(design.fabric.num_pes());
    for (const auto& vars : rm.assign_vars)
      for (const int v : vars) x[static_cast<std::size_t>(v)] = share;
    ok = verify::certify_solution(rm.model, x, tol, /*relaxed=*/true).ok;
  }
  span.arg("ok", ok);
  return ok;
}

// Publishes a finished search: metrics, the search span's arguments and the
// st.search_end record.
void finish_search(const StTargetResult& res, bool closed_form,
                   obs::Span& search_span, obs::EventLog* events) {
  const ProbeSessionStats& ps = res.session;
  obs::Metrics::global().counter("st_target.warm_hits").add(ps.warm_hits);
  obs::Metrics::global()
      .counter("st_target.basis_fallbacks")
      .add(ps.basis_fallbacks);
  obs::Metrics::global().counter("st_target.dual_solves").add(ps.dual_solves);
  obs::Metrics::global()
      .counter("st_target.dual_iterations")
      .add(res.lp_stage.dual_iterations);
  obs::Metrics::global()
      .counter("st_target.bound_flips")
      .add(res.lp_stage.bound_flips);
  search_span.arg("st_target", res.st_target)
      .arg("st_low", res.st_low)
      .arg("st_up", res.st_up)
      .arg("probes", static_cast<long>(res.probes))
      .arg("warm_hits", static_cast<long>(ps.warm_hits))
      .arg("basis_fallbacks", static_cast<long>(ps.basis_fallbacks))
      .arg("dual_solves", static_cast<long>(ps.dual_solves))
      .arg("closed_form", closed_form);
  obs::Event(events, "st.search_end")
      .arg("st_target", res.st_target)
      .arg("probes", static_cast<long>(res.probes))
      .arg("warm_hits", static_cast<long>(ps.warm_hits))
      .arg("basis_fallbacks", static_cast<long>(ps.basis_fallbacks))
      .arg("lp_iterations", res.lp_iterations)
      .arg("closed_form", closed_form);
}

}  // namespace

std::optional<double> search_st_target(
    double start, double cap, const TargetSearchPlan& plan,
    const std::function<bool(double)>& accepts) {
  if (accepts(start)) return start;
  double lo = start;  // the last rejection
  double hi = cap;    // the lowest acceptance
  if (plan.scan) {
    // Geometric steps: a hard instance costs O(log) failed probes.
    const double clamp = cap * (1.0 + 1e-9);
    for (int probes = 1;; ++probes) {
      if (lo >= clamp || probes >= kMaxScanProbes) return std::nullopt;
      const double step = std::max(plan.scan_step, (cap - lo) / 3.0);
      const double target = std::min(lo + step, clamp);
      if (accepts(target)) {
        hi = target;
        break;
      }
      lo = target;
    }
  }
  for (int i = 0; i < plan.bisect_probes && hi - lo > plan.min_width; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (accepts(mid)) hi = mid;
    else lo = mid;
  }
  return hi;
}

StTargetResult find_st_target(const Design& design, const Floorplan& baseline,
                              const StTargetOptions& opts) {
  obs::Span search_span("st_target.search");
  obs::EventLog* const events = opts.solver.events != nullptr
                                    ? opts.solver.events
                                    : opts.solver.lp.events;
  StTargetResult res;
  // Input boundary: compute_stress and the model build below index the
  // design freely, so garbage must be turned away first (DL rule errors).
  if (!verify::lint_inputs(design, &baseline).clean()) {
    res.ok = false;
    obs::Event(events, "st.search_end")
        .arg("st_target", 0.0)
        .arg("probes", 0L)
        .arg("rejected_by_input_lint", true);
    return res;
  }
  const StressMap stress = compute_stress(design, baseline);
  res.st_up = stress.max_accumulated();
  res.st_low = stress.avg_accumulated();
  obs::Event(events, "st.search_begin")
      .arg("st_low", res.st_low)
      .arg("st_up", res.st_up);

  // The LP relaxation is feasible at ST_low by construction: the uniform
  // point x[o][p] = 1/P meets every assignment row (sum 1), every
  // exclusivity row (n_c / P <= 1, the baseline proves n_c <= P) and every
  // stress row (sum_o s_o / P is ST_avg). So LP-mode Step 1 runs no
  // simplex; a stress-free design needs none in either mode.
  if (!opts.confirm_with_ilp || res.st_up <= 0.0) {
    res.ok = true;
    res.st_target = res.st_low;
    if (opts.solver.verify.enabled &&
        !uniform_point_certifies(design, baseline, res.st_low,
                                 opts.solver.verify.tol)) {
      ++res.certify_failures;
      obs::Metrics::global().counter("verify.solution_rejections").add(1);
      res.st_target = res.st_up;  // the baseline itself proves ST_up
    }
    finish_search(res, /*closed_form=*/true, search_span, events);
    return res;
  }

  // ILP-confirmed probes: all share one spec (only st_target differs), so
  // the session builds the model once and patches the stress rows between
  // probes.
  ProbeSession session(step1_spec(design, baseline, 0.0), opts.solver,
                       opts.warm_probes);

  auto feasible = [&](double target) {
    // One span per search probe, annotated with the probed target
    // and whether the ILP feasibility oracle accepted it.
    obs::Span probe_span("st_target.probe");
    probe_span.arg("st_target", target);
    const double t_probe = now_seconds();
    const TwoStepResult r = session.solve(target);
    ++res.probes;
    res.lp_iterations += r.stats.lp_iterations;
    res.lp_stage.add(r.stats.lp_stage);
    bool ok = r.status == milp::SolveStatus::kOptimal;
    // Accepted probes also get the cgrra-level certificate: the stress
    // bound must hold on the decoded floorplan itself, not just the model.
    if (ok && opts.solver.verify.enabled) {
      verify::FloorplanSpec fspec;
      fspec.design = &design;
      fspec.st_target = target;
      const verify::Certificate cert = verify::certify_floorplan(
          fspec, r.floorplan, opts.solver.verify.tol);
      if (!cert.ok) {
        ++res.certify_failures;
        obs::Metrics::global().counter("verify.floorplan_rejections").add(1);
        ok = false;
      }
    }
    probe_span.arg("feasible", ok).arg("warm", r.stats.warm_start_used);
    obs::Metrics::global().counter("st_target.probes").add(1);
    const double probe_seconds = now_seconds() - t_probe;
    obs::Event(events, "st.probe")
        .arg("target", target)
        .arg("feasible", ok)
        .arg("seconds", probe_seconds);
    res.probe_log.push_back({target, ok, probe_seconds});
    return ok;
  };

  // The baseline itself proves feasibility at ST_up. The average is
  // usually infeasible for the ILP (perfect balance is rarely integral), but
  // probing it first lets a feasible ST_low short-circuit the search.
  TargetSearchPlan plan;
  plan.bisect_probes = kIlpBisectProbes;
  plan.min_width = std::max(1e-9, kIlpWidthFrac * (res.st_up - res.st_low));
  res.ok = true;
  res.st_target = *search_st_target(res.st_low, res.st_up, plan, feasible);
  res.session = session.stats();
  finish_search(res, /*closed_form=*/false, search_span, events);
  return res;
}

}  // namespace cgraf::core
