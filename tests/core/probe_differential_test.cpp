// Differential harness for the incremental ST_target probes.
//
// Four layers over seeded random fabric/context corpora (all but the
// second also over the Table-I suite):
//  - find_st_target's closed-form Step 1 must equal ST_low, the target at
//    which the LP relaxation (solved warm-session and forced-cold) is
//    feasible;
//  - a ProbeSession with the remapper's presearch shape (frozen critical
//    paths + monitored-path budgets, kMinPerturbation solve_lp probes) must
//    answer a shared bisection ladder verdict-for-verdict like a cold
//    session that rebuilds the model at every probe. Path constraints make
//    ST_low genuinely infeasible here, so the ladders actually bisect and
//    the warm session chains bases across probes;
//  - the verdict gate: that presearch, crash-started from the base
//    floorplan, must answer every probe of the remapper's presearch ladder
//    like the kNull model solved cold from the slack basis, in the identity
//    geometry, a rotated one and a blocked-PE one;
//  - the merged session: a two-step solve() on the session the presearch
//    ran on must match, bit for bit, the same solve on a fresh session, and
//    must reuse the presearch's model.
// Labeled `slow` — it runs a few hundred LP searches and a few hundred
// dives.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>

#include "cgrra/stress.h"
#include "core/candidates.h"
#include "core/probe_session.h"
#include "core/remapper.h"
#include "core/rotation.h"
#include "core/st_target.h"
#include "milp/simplex.h"
#include "timing/paths.h"
#include "util/rng.h"
#include "workloads/suite.h"

namespace cgraf::core {
namespace {

std::vector<workloads::BenchmarkSpec> corpus(int count) {
  // Small, varied instances: 2..8 contexts, 3x3..6x6 fabrics, the full
  // usage range. Seeds drive both the shape draw and the netlist.
  std::vector<workloads::BenchmarkSpec> specs;
  Rng rng(0xd1ffu);
  for (int i = 0; i < count; ++i) {
    workloads::BenchmarkSpec s;
    s.name = "D" + std::to_string(i);
    s.contexts = 2 + static_cast<int>(rng.next_u64() % 7);
    s.fabric_dim = 3 + static_cast<int>(rng.next_u64() % 4);
    s.usage = 0.25 + 0.55 * rng.next_double();
    s.band = s.usage < 0.4   ? workloads::UsageBand::kLow
             : s.usage < 0.6 ? workloads::UsageBand::kMedium
                             : workloads::UsageBand::kHigh;
    s.seed = 0x5eed0000u + static_cast<std::uint64_t>(i);
    specs.push_back(std::move(s));
  }
  return specs;
}

// The remapper's presearch geometry for one benchmark: critical-path union
// frozen (in place, or at its rotated PEs when `rotate`), monitored paths
// budgeted, candidates slack-pruned. With `blocked` PEs it follows the
// remapper's fault mode: critical paths touching a blocked PE stay free,
// candidates avoid blocked PEs and get extra additive slack.
struct PresearchFixture {
  const Design* design;
  Floorplan base;
  std::vector<char> frozen;
  std::vector<timing::TimingPath> monitored;
  std::vector<std::vector<int>> candidates;
  double cpd_ns = 0.0;
  double st_low = 0.0;
  double st_up = 0.0;

  explicit PresearchFixture(const workloads::GeneratedBenchmark& bench,
                            bool rotate = false,
                            const std::vector<int>& blocked = {})
      : design(&bench.design), base(bench.baseline) {
    const Floorplan& baseline = bench.baseline;
    const timing::CombGraph graph(*design);
    const timing::StaResult sta = run_sta(graph, baseline);
    cpd_ns = sta.cpd_ns;
    std::vector<char> is_blocked(
        static_cast<std::size_t>(design->fabric.num_pes()), 0);
    for (const int pe : blocked) is_blocked[static_cast<std::size_t>(pe)] = 1;
    frozen.assign(static_cast<std::size_t>(design->num_ops()), 0);
    std::vector<char> tainted(frozen.size(), 0);
    std::vector<std::vector<timing::TimingPath>> cps;
    for (int c = 0; c < design->num_contexts; ++c) {
      cps.push_back(timing::critical_paths(graph, baseline, c, 8));
      for (const auto& p : cps.back()) {
        bool touches_blocked = false;
        for (const int op : p.ops)
          touches_blocked |=
              is_blocked[static_cast<std::size_t>(baseline.pe_of(op))] != 0;
        if (!touches_blocked) continue;
        for (const int op : p.ops) tainted[static_cast<std::size_t>(op)] = 1;
      }
    }
    std::vector<std::vector<int>> by_context(cps.size());
    for (std::size_t c = 0; c < cps.size(); ++c) {
      for (const auto& p : cps[c]) {
        for (const int op : p.ops) {
          const std::size_t o = static_cast<std::size_t>(op);
          if (tainted[o] || frozen[o]) continue;
          frozen[o] = 1;
          by_context[c].push_back(op);
        }
      }
    }
    monitored = timing::monitored_paths(graph, baseline);
    if (rotate)
      base = rotate_critical_paths(*design, baseline, by_context).rotated_base;
    CandidateOptions cand_opts;
    if (!blocked.empty()) cand_opts.slack_additive = 4.0;
    candidates =
        compute_candidates(*design, base, frozen, monitored, cpd_ns, cand_opts);
    for (int op = 0; op < design->num_ops(); ++op) {
      if (frozen[static_cast<std::size_t>(op)]) continue;
      std::erase_if(candidates[static_cast<std::size_t>(op)], [&](int pe) {
        return is_blocked[static_cast<std::size_t>(pe)] != 0;
      });
    }
    const StressMap stress = compute_stress(*design, baseline);
    st_low = stress.avg_accumulated();
    st_up = stress.max_accumulated();
  }

  RemapModelSpec spec(ObjectiveMode objective) const {
    RemapModelSpec spec;
    spec.design = design;
    spec.base = &base;
    spec.frozen = frozen;
    spec.candidates = candidates;
    spec.monitored = &monitored;
    spec.cpd_ns = cpd_ns;
    spec.objective = objective;
    return spec;
  }

  // The remapper's session for this geometry.
  ProbeSession session(bool warm, TwoStepOptions solver = {}) const {
    return ProbeSession(spec(ObjectiveMode::kMinPerturbation),
                        std::move(solver), warm);
  }

  // The reference presearch oracle: the kNull model, rebuilt at `target`
  // and solved cold from the slack basis.
  bool reference_feasible(double target, long* iterations) const {
    RemapModelSpec s = spec(ObjectiveMode::kNull);
    s.st_target = target;
    const RemapModel rm = build_remap_model(s);
    if (rm.trivially_infeasible) return false;
    milp::Model relaxed = rm.model;
    for (int v = 0; v < relaxed.num_vars(); ++v) relaxed.relax_var(v);
    milp::SimplexEngine engine(relaxed);
    const milp::LpResult lp = engine.solve();
    *iterations += lp.iterations;
    return lp.status == milp::SolveStatus::kOptimal;
  }
};

TEST(ProbeDifferential, SessionMatchesColdRebuildOnBisectionLadders) {
  int probes_total = 0;
  int warm_hits_total = 0;
  int infeasible_total = 0;
  for (const auto& spec : corpus(50)) {
    const auto bench = workloads::generate_benchmark(spec);
    const PresearchFixture fx(bench);
    if (fx.st_up <= 0.0) continue;
    ProbeSession warm = fx.session(true);
    ProbeSession cold = fx.session(false);

    // Both sessions walk the same ladder; the bisection branches on the
    // warm verdict, so a single divergence would snowball into different
    // targets — asserting per probe pins the exact first difference.
    double lo = fx.st_low;
    double hi = fx.st_up;
    for (int it = 0; it < 6; ++it) {
      const double mid = 0.5 * (lo + hi);
      const TwoStepResult rw = warm.solve_lp(mid);
      const TwoStepResult rc = cold.solve_lp(mid);
      const bool vw = rw.status == milp::SolveStatus::kOptimal;
      const bool vc = rc.status == milp::SolveStatus::kOptimal;
      ASSERT_EQ(vw, vc) << spec.name << " target " << mid << " warm="
                        << milp::to_string(rw.status) << " cold="
                        << milp::to_string(rc.status);
      infeasible_total += vw ? 0 : 1;
      if (vw) hi = mid;
      else lo = mid;
    }
    probes_total += warm.stats().probes;
    warm_hits_total += warm.stats().warm_hits;

    // Cold sessions rebuild per probe and never chain a basis.
    EXPECT_EQ(cold.stats().warm_hits, 0) << spec.name;
    EXPECT_EQ(cold.stats().basis_fallbacks, 0) << spec.name;
    EXPECT_EQ(cold.stats().model_rebuilds, cold.stats().probes) << spec.name;
    // Per warm probe at most one of: a full rebuild, a warm hit, or an
    // accounted fallback (probes rejected by patch_st_target are none of
    // the three — the frozen stress alone exceeded the target).
    EXPECT_LE(warm.stats().warm_hits + warm.stats().basis_fallbacks +
                  warm.stats().model_rebuilds,
              warm.stats().probes)
        << spec.name;
    EXPECT_GE(warm.stats().model_rebuilds, 1) << spec.name;
  }
  // The corpus must actually bisect (both verdicts present) and the warm
  // path must actually chain bases — otherwise this test proves nothing.
  EXPECT_GT(probes_total, 100);
  EXPECT_GT(warm_hits_total, 0);
  EXPECT_GT(infeasible_total, 0);
  std::printf("[corpus] %d probes, %d warm hits, %d infeasible verdicts\n",
              probes_total, warm_hits_total, infeasible_total);
}

// Totals of the verdict gate, for its sanity floors and its summary line.
struct GateTotals {
  int sessions = 0;
  int probes = 0;
  int infeasible = 0;
  int dual_stall_outs = 0;
  long subject_iterations = 0;
  long reference_iterations = 0;
};

// The dual loop's anti-stall window (kBlandTrigger in milp/simplex.cpp):
// after this many pivots without a new low of the primal infeasibility it
// hands the basis to the primal loop.
constexpr long kDualStallWindow = 2000;

// The remapper's presearch search (core/remapper.h) over `accepts`: ST_low,
// then a bisection below the trusted ST_up when ST_low is rejected. Returns
// the target the Delta loop starts from.
double presearch_search(const PresearchFixture& fx,
                        const std::function<bool(double)>& accepts) {
  TargetSearchPlan plan;
  plan.bisect_probes = kPresearchProbes;
  return *search_st_target(std::max(fx.st_low, 1e-12), fx.st_up, plan,
                           accepts);
}

// Walks the remapper's presearch ladder (presearch_search) with the
// crash-started kMinPerturbation session and the cold kNull reference side
// by side, branching on the reference verdict so that one divergence cannot
// snowball.
void run_presearch_gate(const std::string& name, const PresearchFixture& fx,
                        bool may_stall, GateTotals& totals) {
  ProbeSession subject = fx.session(true);
  bool first_lp = true;
  auto probe = [&](double target) {
    const TwoStepResult r = subject.solve_lp(target);
    const bool vs = r.status == milp::SolveStatus::kOptimal;
    const bool vr = fx.reference_feasible(target, &totals.reference_iterations);
    EXPECT_EQ(vs, vr) << name << " target " << target << " subject="
                      << milp::to_string(r.status);
    totals.subject_iterations += r.stats.lp_iterations;
    ++totals.probes;
    totals.infeasible += vr ? 0 : 1;
    // A probe that leaves a buildable model behind solved an LP; the first
    // such probe is the session's crash start.
    if (first_lp && !subject.model().trivially_infeasible) {
      first_lp = false;
      ++totals.sessions;
      EXPECT_TRUE(r.stats.warm_start_used) << name;
      EXPECT_EQ(subject.stats().crash_starts, 1) << name;
      EXPECT_EQ(subject.stats().basis_fallbacks, 0) << name;
      // The crash basis is dual feasible, so the dual loop alone answers
      // the probe. A rotated geometry may instead hit the dual loop's
      // anti-stall (heavy dual degeneracy); only then may phase 1 run.
      const milp::LpStageStats& lp = r.stats.lp_stage;
      const bool stalled_out =
          may_stall && lp.dual_iterations > kDualStallWindow;
      totals.dual_stall_outs += stalled_out ? 1 : 0;
      if (!stalled_out) {
        EXPECT_EQ(lp.phase1_iterations, 0)
            << name << " target " << target << ": " << lp.dual_iterations
            << " dual pivots, " << lp.dual_fallbacks
            << " dual fallbacks, status " << milp::to_string(r.status);
      }
    }
    return vr;
  };
  presearch_search(fx, probe);
  // Crash starts are not warm hits; the session accounting stays disjoint.
  const ProbeSessionStats& st = subject.stats();
  EXPECT_LE(st.warm_hits + st.crash_starts + st.basis_fallbacks, st.probes)
      << name;
}

TEST(ProbeDifferential, CrashStartedPresearchMatchesColdNullVerdicts) {
  std::vector<workloads::BenchmarkSpec> specs = corpus(50);
  for (const auto& spec : workloads::table1_specs(false)) specs.push_back(spec);
  GateTotals totals;
  for (const auto& spec : specs) {
    const auto bench = workloads::generate_benchmark(spec);
    for (const bool rotate : {false, true}) {
      const PresearchFixture fx(bench, rotate);
      if (fx.st_up <= 0.0) continue;
      run_presearch_gate(spec.name + (rotate ? " rotated" : " identity"), fx,
                         /*may_stall=*/rotate, totals);
    }
  }
  {
    // Fault mode: ops on the blocked PEs lose their base PE, so their
    // assignment rows start primal infeasible in the crash basis.
    const auto bench =
        workloads::generate_benchmark(workloads::table1_specs(false)[4]);
    const StressMap stress = compute_stress(bench.design, bench.baseline);
    const PresearchFixture fx(bench, false, {stress.argmax(), 0});
    run_presearch_gate("blocked", fx, /*may_stall=*/false, totals);
  }
  // The ladders must bisect (both verdicts present) and crash-start every
  // geometry, or this gate proves nothing.
  EXPECT_GT(totals.sessions, 100);
  EXPECT_GT(totals.infeasible, 0);
  EXPECT_LT(totals.infeasible, totals.probes);
  std::printf("[gate] %d sessions (%d dual stall-outs), %d probes, %d "
              "infeasible; LP iterations %ld crash-started vs %ld cold "
              "reference\n",
              totals.sessions, totals.dual_stall_outs, totals.probes,
              totals.infeasible, totals.subject_iterations,
              totals.reference_iterations);
}

TEST(ProbeDifferential, DeltaLoopOnThePresearchSessionMatchesAFreshSession) {
  // One session per geometry serves the presearch (solve_lp) and the Delta
  // loop (solve). The two keep separate basis chains and the patched model
  // is bit-identical to a fresh build, so the first attempt after the
  // presearch must dive exactly like a session that never ran an LP probe.
  std::vector<workloads::BenchmarkSpec> specs = corpus(50);
  for (const auto& spec : workloads::table1_specs(false)) specs.push_back(spec);
  // The remapper's solver, with a short ban budget and a per-LP pivot cap
  // so that the largest Table-I dives stay affordable. Both sides run the
  // same options, so the identity claim is unaffected.
  TwoStepOptions solver = default_remap_solver_options();
  solver.mip.num_threads = 1;
  solver.dive_ban_budget = 4;
  solver.lp.max_iters = 3000;
  int sessions = 0;
  int optimal = 0;
  int reused = 0;
  for (const auto& spec : specs) {
    const auto bench = workloads::generate_benchmark(spec);
    for (const bool rotate : {false, true}) {
      const PresearchFixture fx(bench, rotate);
      if (fx.st_up <= 0.0) continue;
      const std::string name = spec.name + (rotate ? " rotated" : " identity");
      ProbeSession merged = fx.session(true, solver);
      const double target = presearch_search(fx, [&](double t) {
        return merged.solve_lp(t).status == milp::SolveStatus::kOptimal;
      });
      const bool model_live = !merged.model().trivially_infeasible;
      const int rebuilds = merged.stats().model_rebuilds;
      const TwoStepResult rm = merged.solve(target);
      if (model_live) {
        EXPECT_EQ(merged.stats().model_rebuilds, rebuilds) << name;
        ++reused;
      }

      ProbeSession fresh = fx.session(true, solver);
      const TwoStepResult rf = fresh.solve(target);
      ++sessions;
      optimal += rf.status == milp::SolveStatus::kOptimal ? 1 : 0;
      EXPECT_EQ(rm.status, rf.status) << name << " target " << target;
      EXPECT_EQ(rm.floorplan.op_to_pe, rf.floorplan.op_to_pe) << name;
      EXPECT_EQ(rm.stats.dive_rounds, rf.stats.dive_rounds) << name;
      EXPECT_EQ(rm.stats.lp_iterations, rf.stats.lp_iterations) << name;
      // The first attempt starts from the slack basis on both sides.
      EXPECT_FALSE(rm.stats.warm_start_used) << name;
      // And the patched model is the fresh build, row bound for row bound.
      const milp::Model& pm = merged.model().model;
      const milp::Model& fm = fresh.model().model;
      ASSERT_EQ(pm.num_constraints(), fm.num_constraints()) << name;
      for (int r = 0; r < pm.num_constraints(); ++r) {
        ASSERT_EQ(pm.constraint(r).lb, fm.constraint(r).lb) << name << " row "
                                                             << r;
        ASSERT_EQ(pm.constraint(r).ub, fm.constraint(r).ub) << name << " row "
                                                             << r;
      }
    }
  }
  // Both verdicts must occur and the presearch model must be reused, or
  // this test proves nothing.
  EXPECT_GT(sessions, 100);
  EXPECT_GT(optimal, 0);
  EXPECT_LT(optimal, sessions);
  EXPECT_GT(reused, 100);
  std::printf("[merged] %d sessions, %d optimal first attempts, %d reused "
              "the presearch model\n",
              sessions, optimal, reused);
}

TEST(ProbeDifferential, ClosedFormStTargetMatchesTheLp) {
  // Step 1 proper (no path constraints): the LP relaxation of the
  // all-candidates model is feasible at ST_low — the uniform point
  // x[o][p] = 1/P spreads stress perfectly — so find_st_target answers it
  // in closed form. The LP, solved warm-session and forced-cold, stays the
  // reference that the closed form's answer is right.
  std::vector<workloads::BenchmarkSpec> specs = corpus(50);
  for (const auto& spec : workloads::table1_specs(false)) specs.push_back(spec);
  for (const auto& spec : specs) {
    const auto bench = workloads::generate_benchmark(spec);
    const StressMap stress = compute_stress(bench.design, bench.baseline);
    const double st_low = stress.avg_accumulated();

    const int n_ops = bench.design.num_ops();
    const int n_pes = bench.design.fabric.num_pes();
    RemapModelSpec mspec;
    mspec.design = &bench.design;
    mspec.base = &bench.baseline;
    mspec.frozen.assign(static_cast<std::size_t>(n_ops), 0);
    mspec.candidates.assign(static_cast<std::size_t>(n_ops), {});
    for (auto& c : mspec.candidates)
      for (int pe = 0; pe < n_pes; ++pe) c.push_back(pe);
    mspec.objective = ObjectiveMode::kNull;
    for (const bool warm : {true, false}) {
      ProbeSession session(mspec, {}, warm);
      const TwoStepResult lp = session.solve_lp(st_low);
      EXPECT_EQ(lp.status, milp::SolveStatus::kOptimal)
          << spec.name << (warm ? " warm" : " cold") << " LP at ST_low "
          << milp::to_string(lp.status);
    }

    for (const bool warm : {true, false}) {
      StTargetOptions opts;
      opts.warm_probes = warm;
      const StTargetResult r =
          find_st_target(bench.design, bench.baseline, opts);
      ASSERT_TRUE(r.ok) << spec.name;
      EXPECT_EQ(r.st_low, st_low) << spec.name;
      EXPECT_EQ(r.st_target, st_low) << spec.name;
      EXPECT_EQ(r.probes, 0) << spec.name;
      EXPECT_EQ(r.lp_iterations, 0) << spec.name;
    }
  }
}

TEST(ProbeDifferential, FirstIlpProbeMatchesColdBitForBit) {
  // With ILP-confirmed probes the dive is path-dependent once a basis is
  // chained, but the *first* probe of each search has no chained basis
  // yet, so it must match the cold search exactly — and both searches must
  // stay inside the bracket whatever path they took after that.
  for (const auto& spec : corpus(8)) {
    const auto bench = workloads::generate_benchmark(spec);
    StTargetOptions warm_opts;
    warm_opts.confirm_with_ilp = true;
    warm_opts.warm_probes = true;
    const StTargetResult warm =
        find_st_target(bench.design, bench.baseline, warm_opts);
    StTargetOptions cold_opts;
    cold_opts.confirm_with_ilp = true;
    cold_opts.warm_probes = false;
    const StTargetResult cold =
        find_st_target(bench.design, bench.baseline, cold_opts);
    if (warm.probe_log.empty()) {
      // Zero-stress designs return before probing; both sides must agree.
      EXPECT_TRUE(cold.probe_log.empty()) << spec.name;
      continue;
    }
    ASSERT_FALSE(cold.probe_log.empty()) << spec.name;
    EXPECT_EQ(warm.probe_log[0].st_target, cold.probe_log[0].st_target)
        << spec.name;
    EXPECT_EQ(warm.probe_log[0].feasible, cold.probe_log[0].feasible)
        << spec.name;
    EXPECT_GE(warm.st_target, warm.st_low - 1e-12) << spec.name;
    EXPECT_LE(warm.st_target, warm.st_up + 1e-12) << spec.name;
    EXPECT_GE(cold.st_target, cold.st_low - 1e-12) << spec.name;
    EXPECT_LE(cold.st_target, cold.st_up + 1e-12) << spec.name;
  }
}

}  // namespace
}  // namespace cgraf::core
