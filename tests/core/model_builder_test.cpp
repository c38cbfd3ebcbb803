#include "core/model_builder.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "cgrra/stress.h"
#include "core/candidates.h"
#include "core/rotation.h"
#include "milp/branch_and_bound.h"
#include "milp/simplex.h"
#include "timing/paths.h"
#include "timing/sta.h"
#include "workloads/suite.h"

namespace cgraf::core {
namespace {

// Two contexts x two ops each on a 3x3 fabric; ops 0->1 chained in ctx 0.
struct Fixture {
  Design design{Fabric(3, 3, 5.0, 0.2), 2, {}, {}};
  Floorplan base;

  Fixture() {
    auto add = [&](OpKind kind, int ctx) {
      Operation op;
      op.id = design.num_ops();
      op.kind = kind;
      op.context = ctx;
      design.ops.push_back(op);
    };
    add(OpKind::kAdd, 0);
    add(OpKind::kAdd, 0);
    add(OpKind::kMux, 1);
    add(OpKind::kAdd, 1);
    design.edges.push_back({0, 1});
    base.op_to_pe = {0, 1, 0, 1};
  }

  RemapModelSpec spec(double st_target) {
    RemapModelSpec s;
    s.design = &design;
    s.base = &base;
    s.frozen.assign(4, 0);
    s.candidates.assign(4, {});
    for (auto& c : s.candidates)
      for (int pe = 0; pe < 9; ++pe) c.push_back(pe);
    s.st_target = st_target;
    return s;
  }
};

TEST(ModelBuilder, VariableAndRowCounts) {
  Fixture f;
  const RemapModel rm = build_remap_model(f.spec(1.0));
  ASSERT_FALSE(rm.trivially_infeasible);
  EXPECT_EQ(rm.num_binary_vars, 4 * 9);
  // Rows: 4 assignment + exclusivity (9 PEs x 2 contexts, each with 2
  // candidate ops) + 9 stress rows.
  EXPECT_EQ(rm.model.num_constraints(), 4 + 18 + 9);
}

TEST(ModelBuilder, FrozenOpsConsumeStressAndPes) {
  Fixture f;
  RemapModelSpec s = f.spec(1.0);
  s.frozen[0] = 1;
  s.candidates[0] = {0};
  const RemapModel rm = build_remap_model(s);
  ASSERT_FALSE(rm.trivially_infeasible);
  // Op 1 (same context) must not get PE 0 as a candidate.
  EXPECT_EQ(rm.assign_vars[0].size(), 0u);
  for (const int pe : rm.candidates[1]) EXPECT_NE(pe, 0);
  // Op 2 (other context) may still use PE 0.
  bool has0 = false;
  for (const int pe : rm.candidates[2]) has0 |= pe == 0;
  EXPECT_TRUE(has0);
}

TEST(ModelBuilder, FrozenOverloadIsTriviallyInfeasible) {
  Fixture f;
  RemapModelSpec s = f.spec(0.01);  // below any single op's stress
  s.frozen[0] = 1;
  s.candidates[0] = {0};
  const RemapModel rm = build_remap_model(s);
  EXPECT_TRUE(rm.trivially_infeasible);
}

TEST(ModelBuilder, SolutionsRespectStressTarget) {
  Fixture f;
  // Target fits one DMU (0.628) but not DMU + anything: ops must spread.
  const RemapModel rm = build_remap_model(f.spec(0.65));
  ASSERT_FALSE(rm.trivially_infeasible);
  milp::MipOptions opts;
  opts.stop_at_first_incumbent = true;
  const auto mip = solve_milp(rm.model, opts);
  ASSERT_TRUE(mip.has_solution());
  const Floorplan fp = rm.decode(mip.x);
  std::string why;
  EXPECT_TRUE(is_valid(f.design, fp, &why)) << why;
  const StressMap stress = compute_stress(f.design, fp);
  EXPECT_LE(stress.max_accumulated(), 0.65 + 1e-6);
}

TEST(ModelBuilder, ImpossibleTargetIsInfeasible) {
  Fixture f;
  // Below the single heaviest op's stress: no assignment can work.
  const RemapModel rm = build_remap_model(f.spec(0.10));
  ASSERT_FALSE(rm.trivially_infeasible);
  const auto mip = solve_milp(rm.model);
  EXPECT_EQ(mip.status, milp::SolveStatus::kInfeasible);
}

TEST(ModelBuilder, PathConstraintLimitsWireLength) {
  Fixture f;
  // Freeze op0 at PE 0; op1 free. Path 0->1 with a 2-unit wire budget.
  RemapModelSpec s = f.spec(1.0);
  s.frozen[0] = 1;
  s.candidates[0] = {0};
  timing::TimingPath path;
  path.context = 0;
  path.ops = {0, 1};
  path.pe_delay_ns = 2 * 0.87;
  std::vector<timing::TimingPath> monitored{path};
  s.monitored = &monitored;
  s.cpd_ns = path.pe_delay_ns + 2 * 0.2;  // wire budget = 2 units
  const RemapModel rm = build_remap_model(s);
  ASSERT_FALSE(rm.trivially_infeasible);
  EXPECT_EQ(rm.num_path_rows, 1);

  milp::MipOptions opts;
  const auto mip = solve_milp(rm.model, opts);
  ASSERT_TRUE(mip.has_solution());
  const Floorplan fp = rm.decode(mip.x);
  EXPECT_LE(manhattan(f.design.fabric.loc(fp.pe_of(0)),
                      f.design.fabric.loc(fp.pe_of(1))),
            2);
}

TEST(ModelBuilder, FreeFreeEdgeUsesExactAbsLinearization) {
  Fixture f;
  // Both chained ops free; budget of 1 wire unit forces adjacency.
  RemapModelSpec s = f.spec(1.0);
  timing::TimingPath path;
  path.context = 0;
  path.ops = {0, 1};
  path.pe_delay_ns = 2 * 0.87;
  std::vector<timing::TimingPath> monitored{path};
  s.monitored = &monitored;
  s.cpd_ns = path.pe_delay_ns + 1 * 0.2;
  const RemapModel rm = build_remap_model(s);
  ASSERT_FALSE(rm.trivially_infeasible);
  const auto mip = solve_milp(rm.model);
  ASSERT_TRUE(mip.has_solution());
  const Floorplan fp = rm.decode(mip.x);
  EXPECT_EQ(manhattan(f.design.fabric.loc(fp.pe_of(0)),
                      f.design.fabric.loc(fp.pe_of(1))),
            1);
}

TEST(ModelBuilder, AllFrozenPathOverBudgetIsTriviallyInfeasible) {
  Fixture f;
  RemapModelSpec s = f.spec(1.0);
  s.frozen[0] = s.frozen[1] = 1;
  s.candidates[0] = {0};
  s.candidates[1] = {8};  // distance 4 from PE 0
  f.base.op_to_pe = {0, 8, 0, 1};
  timing::TimingPath path;
  path.context = 0;
  path.ops = {0, 1};
  path.pe_delay_ns = 2 * 0.87;
  std::vector<timing::TimingPath> monitored{path};
  s.monitored = &monitored;
  s.cpd_ns = path.pe_delay_ns + 0.2;  // 1-unit budget < 4-unit frozen wire
  const RemapModel rm = build_remap_model(s);
  EXPECT_TRUE(rm.trivially_infeasible);
}

TEST(ModelBuilder, MinPerturbationPrefersIdentityWhenFeasible) {
  Fixture f;
  RemapModelSpec s = f.spec(10.0);  // loose target: identity is feasible
  s.objective = ObjectiveMode::kMinPerturbation;
  const RemapModel rm = build_remap_model(s);
  const auto mip = solve_milp(rm.model);
  ASSERT_TRUE(mip.has_solution());
  const Floorplan fp = rm.decode(mip.x);
  EXPECT_EQ(fp.op_to_pe, f.base.op_to_pe);
}

TEST(ModelBuilder, DecodePicksTheAssignedCandidate) {
  Fixture f;
  const RemapModel rm = build_remap_model(f.spec(10.0));
  std::vector<double> x(static_cast<std::size_t>(rm.model.num_vars()), 0.0);
  // Assign op i -> PE i+2 manually.
  for (int op = 0; op < 4; ++op) {
    const auto& cand = rm.candidates[static_cast<std::size_t>(op)];
    for (std::size_t c = 0; c < cand.size(); ++c) {
      if (cand[c] == op + 2)
        x[static_cast<std::size_t>(
            rm.assign_vars[static_cast<std::size_t>(op)][c])] = 1.0;
    }
  }
  const Floorplan fp = rm.decode(x);
  EXPECT_EQ(fp.op_to_pe, (std::vector<int>{2, 3, 4, 5}));
}

TEST(ModelBuilder, PatchedTargetEqualsFreshBuild) {
  // Patching the stress rows to a new target must produce exactly the model
  // a fresh build at that target would: same bounds on every row, and the
  // same solver verdicts on both sides of feasibility.
  Fixture f;
  RemapModel patched = build_remap_model(f.spec(10.0));
  ASSERT_FALSE(patched.trivially_infeasible);
  ASSERT_TRUE(patched.patch_st_target(2.5));
  EXPECT_EQ(patched.st_target, 2.5);

  const RemapModel fresh = build_remap_model(f.spec(2.5));
  ASSERT_FALSE(fresh.trivially_infeasible);
  ASSERT_EQ(patched.model.num_constraints(), fresh.model.num_constraints());
  for (int i = 0; i < fresh.model.num_constraints(); ++i) {
    EXPECT_EQ(patched.model.constraint(i).lb, fresh.model.constraint(i).lb)
        << i;
    EXPECT_EQ(patched.model.constraint(i).ub, fresh.model.constraint(i).ub)
        << i;
  }
}

TEST(ModelBuilder, PatchTracksStressRowsPerPe) {
  Fixture f;
  RemapModel rm = build_remap_model(f.spec(1.0));
  ASSERT_FALSE(rm.trivially_infeasible);
  ASSERT_EQ(rm.stress_rows.size(), static_cast<std::size_t>(9));
  ASSERT_EQ(rm.frozen_stress.size(), static_cast<std::size_t>(9));
  for (std::size_t pe = 0; pe < rm.stress_rows.size(); ++pe) {
    const int row = rm.stress_rows[pe];
    if (row < 0) continue;
    EXPECT_NEAR(rm.model.constraint(row).ub,
                rm.st_target - rm.frozen_stress[pe], 1e-12)
        << pe;
  }
}

TEST(ModelBuilder, PatchRejectsTargetBelowFrozenStress) {
  // Frozen ops' stress alone can exceed a tighter target; the patch must
  // refuse (the cold build would be trivially infeasible) and leave the
  // model at its previous target so later probes can still patch it.
  Fixture f;
  RemapModelSpec s = f.spec(10.0);
  s.frozen[0] = 1;
  s.candidates[0] = {0};
  RemapModel rm = build_remap_model(s);
  ASSERT_FALSE(rm.trivially_infeasible);
  const double frozen_max =
      *std::max_element(rm.frozen_stress.begin(), rm.frozen_stress.end());
  ASSERT_GT(frozen_max, 0.0);
  EXPECT_FALSE(rm.patch_st_target(0.5 * frozen_max));
  EXPECT_EQ(rm.st_target, 10.0);
  // And the refused patch left the rows intact: a feasible re-patch works.
  EXPECT_TRUE(rm.patch_st_target(2.0 * frozen_max + 1.0));
}

// The remapper's presearch geometry on a generated benchmark: each context's
// critical paths frozen (at their rotated PEs when `rotate`), monitored-path
// budgets, slack-pruned candidates, kMinPerturbation.
struct Geometry {
  workloads::GeneratedBenchmark bench;
  Floorplan base;
  std::vector<char> frozen;
  std::vector<timing::TimingPath> monitored;
  double cpd_ns = 0.0;
  double st_max = 0.0;
  RemapModel rm;

  static workloads::GeneratedBenchmark make_bench(std::uint64_t seed) {
    workloads::BenchmarkSpec spec;
    spec.name = "crash";
    spec.contexts = 4;
    spec.fabric_dim = 5;
    spec.usage = 0.7;
    spec.seed = seed;
    return workloads::generate_benchmark(spec);
  }

  Geometry(std::uint64_t seed, bool rotate) : bench(make_bench(seed)) {
    const Design& d = bench.design;
    const timing::CombGraph graph(d);
    cpd_ns = timing::run_sta(graph, bench.baseline).cpd_ns;
    frozen.assign(static_cast<std::size_t>(d.num_ops()), 0);
    std::vector<std::vector<int>> by_context(
        static_cast<std::size_t>(d.num_contexts));
    for (int c = 0; c < d.num_contexts; ++c) {
      for (const auto& p : timing::critical_paths(graph, bench.baseline, c, 8))
        for (const int op : p.ops) {
          if (frozen[static_cast<std::size_t>(op)]) continue;
          frozen[static_cast<std::size_t>(op)] = 1;
          by_context[static_cast<std::size_t>(c)].push_back(op);
        }
    }
    monitored = timing::monitored_paths(graph, bench.baseline);
    base = rotate ? rotate_critical_paths(d, bench.baseline, by_context)
                        .rotated_base
                  : bench.baseline;
    st_max = compute_stress(d, bench.baseline).max_accumulated();
    RemapModelSpec ms;
    ms.design = &bench.design;
    ms.base = &base;
    ms.frozen = frozen;
    ms.candidates =
        compute_candidates(d, base, frozen, monitored, cpd_ns);
    ms.monitored = &monitored;
    ms.cpd_ns = cpd_ns;
    ms.st_target = st_max;
    ms.objective = ObjectiveMode::kMinPerturbation;
    rm = build_remap_model(ms);
  }

  milp::SimplexEngine engine() const {
    milp::Model relaxed = rm.model;
    for (int v = 0; v < relaxed.num_vars(); ++v) relaxed.relax_var(v);
    return milp::SimplexEngine(relaxed);
  }
};

long basic_count(const std::vector<milp::ColStatus>& basis) {
  return std::count(basis.begin(), basis.end(), milp::ColStatus::kBasic);
}

TEST(ModelBuilderCrashBasis, BasicCountIsTheRowCount) {
  // The small fixture with a free-free path exercises the coordinate and
  // |.| rows; the generated geometry adds frozen ops and many paths.
  Fixture f;
  RemapModelSpec s = f.spec(1.0);
  timing::TimingPath path;
  path.context = 0;
  path.ops = {0, 1};
  path.pe_delay_ns = 2 * 0.87;
  std::vector<timing::TimingPath> monitored{path};
  s.monitored = &monitored;
  s.cpd_ns = path.pe_delay_ns + 2 * 0.2;
  const RemapModel small = build_remap_model(s);
  ASSERT_FALSE(small.trivially_infeasible);
  ASSERT_EQ(small.edge_abs.size(), 1u);
  const std::vector<milp::ColStatus> b = small.crash_basis(f.base);
  ASSERT_EQ(b.size(), static_cast<std::size_t>(small.model.num_vars() +
                                                small.model.num_constraints()));
  EXPECT_EQ(basic_count(b), small.model.num_constraints());

  const Geometry g(11, /*rotate=*/false);
  ASSERT_FALSE(g.rm.trivially_infeasible);
  ASSERT_FALSE(g.rm.edge_abs.empty());
  const std::vector<milp::ColStatus> gb = g.rm.crash_basis(g.base);
  EXPECT_EQ(basic_count(gb), g.rm.model.num_constraints());
  // A floorplan that does not cover the design has no crash basis.
  EXPECT_TRUE(g.rm.crash_basis(Floorplan{}).empty());
}

TEST(ModelBuilderCrashBasis, EngineAcceptsTheBasis) {
  for (const bool rotate : {false, true}) {
    const Geometry g(11, rotate);
    ASSERT_FALSE(g.rm.trivially_infeasible);
    const std::vector<milp::ColStatus> b = g.rm.crash_basis(g.base);
    milp::SimplexEngine engine = g.engine();
    const milp::LpResult lp = engine.solve(&b);
    EXPECT_TRUE(lp.warm_used) << (rotate ? "rotated" : "identity");
    EXPECT_EQ(lp.status, milp::SolveStatus::kOptimal);
  }
}

TEST(ModelBuilderCrashBasis, OptimalInZeroIterationsAtTheBaseMaxStress) {
  // At the base's own max stress the base point satisfies every row, and
  // under kMinPerturbation every basic column costs 0: the crash basis is
  // primal and dual feasible, hence already optimal.
  const Geometry g(11, /*rotate=*/false);
  ASSERT_FALSE(g.rm.trivially_infeasible);
  const std::vector<milp::ColStatus> b = g.rm.crash_basis(g.base);
  milp::SimplexEngine engine = g.engine();
  const milp::LpResult lp = engine.solve(&b);
  ASSERT_TRUE(lp.warm_used);
  EXPECT_EQ(lp.status, milp::SolveStatus::kOptimal);
  EXPECT_EQ(lp.iterations, 0);
  EXPECT_EQ(lp.obj, 0.0);
  // The basic solution is the base floorplan itself.
  EXPECT_EQ(g.rm.decode(lp.x).op_to_pe, g.base.op_to_pe);
}

TEST(ModelBuilderCrashBasis, RotatedBaseLeavesDisplacedAssignmentSlacksBasic) {
  // Rotation moves frozen ops onto PEs that free ops of the same context
  // hold; those free ops' base PEs are filtered out of their candidates,
  // so exactly their assignment rows keep a basic slack.
  const Geometry g(11, /*rotate=*/true);
  ASSERT_FALSE(g.rm.trivially_infeasible);
  const Design& d = g.bench.design;
  std::vector<std::vector<char>> frozen_at(
      static_cast<std::size_t>(d.num_contexts),
      std::vector<char>(static_cast<std::size_t>(d.fabric.num_pes()), 0));
  for (int op = 0; op < d.num_ops(); ++op) {
    if (!g.frozen[static_cast<std::size_t>(op)]) continue;
    frozen_at[static_cast<std::size_t>(d.ops[static_cast<std::size_t>(op)]
                                           .context)]
             [static_cast<std::size_t>(g.base.pe_of(op))] = 1;
  }
  const std::vector<milp::ColStatus> b = g.rm.crash_basis(g.base);
  const int n = g.rm.model.num_vars();
  int displaced = 0;
  for (int op = 0; op < d.num_ops(); ++op) {
    if (g.frozen[static_cast<std::size_t>(op)]) continue;
    const bool moved_onto =
        frozen_at[static_cast<std::size_t>(d.ops[static_cast<std::size_t>(op)]
                                               .context)]
                 [static_cast<std::size_t>(g.base.pe_of(op))] != 0;
    displaced += moved_onto ? 1 : 0;
    const int row = g.rm.assign_rows[static_cast<std::size_t>(op)];
    EXPECT_EQ(b[static_cast<std::size_t>(n + row)] == milp::ColStatus::kBasic,
              moved_onto)
        << "op " << op;
  }
  EXPECT_GT(displaced, 0) << "the rotation displaced no free op";
  EXPECT_EQ(basic_count(b), g.rm.model.num_constraints());
}

}  // namespace
}  // namespace cgraf::core
