// Pivot-identity golden test for the LP kernel (simplex engine + basis LU).
//
// Kernel edits that only make a pivot cheaper — a different sort, a
// different loop order over the same sums, fewer allocations — must leave
// every pivot exactly where it was. This test pins, for a fixed corpus of
// solves, each solve's status, iteration counters and the objective's exact
// bit pattern, as produced by the kernel before such an edit. Any change to
// the pivot sequence fails it; such a change needs its own justification
// and a regenerated table (run the DISABLED_PrintGoldenTables case with
// --gtest_also_run_disabled_tests and paste its output over the tables).
//
// The pinned values assume IEEE double arithmetic without fused
// multiply-add contraction (the x86-64 baseline the build targets).
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ostream>
#include <string>
#include <vector>

#include "boxed_lp.h"
#include "cgrra/stress.h"
#include "core/model_builder.h"
#include "milp/branch_and_bound.h"
#include "milp/model.h"
#include "milp/simplex.h"
#include "milp/sparse.h"
#include "util/rng.h"
#include "workloads/suite.h"

namespace cgraf::milp {
namespace {

// What the golden tables pin for one LP solve.
struct SolveRow {
  std::string status;
  long iterations = 0;
  long phase1 = 0;
  long dual = 0;
  long flips = 0;
  long refactors = 0;
  std::uint64_t obj_bits = 0;

  bool operator==(const SolveRow&) const = default;
};

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

SolveRow row_of(const LpResult& r) {
  return {to_string(r.status),       r.iterations,
          r.stats.phase1_iterations, r.stats.dual_iterations,
          r.stats.bound_flips,       r.stats.refactorizations,
          bits_of(r.obj)};
}

std::string format_row(const SolveRow& r) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "{\"%s\", %ld, %ld, %ld, %ld, %ld, 0x%016" PRIx64 "ULL},",
                r.status.c_str(), r.iterations, r.phase1, r.dual, r.flips,
                r.refactors, r.obj_bits);
  return buf;
}

std::ostream& operator<<(std::ostream& os, const SolveRow& r) {
  return os << format_row(r);
}

std::string format_rows(const std::vector<SolveRow>& rows) {
  std::string out;
  for (const SolveRow& r : rows) out += "    " + format_row(r) + "\n";
  return out;
}

// FNV-1a over every pinned field of every solve, in solve order.
std::uint64_t digest(const std::vector<SolveRow>& rows) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  for (const SolveRow& r : rows) {
    for (const char c : r.status) mix(static_cast<unsigned char>(c));
    mix(static_cast<std::uint64_t>(r.iterations));
    mix(static_cast<std::uint64_t>(r.phase1));
    mix(static_cast<std::uint64_t>(r.dual));
    mix(static_cast<std::uint64_t>(r.flips));
    mix(static_cast<std::uint64_t>(r.refactors));
    mix(r.obj_bits);
  }
  return h;
}

// --- Corpus 1: the dual-equivalence seeds, replayed solve for solve. ------

constexpr int kSeeds = 120;

// DualEquivalence.ColdSolvesAgree: primal, dual and dual-Devex cold solves.
std::vector<SolveRow> cold_rows(int seed) {
  Rng rng(52000 + static_cast<std::uint64_t>(seed));
  const Model m = random_boxed_lp(rng, 14, 10);
  LpOptions primal;
  primal.algorithm = LpAlgorithm::kPrimal;
  LpOptions dual;
  dual.algorithm = LpAlgorithm::kDual;
  LpOptions devex = dual;
  devex.dual_pricing = DualPricing::kDevex;
  return {row_of(solve_lp(m, primal)), row_of(solve_lp(m, dual)),
          row_of(solve_lp(m, devex))};
}

// DualEquivalence.WarmResolveChainsAgree: two engines (primal, auto) along
// one chain of bound tightenings, each re-solve warm from the last basis.
std::vector<SolveRow> warm_rows(int seed) {
  Rng rng(53000 + static_cast<std::uint64_t>(seed));
  const Model m = random_boxed_lp(rng, 12, 8);
  LpOptions primal_opts;
  primal_opts.algorithm = LpAlgorithm::kPrimal;
  LpOptions auto_opts;
  auto_opts.algorithm = LpAlgorithm::kAutoWarm;
  SimplexEngine pe(m, primal_opts);
  SimplexEngine de(m, auto_opts);
  std::vector<SolveRow> rows;
  LpResult plast = pe.solve();
  LpResult dlast = de.solve();
  rows.push_back(row_of(plast));
  rows.push_back(row_of(dlast));
  if (plast.status != SolveStatus::kOptimal) return rows;
  std::vector<double> lb = pe.model_lb();
  std::vector<double> ub = pe.model_ub();
  for (int step = 0; step < 6; ++step) {
    const auto v = static_cast<size_t>(
        rng.next_below(static_cast<std::uint64_t>(pe.num_structural())));
    const double mid = lb[v] + 0.4 * (ub[v] - lb[v]);
    if (rng.next_bool(0.5)) ub[v] = mid; else lb[v] = mid;
    const std::vector<ColStatus> pwarm = plast.basis;
    const std::vector<ColStatus> dwarm = dlast.basis;
    plast = pe.solve(lb, ub, &pwarm);
    dlast = de.solve(lb, ub, &dwarm);
    rows.push_back(row_of(plast));
    rows.push_back(row_of(dlast));
    if (plast.status != SolveStatus::kOptimal) break;
  }
  return rows;
}

// --- Corpus 2: B6's Step-1 probe chain and a warm dive on its model. ------

struct B6Chains {
  std::vector<SolveRow> step1;
  std::vector<SolveRow> dive;
};

// A Step-1-shaped LP chain on Table-I benchmark B6, run on one engine the
// way an incremental probe session runs it: delay-unaware model, null
// objective, stress rows re-ranged between probes, each probe warm from
// the previous probe's basis, a bisection over [ST_low, ST_up], then a
// descending ladder of targets on the same chain. Then a dive under the
// min-perturbation objective at a quarter of the way from ST_low to ST_up:
// each round fixes the most fractional op's largest assignment to 1 and
// re-solves warm.
B6Chains run_b6_chains() {
  const auto bench =
      workloads::generate_benchmark(workloads::table1_specs(false)[5]);
  const Design& design = bench.design;
  const StressMap stress = compute_stress(design, bench.baseline);
  const double st_low = stress.avg_accumulated();
  const double st_up = stress.max_accumulated();

  core::RemapModelSpec spec;
  spec.design = &design;
  spec.base = &bench.baseline;
  spec.frozen.assign(static_cast<std::size_t>(design.num_ops()), 0);
  spec.candidates.resize(static_cast<std::size_t>(design.num_ops()));
  for (auto& c : spec.candidates) {
    for (int pe = 0; pe < design.fabric.num_pes(); ++pe) c.push_back(pe);
  }
  spec.objective = core::ObjectiveMode::kNull;
  spec.st_target = st_low;
  core::RemapModel rm = core::build_remap_model(spec);
  EXPECT_FALSE(rm.trivially_infeasible);

  auto relaxed_of = [](Model m) {
    for (int v = 0; v < m.num_vars(); ++v) m.relax_var(v);
    return m;
  };
  B6Chains out;
  SimplexEngine engine(relaxed_of(rm.model));
  std::vector<ColStatus> basis;
  auto feasible = [&](double target) {
    if (target != rm.st_target) {
      if (!rm.patch_st_target(target)) return false;
      for (const int row : rm.stress_rows) {
        if (row < 0) continue;
        const Constraint& c = rm.model.constraint(row);
        engine.set_row_bounds(row, c.lb, c.ub);
      }
    }
    const LpResult lp = engine.solve(basis.empty() ? nullptr : &basis);
    out.step1.push_back(row_of(lp));
    if (!lp.basis.empty()) basis = lp.basis;
    return lp.status == SolveStatus::kOptimal;
  };
  if (!feasible(st_low)) {
    double lo = st_low;
    double hi = st_up;
    const double tol = std::max(1e-9, 0.02 * (st_up - st_low));
    for (int it = 0; it < 16 && hi - lo > tol; ++it) {
      const double mid = 0.5 * (lo + hi);
      (feasible(mid) ? hi : lo) = mid;
    }
  }
  // The presearch / Delta-loop shape: a descending ladder of targets.
  for (int k = 0; k <= 8; ++k) feasible(st_up - k * (st_up - st_low) / 8);

  spec.objective = core::ObjectiveMode::kMinPerturbation;
  spec.st_target = st_low + 0.25 * (st_up - st_low);
  const core::RemapModel dm = core::build_remap_model(spec);
  EXPECT_FALSE(dm.trivially_infeasible);
  SimplexEngine dive(relaxed_of(dm.model));
  std::vector<double> lb = dive.model_lb();
  std::vector<double> ub = dive.model_ub();
  LpResult lp = dive.solve(lb, ub);
  out.dive.push_back(row_of(lp));
  std::vector<char> fixed(dm.assign_vars.size(), 0);
  for (int round = 0; round < 12 && lp.status == SolveStatus::kOptimal;
       ++round) {
    int pick_op = -1, pick_var = -1;
    double pick_max = 1.0 - 1e-9;
    for (std::size_t op = 0; op < dm.assign_vars.size(); ++op) {
      if (fixed[op] || dm.assign_vars[op].empty()) continue;
      int arg = -1;
      double mx = -1.0;
      for (const int v : dm.assign_vars[op]) {
        if (lp.x[static_cast<std::size_t>(v)] > mx) {
          mx = lp.x[static_cast<std::size_t>(v)];
          arg = v;
        }
      }
      if (mx < pick_max) {
        pick_max = mx;
        pick_op = static_cast<int>(op);
        pick_var = arg;
      }
    }
    if (pick_op < 0) break;  // integral
    fixed[static_cast<std::size_t>(pick_op)] = 1;
    lb[static_cast<std::size_t>(pick_var)] = 1.0;
    const std::vector<ColStatus> warm = lp.basis;
    lp = dive.solve(lb, ub, &warm);
    out.dive.push_back(row_of(lp));
  }
  return out;
}

// --- Corpus 3: branch & bound on a small assignment MIP. ------------------

// ops x pes assignment with random costs and per-PE capacity rows: enough
// structure that the search branches, small enough for a TSan lane.
Model assignment_mip(std::uint64_t seed, int ops, int pes) {
  Rng rng(seed);
  Model m;
  std::vector<std::vector<int>> vars(static_cast<std::size_t>(ops));
  for (auto& row_vars : vars) {
    std::vector<std::pair<int, double>> row;
    for (int k = 0; k < pes; ++k) {
      row_vars.push_back(m.add_binary(rng.next_double() * 4 - 1));
      row.emplace_back(row_vars.back(), 1.0);
    }
    m.add_eq(std::move(row), 1.0);
  }
  for (int k = 0; k < pes; ++k) {
    std::vector<std::pair<int, double>> row;
    for (const auto& row_vars : vars)
      row.emplace_back(row_vars[static_cast<std::size_t>(k)],
                       0.5 + rng.next_double());
    m.add_le(std::move(row), 0.8 * ops / pes + 1.0);
  }
  return m;
}

struct MipRow {
  std::string status;
  long nodes = 0;
  long lp_iterations = 0;
  std::uint64_t obj_bits = 0;

  bool operator==(const MipRow&) const = default;
};

MipRow mip_row_of(const MipResult& r) {
  return {to_string(r.status), r.nodes, r.lp_iterations, bits_of(r.obj)};
}

std::string format_mip_row(const MipRow& r) {
  char buf[120];
  std::snprintf(buf, sizeof buf, "{\"%s\", %ld, %ld, 0x%016" PRIx64 "ULL}",
                r.status.c_str(), r.nodes, r.lp_iterations, r.obj_bits);
  return buf;
}

std::ostream& operator<<(std::ostream& os, const MipRow& r) {
  return os << format_mip_row(r);
}

MipResult solve_assignment(int threads) {
  MipOptions opts;
  opts.num_threads = threads;
  return solve_milp(assignment_mip(91, 10, 4), opts);
}

const B6Chains& b6_chains() {
  static const B6Chains chains = run_b6_chains();
  return chains;
}

// --- Golden tables (generated from the kernel before the pivot-neutral
// ratio-test / pricing / allocation rework; see the file comment). --------

const std::uint64_t kColdDigests[kSeeds] = {
    0x6a5fee220169fa6fULL, 0x2b378b2dab9a0572ULL, 0x54e54c565d8d177cULL,
    0x923ec83a8f3853d6ULL, 0xba2e9c0225b0d7d2ULL, 0x102378d5a40acc52ULL,
    0xffc62e28ee986b6eULL, 0x0c62027348fcef55ULL, 0x31807be419ca54e1ULL,
    0xed228990f6257478ULL, 0xdd4cd66d01c05ad3ULL, 0x78b5ebb097c6a26fULL,
    0x96f34b5e3a4cd627ULL, 0x9cb07c9ed4e0eb8fULL, 0xcc4dcab52e9d05bbULL,
    0x37548e898b420e2cULL, 0xfb642621de92a304ULL, 0xdada6846951ecc94ULL,
    0x2d8dffdb1c5af444ULL, 0x2de682f42714099dULL, 0x4a3ac1e25498870eULL,
    0x650223eb95c6ac7bULL, 0x971cc091595c0962ULL, 0x8b8682f3be1ed654ULL,
    0x52c9fb8c47b41757ULL, 0x521bd8b99d2e0415ULL, 0x4466b8e7d4fdfc70ULL,
    0x352b72b1637fb6daULL, 0x52c77c83d5df7caeULL, 0x7d6faad0d4336315ULL,
    0x722774a0a4a4a4d4ULL, 0xd9de62258665b083ULL, 0x1453c9f1de722310ULL,
    0xef2763377bc46130ULL, 0x5f0b329acdce3864ULL, 0xb56335c44bfa1e07ULL,
    0xb981a3e0fbcb737fULL, 0x9be65d73a9ea4bccULL, 0xdd3e7b8c3fce0ffdULL,
    0x21573b1a90e1ee9cULL, 0xef1132cb5b33a854ULL, 0x6e70d861023cfbd8ULL,
    0x0d1ca674972ab446ULL, 0x732ea701543f3031ULL, 0x352a6c85ca8b72c4ULL,
    0x423696dd7ac1e67bULL, 0xcac2f85e39d4541fULL, 0x0d9bf01870d37dc7ULL,
    0x2757f043841a0fa6ULL, 0x0a02e5ddea1e5f7dULL, 0x754b9be3040aa6edULL,
    0xfd9bfb6cece5eaefULL, 0x83afdb38fd92d926ULL, 0x12e9466cb8e3a18cULL,
    0x3411f99b6b974631ULL, 0x29dd7b3079b4932bULL, 0x21e8131308faf0a4ULL,
    0xc77e5867033ece9fULL, 0x6addd0b0e53d7dd5ULL, 0x99d2e25ce4f8e9b9ULL,
    0x7f46bc9460840ff2ULL, 0x7ad6ad3de0e7961bULL, 0x0db68e9553fdf9b8ULL,
    0xe57f162dc8122a08ULL, 0x76d6d83a2dedafbaULL, 0x0138e3952b9cac08ULL,
    0x655a6bc5ac35e0cbULL, 0xec178fe96b660198ULL, 0xe06ca83a42260fcdULL,
    0xd059d0d379abe3c1ULL, 0x1e079ee307903f84ULL, 0x320d3e7bd688b791ULL,
    0x4f24e7a684d623e6ULL, 0x3c8bdcc4f4e173c7ULL, 0x04bf6d3df3148b7dULL,
    0x5ea92d72f24eb6beULL, 0xffd4f75ec67fce0dULL, 0x71718a5c9fa7074bULL,
    0x9559f4316f2f1f05ULL, 0xb6c3d6087f204ed6ULL, 0x0e2af4cfbd566c5eULL,
    0x65c61e033676dc6eULL, 0x39bb55373ad06436ULL, 0x2f658690aef74fe3ULL,
    0x455bd88e3f1a3cddULL, 0x8444bf74ef15f6bcULL, 0x1c043563e0c6dbe0ULL,
    0xccb8bc9a6036dabdULL, 0x0be75daad23cf44eULL, 0x120d74dc96629b03ULL,
    0x274036cb0842f595ULL, 0xa370604daea5430fULL, 0x2a61a310ea0177eeULL,
    0x240bda3240aaa1aaULL, 0x0b3d605015669a4dULL, 0x7f9d4dec669b1ec0ULL,
    0x35486eb8da90a07fULL, 0xa17e0d88801cdbefULL, 0x259a27f7917e0891ULL,
    0x5d3d59346cfdfc68ULL, 0x14e3af21fe936ee0ULL, 0xd4430086e4f5d19aULL,
    0x9973962bbadc746fULL, 0x5af5580c80e7b6cbULL, 0xcb2aff82e1e9d60fULL,
    0xb7e1658bdc967cb0ULL, 0xac067a4a6b453019ULL, 0x5f376059a43a7c41ULL,
    0x1b478dd6854c9424ULL, 0x2a5c3350ee9ca967ULL, 0x8d34212c935c884fULL,
    0x78f1da67e9eeb603ULL, 0x8cc0152e9d4a2561ULL, 0xafe5eb8b3a284fe4ULL,
    0x5c24a83b1d43c04aULL, 0x9cc870e829fe0115ULL, 0x19f27b5b38c2d6efULL,
    0x34c2b584c5916af4ULL, 0x3dfebe7f236aeeb2ULL, 0xeb61bda07cbf9dbcULL,
};

const std::uint64_t kWarmDigests[kSeeds] = {
    0x9c3345419ba2e3cdULL, 0x23c5c943a39ecc8fULL, 0x943da7bf1e0d6105ULL,
    0x662bfa23bfbd7885ULL, 0x8f7566cdfb245ce7ULL, 0x3aa97e4cc183c0fdULL,
    0x7dee89f601aa52cdULL, 0xa353bff72fd4fbb0ULL, 0x9d28124933ca5ce5ULL,
    0x803e1911bd656e17ULL, 0x3cde09f6aa657049ULL, 0xe7092e371ab10c75ULL,
    0xfe68ff78f6e58a7dULL, 0xbfa17e427524f8ddULL, 0xa12e694534863012ULL,
    0xa08e103c87d47a65ULL, 0x07ff11cf82177719ULL, 0x8596a28a27184162ULL,
    0x161a473081cd955aULL, 0xc13211cc78ac38f5ULL, 0x84b8a2e926e4f724ULL,
    0x2b00186b008f3bbdULL, 0x3013576f7485a2c5ULL, 0xce752333bfd2086cULL,
    0x43a2575172d8df74ULL, 0x8d721544b55ece35ULL, 0x4f2bbb7abcd82171ULL,
    0x60b00f9398f56d1dULL, 0xdaab27a02f10945eULL, 0xe22f42650877f0b9ULL,
    0xc5cfbf625ca52e49ULL, 0xc9821723ac449787ULL, 0xb35a1fc76ba3436bULL,
    0xc7a49f496d2df656ULL, 0x3d132ad4c11e574dULL, 0x6fb415888eea96d8ULL,
    0xf6532979219f5159ULL, 0x3440edf00b639a65ULL, 0xef925ae9f8cf58bdULL,
    0x86f0f88f1b06b9edULL, 0x84766ba9c35b7189ULL, 0xa4a716e376bdd76dULL,
    0xfe5a2730cb837b81ULL, 0xff34058d26619995ULL, 0x1cc2dce29a27834eULL,
    0xe53804586f90edfdULL, 0x051a2bc4993a1795ULL, 0x7d85bc7ed530203bULL,
    0x78052e85d9bdb307ULL, 0x26b5060ff9cc1c85ULL, 0x8e333dc949c3b6c5ULL,
    0xa4526e559e8a6ee9ULL, 0xbba7c26ec5691736ULL, 0x15eb9550f3b3ab82ULL,
    0x99a5ce54376885bdULL, 0x7a0b7154f571f75dULL, 0x6c44572196198e72ULL,
    0x748ba025db553b59ULL, 0xa57efaf8ebf27e72ULL, 0x05df2761965711dfULL,
    0xbcb35e75773f4579ULL, 0x2231d09bad99e2e3ULL, 0x968ff64fbfd1cdd9ULL,
    0x43c454ccbef274beULL, 0x35121f0cbd056279ULL, 0x263bf3c900b0c803ULL,
    0xaa0a627c8a29af71ULL, 0x824083e7a6558e74ULL, 0x5221737987eb35daULL,
    0x54b742a2c5af8361ULL, 0x198652ba20522428ULL, 0xeb747a0aaf14d1e4ULL,
    0xbf624f06ea00ebb5ULL, 0xc36db4d4a8b64459ULL, 0x919b38f848bed139ULL,
    0x779fee9e460cc434ULL, 0x05d2f903f56f879dULL, 0xfa8e3b46e6158cb1ULL,
    0xf59943aa94fdd7e9ULL, 0xc6becbb5447d7db6ULL, 0xd239a560a276a858ULL,
    0x62a187a13d065d49ULL, 0xf662dd4ce7438221ULL, 0x164f46547d50c5c1ULL,
    0x14555d24e2aaef08ULL, 0x6bc244652c9a0ff9ULL, 0xdbab0675a6bd1fd9ULL,
    0x973a31c6b1f7635dULL, 0x795e3ab8e83c599cULL, 0x7cf71150aac59aeeULL,
    0x00fbaea72fa8f27cULL, 0x9d0eedf935581141ULL, 0xdf146eb5d12be0d9ULL,
    0x9b4dc2d5fb696cb9ULL, 0xa2aae360ddd3bb2eULL, 0x24dc8723d63bdb2dULL,
    0x46a67f0c89bb1ae0ULL, 0xb04a80f55219e598ULL, 0x7fb4e28c9e794d3dULL,
    0x0dc17b7407629b16ULL, 0xd2b74e3a6fd09be0ULL, 0x2026c78e85a76af1ULL,
    0xa673e6628934b8a5ULL, 0x6bcac820fb94cdfdULL, 0xd268e504b67360f9ULL,
    0x507633f64661a121ULL, 0xbf4a4bcd4e14f280ULL, 0x64cf54b806f84aa1ULL,
    0x08e1d3dd30f3d114ULL, 0x295c521b65e51841ULL, 0x8975dd0dcabe2389ULL,
    0x2f62e3ce35610c3dULL, 0xfe92ce659b4fbf65ULL, 0x9030e67e30d7dc49ULL,
    0x6a9dbdc82623ce55ULL, 0x7fe693875675cc0cULL, 0x6c2865cfee7eda15ULL,
    0x196d757d8239ccb6ULL, 0x52a0eb38e91f9f12ULL, 0xff9f29c58ebb1d21ULL,
};

const std::vector<SolveRow> kB6StepOne = {
    {"optimal", 2336, 2336, 0, 0, 24, 0x0000000000000000ULL},
    {"optimal", 73, 0, 73, 31, 1, 0x0000000000000000ULL},
    {"optimal", 0, 0, 0, 0, 1, 0x0000000000000000ULL},
    {"optimal", 0, 0, 0, 0, 1, 0x0000000000000000ULL},
    {"optimal", 0, 0, 0, 0, 1, 0x0000000000000000ULL},
    {"optimal", 0, 0, 0, 0, 1, 0x0000000000000000ULL},
    {"optimal", 0, 0, 0, 0, 1, 0x0000000000000000ULL},
    {"optimal", 2, 0, 2, 0, 1, 0x0000000000000000ULL},
    {"optimal", 10, 0, 10, 0, 1, 0x0000000000000000ULL},
    {"optimal", 2375, 368, 2007, 2239, 24, 0x0000000000000000ULL},
};

const std::vector<SolveRow> kB6Dive = {
    {"optimal", 4109, 1978, 0, 0, 41, 0x4045e51415029855ULL},
    {"optimal", 39, 0, 39, 6, 1, 0x4046b986d3b76a43ULL},
    {"optimal", 27, 0, 27, 3, 1, 0x404765537efcbce3ULL},
    {"optimal", 22, 0, 22, 0, 1, 0x4047a3339e1e23c0ULL},
    {"optimal", 35, 0, 35, 5, 1, 0x40483760e750b117ULL},
    {"optimal", 12, 0, 12, 2, 1, 0x4048d8961c648c07ULL},
    {"optimal", 8, 0, 8, 1, 1, 0x4048f7ae575bffc8ULL},
    {"optimal", 13, 0, 13, 1, 1, 0x40491f9662f45028ULL},
    {"optimal", 18, 0, 18, 0, 1, 0x404995e097f3b1f6ULL},
    {"optimal", 26, 0, 26, 0, 1, 0x4049d3393f98ef6eULL},
    {"optimal", 30, 0, 30, 1, 1, 0x4049faf0bf66e269ULL},
    {"optimal", 17, 0, 17, 1, 1, 0x404a2b78ec6cd537ULL},
    {"optimal", 39, 0, 39, 0, 1, 0x404a767c2b75c0edULL},
};

const MipRow kAssignmentSerial = {"optimal", 75, 189, 0x3fe4407d5e0a6018ULL};

TEST(KernelIdentity, DualEquivalenceColdSolvesArePinned) {
  for (int seed = 0; seed < kSeeds; ++seed) {
    const std::vector<SolveRow> rows = cold_rows(seed);
    EXPECT_EQ(digest(rows), kColdDigests[seed])
        << "cold seed " << seed << " now solves as:\n"
        << format_rows(rows);
  }
}

TEST(KernelIdentity, DualEquivalenceWarmChainsArePinned) {
  for (int seed = 0; seed < kSeeds; ++seed) {
    const std::vector<SolveRow> rows = warm_rows(seed);
    EXPECT_EQ(digest(rows), kWarmDigests[seed])
        << "warm seed " << seed << " now solves as:\n"
        << format_rows(rows);
  }
}

TEST(KernelIdentity, B6ProbeChainIsPinned) {
  const std::vector<SolveRow>& rows = b6_chains().step1;
  ASSERT_EQ(rows.size(), kB6StepOne.size()) << format_rows(rows);
  for (std::size_t i = 0; i < rows.size(); ++i)
    EXPECT_EQ(rows[i], kB6StepOne[i]) << "probe " << i;
}

TEST(KernelIdentity, B6WarmDiveChainIsPinned) {
  const std::vector<SolveRow>& rows = b6_chains().dive;
  ASSERT_EQ(rows.size(), kB6Dive.size()) << format_rows(rows);
  for (std::size_t i = 0; i < rows.size(); ++i)
    EXPECT_EQ(rows[i], kB6Dive[i]) << "dive solve " << i;
}

// Row-wise pricing must reproduce the column-wise reference bit for bit on
// every column, for sparse and dense y (including signed zeros and empty
// rows/columns), or swapping one for the other could move a pivot.
TEST(KernelIdentity, RowWiseTransposeProductBitEqualsDotCol) {
  Rng rng(4711);
  for (int trial = 0; trial < 200; ++trial) {
    const int rows = 1 + static_cast<int>(rng.next_below(40));
    const int cols = 1 + static_cast<int>(rng.next_below(60));
    const double fill = 0.02 + 0.5 * rng.next_double();
    std::vector<Triplet> triplets;
    for (int i = 0; i < rows; ++i)
      for (int j = 0; j < cols; ++j)
        if (rng.next_bool(fill))
          triplets.push_back({i, j, (rng.next_double() * 2 - 1) *
                                        std::pow(10.0, rng.next_int(-6, 6))});
    rng.shuffle(triplets);
    const CscMatrix a = from_triplets(rows, cols, std::move(triplets));
    ASSERT_TRUE(is_canonical(a));
    const RowMajorMatrix ar = build_row_major(a);
    for (const double density : {0.05, 0.4, 1.0}) {
      std::vector<double> y(static_cast<std::size_t>(rows), 0.0);
      for (double& yi : y) {
        if (!rng.next_bool(density)) {
          yi = rng.next_bool(0.5) ? 0.0 : -0.0;
        } else {
          yi = (rng.next_double() * 2 - 1) * std::pow(10.0, rng.next_int(-8, 8));
        }
      }
      std::vector<double> out;
      ar.transpose_product(y, out);
      ASSERT_EQ(static_cast<int>(out.size()), cols);
      for (int j = 0; j < cols; ++j) {
        ASSERT_EQ(bits_of(out[static_cast<std::size_t>(j)]),
                  bits_of(a.dot_col(j, y)))
            << "trial " << trial << " column " << j << " density " << density;
      }
    }
  }
}

// One engine clone per worker: each owns its LU and solve scratch, so a
// multi-threaded search runs clean under TSan and proves the serial
// optimum. The serial search itself is deterministic and pinned.
TEST(KernelIdentityThreads, ParallelSolveMilpMatchesPinnedSerial) {
  const MipResult serial = solve_assignment(1);
  EXPECT_EQ(mip_row_of(serial), kAssignmentSerial);
  const MipResult parallel = solve_assignment(4);
  ASSERT_EQ(parallel.status, SolveStatus::kOptimal);
  EXPECT_EQ(parallel.threads_used, 4);
  EXPECT_NEAR(parallel.obj, serial.obj, 1e-9);
  EXPECT_LE(assignment_mip(91, 10, 4).max_violation(parallel.x, true), 1e-6);
}

// Regenerates the tables above from the kernel under test.
TEST(KernelIdentity, DISABLED_PrintGoldenTables) {
  auto print_digests = [](const char* name, auto rows_of) {
    std::printf("const std::uint64_t %s[kSeeds] = {\n", name);
    for (int seed = 0; seed < kSeeds; ++seed) {
      std::printf("%s0x%016" PRIx64 "ULL,%s", seed % 3 == 0 ? "    " : " ",
                  digest(rows_of(seed)), seed % 3 == 2 ? "\n" : "");
    }
    std::printf("};\n\n");
  };
  print_digests("kColdDigests", cold_rows);
  print_digests("kWarmDigests", warm_rows);
  std::printf("const std::vector<SolveRow> kB6StepOne = {\n%s};\n\n",
              format_rows(b6_chains().step1).c_str());
  std::printf("const std::vector<SolveRow> kB6Dive = {\n%s};\n\n",
              format_rows(b6_chains().dive).c_str());
  std::printf("const MipRow kAssignmentSerial = %s;\n",
              format_mip_row(mip_row_of(solve_assignment(1))).c_str());
}

}  // namespace
}  // namespace cgraf::milp
