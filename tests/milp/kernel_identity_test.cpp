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
#include "slack_basis.h"
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

// DualEquivalence.ColdSolvesAgree: a solve with no basis (primal) and one
// from the explicit slack basis (dual).
std::vector<SolveRow> cold_rows(int seed) {
  Rng rng(52000 + static_cast<std::uint64_t>(seed));
  const Model m = random_boxed_lp(rng, 14, 10);
  return {row_of(solve_lp(m)), row_of(solve_lp_from_slack(m))};
}

// DualEquivalence.WarmResolveChainsAgree: two engines along one chain of
// bound tightenings; one re-solves every step with no basis (primal), the
// other warm from its last basis (dual).
std::vector<SolveRow> warm_rows(int seed) {
  Rng rng(53000 + static_cast<std::uint64_t>(seed));
  const Model m = random_boxed_lp(rng, 12, 8);
  SimplexEngine pe(m);
  SimplexEngine de(m);
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
    const std::vector<ColStatus> dwarm = dlast.basis;
    plast = pe.solve(lb, ub);
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
// ratio-test / pricing / allocation rework; see the file comment). The
// corpus-1 digests were regenerated once more, on an unchanged kernel, when
// their primal references became no-basis solves and their cold dual
// solves became slack-basis solves; only kWarmDigests moved. -------------

const std::uint64_t kColdDigests[kSeeds] = {
    0x2586b89763739e90ULL, 0x316f3d3599b77abaULL, 0x07a290cf58786151ULL,
    0xd5b0cdcdac6041adULL, 0xcc4bff04f696bc7bULL, 0xface83259d4c1b87ULL,
    0x0464e2c266099540ULL, 0x5ff3f0d67b0ebbf0ULL, 0xd5b1508f438b89c1ULL,
    0xeb3f18f48a2db47aULL, 0xff0b3c5a37fb7a1bULL, 0xaf05232ab1ed4557ULL,
    0x510ec700d437e1ebULL, 0x0f5c087c6f2ccc11ULL, 0x76dd416358f5a956ULL,
    0x88fff0ded4ff714dULL, 0x803a93d1c3537f54ULL, 0x1240193827c1e2e8ULL,
    0x909bd1804fdd7d04ULL, 0xf6ba082b42c77edaULL, 0x76d9c9e18e6392acULL,
    0xf53f70c4c416eef0ULL, 0xa9c599f8f1cb945eULL, 0x05eab313aa4689c4ULL,
    0x9e3106c099b45819ULL, 0xa0bc4736f82719c5ULL, 0x8fda188fbac7ce39ULL,
    0xb9bdf6dcfd19af26ULL, 0x0df9d9b82cdbb105ULL, 0xd474406f8d18b500ULL,
    0x362ced5f780fd34fULL, 0xade4c92ed74f5f18ULL, 0x7de1e260db51c37dULL,
    0x6e8a7f46a0b179a8ULL, 0x6a939c2399e569c9ULL, 0x6e9a396da14110c7ULL,
    0xdbeb43889d0e443fULL, 0x25604cded19e6e7aULL, 0x9eb7d234d2e72bcdULL,
    0x670b09693851f9b6ULL, 0xc9606812f45fd2e0ULL, 0xaa6bbea40a81ce09ULL,
    0x1ee73c8409de030bULL, 0x0f5e51ace1235e35ULL, 0x407c99745373084eULL,
    0xb1338d5a0abe7ec7ULL, 0xdb03c799e786d8b3ULL, 0x1faa2183b7470ae7ULL,
    0x1e2be72dcc8e5f42ULL, 0x0845779a0108a69eULL, 0xf203b2289efccf27ULL,
    0xd921f0b8e89a7269ULL, 0xf7d6a27167723c11ULL, 0x74f6c4f83c061955ULL,
    0xc0d2ee5c686b2bc6ULL, 0x035b53bf7d6f7c40ULL, 0x1f5ca9134024aa29ULL,
    0x411d92a2486028ddULL, 0xca3aa64104cebf41ULL, 0x34d2ea0c82120725ULL,
    0x39d5cf995506449bULL, 0xc26ecc1239a8e966ULL, 0xc5b344f7d7241594ULL,
    0x836d0b3796a6a7e8ULL, 0x91885c13410ca14aULL, 0xc36c9bdbe1ad427aULL,
    0x577c3e368998a53eULL, 0x8a2e475fb671e4d2ULL, 0xb89b14c571810295ULL,
    0x05bfb4c1faa1a4dbULL, 0x5544f243cebe5788ULL, 0x93890f3a460532c6ULL,
    0x574601efb30d837fULL, 0xe565d3c3a164b80bULL, 0x5709712543701844ULL,
    0x23b5690f76876f65ULL, 0xb1139c2d896f5731ULL, 0xf2da58822fc0d225ULL,
    0x03d965d761cc5672ULL, 0xa9e5ff4d8c8f7ba4ULL, 0xed5da52fed5bb348ULL,
    0xa98db9462f11795cULL, 0x201b2f8ce2d58f3dULL, 0x110dae858be9ec04ULL,
    0x218420a394f0a226ULL, 0x7c0026c7ea638bfdULL, 0xc4bd51db2cf9241dULL,
    0xe74e3e12fcccc789ULL, 0xcb3d0c7f3381bd50ULL, 0xeeb92d39ad2aee9cULL,
    0x97354eacdab92f66ULL, 0x317e08dc7250939fULL, 0xaec77c1fcc8477fdULL,
    0xbbb04fde4fad29f9ULL, 0xee73a5c41c3c91a7ULL, 0x04a326c079b8a88dULL,
    0xb9b0d5e5f521f047ULL, 0x926566736fe753b0ULL, 0x0e79fa19790d349bULL,
    0x75e1373875b06e5aULL, 0xd4ef9d904f059cd9ULL, 0x2f6a29d726c971dfULL,
    0x71daa4be85cba96bULL, 0x24890d3a7272b355ULL, 0xa172630d0287ce26ULL,
    0x5893f1098c7ac79bULL, 0xabc8d4e5376751f7ULL, 0x5666d11188e843f7ULL,
    0xf9d15c989cbe84edULL, 0x5e49a2ba87d626d2ULL, 0x8ce78ff75758f257ULL,
    0x0b3a79bbf0c2eb4aULL, 0xc1bc5d581b91c30cULL, 0x3c2c61c410873fefULL,
    0x4b18b60acb33beb5ULL, 0x0e99420589844572ULL, 0xe6b51b552839beeeULL,
    0x1fd6774388b8c06aULL, 0x528bfa8dd3979809ULL, 0x14dd3e3525b3d793ULL,
};

const std::uint64_t kWarmDigests[kSeeds] = {
    0xcc0c29a379640656ULL, 0xa87493d1c0a8d57eULL, 0xbeff90d316b254ddULL,
    0x677530859536376dULL, 0x57987d1e34724c72ULL, 0x3d4e56292a437264ULL,
    0x029cbac393f0d3adULL, 0xede99a9e697503faULL, 0xb0689270097511adULL,
    0x3667b35a4c71ac94ULL, 0x3cde09f6aa657049ULL, 0xcf544e0cf92ab090ULL,
    0x1fadb0e683a261cdULL, 0xbfa17e427524f8ddULL, 0x329ee191e94a1f11ULL,
    0xa08e103c87d47a65ULL, 0xb0999f7ca6d9867aULL, 0x3eeb57c493fd0679ULL,
    0x83d247ccfd4f508fULL, 0xc13211cc78ac38f5ULL, 0xcd1fd9e725f5ced5ULL,
    0x2b00186b008f3bbdULL, 0x9653099d461a5175ULL, 0x8457b2867c9a03b8ULL,
    0x1dd7046433cc462aULL, 0x8d721544b55ece35ULL, 0x4f2bbb7abcd82171ULL,
    0xe7b27465c3b2e834ULL, 0x3c8a473c50025965ULL, 0xe22f42650877f0b9ULL,
    0xc5cfbf625ca52e49ULL, 0x8756c2c00cfaa58fULL, 0x0e7b5d15dea0f971ULL,
    0x4398d875b2e27d2fULL, 0x3d132ad4c11e574dULL, 0xd4a2ad79d0b27aa8ULL,
    0xa990c2f351d6cfe9ULL, 0x3440edf00b639a65ULL, 0x2f336772253c315dULL,
    0x86f0f88f1b06b9edULL, 0x0b1a45f8e266c699ULL, 0xca34cfd0e85dca25ULL,
    0xfe5a2730cb837b81ULL, 0x9739976737e812adULL, 0x1d3998addfd07aa2ULL,
    0xe53804586f90edfdULL, 0x7cdc98e355b64535ULL, 0x68def65e19746c17ULL,
    0x2cd868504bd8fe86ULL, 0xdaba1560c7e2bdd3ULL, 0xbae356bb583d2fcdULL,
    0xcc354fc3635b2ca1ULL, 0xa9cf5ce014bce75dULL, 0x1ad69f175738f738ULL,
    0x99a5ce54376885bdULL, 0x04bb20934df32d61ULL, 0xabe90856188a5cbbULL,
    0xf5b06675f6504cd9ULL, 0xcfaf592c54f8d690ULL, 0xc2e2e873c79b5c4dULL,
    0xa86b4c24eeff46c2ULL, 0x8cdb8766ef4ccd14ULL, 0x6471a297e8a41626ULL,
    0x5328a48eb987d520ULL, 0x07f586f31aa29491ULL, 0x2af14a78df46993aULL,
    0xb18a4a5285cf4679ULL, 0x2c96c771d282fbc5ULL, 0x32153acb295b3b69ULL,
    0x07010f1d7c5f1b11ULL, 0x9fe13a34ad16c8dbULL, 0x1169b27de48b6a26ULL,
    0xd490b17830fda3a5ULL, 0x265a3c991c6dd769ULL, 0x7b56ed764d48b4e9ULL,
    0xec0a3d3f29145082ULL, 0x7e7b5c461a96e924ULL, 0xcfe2b60d789e7609ULL,
    0xf59943aa94fdd7e9ULL, 0x8b07cc366fb369abULL, 0x02845493ef1e059cULL,
    0x534605d58a148412ULL, 0x2d389676662f5fa1ULL, 0x164f46547d50c5c1ULL,
    0x28ad78020fa51cefULL, 0x5958184db4d54759ULL, 0x633bec72f325f859ULL,
    0x391b3b2e81812b65ULL, 0xbd6a294d874be584ULL, 0x479a914dae8352f4ULL,
    0x4f0cd9bf19d47f45ULL, 0xe58554f7df65f5dbULL, 0x92f96ba0aa277040ULL,
    0x9b4dc2d5fb696cb9ULL, 0x0faf3fcc4f29fa43ULL, 0x3696b7da507a9fddULL,
    0x35a2596f8a2e9fafULL, 0xcb65c5438d46906bULL, 0xa63cf4ae959d2abeULL,
    0x966d5ebda34a3065ULL, 0x19e1c6a37cf47c67ULL, 0x2026c78e85a76af1ULL,
    0x70697c44519defe7ULL, 0xf5fd7e347bc0c19fULL, 0x8d8d722e463d18e7ULL,
    0x507633f64661a121ULL, 0x1576c552fcadf67bULL, 0x49c8615ee9ebde9cULL,
    0x766d907b2ec3c821ULL, 0xcc93fcef380fc430ULL, 0x8975dd0dcabe2389ULL,
    0x2f62e3ce35610c3dULL, 0xb5841606514d66adULL, 0xc8745e0dbfd06d93ULL,
    0x6a9dbdc82623ce55ULL, 0x7a2a2716355d447bULL, 0x6c2865cfee7eda15ULL,
    0x4f4357012920f25dULL, 0x2dc20dcf9f963543ULL, 0xff9f29c58ebb1d21ULL,
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
