// Fault-recovery re-mapping: blocked (failed/worn-out) PEs must end up
// empty in the result while the CPD guarantee still holds.
#include <gtest/gtest.h>

#include "cgrra/stress.h"
#include "core/remapper.h"
#include "workloads/suite.h"

namespace cgraf::core {
namespace {

workloads::GeneratedBenchmark make_bench(std::uint64_t seed, double usage) {
  workloads::BenchmarkSpec spec;
  spec.name = "fr";
  spec.contexts = 4;
  spec.fabric_dim = 4;
  spec.usage = usage;
  spec.seed = seed;
  return workloads::generate_benchmark(spec);
}

std::vector<int> pes_used(const Design& d, const Floorplan& fp) {
  std::vector<int> used(static_cast<std::size_t>(d.fabric.num_pes()), 0);
  for (const Operation& op : d.ops)
    used[static_cast<std::size_t>(fp.pe_of(op.id))] = 1;
  return used;
}

TEST(FaultRecovery, BlockedPesEndUpEmpty) {
  const auto bench = make_bench(17, 0.5);
  // Block the most-stressed PE of the baseline (a realistic wear-out).
  const StressMap stress = compute_stress(bench.design, bench.baseline);
  RemapOptions opts;
  opts.blocked_pes = {stress.argmax()};
  const RemapResult r = aging_aware_remap(bench.design, bench.baseline, opts);

  std::string why;
  ASSERT_TRUE(is_valid(bench.design, r.floorplan, &why)) << why;
  const std::vector<int> used = pes_used(bench.design, r.floorplan);
  EXPECT_EQ(used[static_cast<std::size_t>(stress.argmax())], 0)
      << "blocked PE still hosts ops";
  EXPECT_LE(r.cpd_after_ns, r.cpd_before_ns + 1e-9);
}

TEST(FaultRecovery, MultipleBlockedPes) {
  const auto bench = make_bench(18, 0.4);
  RemapOptions opts;
  opts.blocked_pes = {0, 5, 10};
  const RemapResult r = aging_aware_remap(bench.design, bench.baseline, opts);
  std::string why;
  ASSERT_TRUE(is_valid(bench.design, r.floorplan, &why)) << why;
  const std::vector<int> used = pes_used(bench.design, r.floorplan);
  for (const int pe : opts.blocked_pes)
    EXPECT_EQ(used[static_cast<std::size_t>(pe)], 0) << "PE " << pe;
  EXPECT_LE(r.cpd_after_ns, r.cpd_before_ns + 1e-9);
}

TEST(FaultRecovery, BlockedCriticalPathPeIsEvacuated) {
  // Block a PE that carries critical-path ops: those ops must still move
  // (they are unfrozen) without growing the CPD.
  const auto bench = make_bench(19, 0.5);
  const timing::CombGraph graph(bench.design);
  const auto cps = timing::critical_paths(graph, bench.baseline, 0, 4);
  ASSERT_FALSE(cps.empty());
  const int cp_pe = bench.baseline.pe_of(cps[0].ops.front());

  RemapOptions opts;
  opts.mode = RemapMode::kFreeze;
  opts.blocked_pes = {cp_pe};
  const RemapResult r = aging_aware_remap(bench.design, bench.baseline, opts);
  std::string why;
  ASSERT_TRUE(is_valid(bench.design, r.floorplan, &why)) << why;
  const std::vector<int> used = pes_used(bench.design, r.floorplan);
  EXPECT_EQ(used[static_cast<std::size_t>(cp_pe)], 0);
  EXPECT_LE(r.cpd_after_ns, r.cpd_before_ns + 1e-9);
}

TEST(FaultRecovery, WorksInRotateModeToo) {
  const auto bench = make_bench(20, 0.45);
  RemapOptions opts;
  opts.mode = RemapMode::kRotate;
  opts.blocked_pes = {3, 12};
  const RemapResult r = aging_aware_remap(bench.design, bench.baseline, opts);
  std::string why;
  ASSERT_TRUE(is_valid(bench.design, r.floorplan, &why)) << why;
  const std::vector<int> used = pes_used(bench.design, r.floorplan);
  EXPECT_EQ(used[3], 0);
  EXPECT_EQ(used[12], 0);
}

TEST(FaultRecovery, ImpossibleRecoveryKeepsBaseline) {
  // A fully-utilized context cannot shed a PE: no recovery floorplan
  // exists, and the baseline must be returned unchanged (caller decides).
  Rng rng(77);
  const Fabric fabric(3, 3);
  const std::vector<int> per_context{9, 9};  // both contexts completely full
  const Design design =
      workloads::generate_multicontext_design(fabric, 2, per_context, rng);
  hls::PlacerOptions popts;
  popts.seed = 77;
  const Floorplan baseline = place_baseline(design, popts);

  RemapOptions opts;
  opts.blocked_pes = {4};
  const RemapResult r = aging_aware_remap(design, baseline, opts);
  EXPECT_EQ(r.floorplan.op_to_pe, baseline.op_to_pe);
  EXPECT_FALSE(r.improved);
  EXPECT_DOUBLE_EQ(r.mttf_gain, 1.0);
}

TEST(FaultRecovery, NoBlockedPesBehavesAsBefore) {
  const auto bench = make_bench(21, 0.4);
  RemapOptions plain;
  RemapOptions empty_blocked;
  empty_blocked.blocked_pes = {};
  const RemapResult a = aging_aware_remap(bench.design, bench.baseline, plain);
  const RemapResult b =
      aging_aware_remap(bench.design, bench.baseline, empty_blocked);
  EXPECT_EQ(a.floorplan.op_to_pe, b.floorplan.op_to_pe);
}

}  // namespace
}  // namespace cgraf::core
