// Behavioural coverage of the RemapOptions knobs.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/remapper.h"
#include "obs/event_log.h"
#include "obs/json_reader.h"
#include "workloads/suite.h"

namespace cgraf::core {
namespace {

workloads::GeneratedBenchmark bench_for(std::uint64_t seed) {
  workloads::BenchmarkSpec spec;
  spec.name = "opt";
  spec.contexts = 4;
  spec.fabric_dim = 4;
  spec.usage = 0.45;
  spec.seed = seed;
  return workloads::generate_benchmark(spec);
}

TEST(RemapperOptions, NullObjectiveStillWorks) {
  const auto bench = bench_for(2);
  RemapOptions opts;
  opts.objective = ObjectiveMode::kNull;  // the paper's literal "ObjFunc: Null"
  const RemapResult r = aging_aware_remap(bench.design, bench.baseline, opts);
  std::string why;
  EXPECT_TRUE(is_valid(bench.design, r.floorplan, &why)) << why;
  EXPECT_LE(r.cpd_after_ns, r.cpd_before_ns + 1e-9);
}

TEST(RemapperOptions, ZeroMarginMonitorsOnlyCriticalPaths) {
  const auto bench = bench_for(3);
  RemapOptions tight;
  tight.path_margin = 0.0;
  const RemapResult a = aging_aware_remap(bench.design, bench.baseline, tight);
  RemapOptions wide;
  wide.path_margin = 0.5;
  const RemapResult b = aging_aware_remap(bench.design, bench.baseline, wide);
  EXPECT_LE(a.num_monitored_paths, b.num_monitored_paths);
  // The STA re-check protects the CPD regardless of the margin.
  EXPECT_LE(a.cpd_after_ns, a.cpd_before_ns + 1e-9);
  EXPECT_LE(b.cpd_after_ns, b.cpd_before_ns + 1e-9);
}

TEST(RemapperOptions, RadiusCapBoundsDisplacement) {
  const auto bench = bench_for(4);
  RemapOptions opts;
  opts.mode = RemapMode::kFreeze;  // rotation moves frozen ops arbitrarily
  opts.candidates.radius_cap = 2;
  const RemapResult r = aging_aware_remap(bench.design, bench.baseline, opts);
  for (const Operation& op : bench.design.ops) {
    const int moved = manhattan(
        bench.design.fabric.loc(bench.baseline.pe_of(op.id)),
        bench.design.fabric.loc(r.floorplan.pe_of(op.id)));
    EXPECT_LE(moved, 2) << "op " << op.id;
  }
}

TEST(RemapperOptions, ReportsSolverStatistics) {
  const auto bench = bench_for(7);
  const RemapResult r = aging_aware_remap(bench.design, bench.baseline, {});
  EXPECT_GT(r.outer_iterations, 0);
  EXPECT_GT(r.seconds, 0.0);
  EXPECT_GE(r.num_monitored_paths, 1);
  EXPECT_GE(r.num_frozen_ops, 1);
  if (r.improved) {
    EXPECT_GT(r.last_solve.lp_iterations + r.last_solve.mip_nodes, 0);
  }
}

// The LP presearch's (target, status) probe sequence, read back from the
// probe.solve records of one remap.
std::vector<std::pair<double, std::string>> presearch_probes(
    const workloads::GeneratedBenchmark& bench, RemapOptions opts) {
  obs::EventLog log;
  log.open_memory();
  opts.solver.events = &log;
  aging_aware_remap(bench.design, bench.baseline, opts);
  const std::string text = log.memory_contents();
  std::vector<std::pair<double, std::string>> probes;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    obs::JsonValue rec;
    std::string error;
    EXPECT_TRUE(obs::parse_json(text.substr(start, end - start), &rec, &error))
        << error;
    if (rec.str_or("type", "") == "probe.solve" &&
        rec.str_or("mode", "") == "lp") {
      probes.emplace_back(rec.num_or("target", 0.0),
                          rec.str_or("status", ""));
    }
    start = end + 1;
  }
  return probes;
}

// With RemapOptions::verify on, the presearch's LP probes run on the same
// session as the Delta loop and so are certified too (integrality waived).
// On working code every LP point passes, so the bisection probes the same
// targets, reaches the same verdicts and hands the Delta loop the same
// starting target as an unverified remap.
TEST(RemapperOptions, VerifiedPresearchKeepsItsTargets) {
  for (const std::uint64_t seed : {9u, 10u}) {
    const auto bench = bench_for(seed);
    RemapOptions plain;
    RemapOptions verified;
    verified.verify.enabled = true;
    const auto a = presearch_probes(bench, plain);
    const auto b = presearch_probes(bench, verified);
    ASSERT_FALSE(a.empty()) << "seed " << seed;
    EXPECT_EQ(a, b) << "seed " << seed;
  }
}

TEST(RemapperOptions, MttfReportsAreInternallyConsistent) {
  const auto bench = bench_for(8);
  const RemapResult r = aging_aware_remap(bench.design, bench.baseline, {});
  EXPECT_NEAR(r.mttf_gain,
              r.mttf_after.mttf_seconds / r.mttf_before.mttf_seconds, 1e-9);
  EXPECT_NEAR(r.mttf_before.mttf_years,
              r.mttf_before.mttf_seconds / aging::kSecondsPerYear, 1e-9);
}

}  // namespace
}  // namespace cgraf::core
