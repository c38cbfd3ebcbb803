// The tentpole exactness contract: `cgraf_cli analyze` must reproduce the
// in-process solver statistics (nodes, LP iterations, warm hits) from the
// event stream alone. These tests run real solves against an in-memory
// EventLog and diff the analyzer's totals against the returned stats.
#include "obs/postmortem.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/remapper.h"
#include "core/st_target.h"
#include "json_check.h"
#include "milp/branch_and_bound.h"
#include "milp/model.h"
#include "obs/event_log.h"
#include "util/rng.h"
#include "workloads/suite.h"

namespace cgraf::obs {
namespace {

PostmortemReport analyze_ok(const std::string& jsonl) {
  PostmortemReport report;
  std::string error;
  EXPECT_TRUE(analyze_events(jsonl, &report, &error)) << error;
  return report;
}

// Every lp.solve record carries its solve's LpStageStats, so the analyzer's
// LP-engine sums must reproduce the in-process totals: counters exactly,
// kernel seconds up to the event log's 12-significant-digit rounding.
void expect_lp_stage_totals(const PostmortemReport& report,
                            const milp::LpStageStats& stage) {
  EXPECT_EQ(report.lp_phase1_iterations, stage.phase1_iterations);
  EXPECT_EQ(report.lp_dual_iterations, stage.dual_iterations);
  EXPECT_EQ(report.lp_bound_flips, stage.bound_flips);
  EXPECT_EQ(report.lp_refactorizations, stage.refactorizations);
  EXPECT_EQ(report.lp_dual_fallbacks, stage.dual_fallbacks);
  const auto expect_seconds = [](double got, double want, const char* what) {
    EXPECT_NEAR(got, want, 1e-9 * (1.0 + want)) << what;
  };
  expect_seconds(report.lp_pricing_seconds, stage.pricing_seconds, "pricing");
  expect_seconds(report.lp_btran_seconds, stage.btran_seconds, "btran");
  expect_seconds(report.lp_ftran_seconds, stage.ftran_seconds, "ftran");
  expect_seconds(report.lp_factor_seconds, stage.factor_seconds, "factor");
  expect_seconds(report.lp_dse_seconds, stage.dse_seconds, "dse");
  // A run that pivots at all spends measurable time factorizing.
  EXPECT_GT(report.lp_factor_seconds, 0.0);
}

milp::Model coupled_binary_model(std::uint64_t seed, int n) {
  Rng rng(seed);
  milp::Model m;
  std::vector<int> vars;
  for (int i = 0; i < n; ++i)
    vars.push_back(m.add_binary(0.5 + rng.next_double()));
  for (int i = 0; i + 2 < n; ++i) {
    m.add_le({{vars[static_cast<std::size_t>(i)], 1.0},
              {vars[static_cast<std::size_t>(i + 1)], 1.0},
              {vars[static_cast<std::size_t>(i + 2)], 1.0}},
             2.0);
  }
  return m;
}

TEST(Postmortem, BnbTotalsMatchMipResultExactly) {
  EventLog log;
  log.open_memory();
  const milp::Model m = coupled_binary_model(11, 16);
  milp::MipOptions opts;
  opts.events = &log;
  opts.num_threads = 1;
  const milp::MipResult res = milp::solve_milp(m, opts);
  ASSERT_TRUE(res.has_solution());
  log.close();

  const PostmortemReport report = analyze_ok(log.memory_contents());
  EXPECT_EQ(report.bnb_solves, 1);
  EXPECT_EQ(report.bnb_nodes, res.nodes);
  EXPECT_EQ(report.bnb_node_lp_iters, res.lp_iterations);
  // Every LP in a pure solve_milp run is a node LP, so the lp.solve family
  // must agree with the per-node sum.
  EXPECT_EQ(report.lp_iterations, res.lp_iterations);
  EXPECT_EQ(report.lp_solves, report.bnb_nodes);
  expect_lp_stage_totals(report, res.lp_stats);
  // Depth table covers every node exactly once.
  long depth_nodes = 0, depth_iters = 0;
  for (const auto& [depth, row] : report.by_depth) {
    EXPECT_GE(depth, 0);
    depth_nodes += row.nodes;
    depth_iters += row.lp_iters;
  }
  EXPECT_EQ(depth_nodes, res.nodes);
  EXPECT_EQ(depth_iters, res.lp_iterations);
  // An optimal run on this model finds at least one incumbent.
  EXPECT_GE(static_cast<long>(report.incumbents.size()), 1);
}

TEST(Postmortem, BnbTotalsMatchUnderParallelWorkers) {
  EventLog log;
  log.open_memory();
  const milp::Model m = coupled_binary_model(23, 18);
  milp::MipOptions opts;
  opts.events = &log;
  opts.num_threads = 4;
  const milp::MipResult res = milp::solve_milp(m, opts);
  ASSERT_TRUE(res.has_solution());
  log.close();

  const PostmortemReport report = analyze_ok(log.memory_contents());
  EXPECT_EQ(report.bnb_nodes, res.nodes);
  EXPECT_EQ(report.bnb_node_lp_iters, res.lp_iterations);
  EXPECT_EQ(report.lp_iterations, res.lp_iterations);
}

TEST(Postmortem, StSearchProbeTotalsMatchResultExactly) {
  // The ILP-confirmed search is the one that still probes (the default LP
  // oracle is answered in closed form, see below).
  EventLog log;
  log.open_memory();
  const auto bench =
      workloads::generate_benchmark(workloads::table1_specs(false)[0]);
  core::StTargetOptions opts;
  opts.confirm_with_ilp = true;
  opts.solver.events = &log;
  const core::StTargetResult r =
      find_st_target(bench.design, bench.baseline, opts);
  ASSERT_TRUE(r.ok);
  ASSERT_GT(r.probes, 0);
  log.close();

  const PostmortemReport report = analyze_ok(log.memory_contents());
  EXPECT_EQ(report.st_searches, 1);
  EXPECT_EQ(report.st_closed_form, 0);
  EXPECT_EQ(report.probes, static_cast<long>(r.probes));
  const core::ProbeSessionStats& ps = r.session;
  EXPECT_EQ(report.probe_warm_hits, static_cast<long>(ps.warm_hits));
  EXPECT_EQ(report.probe_fallbacks, static_cast<long>(ps.basis_fallbacks));
  EXPECT_EQ(report.probe_rebuilds, static_cast<long>(ps.model_rebuilds));
  EXPECT_EQ(report.lp_iterations, r.lp_iterations);
  expect_lp_stage_totals(report, r.lp_stage);
  // The probe chain reconstructs in emission order with sane timestamps.
  ASSERT_EQ(static_cast<long>(report.probe_chain.size()), report.probes);
  double last_t = -1.0;
  for (const auto& probe : report.probe_chain) {
    EXPECT_GE(probe.t_us, last_t);
    last_t = probe.t_us;
  }
}

TEST(Postmortem, StSearchClosedFormHasNoProbes) {
  EventLog log;
  log.open_memory();
  const auto bench =
      workloads::generate_benchmark(workloads::table1_specs(false)[0]);
  core::StTargetOptions opts;
  opts.solver.events = &log;
  const core::StTargetResult r =
      find_st_target(bench.design, bench.baseline, opts);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.probes, 0);
  EXPECT_EQ(r.lp_iterations, 0);
  log.close();

  const PostmortemReport report = analyze_ok(log.memory_contents());
  EXPECT_EQ(report.st_searches, 1);
  EXPECT_EQ(report.st_closed_form, 1);
  EXPECT_EQ(report.probes, 0);
  EXPECT_EQ(report.lp_solves, 0);
  EXPECT_EQ(report.lp_iterations, 0);
  EXPECT_NE(report.to_text().find("1 (1 closed-form)"), std::string::npos);
  EXPECT_NE(report.to_json().find("\"st_closed_form\":1"),
            std::string::npos);
}

TEST(Postmortem, RemapRunReconstructsPipeline) {
  EventLog log;
  log.open_memory();
  const auto bench =
      workloads::generate_benchmark(workloads::table1_specs(false)[0]);
  core::RemapOptions opts;
  opts.solver.events = &log;
  const core::RemapResult res =
      aging_aware_remap(bench.design, bench.baseline, opts);
  log.close();

  const PostmortemReport report = analyze_ok(log.memory_contents());
  EXPECT_EQ(report.remap_runs, 1);
  EXPECT_EQ(report.remap_attempts, static_cast<long>(res.outer_iterations));
  EXPECT_GE(report.st_searches, 1);
  EXPECT_GT(report.lp_solves, 0);
  EXPECT_GT(report.probes, 0);
  // The probe-chain sums over probe.solve records equal the in-process
  // session counters. The presearch crash-starts each geometry's first LP
  // probe, and a crash start is never a warm hit.
  EXPECT_EQ(report.probe_warm_hits, static_cast<long>(res.probe_warm_hits));
  EXPECT_EQ(report.probe_crash_starts,
            static_cast<long>(res.probe_crash_starts));
  EXPECT_EQ(report.probe_fallbacks,
            static_cast<long>(res.probe_basis_fallbacks));
  EXPECT_EQ(report.probe_rebuilds,
            static_cast<long>(res.probe_model_rebuilds));
  EXPECT_GT(report.probe_crash_starts, 0);
  for (const auto& probe : report.probe_chain)
    EXPECT_FALSE(probe.crash && probe.warm_hit);

  // Both render paths hold together on a real stream.
  const std::string text = report.to_text();
  EXPECT_NE(text.find("post-mortem"), std::string::npos);
  EXPECT_NE(text.find("crash starts"), std::string::npos);
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"crash_starts\":" +
                      std::to_string(report.probe_crash_starts)),
            std::string::npos);
  std::string why;
  EXPECT_TRUE(test::JsonChecker::valid(json, &why)) << why;
}

TEST(Postmortem, HeaderIsParsed) {
  EventLog log;
  log.open_memory();
  log.close();
  const PostmortemReport report = analyze_ok(log.memory_contents());
  EXPECT_TRUE(report.have_header);
  EXPECT_EQ(report.schema, kEventLogSchemaVersion);
  EXPECT_FALSE(report.compiler.empty());
}

TEST(Postmortem, EmptyStreamFails) {
  PostmortemReport report;
  std::string error;
  EXPECT_FALSE(analyze_events("", &report, &error));
  EXPECT_FALSE(error.empty());
}

TEST(Postmortem, NewerSchemaIsRejected) {
  const std::string jsonl =
      "{\"type\":\"log.header\",\"t\":0,\"tid\":0,\"schema\":" +
      std::to_string(kEventLogSchemaVersion + 1) + "}\n";
  PostmortemReport report;
  std::string error;
  EXPECT_FALSE(analyze_events(jsonl, &report, &error));
  EXPECT_NE(error.find("schema"), std::string::npos) << error;
}

TEST(Postmortem, MalformedLinesAreCollectedNotFatal) {
  const std::string jsonl =
      "{\"type\":\"log.header\",\"t\":0,\"tid\":0,\"schema\":1}\n"
      "this is not json\n"
      "{\"type\":\"lp.solve\",\"t\":1,\"tid\":0,\"iterations\":5}\n";
  const PostmortemReport report = analyze_ok(jsonl);
  ASSERT_EQ(report.parse_errors.size(), 1u);
  EXPECT_EQ(report.parse_errors[0].first, 2);  // 1-based line number
  EXPECT_EQ(report.lp_solves, 1);
  EXPECT_EQ(report.lp_iterations, 5);
}

TEST(Postmortem, UnknownRecordTypesAreCountedAndSkipped) {
  const std::string jsonl =
      "{\"type\":\"log.header\",\"t\":0,\"tid\":0,\"schema\":1}\n"
      "{\"type\":\"future.record\",\"t\":1,\"tid\":0,\"shiny\":true}\n";
  const PostmortemReport report = analyze_ok(jsonl);
  EXPECT_EQ(report.total_records, 2);
  EXPECT_EQ(report.records_by_type.at("future.record"), 1);
}

}  // namespace
}  // namespace cgraf::obs
