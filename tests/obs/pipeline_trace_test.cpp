// End-to-end tracing through the real pipeline: runs the aging-aware
// remapper and the parallel branch & bound with the global tracer enabled
// and asserts the promised spans appear (the acceptance contract of the
// observability subsystem).
#include <gtest/gtest.h>

#include <set>
#include <string_view>

#include "core/remapper.h"
#include "core/st_target.h"
#include "milp/branch_and_bound.h"
#include "milp/model.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "workloads/suite.h"

#include "json_check.h"

namespace cgraf {
namespace {

// Guard that always leaves the global tracer disabled, even on test failure.
struct GlobalTraceScope {
  GlobalTraceScope() { obs::Tracer::global().enable(); }
  ~GlobalTraceScope() {
    obs::Tracer::global().disable();
    obs::Tracer::global().clear();
  }
};

std::multiset<std::string_view> span_names() {
  std::multiset<std::string_view> names;
  for (const auto& ev : obs::Tracer::global().snapshot())
    names.insert(ev.name);
  return names;
}

// A small ops x pes assignment MILP (the shape the floorplanner emits).
milp::Model assignment_model(int ops, int pes, std::uint64_t seed) {
  Rng rng(seed);
  milp::Model m;
  std::vector<std::vector<int>> vars(static_cast<size_t>(ops));
  std::vector<double> stress(static_cast<size_t>(ops));
  double total = 0.0;
  for (int j = 0; j < ops; ++j) {
    stress[static_cast<size_t>(j)] = 0.2 + 0.6 * rng.next_double();
    total += stress[static_cast<size_t>(j)];
    std::vector<std::pair<int, double>> row;
    for (int k = 0; k < pes; ++k) {
      const int v = m.add_binary(rng.next_double());
      vars[static_cast<size_t>(j)].push_back(v);
      row.emplace_back(v, 1.0);
    }
    m.add_eq(std::move(row), 1.0);
  }
  const double cap = std::max(1.3 * total / pes, 0.85);
  for (int k = 0; k < pes; ++k) {
    std::vector<std::pair<int, double>> row;
    for (int j = 0; j < ops; ++j)
      row.emplace_back(vars[static_cast<size_t>(j)][static_cast<size_t>(k)],
                       stress[static_cast<size_t>(j)]);
    m.add_le(std::move(row), cap);
  }
  return m;
}

TEST(PipelineTrace, RemapEmitsPromisedSpans) {
  workloads::BenchmarkSpec spec;
  spec.name = "trace-smoke";
  spec.contexts = 4;
  spec.fabric_dim = 4;
  spec.usage = 0.5;
  spec.seed = 11;
  const auto bench = workloads::generate_benchmark(spec);

  GlobalTraceScope scope;
  core::RemapOptions opts;
  opts.mode = core::RemapMode::kFreeze;
  const core::RemapResult result =
      aging_aware_remap(bench.design, bench.baseline, opts);
  obs::Tracer::global().disable();

  const auto names = span_names();
  EXPECT_EQ(names.count("remap"), 1u);
  EXPECT_GE(names.count("remap.attempt"), 1u);
  EXPECT_EQ(names.count("st_target.search"), 1u);
  // The default Step 1 is answered in closed form: a search span, no probes.
  EXPECT_EQ(names.count("st_target.probe"), 0u);
  EXPECT_GE(names.count("two_step.solve"), 1u);
  EXPECT_GE(names.count("timing.sta"), 1u);

  // The attempt spans carry the probed st_target and the verdict.
  bool saw_attempt_args = false;
  for (const auto& ev : obs::Tracer::global().snapshot()) {
    if (std::string_view(ev.name) == "st_target.search") {
      EXPECT_NE(ev.args.find("\"closed_form\":true"), std::string::npos);
    }
    if (std::string_view(ev.name) != "remap.attempt") continue;
    EXPECT_NE(ev.args.find("\"st_target\":"), std::string::npos);
    EXPECT_NE(ev.args.find("\"status\":"), std::string::npos);
    EXPECT_NE(ev.args.find("\"cpd_ok\":"), std::string::npos);
    saw_attempt_args = true;
  }
  EXPECT_TRUE(saw_attempt_args);

  std::string why;
  EXPECT_TRUE(
      test::JsonChecker::valid(obs::Tracer::global().to_json(), &why))
      << why;
  (void)result;
}

TEST(PipelineTrace, IlpConfirmedStepOneEmitsProbeSpans) {
  workloads::BenchmarkSpec spec;
  spec.name = "trace-smoke";
  spec.contexts = 4;
  spec.fabric_dim = 4;
  spec.usage = 0.5;
  spec.seed = 11;
  const auto bench = workloads::generate_benchmark(spec);

  GlobalTraceScope scope;
  core::StTargetOptions opts;
  opts.confirm_with_ilp = true;
  const core::StTargetResult r =
      find_st_target(bench.design, bench.baseline, opts);
  obs::Tracer::global().disable();
  ASSERT_TRUE(r.ok);

  const auto names = span_names();
  EXPECT_EQ(names.count("st_target.search"), 1u);
  EXPECT_EQ(names.count("st_target.probe"),
            static_cast<std::size_t>(r.probes));
  EXPECT_GE(r.probes, 1);
  // Each probe span carries the probed target and the verdict.
  for (const auto& ev : obs::Tracer::global().snapshot()) {
    if (std::string_view(ev.name) != "st_target.probe") continue;
    EXPECT_NE(ev.args.find("\"st_target\":"), std::string::npos);
    EXPECT_NE(ev.args.find("\"feasible\":"), std::string::npos);
  }
}

TEST(PipelineTrace, ParallelBnbWorkersGetSeparateLanes) {
  const milp::Model m = assignment_model(14, 6, 3);

  GlobalTraceScope scope;
  milp::MipOptions opts;
  opts.num_threads = 2;
  const milp::MipResult res = milp::solve_milp(m, opts);
  obs::Tracer::global().disable();
  ASSERT_TRUE(res.has_solution());
  EXPECT_EQ(res.threads_used, 2);

  std::set<int> worker_tids;
  for (const auto& ev : obs::Tracer::global().snapshot())
    if (std::string_view(ev.name) == "bnb.worker") worker_tids.insert(ev.tid);
  EXPECT_GE(worker_tids.size(), 2u);

  // Worker lanes are labeled for the trace viewer.
  EXPECT_NE(obs::Tracer::global().to_json().find("bnb-worker-1"),
            std::string::npos);
}

TEST(PipelineTrace, MetricsAccumulateDuringSolve) {
  obs::Metrics& metrics = obs::Metrics::global();
  const long solves_before = metrics.counter("bnb.solves").value();
  const long nodes_before = metrics.counter("bnb.nodes").value();

  const milp::Model m = assignment_model(10, 5, 4);
  const milp::MipResult res = milp::solve_milp(m, {});
  ASSERT_TRUE(res.has_solution());

  EXPECT_EQ(metrics.counter("bnb.solves").value(), solves_before + 1);
  EXPECT_GE(metrics.counter("bnb.nodes").value(), nodes_before + res.nodes);
  std::string why;
  EXPECT_TRUE(test::JsonChecker::valid(metrics.to_json(), &why)) << why;
}

}  // namespace
}  // namespace cgraf
