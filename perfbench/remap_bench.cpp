// Pipeline benchmark for Algorithm 1 (aging_aware_remap).
//
// Generates a fixed set of Table-I designs and remaps them one after
// another: a closed loop with one caller, branch & bound pinned to one
// thread. With --trace 0 it reports end-to-end remap wall time and
// floorplan quality (no event log attached). With --trace 1 it remaps the
// same designs once untraced and once with an in-memory solve-event log,
// and splits the traced time by pipeline stage and LP work.
//
//   remap_bench --workload freeze-dive --order-seed 3 --seconds 35 --trace 0
//               [--spec-seed 0]
//
// --order-seed permutes the order the designs are remapped in, pass by
// pass; the design set itself is fixed by --spec-seed (0, the default, is
// the Table-I spec seeds; any other value re-derives every spec seed from
// it). Every returned floorplan is re-checked independently of the
// remapper: validity, a full-STA CPD, certify_floorplan against the
// baseline's monitored paths and a recomputed MTTF ratio.
//
// stdout: one JSON line per design, then the result object
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// as the last line. Exit code 2 on bad arguments.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "aging/mttf.h"
#include "cgrra/floorplan.h"
#include "core/remapper.h"
#include "core/st_target.h"
#include "obs/event_log.h"
#include "obs/json_reader.h"
#include "obs/json_writer.h"
#include "obs/postmortem.h"
#include "timing/paths.h"
#include "timing/sta.h"
#include "util/rng.h"
#include "verify/certify.h"
#include "workloads/suite.h"

namespace {

using namespace cgraf;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Workloads (why each was chosen: perfbench/WHY.md).

struct Workload {
  const char* name;
  core::RemapMode mode;
  core::SolveStrategy strategy;
  std::vector<std::string> designs;  // Table-I names, remap order of pass 0
};

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> kAll = {
      {"freeze-dive", core::RemapMode::kFreeze, core::SolveStrategy::kExactDive,
       {"B6", "B8", "B14", "B16", "B22", "B23"}},
      {"rotate-dive", core::RemapMode::kRotate, core::SolveStrategy::kExactDive,
       {"B8", "B11", "B14", "B20", "B23"}},
      {"freeze-ls", core::RemapMode::kFreeze,
       core::SolveStrategy::kLocalSearch,
       {"B6", "B15", "B17", "B21", "B24", "B26"}},
  };
  return kAll;
}

core::RemapOptions remap_options(core::RemapMode mode,
                                 core::SolveStrategy strategy) {
  core::RemapOptions o;
  o.mode = mode;
  o.strategy = strategy;
  o.solver.mip.num_threads = 1;
  return o;
}

// ---------------------------------------------------------------------------
// Inputs.

struct Case {
  explicit Case(workloads::GeneratedBenchmark b) : bench(std::move(b)) {}

  workloads::GeneratedBenchmark bench;
  // Reference data for the independent checks, all from the baseline.
  double cpd_ns = 0.0;
  double mttf_s = 0.0;
  std::vector<timing::TimingPath> monitored;
  std::vector<char> frozen;  // critical-path ops (pinned in Freeze mode)
  // First result seen: later passes must reproduce it exactly.
  bool have_first = false;
  core::RemapResult first;
  std::vector<std::string> misses;  // failed checks, over every remap
};

std::vector<workloads::BenchmarkSpec> workload_specs(const Workload& w,
                                                     std::uint64_t spec_seed) {
  const std::vector<workloads::BenchmarkSpec> table = workloads::table1_specs();
  std::vector<workloads::BenchmarkSpec> out;
  for (const std::string& name : w.designs) {
    for (const workloads::BenchmarkSpec& s : table) {
      if (s.name != name) continue;
      workloads::BenchmarkSpec spec = s;
      if (spec_seed != 0)
        spec.seed = Rng(spec.seed ^ (0x9e3779b97f4a7c15ULL * spec_seed))
                        .next_u64();
      out.push_back(spec);
    }
  }
  return out;
}

// The set-up: every design and its musketeer_lite baseline.
std::vector<Case> generate_cases(
    const std::vector<workloads::BenchmarkSpec>& specs) {
  std::vector<Case> cases;
  for (const workloads::BenchmarkSpec& spec : specs)
    cases.emplace_back(workloads::generate_benchmark(spec));
  return cases;
}

void prepare_checks(Case& c, const core::RemapOptions& opts) {
  const Design& d = c.bench.design;
  const timing::CombGraph graph(d);
  c.cpd_ns = timing::run_sta(graph, c.bench.baseline).cpd_ns;
  c.mttf_s = aging::compute_mttf(d, c.bench.baseline).mttf_seconds;
  timing::PathQuery query;
  query.margin = opts.path_margin;
  query.max_paths = opts.max_monitored_paths;
  c.monitored = timing::monitored_paths(graph, c.bench.baseline, query);
  c.frozen.assign(static_cast<std::size_t>(d.num_ops()), 0);
  for (int ctx = 0; ctx < d.num_contexts; ++ctx)
    for (const auto& p : timing::critical_paths(
             graph, c.bench.baseline, ctx,
             opts.max_critical_paths_per_context))
      for (const int op : p.ops) c.frozen[static_cast<std::size_t>(op)] = 1;
}

// ---------------------------------------------------------------------------
// Independent output checks.

struct CheckTimes {
  std::vector<double> sta_ms, mttf_ms, certify_ms;
};

std::vector<std::string> check_result(const Case& c, core::RemapMode mode,
                                      const core::RemapResult& r,
                                      CheckTimes* times) {
  std::vector<std::string> misses;
  const Design& d = c.bench.design;
  if (r.note.rfind("rejected", 0) == 0) misses.push_back("rejected");
  std::string why;
  if (!is_valid(d, r.floorplan, &why)) {
    misses.push_back("invalid floorplan: " + why);
    return misses;
  }

  double t0 = now_s();
  const timing::StaResult sta = timing::run_sta(d, r.floorplan);
  times->sta_ms.push_back(1e3 * (now_s() - t0));
  if (!(sta.cpd_ns <= c.cpd_ns + 1e-9)) misses.push_back("cpd");

  verify::FloorplanSpec spec;
  spec.design = &d;
  spec.st_target = r.st_max_after;
  spec.monitored = &c.monitored;
  spec.cpd_ns = c.cpd_ns;
  if (mode == core::RemapMode::kFreeze) {
    spec.reference = &c.bench.baseline;
    spec.frozen = c.frozen;
  }
  t0 = now_s();
  const verify::Certificate cert = verify::certify_floorplan(spec, r.floorplan);
  times->certify_ms.push_back(1e3 * (now_s() - t0));
  if (!cert.ok) misses.push_back("certify: " + cert.summary());

  t0 = now_s();
  const aging::MttfReport mttf = aging::compute_mttf(d, r.floorplan);
  times->mttf_ms.push_back(1e3 * (now_s() - t0));
  const double gain = mttf.mttf_seconds / c.mttf_s;
  if (!(std::abs(gain - r.mttf_gain) <= 1e-9 * std::max(1.0, gain)))
    misses.push_back("mttf_gain");
  if (r.improved && !(r.st_max_after < r.st_max_before))
    misses.push_back("st_max");
  return misses;
}

// Remaps one case and checks the result. With `repeat_check`, the first
// such remap is kept and every later one must reproduce it exactly.
// Returns the remap's wall seconds.
double remap_and_check(Case& c, const core::RemapOptions& opts,
                       bool repeat_check, CheckTimes* times,
                       core::RemapResult* out) {
  const double t0 = now_s();
  core::RemapResult r;
  try {
    r = core::aging_aware_remap(c.bench.design, c.bench.baseline, opts);
  } catch (const std::exception& e) {
    c.misses.push_back(std::string("aborted: ") + e.what());
    return now_s() - t0;
  }
  const double wall = now_s() - t0;
  for (std::string& m : check_result(c, opts.mode, r, times))
    c.misses.push_back(std::move(m));
  if (repeat_check && !c.have_first) {
    c.have_first = true;
    c.first = r;
  } else if (repeat_check &&
             (r.floorplan.op_to_pe != c.first.floorplan.op_to_pe ||
              r.mttf_gain != c.first.mttf_gain)) {
    c.misses.push_back("result differs between passes");
  }
  if (out != nullptr) *out = std::move(r);
  return wall;
}


// ---------------------------------------------------------------------------
// Traced remap: the stage x LP split of one design, from its event log.

struct Split {
  double wall_s = 0.0;  // remap call, timed by the benchmark
  double st_s = 0.0;    // Step 1 (st.search_begin -> st.search_end)
  double presearch_s = 0.0;
  double ok_s = 0.0;      // attempts that returned a floorplan
  double failed_s = 0.0;  // every other attempt
  double self_s = 0.0;    // wall - the four stages above
  long st_probes = 0, st_lp_iterations = 0, presearch_probes = 0;
  long probes = 0, probe_warm_hits = 0, probe_rebuilds = 0;
  long attempts = 0, attempts_ok = 0, gave_up = 0, sta_rejected = 0,
       infeasible = 0, dive_rounds = 0;
  long lp_solves = 0, lp_iterations = 0, lp_dual_iterations = 0,
       lp_bound_flips = 0, lp_refactorizations = 0, lp_warm = 0;
  double lp_s = 0.0;
  long bnb_nodes = 0;
  long ls_searches = 0, ls_moves = 0, ls_oracle_rejections = 0;
  double ls_s = 0.0;

  void add(const Split& o) {
    wall_s += o.wall_s;
    st_s += o.st_s;
    presearch_s += o.presearch_s;
    ok_s += o.ok_s;
    failed_s += o.failed_s;
    self_s += o.self_s;
    st_probes += o.st_probes;
    st_lp_iterations += o.st_lp_iterations;
    presearch_probes += o.presearch_probes;
    probes += o.probes;
    probe_warm_hits += o.probe_warm_hits;
    probe_rebuilds += o.probe_rebuilds;
    attempts += o.attempts;
    attempts_ok += o.attempts_ok;
    gave_up += o.gave_up;
    sta_rejected += o.sta_rejected;
    infeasible += o.infeasible;
    dive_rounds += o.dive_rounds;
    lp_solves += o.lp_solves;
    lp_iterations += o.lp_iterations;
    lp_dual_iterations += o.lp_dual_iterations;
    lp_bound_flips += o.lp_bound_flips;
    lp_refactorizations += o.lp_refactorizations;
    lp_warm += o.lp_warm;
    lp_s += o.lp_s;
    bnb_nodes += o.bnb_nodes;
    ls_searches += o.ls_searches;
    ls_moves += o.ls_moves;
    ls_oracle_rejections += o.ls_oracle_rejections;
    ls_s += o.ls_s;
  }
};

struct Interval {
  double begin_us = 0.0, end_us = 0.0;
};

// Folds one remap's event log into a Split and reconciles it: the stages
// must lie inside the remap, not overlap, and leave a non-negative
// remainder; lp.s must fit in the wall time; the LP, attempt, probe and LS
// totals must equal obs::analyze_events on the same log and the remapper's
// own counters. Reconciliation misses are appended to `misses`.
Split split_events(const std::string& jsonl, double wall_s,
                   const core::RemapResult& r,
                   std::vector<std::string>* misses) {
  Split s;
  s.wall_s = wall_s;
  std::vector<obs::JsonValue> recs;
  std::size_t pos = 0;
  while (pos < jsonl.size()) {
    std::size_t end = jsonl.find('\n', pos);
    if (end == std::string::npos) end = jsonl.size();
    const std::string_view line(jsonl.data() + pos, end - pos);
    pos = end + 1;
    if (line.empty()) continue;
    obs::JsonValue v;
    std::string err;
    if (!obs::parse_json(line, &v, &err)) {
      misses->push_back("unparseable event: " + err);
      continue;
    }
    recs.push_back(std::move(v));
  }

  Interval remap, step1;
  std::vector<Interval> attempts;
  std::vector<double> lp_probe_ends;  // lp-only probe.solve records
  for (const obs::JsonValue& e : recs) {
    const std::string type = e.str_or("type", "");
    const double t = e.num_or("t", 0.0);
    if (type == "remap.begin") {
      remap.begin_us = t;
    } else if (type == "remap.end") {
      remap.end_us = t;
    } else if (type == "st.search_begin") {
      step1.begin_us = t;
    } else if (type == "st.search_end") {
      step1.end_us = t;
      s.st_lp_iterations = e.int_or("lp_iterations", 0);
    } else if (type == "remap.attempt") {
      const double secs = e.num_or("seconds", 0.0);
      attempts.push_back({t - 1e6 * secs, t});
      const std::string status = e.str_or("status", "");
      const bool solved = status == "optimal" || status == "feasible";
      ++s.attempts;
      if (e.bool_or("cpd_ok", false)) {
        ++s.attempts_ok;
        s.ok_s += secs;
      } else {
        s.failed_s += secs;
        if (solved) ++s.sta_rejected;
        else if (status == "infeasible") ++s.infeasible;
        else ++s.gave_up;
      }
    } else if (type == "probe.solve") {
      ++s.probes;
      if (e.bool_or("warm_hit", false)) ++s.probe_warm_hits;
      if (e.bool_or("rebuild", false)) ++s.probe_rebuilds;
      if (e.str_or("mode", "") == "lp") lp_probe_ends.push_back(t);
    } else if (type == "twostep.solve") {
      if (!e.bool_or("lp_only", false))
        s.dive_rounds += e.int_or("dive_rounds", 0);
    } else if (type == "lp.solve") {
      ++s.lp_solves;
      s.lp_iterations += e.int_or("iterations", 0);
      s.lp_dual_iterations += e.int_or("dual_iterations", 0);
      s.lp_bound_flips += e.int_or("bound_flips", 0);
      s.lp_refactorizations += e.int_or("refactorizations", 0);
      if (e.bool_or("warm_used", false)) ++s.lp_warm;
      s.lp_s += e.num_or("seconds", 0.0);
    } else if (type == "bnb.node") {
      ++s.bnb_nodes;
    } else if (type == "ls.search") {
      ++s.ls_searches;
      s.ls_moves += e.int_or("examined", 0);
      s.ls_oracle_rejections += e.int_or("oracle_rejections", 0);
      s.ls_s += e.num_or("seconds", 0.0);
    }
  }

  // Stage split. Presearch is every gap before an attempt (after Step 1 or
  // the previous rotation round's last attempt) that holds LP-only probes:
  // rotation, candidates and the presearch LPs of that round.
  s.st_s = 1e-6 * (step1.end_us - step1.begin_us);
  for (const double t : lp_probe_ends)
    if (t >= step1.begin_us && t <= step1.end_us) ++s.st_probes;
  s.presearch_probes = static_cast<long>(lp_probe_ends.size()) - s.st_probes;
  double prev_end = step1.end_us;
  bool ordered = step1.begin_us >= remap.begin_us &&
                 step1.end_us >= step1.begin_us;
  for (const Interval& a : attempts) {
    const bool has_presearch =
        std::any_of(lp_probe_ends.begin(), lp_probe_ends.end(),
                    [&](double t) { return t > prev_end && t <= a.begin_us; });
    if (has_presearch) s.presearch_s += 1e-6 * (a.begin_us - prev_end);
    // 1 us slack: an attempt's start is its end minus its own clock reading.
    ordered = ordered && a.begin_us >= prev_end - 1.0;
    prev_end = a.end_us;
  }
  ordered = ordered && remap.end_us >= prev_end - 1.0;
  s.self_s = wall_s - s.st_s - s.presearch_s - s.ok_s - s.failed_s;

  auto miss = [&](const std::string& what) {
    misses->push_back("reconcile: " + what);
  };
  if (!ordered) miss("stages overlap or fall outside the remap");
  if (s.self_s < -1e-3) miss("stages exceed the remap wall time");
  if (s.lp_s > wall_s) miss("lp.s exceeds the remap wall time");
  if (s.attempts != r.outer_iterations) miss("attempt count");
  if (s.probe_warm_hits != r.probe_warm_hits) miss("probe warm hits");
  if (s.probe_rebuilds != r.probe_model_rebuilds) miss("model rebuilds");
  if (s.ls_moves != r.ls_stats.moves_examined) miss("ls moves examined");

  obs::PostmortemReport pm;
  std::string err;
  if (!obs::analyze_events(jsonl, &pm, &err)) {
    miss("analyze_events: " + err);
    return s;
  }
  if (pm.lp_solves != s.lp_solves || pm.lp_iterations != s.lp_iterations ||
      pm.lp_dual_iterations != s.lp_dual_iterations ||
      pm.lp_bound_flips != s.lp_bound_flips ||
      pm.lp_refactorizations != s.lp_refactorizations ||
      pm.lp_warm_used != s.lp_warm ||
      std::abs(pm.lp_seconds - s.lp_s) > 1e-9 * std::max(1.0, s.lp_s))
    miss("LP totals differ from analyze_events");
  if (pm.remap_attempts != s.attempts ||
      pm.remap_attempts_cpd_ok != s.attempts_ok)
    miss("attempt totals differ from analyze_events");
  if (pm.probes != s.probes || pm.probe_warm_hits != s.probe_warm_hits ||
      pm.probe_rebuilds != s.probe_rebuilds)
    miss("probe totals differ from analyze_events");
  if (pm.bnb_nodes != s.bnb_nodes || pm.ls_searches != s.ls_searches ||
      pm.ls_moves_examined != s.ls_moves ||
      pm.ls_oracle_rejections != s.ls_oracle_rejections)
    miss("B&B/LS totals differ from analyze_events");
  if (!pm.parse_errors.empty()) miss("analyze_events parse errors");
  return s;
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Outcome {
  long attempted = 0;
  std::vector<Metric> metrics;
};

void print_design(const std::string& name, const Case& c,
                  const std::vector<double>& walls, const Split* split) {
  obs::JsonWriter w;
  w.begin_object().field("design", name).key("wall_s").begin_array();
  for (const double v : walls) w.value(v);
  w.end_array()
      .field("improved", c.first.improved)
      .field("mttf_gain", c.first.mttf_gain)
      .field("st_ratio", c.first.st_max_after / c.first.st_max_before)
      .field("attempts", c.first.outer_iterations);
  if (split != nullptr) {
    w.field("st_target_s", split->st_s)
        .field("presearch_s", split->presearch_s)
        .field("attempt_ok_s", split->ok_s)
        .field("attempt_failed_s", split->failed_s)
        .field("remapper_self_s", split->self_s)
        .field("lp_s", split->lp_s);
  }
  w.key("misses").begin_array();
  for (const std::string& m : c.misses) w.value(m);
  w.end_array().end_object();
  std::printf("%s\n", w.str().c_str());
}

struct Args {
  std::string workload;
  std::uint64_t order_seed = 1;
  std::uint64_t spec_seed = 0;
  double seconds = 35.0;
  int trace = 0;
};

std::vector<std::size_t> pass_order(std::size_t n, std::uint64_t seed,
                                    int pass) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  Rng rng(seed * 0x100000001b3ULL + static_cast<std::uint64_t>(pass));
  rng.shuffle(order);
  return order;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --trace 0: remap every design in passes while the next pass is predicted
// to end within 1.1 x --seconds (at least one pass); wall_s sums each
// design's median over the passes. After each remap the design's set-up is
// repeated three times (result discarded), and setup_s sums each design's
// median set-up time: interleaved this way, it samples the host across the
// whole run like wall_s does.
Outcome run_untraced(const Workload& w, const Args& a,
                     const std::vector<workloads::BenchmarkSpec>& specs,
                     std::vector<Case>& cases) {
  const core::RemapOptions opts = remap_options(w.mode, w.strategy);
  CheckTimes times;
  std::vector<std::vector<double>> walls(cases.size());
  std::vector<std::vector<double>> setups(cases.size());
  Outcome out;
  const double t_start = now_s();
  for (int pass = 0;; ++pass) {
    double pass_s = 0.0;
    for (const std::size_t i : pass_order(cases.size(), a.order_seed, pass)) {
      walls[i].push_back(
          remap_and_check(cases[i], opts, true, &times, nullptr));
      pass_s += walls[i].back();
      ++out.attempted;
      for (int rep = 0; rep < 3; ++rep) {
        const double t0 = now_s();
        workloads::generate_benchmark(specs[i]);
        setups[i].push_back(now_s() - t0);
      }
    }
    std::fprintf(stderr, "pass %d: %.3f s\n", pass, pass_s);
    const double elapsed = now_s() - t_start;
    if (elapsed * (pass + 2) / (pass + 1) > 1.1 * a.seconds) break;
  }

  double wall_s = 0.0, setup_s = 0.0, log_gain = 0.0, st_ratio = 0.0;
  int improved = 0, passed = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    wall_s += median(walls[i]);
    setup_s += median(setups[i]);
    log_gain += std::log(c.first.mttf_gain);
    st_ratio += c.first.st_max_after / c.first.st_max_before;
    improved += c.first.improved ? 1 : 0;
    passed += c.misses.empty() ? 1 : 0;
    print_design(w.designs[i], c, walls[i], nullptr);
  }
  const double n = static_cast<double>(cases.size());
  out.metrics = {
      {"wall_s", wall_s, "s"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
      {"mttf_gain_geomean", std::exp(log_gain / n), "ratio"},
      {"st_ratio_mean", st_ratio / n, "ratio"},
      {"improved_rate", improved / n, "ratio"},
      {"pass_rate", passed / n, "ratio"},
  };
  return out;
}

// --trace 1: one untraced pass (the overhead base), one traced pass split
// by stage, Step 1 re-run standalone for its LP kernel split, and on Rotate
// workloads a Freeze remap of every design for rotation.below_freeze.
Outcome run_traced(const Workload& w, const Args& a, std::vector<Case>& cases) {
  const core::RemapOptions opts = remap_options(w.mode, w.strategy);
  CheckTimes times;
  Outcome out;

  double untraced_s = 0.0;
  for (const std::size_t i : pass_order(cases.size(), a.order_seed, 0)) {
    untraced_s += remap_and_check(cases[i], opts, true, &times, nullptr);
    ++out.attempted;
  }

  Split total;
  std::vector<Split> splits(cases.size());
  long rotation_rounds = 0;
  for (const std::size_t i : pass_order(cases.size(), a.order_seed, 1)) {
    Case& c = cases[i];
    obs::EventLog log;
    log.open_memory();
    core::RemapOptions traced = opts;
    traced.solver.events = &log;
    core::RemapResult r;
    const double wall = remap_and_check(c, traced, true, &times, &r);
    ++out.attempted;
    splits[i] = split_events(log.memory_contents(), wall, r, &c.misses);
    total.add(splits[i]);
    if (w.mode == core::RemapMode::kRotate)
      rotation_rounds += r.rotation_attempts;
  }

  // Step 1 from outside: the remap's own st_search options, no event log.
  milp::LpStageStats st_stage;
  core::StTargetOptions st_opts = opts.st_search;
  st_opts.warm_probes = opts.warm_probes;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    Case& c = cases[i];
    const core::StTargetResult st =
        core::find_st_target(c.bench.design, c.bench.baseline, st_opts);
    st_stage.add(st.lp_stage);
    if (st.probes != splits[i].st_probes ||
        st.lp_iterations != splits[i].st_lp_iterations)
      c.misses.push_back("reconcile: standalone Step 1 differs from the remap");
  }

  long below_freeze = 0;
  if (w.mode == core::RemapMode::kRotate) {
    const core::RemapOptions freeze =
        remap_options(core::RemapMode::kFreeze, w.strategy);
    for (Case& c : cases) {
      core::RemapResult fr;
      remap_and_check(c, freeze, false, &times, &fr);
      ++out.attempted;
      if (c.first.mttf_gain < fr.mttf_gain) ++below_freeze;
    }
  }

  for (std::size_t i = 0; i < cases.size(); ++i)
    print_design(w.designs[i], cases[i], {splits[i].wall_s}, &splits[i]);

  const Split& t = total;
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  auto count = [](long v) { return static_cast<double>(v); };
  out.metrics = {
      {"st_target.s", t.st_s, "s"},
      {"st_target.probes", count(t.st_probes), "count"},
      {"st_target.lp_iterations", count(t.st_lp_iterations), "count"},
      {"st_target.pricing_s", st_stage.pricing_seconds, "s"},
      {"st_target.btran_s", st_stage.btran_seconds, "s"},
      {"st_target.ftran_s", st_stage.ftran_seconds, "s"},
      {"st_target.factor_s", st_stage.factor_seconds, "s"},
      {"st_target.dse_s", st_stage.dse_seconds, "s"},
      {"presearch.s", t.presearch_s, "s"},
      {"presearch.probes", count(t.presearch_probes), "count"},
      {"probe_session.warm_hit_ratio", ratio(count(t.probe_warm_hits),
                                             count(t.probes)), "ratio"},
      {"probe_session.model_rebuilds", count(t.probe_rebuilds), "count"},
      {"attempt.count", count(t.attempts), "count"},
      {"attempt.ok", count(t.attempts_ok), "count"},
      {"attempt.useful_ratio", ratio(count(t.attempts_ok), count(t.attempts)),
       "ratio"},
      {"attempt.ok_s", t.ok_s, "s"},
      {"attempt.failed_s", t.failed_s, "s"},
      {"attempt.failed_share", ratio(t.failed_s, t.wall_s), "ratio"},
      {"attempt.gave_up", count(t.gave_up), "count"},
      {"attempt.sta_rejected", count(t.sta_rejected), "count"},
      {"attempt.infeasible", count(t.infeasible), "count"},
      {"dive.rounds", count(t.dive_rounds), "count"},
      {"step1_presearch.share", ratio(t.st_s + t.presearch_s, t.wall_s),
       "ratio"},
      {"ls.s", t.ls_s, "s"},
      {"ls.moves_examined", count(t.ls_moves), "count"},
      {"ls.us_per_move", 1e6 * ratio(t.ls_s, count(t.ls_moves)), "us"},
      {"ls.oracle_rejections", count(t.ls_oracle_rejections), "count"},
      {"rotation.rounds", count(rotation_rounds), "count"},
      {"rotation.below_freeze", count(below_freeze), "count"},
      {"lp.solves", count(t.lp_solves), "count"},
      {"lp.iterations", count(t.lp_iterations), "count"},
      {"lp.dual_iterations", count(t.lp_dual_iterations), "count"},
      {"lp.bound_flips", count(t.lp_bound_flips), "count"},
      {"lp.refactorizations", count(t.lp_refactorizations), "count"},
      {"lp.warm_share", ratio(count(t.lp_warm), count(t.lp_solves)), "ratio"},
      {"lp.s", t.lp_s, "s"},
      {"lp.wall_share", ratio(t.lp_s, t.wall_s), "ratio"},
      {"lp.us_per_iter", 1e6 * ratio(t.lp_s, count(t.lp_iterations)), "us"},
      {"bnb.nodes", count(t.bnb_nodes), "count"},
      {"timing.sta_ms", median(times.sta_ms), "ms"},
      {"aging.mttf_ms", median(times.mttf_ms), "ms"},
      {"verify.certify_ms", median(times.certify_ms), "ms"},
      {"remapper.self_s", t.self_s, "s"},
      {"remap.traced_s", t.wall_s, "s"},
      {"trace.overhead_ratio", ratio(t.wall_s, untraced_s), "ratio"},
  };
  return out;
}

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
      continue;
    }
    if (k == "--seconds") {
      a->seconds = std::strtod(v, &end);
    } else if (k == "--trace") {
      a->trace = static_cast<int>(std::strtol(v, &end, 10));
    } else if (k == "--order-seed") {
      a->order_seed = std::strtoull(v, &end, 10);
    } else if (k == "--spec-seed") {
      a->spec_seed = std::strtoull(v, &end, 10);
    } else {
      return false;
    }
    if (end == v || *end != '\0') return false;
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0 &&
         (a->trace == 0 || a->trace == 1);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: remap_bench --workload NAME [--order-seed N] "
                 "[--spec-seed N] [--seconds S] [--trace 0|1]\n");
    return 2;
  }
  const Workload* w = nullptr;
  for (const Workload& cand : all_workloads())
    if (args.workload == cand.name) w = &cand;
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  const std::vector<workloads::BenchmarkSpec> specs =
      workload_specs(*w, args.spec_seed);
  std::vector<Case> cases = generate_cases(specs);
  const core::RemapOptions opts = remap_options(w->mode, w->strategy);
  for (Case& c : cases) prepare_checks(c, opts);

  const Outcome out = args.trace == 1 ? run_traced(*w, args, cases)
                                      : run_untraced(*w, args, specs, cases);
  long failed = 0;
  for (const Case& c : cases) failed += c.misses.empty() ? 0 : 1;

  obs::JsonWriter j;
  j.begin_object()
      .field("correct", failed == 0)
      .field("attempted", out.attempted)
      .field("failed", failed)
      .key("metrics")
      .begin_object();
  for (const Metric& m : out.metrics) {
    j.key(m.name).begin_object().field("value", m.value).field("unit", m.unit)
        .end_object();
  }
  j.end_object().end_object();
  std::printf("%s\n", j.str().c_str());
  return 0;
}
