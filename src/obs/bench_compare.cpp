#include "obs/bench_compare.h"

#include <algorithm>
#include <map>

#include "obs/json_reader.h"
#include "util/ascii.h"

namespace cgraf::obs {

namespace {

bool is_wall_metric(const std::string& name) {
  if (name == "seconds" || name == "wall_s") return true;
  auto ends_with = [&](const char* suffix) {
    const std::string s(suffix);
    return name.size() >= s.size() &&
           name.compare(name.size() - s.size(), s.size(), s) == 0;
  };
  return ends_with("_s") || ends_with("_seconds") || ends_with("_ms");
}

struct BenchDoc {
  std::string label;
  std::string sha;
  long schema = 0;
  // case name -> metric name -> value
  std::map<std::string, std::map<std::string, double>> cases;
};

bool load_doc(const std::string& text, BenchDoc* doc, std::string* error) {
  JsonValue root;
  if (!parse_json(text, &root, error)) return false;
  if (!root.is_object()) {
    *error = "bench document is not a JSON object";
    return false;
  }
  doc->schema = root.int_or("schema_version", 0);
  if (doc->schema <= 0) {
    *error = "bench document has no schema_version (re-run `cgraf_bench run`)";
    return false;
  }
  doc->label = root.str_or("label", "");
  doc->sha = root.str_or("git_sha", "unknown");
  const JsonValue* results = root.find("results");
  if (results == nullptr || !results->is_array()) {
    *error = "bench document has no results array";
    return false;
  }
  for (const JsonValue& entry : results->arr) {
    if (!entry.is_object()) continue;
    std::string name = entry.str_or("case", "");
    if (name.empty()) name = entry.str_or("bench", "");
    if (name.empty()) continue;
    // Sweep-style suites reuse one case name across instances/args; fold
    // the distinguishing fields into the key so rows don't collapse.
    const std::string instance = entry.str_or("instance", "");
    if (!instance.empty()) name += "/" + instance;
    if (const JsonValue* arg = entry.find("arg");
        arg != nullptr && arg->is_number()) {
      name += "/arg=" + std::to_string(static_cast<long>(arg->num));
    }
    for (const char* variant : {"pricing", "warm"}) {
      const JsonValue* v = entry.find(variant);
      if (v == nullptr) continue;
      if (v->is_string()) {
        name += std::string("/") + variant + "=" + v->str;
      } else if (v->type == JsonValue::Type::kBool) {
        name += std::string("/") + variant + (v->b ? "=1" : "=0");
      }
    }
    auto& metrics = doc->cases[name];
    for (const auto& [key, value] : entry.obj) {
      // Provenance/identity fields are not perf signals: a candidate run
      // on a bigger host must not trip the counter threshold.
      if (key == "schema_version" || key == "hardware_threads" ||
          key == "arg") {
        continue;
      }
      if (value.is_number()) metrics[key] = value.num;
    }
  }
  if (doc->cases.empty()) {
    *error = "bench document has no named result cases";
    return false;
  }
  return true;
}

}  // namespace

bool BenchComparison::has_regression() const {
  if (!missing_cases.empty()) return true;
  return std::any_of(deltas.begin(), deltas.end(),
                     [](const BenchDelta& d) { return d.regression; });
}

BenchComparison compare_bench_docs(const std::string& old_doc,
                                   const std::string& new_doc,
                                   const BenchThresholds& thresholds) {
  BenchComparison cmp;
  BenchDoc oldb, newb;
  std::string err;
  if (!load_doc(old_doc, &oldb, &err)) {
    cmp.error = "baseline: " + err;
    return cmp;
  }
  if (!load_doc(new_doc, &newb, &err)) {
    cmp.error = "candidate: " + err;
    return cmp;
  }
  cmp.ok = true;
  cmp.old_label = oldb.label;
  cmp.new_label = newb.label;
  cmp.old_sha = oldb.sha;
  cmp.new_sha = newb.sha;

  for (const auto& [name, old_metrics] : oldb.cases) {
    const auto it = newb.cases.find(name);
    if (it == newb.cases.end()) {
      cmp.missing_cases.push_back(name);
      continue;
    }
    ++cmp.cases_compared;
    for (const auto& [metric, old_value] : old_metrics) {
      const auto mit = it->second.find(metric);
      if (mit == it->second.end()) continue;  // metric dropped: not a perf
                                              // signal, schema evolution
      const double new_value = mit->second;
      BenchDelta d;
      d.case_name = name;
      d.metric = metric;
      d.old_value = old_value;
      d.new_value = new_value;
      d.ratio = old_value != 0.0 ? new_value / old_value
                                 : (new_value == 0.0 ? 1.0 : -1.0);
      if (is_wall_metric(metric)) {
        d.regression = old_value >= thresholds.min_wall_s &&
                       new_value > old_value * thresholds.wall_ratio;
      } else {
        // One-sided with an absolute floor so counters like "warm_hits: 2
        // -> 3" don't trip a 25% threshold on tiny denominators.
        d.regression = old_value >= 8.0 &&
                       new_value > old_value * thresholds.count_ratio;
      }
      cmp.deltas.push_back(std::move(d));
    }
  }
  for (const auto& [name, metrics] : newb.cases) {
    (void)metrics;
    if (oldb.cases.find(name) == oldb.cases.end()) {
      cmp.new_cases.push_back(name);
    }
  }
  return cmp;
}

std::string BenchComparison::to_text() const {
  std::string out;
  if (!ok) return "compare failed: " + error + "\n";
  out += "baseline: " + old_label + " (" + old_sha.substr(0, 12) + ")\n";
  out += "candidate: " + new_label + " (" + new_sha.substr(0, 12) + ")\n";
  out += "cases compared: " + std::to_string(cases_compared) + "\n";
  for (const auto& name : missing_cases) {
    out += "REGRESSION " + name + ": case missing from candidate\n";
  }
  for (const auto& name : new_cases) {
    out += "note: new case " + name + " (no baseline)\n";
  }
  AsciiTable t({"case", "metric", "old", "new", "ratio", ""});
  long regressions = 0;
  for (const auto& d : deltas) {
    // Keep the table focused: always print regressions, plus any move
    // beyond +/-20% for context.
    const bool notable = d.regression || d.ratio > 1.2 ||
                         (d.ratio >= 0.0 && d.ratio < 0.8);
    if (!notable) continue;
    if (d.regression) ++regressions;
    t.add_row({d.case_name, d.metric, fmt_double(d.old_value, 6),
               fmt_double(d.new_value, 6),
               d.ratio >= 0.0 ? fmt_double(d.ratio, 3) : "n/a",
               d.regression ? "REGRESSION" : ""});
  }
  if (t.num_rows() > 0) out += t.render();
  if (has_regression()) {
    out += "verdict: REGRESSION (" +
           std::to_string(regressions + static_cast<long>(
                                            missing_cases.size())) +
           " finding(s))\n";
  } else {
    out += "verdict: OK\n";
  }
  return out;
}

}  // namespace cgraf::obs
