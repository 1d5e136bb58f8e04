// pgrid_perf: one workload of the layered perf harness per invocation.
//
//   pgrid_perf --workload <name> --seed <u64> [--reps N] [--seconds S]
//              [--trace] [--json] [--out DIR]
//
// Untraced (the default): runs the workload's timed phase on a fresh
// deployment at least --reps times, and keeps adding reps until --seconds of
// host time have been spent; prints every end-to-end metric as
// `name value unit` (host metrics are medians over reps).
//
// --trace: one untraced rep, then one traced rep with the same seed and
// schedule plus the probe block; prints each layer's self time and every
// per-layer metric, and writes the spans as Chrome trace-event JSON to
// DIR/<workload>-<seed>.trace.json (DIR defaults to out/perf).
//
// Every correctness gate runs in both modes; any failure exits 1.  --json
// appends the result as one JSON object on the last line of stdout.
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "harness.hpp"

namespace {

using namespace pgrid::perf;

/// Set-up samples per untraced invocation: reps contribute one each, and
/// extra builds top the count up so the median is not read off one build.
constexpr std::size_t kMinSetupSamples = 5;

struct Options {
  Workload workload = Workload::kStudyBuilding;
  std::uint64_t seed = 1;
  std::size_t reps = 3;
  double seconds = 0.0;
  bool trace = false;
  bool json = false;
  std::string out_dir = "out/perf";
};

int usage(const std::string& error) {
  std::cerr << "pgrid_perf: " << error << "\n"
            << "usage: pgrid_perf --workload <name> --seed <u64> [--reps N] "
               "[--seconds S] [--trace] [--json] [--out DIR]\n"
            << "workloads:";
  for (Workload w : all_workloads()) std::cerr << ' ' << name_of(w);
  std::cerr << '\n';
  return 2;
}

bool parse_u64(const std::string& text, std::uint64_t& out) {
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

/// JSON number with every digit the double carries.
std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::cout << m.name << ' ' << json_number(m.value) << ' ' << m.unit;
    if (!m.note.empty()) std::cout << "  # " << m.note;
    std::cout << '\n';
  }
}

void print_json(bool correct, std::size_t attempted, std::size_t failed,
                const std::vector<Metric>& metrics) {
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) std::cout << ", ";
    std::cout << '"' << metrics[i].name << "\": {\"value\": "
              << json_number(metrics[i].value) << ", \"unit\": \""
              << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

bool report_gates(const std::vector<std::string>& failures) {
  for (const std::string& f : failures) std::cerr << "GATE FAILED: " << f << '\n';
  return failures.empty();
}

int run(const Options& opt) {
  const Shape shape = default_shape(opt.workload);
  std::cout << "workload " << name_of(opt.workload) << " seed " << opt.seed
            << '\n';

  std::vector<RepResult> reps;
  std::vector<double> setups;
  std::vector<std::string> failures;
  // ru_maxrss only grows, so read after the first rep it is that rep's peak
  // and does not depend on how many reps fit in --seconds.
  double rss_mb = 0.0;
  const std::size_t min_reps = opt.trace ? 1 : std::max<std::size_t>(opt.reps, 1);
  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  while (reps.size() < min_reps || (!opt.trace && elapsed() < opt.seconds)) {
    reps.push_back(run_rep(opt.workload, shape, opt.seed));
    if (reps.size() == 1) rss_mb = peak_rss_mb();
    setups.push_back(reps.back().setup_s);
    const RepResult& rep = reps.back();
    std::cout << "rep " << reps.size() << " setup_s " << rep.setup_s
              << " phase_s " << rep.phase_s << " cpu_s " << rep.cpu_s << '\n';
    for (const std::string& f : rep.gate_failures) failures.push_back(f);
    if (rep.digest != reps.front().digest) {
      failures.push_back("outcome_digest differs between reps");
    }
  }
  const RepResult& first = reps.front();
  char digest[24];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(first.digest));
  std::cout << "outcome_digest " << digest << '\n'
            << "attempted " << first.attempted << " failed " << first.failed
            << " reps " << reps.size() << '\n';

  std::size_t attempted = 0;
  std::size_t failed = 0;
  for (const RepResult& rep : reps) {
    attempted += rep.attempted;
    failed += rep.failed;
  }

  if (!opt.trace) {
    while (setups.size() < kMinSetupSamples) {
      setups.push_back(time_setup(opt.workload, shape, opt.seed));
    }
    const auto metrics = end_to_end_metrics(reps, setups, rss_mb);
    print_metrics(metrics);
    const bool correct = report_gates(failures);
    if (opt.json) print_json(correct, attempted, failed, metrics);
    return correct ? 0 : 1;
  }

  Tracer tracer;
  LayerReport layers =
      layer_report(opt.workload, shape, opt.seed, first, tracer);
  for (const std::string& f : layers.gate_failures) failures.push_back(f);
  attempted += first.attempted;
  failed += first.failed;

  std::error_code ignored;  // a failure surfaces as the write below failing
  std::filesystem::create_directories(opt.out_dir, ignored);
  const std::string path = opt.out_dir + "/" +
                           std::string(name_of(opt.workload)) + "-" +
                           std::to_string(opt.seed) + ".trace.json";
  {
    std::ofstream file(path);
    tracer.write_chrome(file);
    if (!file) failures.push_back("could not write " + path);
  }
  std::cout << "trace " << path << " (" << tracer.spans().size()
            << " spans, " << tracer.counters().size() << " counter samples)\n";
  for (const auto& [layer, ms] : layers.self_ms) {
    std::cout << "self_ms " << layer << ' ' << json_number(ms) << '\n';
  }
  print_metrics(layers.metrics);
  const bool correct = report_gates(failures);
  if (opt.json) print_json(correct, attempted, failed, layers.metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  const std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto value = [&](std::string& out) {
      if (i + 1 >= args.size()) return false;
      out = args[++i];
      return true;
    };
    std::string v;
    std::uint64_t number = 0;
    if (arg == "--workload") {
      if (!value(v)) return usage("--workload needs a name");
      const auto w = workload_from_name(v);
      if (!w) return usage("unknown workload '" + v + "'");
      opt.workload = *w;
      have_workload = true;
    } else if (arg == "--seed") {
      if (!value(v) || !parse_u64(v, opt.seed)) return usage("bad --seed");
    } else if (arg == "--reps") {
      if (!value(v) || !parse_u64(v, number) || number == 0 || number > 1000) {
        return usage("bad --reps");
      }
      opt.reps = static_cast<std::size_t>(number);
    } else if (arg == "--seconds") {
      if (!value(v) || !parse_u64(v, number) || number > 3600) {
        return usage("bad --seconds");
      }
      opt.seconds = static_cast<double>(number);
    } else if (arg == "--trace") {
      opt.trace = true;
    } else if (arg == "--json") {
      opt.json = true;
    } else if (arg == "--out") {
      if (!value(opt.out_dir)) return usage("--out needs a directory");
    } else {
      return usage("unknown argument '" + arg + "'");
    }
  }
  if (!have_workload) return usage("--workload is required");
  return run(opt);
}
