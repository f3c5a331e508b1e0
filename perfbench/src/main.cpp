// Benchmark entry point: one workload per invocation.
//
//   perfbench --workload svc-steady|svc-chaos|sim-sweep
//             --seed N --seconds S --trace 0|1 [--out-dir DIR]
//             [--commit SHA]
//
// Untraced runs (--trace 0) report the end-to-end metrics; the traced
// run (--trace 1) repeats the workload untraced and then traced, and
// reports the per-layer metrics, the replay rows and the tracing
// overhead. The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// Artifacts (result.json with the host fingerprint, spans.json when
// traced) go to --out-dir. Exit status: 0 when every output checked
// correct, 1 when any check failed, 2 on a usage error.
#include <sys/stat.h>

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common.h"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Outcome;

int usage(const std::string& err) {
  std::cerr << "perfbench: " << err << "\n"
            << "usage: perfbench --workload svc-steady|svc-chaos|sim-sweep"
               " --seed N --seconds S --trace 0|1\n"
               "                 [--out-dir DIR] [--commit SHA]\n";
  return 2;
}

bool parse_u64(const char* v, std::uint64_t* out) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long raw = std::strtoull(v, &end, 10);
  if (end == v || *end != '\0' || errno == ERANGE || v[0] == '-') return false;
  *out = raw;
  return true;
}

/// Shortest decimal that reads back as exactly `v`, so a value keeps
/// all its digits; 0 for a non-finite value, which JSON cannot carry.
std::string number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

/// The result line. Formatted here rather than with JsonWriter, which
/// breaks a document over lines and rounds numbers to six significant
/// digits: the result is one line and carries every digit. Metric names
/// and units are the declared identifiers, which need no escaping.
std::string result_line(const Outcome& out, const std::vector<Metric>& ms) {
  std::string line = std::string("{\"correct\": ") +
                     (out.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + ms[i].name + "\": {\"value\": " + number(ms[i].value) +
            ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return line + "}}";
}

void write_metrics(const std::vector<Metric>& ms, saf::sweep::JsonWriter* w) {
  w->begin_object();
  for (const Metric& m : ms) {
    w->key(m.name).begin_object();
    w->key("value").value(m.value);
    w->key("unit").value(m.unit);
    w->end_object();
  }
  w->end_object();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(arg + " needs a value");
    const char* v = argv[++i];
    std::uint64_t u = 0;
    if (arg == "--workload") {
      opt.workload = v;
    } else if (arg == "--seed") {
      if (!parse_u64(v, &opt.seed)) return usage("--seed expects an integer");
      have_seed = true;
    } else if (arg == "--seconds") {
      if (!parse_u64(v, &u) || u < 1 || u > 600) {
        return usage("--seconds expects 1..600");
      }
      opt.seconds = static_cast<int>(u);
      have_seconds = true;
    } else if (arg == "--trace") {
      if (std::string(v) != "0" && std::string(v) != "1") {
        return usage("--trace expects 0 or 1");
      }
      opt.trace = std::string(v) == "1";
      have_trace = true;
    } else if (arg == "--out-dir") {
      opt.out_dir = v;
    } else if (arg == "--commit") {
      opt.commit = v;
    } else {
      return usage("unknown flag " + arg);
    }
  }
  if (opt.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  ::mkdir(opt.out_dir.c_str(), 0755);

  perfbench::SpanLog spans;
  perfbench::SpanLog* log = opt.trace ? &spans : nullptr;
  Outcome out;
  try {
    if (opt.workload == "svc-steady") {
      out = perfbench::run_svc_workload(opt, /*chaos=*/false, log);
    } else if (opt.workload == "svc-chaos") {
      out = perfbench::run_svc_workload(opt, /*chaos=*/true, log);
    } else if (opt.workload == "sim-sweep") {
      out = perfbench::run_sim_sweep(opt, log);
    } else if (opt.workload == "pins") {
      std::cout << perfbench::compute_pins();
      return 0;
    } else {
      return usage("unknown workload '" + opt.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " threw: " << e.what()
              << "\n";
    return 1;
  }

  const perfbench::HostFingerprint host = perfbench::host_fingerprint(opt);
  std::cout << "host: " << host.cpu << ", nproc " << host.nproc << ", "
            << host.compiler << ", " << host.build_type << ", commit "
            << host.commit << "\n";
  for (const Metric& m : out.named) {
    std::cout << "  " << m.name << " = " << number(m.value) << " " << m.unit
              << "\n";
  }
  // Exactly the declared metrics, in declared order; a per-layer metric
  // of a layer this workload bypasses reads 0.
  std::vector<Metric> reported;
  const std::vector<Metric>& measured =
      opt.trace ? out.per_layer : out.end_to_end;
  const auto& declared =
      opt.trace ? perfbench::per_layer_names() : perfbench::e2e_names();
  for (const auto& [name, unit] : declared) {
    Metric m{name, 0.0, unit};
    bool found = false;
    for (const Metric& x : measured) {
      if (x.name == name) {
        m.value = x.value;
        found = true;
      }
    }
    if (!found && !opt.trace) out.fail("end-to-end metric " + name + " missing");
    reported.push_back(m);
  }
  for (const Metric& x : measured) {
    bool known = false;
    for (const auto& d : declared) known = known || d.first == x.name;
    if (!known) out.fail("undeclared metric " + x.name);
  }
  for (const std::string& e : out.errors) {
    std::cout << "  CHECK FAILED: " << e << "\n";
  }
  {
    // For readers: numbers here are rounded to six significant digits;
    // the result line below carries them in full.
    saf::sweep::JsonWriter w;
    w.begin_object();
    w.key("workload").value(opt.workload);
    w.key("seed").value(opt.seed);
    w.key("seconds").value(opt.seconds);
    w.key("trace").value(opt.trace);
    w.key("host");
    perfbench::write_host_fingerprint(host, &w);
    w.key("correct").value(out.correct);
    w.key("attempted").value(out.attempted);
    w.key("failed").value(out.failed);
    w.key("errors").begin_array();
    for (const std::string& e : out.errors) w.value(e);
    w.end_array();
    w.key("named");
    write_metrics(out.named, &w);
    w.key("metrics");
    write_metrics(reported, &w);
    w.end_object();
    saf::sweep::write_file(opt.out_dir + "/result.json", w.str() + "\n");
  }
  if (opt.trace) spans.write_json(opt.out_dir + "/spans.json", 20'000);

  std::cout << result_line(out, reported) << std::endl;
  return out.correct ? 0 : 1;
}
