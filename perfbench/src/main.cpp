// perfbench: the pipeline benchmark program.
//
//   perfbench --workload <flc_sweep|serve_low|serve_high|front_end>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-file <path>]
//
// Prints a human-readable report, then as its last line one JSON object
// with the run's verdict and every metric it measured by name. The
// wrapper perfbench/run.py builds this binary and turns that line into
// the benchmark's result line. Exit 0 = every output check passed.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <thread>

#include "sim/bytecode/optimizer.hpp"
#include "sim/interpreter.hpp"
#include "src/bench.hpp"

namespace perfbench {

namespace {

const Clock::time_point g_process_start = Clock::now();

bool sanitized_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<flc_sweep|serve_low|serve_high|front_end> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-file <path>]\n",
               why);
  return 2;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

Clock::time_point process_start() { return g_process_start; }

int hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void set_latency_metrics(Outcome& out, const std::vector<double>& ms,
                         const std::string& what, double p) {
  if (samples_beyond(ms.size(), p) < 10) {
    out.fail("too few " + what + " samples (" + std::to_string(ms.size()) +
             ") for a p" + std::to_string(p) + " with 10 beyond it");
    return;
  }
  out.set("p50_ms", percentile(ms, 50));
  out.set("tail_ms", percentile(ms, p));
  char line[160];
  std::snprintf(line, sizeof line,
                "%s latency: n=%zu, p50 %.3f ms, tail = p%g %.3f ms",
                what.c_str(), ms.size(), percentile(ms, 50), p,
                percentile(ms, p));
  out.note(line);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  std::string trace_file;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end && *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end && *end == '\0' && args.seconds > 0;
    } else if (flag == "--trace") {
      args.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (flag == "--trace-file") {
      trace_file = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }

  // Refuse configurations whose numbers would not describe the default
  // program: another engine or opt level (both read live from the
  // environment by the simulator), a sanitizer or an unoptimized build.
  std::string bad_engine;
  const ifsyn::sim::Engine engine = ifsyn::sim::engine_from_env(&bad_engine);
  const auto opt = ifsyn::sim::bytecode::opt_level_from_env();
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (engine != ifsyn::sim::Engine::kVm || !bad_engine.empty()) {
    return usage("IFSYN_SIM_ENGINE must be unset or \"vm\"");
  }
  if (opt != ifsyn::sim::bytecode::OptLevel::kFull) {
    return usage("IFSYN_SIM_OPT must be unset (optimizer on)");
  }
  if (sanitized_build() ||
      (build_type != "RelWithDebInfo" && build_type != "Release")) {
    return usage("needs an optimized build without sanitizers");
  }

  std::optional<ifsyn::obs::TraceSink> sink;
  if (args.trace) {
    if (trace_file.empty()) return usage("--trace 1 needs --trace-file");
    sink.emplace();
    args.sink = &*sink;
  }

  Outcome out;
  if (args.workload == "flc_sweep") {
    out = run_flc_sweep(args);
  } else if (args.workload == "serve_low" || args.workload == "serve_high") {
    out = run_serve(args, args.workload == "serve_high");
  } else if (args.workload == "front_end") {
    out = run_front_end(args);
  } else {
    return usage(("unknown workload " + args.workload).c_str());
  }

  if (sink) {
    const std::string json = sink->to_json();
    std::string error;
    if (!ifsyn::obs::validate_trace_json(json, &error)) {
      out.fail("trace does not validate: " + error);
    }
    std::ofstream file(trace_file);
    file << json;
    if (!file.flush()) out.fail("cannot write trace file " + trace_file);
    out.config.push_back({"trace", trace_file + " (" +
                                       std::to_string(sink->event_count()) +
                                       " spans, validated)"});
  }
  out.set("peak_rss_mb", peak_rss_mb());
  out.set("success_ratio",
          out.attempted == 0 ? 0
                             : 1.0 - static_cast<double>(out.failed) /
                                         static_cast<double>(out.attempted));

  std::printf("=== perfbench %s (trace %d) ===\n", args.workload.c_str(),
              args.trace ? 1 : 0);
  std::printf("  %-32s %llu\n", "seed",
              static_cast<unsigned long long>(args.seed));
  std::printf("  %-32s %d\n", "nproc", hardware_threads());
  std::printf("  %-32s %s\n", "build type", build_type.c_str());
  std::printf("  %-32s %s\n", "IFSYN_SIM_ENGINE (effective)",
              ifsyn::sim::engine_name(engine));
  std::printf("  %-32s %d\n", "IFSYN_SIM_OPT (effective)",
              static_cast<int>(opt));
  std::printf("  %-32s %g\n", "measured seconds", args.seconds);
  for (const auto& [key, value] : out.config) {
    std::printf("  %-32s %s\n", key.c_str(), value.c_str());
  }
  for (const std::string& note : out.notes) std::printf("  %s\n", note.c_str());
  for (const std::string& error : out.errors) {
    std::printf("  CHECK FAILED: %s\n", error.c_str());
  }
  std::printf("  %-40s %s\n", "metric", "value");
  for (const auto& [name, value] : out.metrics) {
    std::printf("  %-40s %.6g\n", name.c_str(), value);
  }

  std::string line = "{\"correct\": ";
  line += out.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted);
  line += ", \"failed\": " + std::to_string(out.failed);
  line += ", \"metrics\": {";
  bool first = true;
  // A run that fails a check reports no numbers.
  if (out.correct) {
    for (const auto& [name, value] : out.metrics) {
      line += (first ? "\"" : ", \"") + name + "\": " + json_number(value);
      first = false;
    }
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return out.correct ? 0 : 1;
}
