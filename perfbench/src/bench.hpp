// perfbench/src/bench.hpp
//
// Shared plumbing of the benchmark program: run arguments, the outcome a
// workload hands back, and the benchmark's own span recorder. Spans are
// recorded from the benchmark's files around calls into each layer's
// public functions; the program under test is not modified.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "lib/stats.hpp"
#include "obs/trace_sink.hpp"

namespace perfbench {

namespace obs = ifsyn::obs;
using Clock = std::chrono::steady_clock;

inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// The traced run's span sink (null when untraced); main writes it out
  /// and validates it when the run ends.
  obs::TraceSink* sink = nullptr;
};

/// What a workload run hands back to main.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< failed output checks
  /// Metrics by their BENCHMARK.json name.
  std::map<std::string, double> metrics;
  /// Configuration and context lines for the human-readable report.
  std::vector<std::pair<std::string, std::string>> config;
  std::vector<std::string> notes;

  void fail(std::string why) {
    correct = false;
    errors.push_back(std::move(why));
  }
  void set(const std::string& name, double value) { metrics[name] = value; }
  void note(std::string line) { notes.push_back(std::move(line)); }
};

/// Latency metrics of one workload: p50_ms, and tail_ms at the fixed
/// percentile `tail_p`, chosen per workload as the highest percentile
/// with at least 10 samples beyond it at the benchmark's run length. Too
/// few samples for that fails the run, so tail_ms always means the same
/// percentile.
void set_latency_metrics(Outcome& out, const std::vector<double>& ms,
                         const std::string& what, double tail_p);

/// Benchmark-side spans. With a sink, time() also records a Chrome-trace
/// duration event; without one it only measures.
class Spans {
 public:
  explicit Spans(obs::TraceSink* sink) : sink_(sink) {}

  obs::TraceSink* sink() const { return sink_; }

  /// Run `f`, return its wall time in microseconds.
  template <class F>
  double time(const std::string& name, F&& f,
              const obs::RequestContext* request = nullptr) {
    const std::uint64_t ts = sink_ ? sink_->now_us() : 0;
    const Clock::time_point start = Clock::now();
    f();
    const double us = us_between(start, Clock::now());
    if (sink_) {
      sink_->duration_event(name, "perfbench", ts,
                            static_cast<std::uint64_t>(us), request);
    }
    return us;
  }

  /// Record a span that started at `start` and lasted `us`.
  void record(const std::string& name, Clock::time_point start, double us,
              const obs::RequestContext* request = nullptr) {
    if (!sink_) return;
    const double age_us = us_between(start, Clock::now());
    const std::uint64_t now = sink_->now_us();
    const std::uint64_t ts =
        age_us >= static_cast<double>(now)
            ? 0
            : now - static_cast<std::uint64_t>(age_us);
    sink_->duration_event(name, "perfbench", ts,
                          static_cast<std::uint64_t>(us), request);
  }

 private:
  obs::TraceSink* sink_;
};

/// Process-wide start time, captured before main.
Clock::time_point process_start();

/// Run `setup` kSetupRepeats times and return the median wall time in
/// seconds. The first repetition is timed from process start, so it also
/// carries start-up cost. `setup` must leave the state of its last call
/// in place for the timed phase.
constexpr int kSetupRepeats = 5;
template <class F>
double timed_setup(F&& setup) {
  std::vector<double> seconds;
  Clock::time_point start = process_start();
  for (int i = 0; i < kSetupRepeats; ++i) {
    setup();
    const Clock::time_point end = Clock::now();
    seconds.push_back(us_between(start, end) / 1e6);
    start = Clock::now();
  }
  return median(seconds);
}

int hardware_threads();
double peak_rss_mb();

Outcome run_flc_sweep(const Args& args);
Outcome run_serve(const Args& args, bool high);
Outcome run_front_end(const Args& args);

}  // namespace perfbench
