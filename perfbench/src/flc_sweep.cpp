// flc_sweep: closed loop, one client. Explorer::run back to back on the
// full fuzzy-logic controller with the options bench_explore_scaling
// uses (full/half/fixed protocols, alternative groupings, top-K 8, FLC
// calibration) at nproc threads. Validation (refine -> compile ->
// simulate -> compare) dominates its wall time, so simulator and
// explorer-parallelism changes show here; serve, the parser and the
// static checker are never touched.
//
// The traced run adds a validate replay: every validated point of one
// sweep is refined, compiled, simulated and compared through public
// calls, once alone and once with nproc points in flight sharing one
// MetricsRegistry, as the explorer's workers do.
#include <atomic>
#include <numeric>
#include <optional>
#include <thread>

#include "explore/explorer.hpp"
#include "explore/report.hpp"
#include "lib/stats.hpp"
#include "obs/metrics.hpp"
#include "core/equivalence.hpp"
#include "partition/partitioner.hpp"
#include "protocol/protocol_generator.hpp"
#include "sim/interpreter.hpp"
#include "spec/analysis.hpp"
#include "src/bench.hpp"
#include "suite/flc.hpp"

namespace perfbench {

using namespace ifsyn;

namespace {

explore::ExploreOptions sweep_options(int threads) {
  explore::ExploreOptions options;
  options.space.protocols = {spec::ProtocolKind::kFullHandshake,
                             spec::ProtocolKind::kHalfHandshake,
                             spec::ProtocolKind::kFixedDelay};
  options.space.alternative_groupings = true;
  options.top_k = 8;
  options.compute_cycles_override = {
      {"EVAL_R3", suite::FlcCalibration::kEvalR3ComputeCycles},
      {"CONV_R2", suite::FlcCalibration::kConvR2ComputeCycles},
  };
  options.threads = threads;
  return options;
}

double counter(const obs::MetricsSnapshot& snap, const std::string& name) {
  const auto* entry = snap.find(name);
  return entry ? static_cast<double>(entry->counter) : 0.0;
}

/// Checks one sweep's result against the 1-thread reference.
void check_sweep(Outcome& out, const spec::System& system,
                 const explore::ExploreOptions& options,
                 const Result<explore::ExplorationResult>& result,
                 const std::string& reference_json) {
  if (!result.is_ok()) {
    out.fail("sweep failed: " + result.status().to_string());
    return;
  }
  // Equivalence verdicts are compared through the JSON: on the seed
  // program the top-ranked points deadlock (see README.md, findings).
  for (std::size_t index : result->validated) {
    if (!result->points[index].sim_ok) {
      out.fail("validated point " + std::to_string(index) + " is not sim_ok");
    }
  }
  if (explore::render_exploration_json(system, options, *result) !=
      reference_json) {
    out.fail("exploration JSON differs from the 1-thread reference");
  }
}

/// Per-point layer times of one replay round (microseconds, summed over
/// the points) plus the run leg's deterministic counts.
struct ReplayRound {
  double refine_us = 0, compile_us = 0, run_us = 0, cosim_us = 0;
  double executed_ops = 0, delta_cycles = 0;
};

/// Replays the validate phase of one sweep through public calls.
class ValidateReplay {
 public:
  ValidateReplay(const spec::System& system,
                 const explore::ExploreOptions& options,
                 const explore::ExplorationResult& result)
      : options_(options),
        base_(system.clone(system.name())) {
    if (!base_.validate().is_ok() ||
        !spec::annotate_channel_accesses(base_).is_ok()) {
      ok_ = false;
      return;
    }
    estimator_.emplace(base_);
    for (const auto& [process, cycles] : options.compute_cycles_override) {
      estimator_->set_compute_cycles(process, cycles);
    }
    space_.emplace(base_, *estimator_, options.space);
    for (std::size_t index : result.validated) {
      points_.push_back(result.points[index].point);
    }
    original_.emplace(sim::simulate(base_, options.sim_max_time));
    ok_ = original_->result.status.is_ok();
  }

  bool ok() const { return ok_; }
  std::size_t points() const { return points_.size(); }

  /// One round over all points with `threads` in flight. Every point's
  /// registry use goes to one shared registry, as in the explorer.
  ReplayRound round(int threads, Spans& spans, Outcome& out) {
    obs::MetricsRegistry shared;
    std::vector<ReplayRound> per_point(points_.size());
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    auto worker = [&] {
      for (std::size_t i = next++; i < points_.size(); i = next++) {
        if (!replay_point(points_[i], shared, spans, per_point[i])) {
          failed = true;
        }
      }
    };
    std::vector<std::thread> pool;
    for (int t = 1; t < threads; ++t) pool.emplace_back(worker);
    worker();
    for (std::thread& t : pool) t.join();
    if (failed) out.fail("validate replay: a point failed to refine or run");
    ReplayRound sum;
    for (const ReplayRound& p : per_point) {
      sum.refine_us += p.refine_us;
      sum.compile_us += p.compile_us;
      sum.run_us += p.run_us;
      sum.cosim_us += p.cosim_us;
      sum.executed_ops += p.executed_ops;
      sum.delta_cycles += p.delta_cycles;
    }
    return sum;
  }

 private:
  bool replay_point(const explore::DesignPoint& point,
                    obs::MetricsRegistry& shared, Spans& spans,
                    ReplayRound& out) {
    const explore::GroupingPlan& plan = space_->groupings()[point.grouping];
    const obs::ObsContext obs{&shared, nullptr, nullptr};
    spec::System refined =
        base_.clone(base_.name() + "_x" + std::to_string(point.index));
    bool ok = true;
    out.refine_us = spans.time("protocol.refine", [&] {
      refined.clear_buses();
      for (std::size_t g = 0; g < plan.groups.size() && ok; ++g) {
        ok = partition::group_channels(refined, plan.bus_names[g],
                                       plan.groups[g])
                 .is_ok();
        if (ok) refined.find_bus(plan.bus_names[g])->width = point.width;
      }
      protocol::ProtocolGenOptions pg_options;
      pg_options.protocol = point.protocol;
      pg_options.fixed_delay_cycles = point.fixed_delay_cycles;
      pg_options.arbitrate = options_.arbitrate;
      pg_options.obs = obs;
      ok = ok && protocol::ProtocolGenerator(pg_options)
                     .generate_all(refined)
                     .is_ok();
    });
    if (!ok) return false;

    // The refined leg of the co-simulation, split at the public seam
    // between compile (Interpreter::setup) and simulate (Kernel::run).
    // The op-count delta is exact only when no other point is in flight;
    // the caller reads it from alone rounds.
    {
      sim::Kernel kernel;
      kernel.set_obs(obs);
      sim::Interpreter interpreter(refined, kernel);
      Status setup;
      out.compile_us = spans.time("sim.compile",
                                  [&] { setup = interpreter.setup(); });
      if (!setup.is_ok()) return false;
      obs::Counter& ops = shared.counter("sim.vm.executed_ops");
      const std::uint64_t ops_before = ops.value();
      sim::SimResult result;
      out.run_us = spans.time(
          "sim.run", [&] { result = kernel.run(options_.sim_max_time); });
      if (!result.status.is_ok()) return false;
      out.executed_ops = static_cast<double>(ops.value() - ops_before);
      out.delta_cycles = static_cast<double>(result.kernel.delta_cycles);
    }

    Result<core::EquivalenceReport> eq = invalid_argument("not run");
    out.cosim_us = spans.time("core.cosim", [&] {
      eq = core::check_equivalence_with(base_, *original_, refined,
                                        options_.sim_max_time, {}, obs);
    });
    return eq.is_ok();
  }

  explore::ExploreOptions options_;
  spec::System base_;
  std::optional<estimate::PerformanceEstimator> estimator_;
  std::optional<explore::DesignSpace> space_;
  std::vector<explore::DesignPoint> points_;
  std::optional<sim::SimulationRun> original_;
  bool ok_ = true;
};

}  // namespace

Outcome run_flc_sweep(const Args& args) {
  Outcome out;
  const int threads = hardware_threads();
  std::optional<spec::System> system;
  explore::ExploreOptions options = sweep_options(threads);
  std::string reference_json;
  std::optional<explore::ExplorationResult> reference;

  const double setup_s = timed_setup([&] {
    system.emplace(suite::make_flc_full());
    // The original's output must match the controller's arithmetic.
    sim::SimulationRun original = sim::simulate(*system, 5'000'000);
    if (!original.result.status.is_ok() ||
        original.interpreter->value_of("CTRL_OUT").get().to_int() !=
            suite::flc_expected_ctrl_out()) {
      out.fail("original FLC run: CTRL_OUT differs from the expected value");
    }
    // 1-thread reference, then one warm-up sweep at full width.
    const explore::ExploreOptions one = sweep_options(1);
    Result<explore::ExplorationResult> ref =
        explore::Explorer(*system, one).run();
    if (!ref.is_ok()) {
      out.fail("reference sweep failed: " + ref.status().to_string());
      return;
    }
    reference_json = explore::render_exploration_json(*system, one, *ref);
    reference.emplace(std::move(ref).value());
    check_sweep(out, *system, one, *reference, reference_json);
    check_sweep(out, *system, options,
                explore::Explorer(*system, options).run(), reference_json);
  });
  out.set("setup_s", setup_s);
  out.config.push_back({"explore threads", std::to_string(threads)});
  if (!out.correct) return out;
  std::size_t equivalent = 0;
  for (std::size_t index : reference->validated) {
    if (reference->points[index].equivalent) ++equivalent;
  }
  out.config.push_back(
      {"design points", std::to_string(reference->points.size())});
  out.config.push_back({"validated points per sweep",
                        std::to_string(reference->validated.size()) + " (" +
                            std::to_string(equivalent) + " equivalent)"});

  Spans spans(args.sink);
  Spans untraced(nullptr);

  // Timed sweeps. A traced run alternates plain sweeps with sweeps that
  // carry a registry and a span, over the first half of its time.
  const double sweep_seconds = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<double> plain_ms, traced_ms;
  std::vector<double> estimate_ms, validate_ms, efficiency, hit_ratio;
  const Clock::time_point start = Clock::now();
  for (std::uint64_t i = 0;
       us_between(start, Clock::now()) < sweep_seconds * 1e6; ++i) {
    const bool traced = args.trace && i % 2 == 1;
    obs::MetricsRegistry registry;
    explore::ExploreOptions run_options = options;
    if (traced) run_options.obs.metrics = &registry;
    const explore::Explorer explorer(*system, run_options);
    std::optional<Result<explore::ExplorationResult>> result;
    const double us = (traced ? spans : untraced).time(
        "explore.run", [&] { result.emplace(explorer.run()); });
    ++out.attempted;
    const std::size_t errors_before = out.errors.size();
    check_sweep(out, *system, run_options, *result, reference_json);
    if (out.errors.size() != errors_before) ++out.failed;
    (traced ? traced_ms : plain_ms).push_back(us / 1000);
    if (traced) {
      const obs::MetricsSnapshot snap = registry.snapshot();
      const double est = counter(snap, "explore.phase.estimate_us");
      const double val = counter(snap, "explore.phase.validate_us");
      const double busy = counter(snap, "explore.worker_busy_us");
      const double hits = counter(snap, "explore.cache.hits");
      const double misses = counter(snap, "explore.cache.misses");
      estimate_ms.push_back(est / 1000);
      validate_ms.push_back(val / 1000);
      efficiency.push_back(busy / (threads * (est + val)));
      hit_ratio.push_back(hits + misses > 0 ? hits / (hits + misses) : 0);
    }
  }

  if (!args.trace) {
    set_latency_metrics(out, plain_ms, "sweep", 75);
    // Sweeps per second of sweeping; the checks between sweeps are the
    // benchmark's own work.
    const double sweeping_ms =
        std::accumulate(plain_ms.begin(), plain_ms.end(), 0.0);
    out.set("ops_per_s", static_cast<double>(plain_ms.size()) * 1000 /
                             sweeping_ms);
    return out;
  }

  out.set("explore.estimate_ms", median(estimate_ms));
  out.set("explore.validate_ms", median(validate_ms));
  out.set("explore.parallel_efficiency", median(efficiency));
  out.set("explore.cache.hit_ratio", median(hit_ratio));
  out.set("trace_overhead_pct",
          (median(traced_ms) / median(plain_ms) - 1) * 100);

  // Validate replay over the second half: alternate alone and concurrent
  // rounds, report medians.
  ValidateReplay replay(*system, options, *reference);
  if (!replay.ok() || replay.points() == 0) {
    out.fail("validate replay could not be set up");
    return out;
  }
  std::vector<ReplayRound> alone, concurrent;
  const Clock::time_point replay_start = Clock::now();
  while (alone.empty() || concurrent.empty() ||
         us_between(replay_start, Clock::now()) < args.seconds / 2 * 1e6) {
    alone.push_back(replay.round(1, spans, out));
    concurrent.push_back(replay.round(threads, spans, out));
  }
  const double n = static_cast<double>(replay.points());
  auto per_point = [&](const std::vector<ReplayRound>& rounds,
                       double ReplayRound::*field) {
    std::vector<double> v;
    for (const ReplayRound& r : rounds) v.push_back(r.*field / n);
    return median(v);
  };
  out.set("protocol.refine_us_per_point",
          per_point(alone, &ReplayRound::refine_us));
  out.set("sim.compile_us_per_point",
          per_point(alone, &ReplayRound::compile_us));
  const double run_alone = per_point(alone, &ReplayRound::run_us);
  out.set("sim.run_us_per_point", run_alone);
  out.set("core.cosim_us_per_point", per_point(alone, &ReplayRound::cosim_us));
  out.set("sim.run_slowdown_concurrent",
          per_point(concurrent, &ReplayRound::run_us) / run_alone);
  out.set("sim.vm.executed_ops", alone.front().executed_ops);
  out.set("sim.delta_cycles", alone.front().delta_cycles);
  out.set("sim.ns_per_executed_op",
          run_alone * n * 1000 / alone.front().executed_ops);
  for (const ReplayRound& r : alone) {
    if (r.executed_ops != alone.front().executed_ops ||
        r.delta_cycles != alone.front().delta_cycles) {
      out.fail("simulated counts differ between replay rounds");
    }
  }
  out.note("validate replay: " + std::to_string(alone.size()) +
           " alone and " + std::to_string(concurrent.size()) +
           " concurrent rounds of " + std::to_string(replay.points()) +
           " points");
  return out;
}

}  // namespace perfbench
