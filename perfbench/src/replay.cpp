#include "src/replay.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>

#include "check/checker.hpp"
#include "check/trace_miner.hpp"
#include "core/equivalence.hpp"
#include "core/interface_synthesizer.hpp"
#include "core/report.hpp"
#include "explore/explorer.hpp"
#include "explore/report.hpp"
#include "lib/stats.hpp"
#include "serve/json.hpp"
#include "sim/interpreter.hpp"

namespace perfbench {

using namespace ifsyn;

const std::vector<std::string> kReplayLayers = {
    "spec.parse",  "core.synth", "sim.compile", "sim.run",    "core.cosim",
    "check.static", "check.mine", "explore.run", "core.report",
};

double ReplayResult::total_us() const {
  double sum = 0;
  for (const auto& [layer, us] : layer_us) sum += us;
  return sum;
}

std::string replay_class(const serve::Request& request) {
  switch (request.op) {
    case serve::RequestOp::kSynth:
      return "synth";
    case serve::RequestOp::kExplore:
      return "explore";
    default:
      return request.options.conform.value_or(false) ? "conform" : "check";
  }
}

ReplayResult RequestReplayer::replay(const serve::Request& request) {
  ReplayResult out;
  auto time = [&](const std::string& layer, auto&& f) {
    out.layer_us[layer] += spans_.time(layer, f);
  };
  const serve::RequestOptions& ro = request.options;

  std::optional<Result<serve::InternedSpec>> interned;
  time("spec.parse", [&] {
    interned.emplace(request.target.empty()
                         ? interner_.intern_source(request.spec_text)
                         : interner_.intern_target(request.target));
  });
  if (!interned->is_ok()) return out;
  const serve::InternedSpec& spec = interned->value();
  obs::MetricsRegistry registry;
  const obs::ObsContext obs{&registry, nullptr, nullptr};

  if (request.op == serve::RequestOp::kExplore) {
    explore::ExploreOptions options;
    options.threads = std::clamp(ro.threads.value_or(1), 1, 4);
    options.top_k = ro.top_k.value_or(0);
    if (ro.sim_max_time) options.sim_max_time = *ro.sim_max_time;
    if (ro.arbitrate) options.arbitrate = *ro.arbitrate;
    if (ro.protocols) options.space.protocols = *ro.protocols;
    if (ro.alt_groupings) {
      options.space.alternative_groupings = *ro.alt_groupings;
    }
    options.compute_cycles_override = spec.defaults.compute_cycles_override;
    options.shared_cache = &estimates_;
    options.cache_scope = spec.hash;
    options.obs = obs;
    std::optional<Result<explore::ExplorationResult>> result;
    time("explore.run", [&] {
      result.emplace(explore::Explorer(*spec.system, options).run());
    });
    if (!result->is_ok()) return out;
    out.explore_cache_hits = static_cast<double>((*result)->stats.cache_hits);
    out.explore_cache_misses =
        static_cast<double>((*result)->stats.cache_misses);
    time("core.report", [&] {
      out.report = explore::render_exploration_markdown(*spec.system, options,
                                                        result->value());
    });
    out.ok = true;
    for (std::size_t index : (*result)->validated) {
      const explore::PointResult& point = (*result)->points[index];
      if (!point.sim_ok || !point.equivalent) out.ok = false;
    }
    return out;
  }

  core::SynthesisOptions options;
  if (ro.protocol) options.protocol = *ro.protocol;
  options.arbitrate = ro.arbitrate.value_or(spec.defaults.arbitrate);
  options.compute_cycles_override = spec.defaults.compute_cycles_override;
  options.obs = obs;
  const spec::System& original = *spec.system;
  const bool is_check = request.op == serve::RequestOp::kCheck;
  if (is_check) options.run_checker = false;

  spec::System refined =
      original.clone(is_check ? original.name()
                              : original.name() + "_refined");
  std::map<std::string, long long> compute_snapshot;
  std::optional<Result<core::SynthesisReport>> synthesized;
  time("core.synth", [&] {
    if (is_check) {
      compute_snapshot = check::snapshot_compute_cycles(
          refined, options.compute_cycles_override);
    }
    synthesized.emplace(core::InterfaceSynthesizer(options).run(refined));
  });
  if (!synthesized->is_ok()) return out;
  const std::uint64_t max_time = ro.max_time.value_or(10'000'000);

  if (!is_check) {
    std::optional<core::EquivalenceReport> equivalence;
    if (ro.cosim.value_or(true)) {
      // check_equivalence = simulate(original) + check_equivalence_with;
      // the original leg is split into compile and run.
      sim::SimulationRun run;
      run.kernel = std::make_unique<sim::Kernel>();
      run.interpreter =
          std::make_unique<sim::Interpreter>(original, *run.kernel);
      Status setup;
      time("sim.compile", [&] { setup = run.interpreter->setup(); });
      if (!setup.is_ok()) return out;
      time("sim.run", [&] { run.result = run.kernel->run(max_time); });
      std::optional<Result<core::EquivalenceReport>> eq;
      time("core.cosim", [&] {
        eq.emplace(core::check_equivalence_with(original, run, refined,
                                                max_time, {}, obs));
      });
      if (!eq->is_ok()) return out;
      equivalence = std::move(*eq).value();
    }
    time("core.report", [&] {
      core::ReportInputs inputs;
      inputs.refined = &refined;
      inputs.synthesis = &synthesized->value();
      inputs.equivalence = equivalence ? &*equivalence : nullptr;
      const obs::MetricsSnapshot snapshot = registry.snapshot();
      inputs.metrics = &snapshot;
      out.report = core::render_markdown_report(inputs);
    });
    out.ok = !equivalence || equivalence->equivalent;
    return out;
  }

  time("check.static", [&] {
    check::CheckOptions check_options;
    check_options.compute_cycles_override = compute_snapshot;
    const check::CheckReport report =
        check::run_checks(refined, check_options, obs);
    out.ok = report.clean();
    if (report.clean()) {
      std::size_t refined_buses = 0;
      for (const auto& bus : refined.buses()) {
        if (bus->generated()) ++refined_buses;
      }
      std::ostringstream os;
      os << "check clean: " << refined_buses << " bus(es), "
         << refined.channels().size() << " channel(s), 0 diagnostics\n";
      out.report = os.str();
    } else {
      out.report = report.to_string();
    }
  });
  if (!ro.conform.value_or(false)) return out;

  sim::Kernel kernel;
  kernel.enable_trace(true);
  kernel.set_obs(obs);
  sim::Interpreter interpreter(refined, kernel);
  Status setup;
  time("sim.compile", [&] { setup = interpreter.setup(); });
  if (!setup.is_ok()) return out;
  sim::SimResult result;
  time("sim.run", [&] { result = kernel.run(max_time); });
  if (!result.status.is_ok()) return out;
  time("check.mine", [&] {
    const check::ConformanceReport mined =
        check::mine_and_diff(refined, kernel.trace(), obs);
    std::ostringstream os;
    const std::string detail = mined.to_string();
    if (!detail.empty()) os << detail << "\n";
    os << "conform " << (mined.clean() ? "clean" : "FAILED") << ": "
       << mined.lanes_mined << " lane(s), " << mined.transactions_mined
       << " transaction(s), " << mined.edges_checked << " edge(s), "
       << mined.disagreements.size() << " disagreement(s), "
       << mined.skipped.size() << " skipped\n";
    out.report += os.str();
    out.ok = out.ok && mined.clean();
  });
  return out;
}

Result<serve::Request> parse_line(const std::string& line) {
  Result<serve::Json> json = serve::parse_json(line);
  if (!json.is_ok()) return json.status();
  return serve::parse_request(*json);
}

void set_store_hit_ratios(Outcome& out, const obs::MetricsSnapshot& before,
                          const obs::MetricsSnapshot& after) {
  auto delta = [&](const std::string& name) {
    const auto* a = after.find(name);
    const auto* b = before.find(name);
    return static_cast<double>((a ? a->counter : 0) - (b ? b->counter : 0));
  };
  for (const char* store :
       {"spec_cache", "estimation_cache", "program_cache"}) {
    const std::string prefix = std::string("serve.") + store;
    const double hits = delta(prefix + ".hits");
    const double misses = delta(prefix + ".misses");
    out.set(prefix + ".hit_ratio",
            hits + misses > 0 ? hits / (hits + misses) : 0);
  }
}

void set_replay_metrics(Outcome& out,
                        const std::vector<ReplaySample>& samples) {
  if (samples.empty()) return;
  // Layer time per request of the replayed mix: every request weighs the
  // same, and a layer a request does not call counts as 0 for it.
  for (const std::string& layer : kReplayLayers) {
    std::vector<double> per_request;
    for (const ReplaySample& s : samples) {
      const auto it = s.replay.layer_us.find(layer);
      per_request.push_back(it == s.replay.layer_us.end() ? 0 : it->second);
    }
    out.set(layer + "_us", mean(per_request));
  }
  double hits = 0, misses = 0;
  for (const ReplaySample& s : samples) {
    hits += s.replay.explore_cache_hits;
    misses += s.replay.explore_cache_misses;
  }
  out.set("explore.cache.hit_ratio",
          hits + misses > 0 ? hits / (hits + misses) : 0);
  for (const char* cls : {"synth", "check", "conform", "explore"}) {
    double execute = 0, layers = 0;
    for (const ReplaySample& s : samples) {
      if (s.cls != cls) continue;
      execute += s.execute_us;
      layers += s.replay.total_us();
    }
    out.set(std::string("reconcile_pct.") + cls,
            execute > 0 ? std::abs(layers - execute) / execute * 100 : 0);
  }
}

}  // namespace perfbench
