// ifsyn/core/equivalence.hpp
//
// Functional-equivalence check between the original and the refined
// specification -- the operational form of the paper's claim that "the
// rened specication is simulatable and the design functionality after
// insertion of buses and communication protocols can be veried".
//
// Both systems are simulated to quiescence; equivalence holds when
//   - every one-shot process that completed in the original also
//     completes in the refined system, and
//   - every observed variable ends with the same value.
//
// Observed variables default to the variables common to both systems
// (the refined system adds none at system level, so in practice: all of
// the original's variables).
#pragma once

#include <string>
#include <vector>

#include "sim/interpreter.hpp"
#include "spec/system.hpp"
#include "util/status.hpp"

namespace ifsyn::core {

struct EquivalenceReport {
  bool equivalent = false;
  std::vector<std::string> mismatches;  ///< human-readable findings
  sim::SimResult original;
  sim::SimResult refined;
  /// End-to-end simulated time of each run (communication makes the
  /// refined one slower; the ratio is the protocol's cost).
  std::uint64_t original_time = 0;
  std::uint64_t refined_time = 0;
};

/// Simulate both systems and diff final state. `observed` empty = every
/// variable present in both systems. `obs` (optional) instruments the
/// *refined* run only — its generated buses and protocols are what the
/// "sim." metrics describe; the unrefined original would dilute them.
/// `config` configures both runs.
Result<EquivalenceReport> check_equivalence(
    const spec::System& original, const spec::System& refined,
    std::uint64_t max_time = 1'000'000,
    const std::vector<std::string>& observed = {},
    const obs::ObsContext& obs = {}, const sim::SimConfig& config = {});

/// Same check against an already-simulated original (`original_run` must
/// come from sim::simulate(original, ...) with an ok status). Callers
/// that diff many refined candidates against one original — the
/// explorer's top-K validation, a warm serve pass — pay for the original
/// run once instead of once per candidate. `original_run` is only read;
/// concurrent calls sharing one run are safe. `config` configures the
/// refined run.
Result<EquivalenceReport> check_equivalence_with(
    const spec::System& original, const sim::SimulationRun& original_run,
    const spec::System& refined, std::uint64_t max_time = 1'000'000,
    const std::vector<std::string>& observed = {},
    const obs::ObsContext& obs = {}, const sim::SimConfig& config = {});

}  // namespace ifsyn::core
