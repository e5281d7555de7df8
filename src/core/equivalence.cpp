#include "core/equivalence.hpp"

#include <sstream>

namespace ifsyn::core {

Result<EquivalenceReport> check_equivalence(
    const spec::System& original, const spec::System& refined,
    std::uint64_t max_time, const std::vector<std::string>& observed,
    const obs::ObsContext& obs, const sim::SimConfig& config) {
  sim::SimulationRun orig_run =
      sim::simulate(original, max_time, /*trace=*/false, {}, config);
  if (!orig_run.result.status.is_ok()) {
    return Status(orig_run.result.status.code(),
                  "original system: " + orig_run.result.status.message());
  }
  return check_equivalence_with(original, orig_run, refined, max_time,
                                observed, obs, config);
}

Result<EquivalenceReport> check_equivalence_with(
    const spec::System& original, const sim::SimulationRun& orig_run,
    const spec::System& refined, std::uint64_t max_time,
    const std::vector<std::string>& observed, const obs::ObsContext& obs,
    const sim::SimConfig& config) {
  if (!orig_run.result.status.is_ok()) {
    return Status(orig_run.result.status.code(),
                  "original system: " + orig_run.result.status.message());
  }
  sim::SimulationRun ref_run =
      sim::simulate(refined, max_time, /*trace=*/false, obs, config);
  if (!ref_run.result.status.is_ok()) {
    return Status(ref_run.result.status.code(),
                  "refined system: " + ref_run.result.status.message());
  }

  EquivalenceReport report;
  report.original = orig_run.result;
  report.refined = ref_run.result;
  report.original_time = orig_run.result.end_time;
  report.refined_time = ref_run.result.end_time;

  // Process completion: every one-shot process of the original must
  // complete in the refined system too (server processes are new and run
  // forever; they are not checked).
  for (const auto& proc : original.processes()) {
    const sim::ProcessStats* orig_stats =
        orig_run.result.find(proc->name);
    const sim::ProcessStats* ref_stats = ref_run.result.find(proc->name);
    if (!orig_stats || !orig_stats->completed) continue;
    if (!ref_stats) {
      report.mismatches.push_back("process " + proc->name +
                                  " missing from refined system");
      continue;
    }
    if (!ref_stats->completed) {
      report.mismatches.push_back("process " + proc->name +
                                  " did not complete in the refined system");
    }
  }

  // Variable state diff.
  std::vector<std::string> names = observed;
  if (names.empty()) {
    for (const auto& v : original.variables()) {
      if (refined.find_variable(v->name)) names.push_back(v->name);
    }
  }
  for (const std::string& name : names) {
    if (!original.find_variable(name) || !refined.find_variable(name)) {
      report.mismatches.push_back("observed variable " + name +
                                  " missing from one system");
      continue;
    }
    const spec::Value& a = orig_run.interpreter->value_of(name);
    const spec::Value& b = ref_run.interpreter->value_of(name);
    if (a.type() != b.type()) {
      report.mismatches.push_back("variable " + name + " changed type");
      continue;
    }
    for (int i = 0; i < a.size(); ++i) {
      if (a.at(i) != b.at(i)) {
        std::ostringstream os;
        os << "variable " << name;
        if (a.is_array()) os << "(" << i << ")";
        os << ": original=" << a.at(i).to_hex_string()
           << " refined=" << b.at(i).to_hex_string();
        report.mismatches.push_back(os.str());
      }
    }
  }

  report.equivalent = report.mismatches.empty();
  return report;
}

}  // namespace ifsyn::core
