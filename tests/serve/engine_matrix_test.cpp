// The simulator configuration matrix, in one process: three Services,
// configured {vm, opt=1}, {vm, opt=0} and {ast}, stay alive side by side
// and serve the same workload concurrently — every builtin and every
// shipped example spec through synth, check with conformance mining, and
// a top-2 explore.
//
//   - The two VM configurations must produce byte-identical reports (the
//     optimizer's contract: deterministic metrics are level-independent).
//   - The AST reference engine must reach the same verdicts and the same
//     clean conformance results; its reports differ only in lacking the
//     sim.vm.* metric rows, which only the VM records.
//   - Each Service routes its simulations through its own program cache:
//     the VM services hit it, the AST service never consults it.
//
// Nothing here touches the process environment; the configurations are
// plain ServiceOptions values.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "serve/service.hpp"

namespace ifsyn::serve {
namespace {

std::vector<std::string> targets() {
  std::vector<std::string> out = {"builtin:flc", "builtin:am",
                                  "builtin:ethernet", "builtin:fig3"};
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::path(IFSYN_SOURCE_DIR) / "examples" / "specs")) {
    if (entry.path().extension() == ".ifs") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  out.insert(out.end(), files.begin(), files.end());
  return out;
}

std::vector<Request> workload() {
  std::vector<Request> out;
  for (const std::string& target : targets()) {
    Request synth;
    synth.id = "synth " + target;
    synth.op = RequestOp::kSynth;
    synth.target = target;
    // Several specs put concurrent masters on one bus; they co-simulate
    // equivalent, and mine attributably, only when arbitrated.
    synth.options.arbitrate = true;
    out.push_back(synth);

    Request conform = synth;
    conform.id = "conform " + target;
    conform.op = RequestOp::kCheck;
    conform.options.conform = true;
    out.push_back(conform);

    Request explore;
    explore.id = "explore " + target;
    explore.op = RequestOp::kExplore;
    explore.target = target;
    explore.options.top_k = 2;
    out.push_back(explore);
  }
  return out;
}

/// `report` without the lines naming a sim.vm.* metric.
std::string without_vm_rows(const std::string& report) {
  std::istringstream in(report);
  std::string out;
  for (std::string line; std::getline(in, line);) {
    if (line.find("sim.vm.") == std::string::npos) out += line + "\n";
  }
  return out;
}

std::uint64_t program_cache_hits(const Service& service) {
  return service.metrics_snapshot().find("serve.program_cache.hits")->counter;
}

TEST(EngineMatrixTest, ConcurrentServicesAgreeAcrossSimConfigs) {
  struct Config {
    const char* name;
    sim::SimConfig sim;
  };
  const Config configs[] = {
      {"vm opt=1", {sim::Engine::kVm, sim::bytecode::OptLevel::kFull}},
      {"vm opt=0", {sim::Engine::kVm, sim::bytecode::OptLevel::kNone}},
      {"ast", {sim::Engine::kAst}},
  };
  constexpr std::size_t kConfigs = std::size(configs);

  std::vector<std::unique_ptr<Service>> services;
  for (const Config& config : configs) {
    ServiceOptions options;
    options.workers = 2;
    options.queue_capacity = 256;
    options.sim = config.sim;
    services.push_back(std::make_unique<Service>(options));
    services.back()->start();
  }

  // Interleave submissions so all three services run at the same time.
  const std::vector<Request> requests = workload();
  std::vector<std::vector<std::future<Response>>> futures(kConfigs);
  for (const Request& request : requests) {
    for (std::size_t c = 0; c < kConfigs; ++c) {
      futures[c].push_back(services[c]->submit(request));
    }
  }
  std::vector<std::vector<Response>> responses(kConfigs);
  for (std::size_t c = 0; c < kConfigs; ++c) {
    for (auto& future : futures[c]) responses[c].push_back(future.get());
    services[c]->stop();
  }

  for (std::size_t r = 0; r < requests.size(); ++r) {
    SCOPED_TRACE(requests[r].id);
    const Response& vm = responses[0][r];
    const Response& vm_ref = responses[1][r];
    const Response& ast = responses[2][r];
    EXPECT_TRUE(vm.ok) << vm.error.code << ": " << vm.error.message;
    EXPECT_EQ(vm_ref.report, vm.report);
    EXPECT_EQ(vm_ref.ok, vm.ok);
    EXPECT_EQ(ast.ok, vm.ok) << ast.error.code << ": " << ast.error.message;
    EXPECT_EQ(ast.error.code, vm.error.code);
    EXPECT_EQ(ast.report.find("sim.vm."), std::string::npos);
    EXPECT_EQ(ast.report, without_vm_rows(vm.report));
    if (requests[r].op == RequestOp::kSynth) {
      // Co-simulated synth reports embed the VM's metrics, so the
      // comparison above is not vacuous.
      EXPECT_NE(vm.report.find("sim.vm."), std::string::npos);
    }
    if (requests[r].options.conform.value_or(false)) {
      EXPECT_NE(ast.report.find("conform clean"), std::string::npos)
          << ast.report;
    }
  }

  EXPECT_GT(program_cache_hits(*services[0]), 0u);
  EXPECT_GT(program_cache_hits(*services[1]), 0u);
  EXPECT_EQ(program_cache_hits(*services[2]), 0u);
}

}  // namespace
}  // namespace ifsyn::serve
