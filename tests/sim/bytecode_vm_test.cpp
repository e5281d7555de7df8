// Bytecode engine tests: the compiler's lowering (constant folding, wait
// sets, lazy traps, procedure specialization) and the VM's execution
// semantics, checked both directly and against the AST reference engine.
#include "sim/bytecode/vm.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "obs/metrics.hpp"
#include "sim/bytecode/compiler.hpp"
#include "sim/interpreter.hpp"
#include "spec/system.hpp"
#include "util/assert.hpp"

namespace ifsyn::sim {
namespace {

using namespace spec;

SimulationRun run_body(std::vector<Variable> vars, Block body,
                       std::vector<Variable> locals = {},
                       Engine engine = Engine::kVm) {
  System system("t");
  for (auto& v : vars) system.add_variable(std::move(v));
  Process p;
  p.name = "main";
  p.locals = std::move(locals);
  p.body = std::move(body);
  system.add_process(std::move(p));
  return simulate(system, 1'000'000, false, {}, {engine});
}

// ---- engine selection ------------------------------------------------------

TEST(EngineSelectionTest, EnvVariablePicksEngine) {
  std::string bad = "sentinel";
  ::unsetenv("IFSYN_SIM_ENGINE");
  EXPECT_EQ(engine_from_env(&bad), Engine::kVm);
  EXPECT_EQ(bad, "");
  for (const char* value : {"", "vm", "ast"}) {
    SCOPED_TRACE(value);
    ::setenv("IFSYN_SIM_ENGINE", value, 1);
    bad = "sentinel";
    EXPECT_EQ(engine_from_env(&bad),
              std::string(value) == "ast" ? Engine::kAst : Engine::kVm);
    EXPECT_EQ(bad, "") << "recognized values report no bad value";
  }
  // Unknown spellings (the retired "native" included) run the VM and hand
  // the value back so the front end can warn.
  for (const char* value : {"native", "turbo"}) {
    SCOPED_TRACE(value);
    ::setenv("IFSYN_SIM_ENGINE", value, 1);
    EXPECT_EQ(engine_from_env(&bad), Engine::kVm);
    EXPECT_EQ(bad, value);
  }
  ::unsetenv("IFSYN_SIM_ENGINE");
}

TEST(EngineSelectionTest, InterpreterReportsItsEngine) {
  System system("t");
  Kernel k1, k2, k3;
  EXPECT_EQ(Interpreter(system, k1).engine(), Engine::kVm) << "default";
  EXPECT_EQ(Interpreter(system, k2, {Engine::kVm}).engine(), Engine::kVm);
  EXPECT_EQ(Interpreter(system, k3, {Engine::kAst}).engine(), Engine::kAst);
}

// ---- compiler structure ----------------------------------------------------

TEST(BytecodeCompilerTest, FoldsConstantExpressions) {
  // (6*7+0) is compile-time constant: the body lowers to a single kConst
  // feeding the store, not a mul/add chain.
  System system("t");
  system.add_variable(Variable("X", Type::integer(32)));
  Process p;
  p.name = "main";
  p.body = {assign("X", add(mul(lit(6), lit(7)), lit(0)))};
  system.add_process(std::move(p));

  Kernel kernel;
  const bytecode::CompiledSystem cs = bytecode::compile(system, kernel);
  ASSERT_EQ(cs.processes.size(), 1u);
  const bytecode::ProcProgram& prog = cs.processes[0];
  int consts = 0, binaries = 0;
  for (const auto& in : prog.code) {
    if (in.op == bytecode::Op::kConst) ++consts;
    if (in.op == bytecode::Op::kBinary) ++binaries;
  }
  EXPECT_EQ(consts, 1);
  EXPECT_EQ(binaries, 0);
  ASSERT_EQ(prog.consts.size(), 1u);
  EXPECT_EQ(prog.consts[0].to_int(), 42);
}

TEST(BytecodeCompilerTest, NeverFoldsDivisionByZero) {
  // 1/0 must stay a runtime error (lazy, only when executed) — folding it
  // would turn a dead-branch bug into a compile failure.
  System system("t");
  system.add_variable(Variable("X", Type::integer(32)));
  Process p;
  p.name = "main";
  p.body = {if_stmt(eq(lit(1), lit(2)),
                    {assign("X", spec::div(lit(1), lit(0)))})};
  system.add_process(std::move(p));

  Kernel kernel;
  const bytecode::CompiledSystem cs = bytecode::compile(system, kernel);
  int binaries = 0;
  for (const auto& in : cs.processes[0].code) {
    if (in.op == bytecode::Op::kBinary) ++binaries;
  }
  EXPECT_EQ(binaries, 1) << "div-by-zero must remain as runtime code";

  // And the guarded branch never executes, so the run succeeds.
  auto run = run_body({Variable("X", Type::integer(32))},
                      {if_stmt(eq(lit(1), lit(2)),
                               {assign("X", spec::div(lit(1), lit(0)))})});
  EXPECT_TRUE(run.result.status.is_ok());
}

TEST(BytecodeCompilerTest, UndeclaredVariableLowersToLazyTrap) {
  // Same lazy timing as the AST engine: compiling succeeds, running the
  // statement throws with the reference engine's message.
  auto ok = run_body({Variable("X", Type::integer(32))},
                     {if_stmt(eq(lit(1), lit(2)), {assign("X", var("NOPE"))})});
  EXPECT_TRUE(ok.result.status.is_ok());

  auto run = run_body({Variable("X", Type::integer(32))},
                      {assign("X", var("NOPE"))});
  EXPECT_FALSE(run.result.status.is_ok());
  EXPECT_NE(run.result.status.message().find(
                "reference to undeclared variable 'NOPE'"),
            std::string::npos)
      << run.result.status;
}

TEST(BytecodeCompilerTest, PrecomputesWaitSets) {
  System system("t");
  Signal sig;
  sig.name = "B";
  sig.fields = {{"START", 1}, {"DATA", 8}};
  system.add_signal(std::move(sig));
  Process p;
  p.name = "main";
  p.body = {wait_on({{"B", "START"}})};
  system.add_process(std::move(p));

  Kernel kernel;
  for (const auto& s : system.signals()) {
    for (const auto& f : s->fields) {
      kernel.add_signal_field(FieldKey{s->name, f.name}, BitVector(f.width));
    }
  }
  const bytecode::CompiledSystem cs = bytecode::compile(system, kernel);
  ASSERT_EQ(cs.processes[0].wait_sets.size(), 1u);
  ASSERT_EQ(cs.processes[0].wait_sets[0].size(), 1u);
  EXPECT_EQ(cs.processes[0].wait_sets[0][0],
            kernel.signal_id(FieldKey{"B", "START"}));
}

TEST(BytecodeCompilerTest, SpecializesProceduresPerProcess) {
  // INC resolves its free name "BASE" against each calling process's
  // locals, so each process's program carries its own specialized copy.
  System system("t");
  system.add_variable(Variable("R0", Type::integer(32)));
  system.add_variable(Variable("R1", Type::integer(32)));
  Procedure inc;
  inc.name = "INC";
  inc.params = {{"OUT_V", ParamDir::kOut, Type::integer(32)}};
  inc.body = {assign("OUT_V", add(var("BASE"), lit(1)))};
  system.add_procedure(std::move(inc));
  for (int i = 0; i < 2; ++i) {
    Process p;
    p.name = "P" + std::to_string(i);
    p.locals.emplace_back("BASE", Type::integer(32),
                          Value::integer(10 * (i + 1)));
    p.body = {call("INC", {lv("R" + std::to_string(i))})};
    system.add_process(std::move(p));
  }

  Kernel kernel;
  Interpreter interp(system, kernel);
  ASSERT_TRUE(interp.setup().is_ok());
  auto result = kernel.run();
  ASSERT_TRUE(result.status.is_ok()) << result.status;
  EXPECT_EQ(interp.value_of("R0").get().to_int(), 11);
  EXPECT_EQ(interp.value_of("R1").get().to_int(), 21);
}

// ---- execution semantics on both engines -----------------------------------

class BothEngines : public ::testing::TestWithParam<Engine> {};
INSTANTIATE_TEST_SUITE_P(Engines, BothEngines,
                         ::testing::Values(Engine::kVm, Engine::kAst));

TEST_P(BothEngines, ForLoopShadowsAndRestoresLocal) {
  auto run = run_body(
      {Variable("OUT", Type::integer(32)),
       Variable("SUM", Type::integer(32))},
      {for_stmt("J", lit(1), lit(4),
                {assign("SUM", add(var("SUM"), var("J")))}),
       assign("OUT", var("J"))},
      {Variable("J", Type::integer(32), Value::integer(99))}, GetParam());
  ASSERT_TRUE(run.result.status.is_ok()) << run.result.status;
  EXPECT_EQ(run.interpreter->value_of("SUM").get().to_int(), 10);
  EXPECT_EQ(run.interpreter->value_of("OUT").get().to_int(), 99);
}

TEST_P(BothEngines, NestedLoopsOverSameNameRestoreOuter) {
  auto run = run_body(
      {Variable("TRACE", Type::integer(32))},
      {for_stmt("I", lit(1), lit(2),
                {for_stmt("I", lit(10), lit(11), {}),
                 assign("TRACE",
                        add(mul(var("TRACE"), lit(10)), var("I")))})},
      {}, GetParam());
  ASSERT_TRUE(run.result.status.is_ok()) << run.result.status;
  // Each outer iteration sees its own I after the inner loop: 1 then 2.
  EXPECT_EQ(run.interpreter->value_of("TRACE").get().to_int(), 12);
}

TEST_P(BothEngines, ProcedureOutParamWritesArrayElement) {
  System system("t");
  system.add_variable(Variable("MEM", Type::array(Type::bits(16), 8)));
  Procedure mk;
  mk.name = "MK";
  mk.params = {{"IN_V", ParamDir::kIn, Type::bits(16)},
               {"OUT_V", ParamDir::kOut, Type::bits(16)}};
  mk.body = {assign("OUT_V", add(var("IN_V"), lit(5)))};
  system.add_procedure(std::move(mk));
  Process p;
  p.name = "main";
  p.body = {call("MK", {lit(100), lv_idx("MEM", lit(3))})};
  system.add_process(std::move(p));
  auto run = simulate(system, 1'000'000, false, {}, {GetParam()});
  ASSERT_TRUE(run.result.status.is_ok()) << run.result.status;
  EXPECT_EQ(run.interpreter->value_of("MEM").at(3).to_uint(), 105u);
}

TEST_P(BothEngines, RecursiveProcedureRuns) {
  // FACT(n) via an explicit depth counter — exercises the VM's frame
  // stack (and the compiler's worklist handling of self-referencing
  // procedures).
  System system("t");
  system.add_variable(Variable("R", Type::integer(32)));
  Procedure fact;
  fact.name = "FACT";
  fact.params = {{"N", ParamDir::kIn, Type::integer(32)},
                 {"OUT_R", ParamDir::kOut, Type::integer(32)}};
  fact.locals.emplace_back("SUB", Type::integer(32));
  fact.body = {if_stmt(le(var("N"), lit(1)), {assign("OUT_R", lit(1))},
                       {call("FACT", {sub(var("N"), lit(1)), lv("SUB")}),
                        assign("OUT_R", mul(var("N"), var("SUB")))})};
  system.add_procedure(std::move(fact));
  Process p;
  p.name = "main";
  p.body = {call("FACT", {lit(5), lv("R")})};
  system.add_process(std::move(p));
  auto run = simulate(system, 1'000'000, false, {}, {GetParam()});
  ASSERT_TRUE(run.result.status.is_ok()) << run.result.status;
  EXPECT_EQ(run.interpreter->value_of("R").get().to_int(), 120);
}

TEST_P(BothEngines, SetValueInjectsStimuli) {
  System system("t");
  system.add_variable(Variable("X", Type::integer(32)));
  system.add_variable(Variable("Y", Type::integer(32)));
  Process p;
  p.name = "main";
  p.body = {assign("Y", add(var("X"), lit(1)))};
  system.add_process(std::move(p));
  Kernel kernel;
  Interpreter interp(system, kernel, {GetParam()});
  ASSERT_TRUE(interp.setup().is_ok());
  interp.set_value("X", Value::integer(41));
  ASSERT_TRUE(kernel.run().status.is_ok());
  EXPECT_EQ(interp.value_of("Y").get().to_int(), 42);
  EXPECT_THROW(interp.value_of("NOPE"), InternalError);
  EXPECT_THROW(interp.set_value("X", Value::integer(1, 16)), InternalError);
}

// ---- observability ---------------------------------------------------------

TEST(BytecodeVmTest, RecordsCompileAndExecutionMetrics) {
  System system("t");
  system.add_variable(Variable("S", Type::integer(32)));
  Process p;
  p.name = "main";
  p.body = {for_stmt("I", lit(1), lit(100),
                     {assign("S", add(var("S"), var("I")))})};
  system.add_process(std::move(p));

  obs::MetricsRegistry metrics;
  auto run = simulate(system, 1'000'000, false,
                      obs::ObsContext{&metrics, nullptr});
  ASSERT_TRUE(run.result.status.is_ok());
  const auto snap = metrics.snapshot();
  const auto* compiles = snap.find("sim.vm.compiles");
  ASSERT_NE(compiles, nullptr);
  EXPECT_EQ(compiles->counter, 1u);
  const auto* instrs = snap.find("sim.vm.compiled_instructions");
  ASSERT_NE(instrs, nullptr);
  EXPECT_GT(instrs->counter, 0u);
  const auto* ops = snap.find("sim.vm.executed_ops");
  ASSERT_NE(ops, nullptr);
  // 100 iterations x (compare + store + add + ...) — well above 500.
  EXPECT_GT(ops->counter, 500u);
  EXPECT_NE(snap.find("sim.vm.compile_us"), nullptr);
}

TEST(BytecodeVmTest, ExecutedOpsReachTheRegistryOnceAtEndOfRun) {
  // The VM counts executed ops in plain per-run integers and writes the
  // registry once, when Kernel::run ends, so concurrent runs sharing one
  // registry never contend on it mid-run. A probe process reading the
  // counter halfway through simulated time must see nothing of the run.
  System system("t");
  system.add_variable(Variable("COUNT", Type::integer(32)));
  Signal s;
  s.name = "S";
  s.fields = {SignalField{"REQ", 1}};
  system.add_signal(std::move(s));
  Process producer;
  producer.name = "producer";
  producer.body = {for_stmt("I", lit(1), lit(10),
                            {wait_for(10), sig_assign("S", "REQ", lit(1)),
                             wait_for(10), sig_assign("S", "REQ", lit(0))})};
  system.add_process(std::move(producer));
  Process consumer;
  consumer.name = "consumer";
  consumer.body = {for_stmt("J", lit(1), lit(10),
                            {wait_until(eq(sig("S", "REQ"), lit(1))),
                             assign("COUNT", add(var("COUNT"), lit(1))),
                             wait_until(eq(sig("S", "REQ"), lit(0)))})};
  system.add_process(std::move(consumer));

  obs::MetricsRegistry metrics;
  Kernel kernel;
  kernel.set_obs(obs::ObsContext{&metrics, nullptr});
  Interpreter interp(system, kernel);
  ASSERT_TRUE(interp.setup().is_ok());
  obs::Counter& ops = metrics.counter("sim.vm.executed_ops");
  std::uint64_t mid_run = ~std::uint64_t{0};
  kernel.add_process("probe", [&]() -> SimTask {
    { auto aw = kernel.wait_for(100); co_await aw; }
    mid_run = ops.value();
  });

  SimResult first = kernel.run();
  ASSERT_TRUE(first.status.is_ok()) << first.status;
  EXPECT_EQ(first.end_time, 200u);
  EXPECT_EQ(interp.value_of("COUNT").get().to_int(), 10);
  EXPECT_GT(first.kernel.wakeups_condition, 0u);
  EXPECT_EQ(mid_run, 0u) << "executed ops reached the registry mid-run";
  const std::uint64_t total = ops.value();
  EXPECT_GT(total, 100u);

  // A second run on the same kernel executes the same ops and flushes
  // exactly the same count once more.
  SimResult second = kernel.run();
  ASSERT_TRUE(second.status.is_ok()) << second.status;
  EXPECT_EQ(mid_run, total) << "second run leaked into the registry";
  EXPECT_EQ(ops.value(), 2 * total);
}

// ---- wait-until accounting -------------------------------------------------
//
// The kernel evaluates a parked VM condition only in commits that change a
// field it reads, but sim.vm.executed_ops is a deterministic report metric
// and must read as if the condition ran at the wait and again in every
// change-commit. The pinned counts were recorded with a kernel that did
// evaluate every parked condition in every change-commit.

Signal make_signal(std::string name, std::vector<SignalField> fields) {
  Signal s;
  s.name = std::move(name);
  s.fields = std::move(fields);
  return s;
}

Process make_process(std::string name, Block body) {
  Process p;
  p.name = std::move(name);
  p.body = std::move(body);
  return p;
}

/// S.REQ handshake target plus an unrelated N.X line a noise process
/// toggles every cycle for `toggles` cycles before (when `raise`) setting
/// S.REQ. The waiter parks on S.REQ = 1 and then counts into WOKE.
System parked_waiter_system(int toggles, bool raise) {
  System system("t");
  system.add_variable(Variable("WOKE", Type::integer(32)));
  system.add_signal(make_signal("S", {SignalField{"REQ", 1}}));
  system.add_signal(make_signal("N", {SignalField{"X", 1}}));
  Block noise = {for_stmt("I", lit(1), lit(toggles),
                          {sig_assign("N", "X", mod(var("I"), lit(2))),
                           wait_for(1)})};
  if (raise) noise.push_back(sig_assign("S", "REQ", lit(1)));
  system.add_process(make_process("noise", std::move(noise)));
  system.add_process(make_process(
      "waiter", {wait_until(eq(sig("S", "REQ"), lit(1))),
                 assign("WOKE", add(var("WOKE"), lit(1)))}));
  return system;
}

std::uint64_t executed_ops(const System& system, std::uint64_t max_time,
                           SimResult* result = nullptr) {
  obs::MetricsRegistry metrics;
  auto run = simulate(system, max_time, false,
                      obs::ObsContext{&metrics, nullptr});
  if (result != nullptr) *result = run.result;
  return metrics.counter("sim.vm.executed_ops").value();
}

TEST(BytecodeVmTest, ParkedWaiterIsChargedForEveryChangeCommit) {
  // 40 N.X commits the waiter does not read, then the S.REQ commit.
  SimResult result;
  const std::uint64_t ops =
      executed_ops(parked_waiter_system(40, true), 1'000'000, &result);
  ASSERT_TRUE(result.status.is_ok()) << result.status;
  EXPECT_EQ(result.kernel.wakeups_condition, 1u);
  EXPECT_EQ(ops, 502u);
}

TEST(BytecodeVmTest, ConditionThatAlreadyHoldsIsChargedOnce) {
  System system("t");
  system.add_variable(Variable("WOKE", Type::integer(32)));
  system.add_signal(make_signal("S", {SignalField{"REQ", 1}}));
  system.add_signal(make_signal("N", {SignalField{"X", 1}}));
  system.add_process(make_process(
      "noise", {for_stmt("I", lit(1), lit(10),
                         {sig_assign("N", "X", mod(var("I"), lit(2))),
                          wait_for(1)})}));
  system.add_process(make_process(
      "waiter", {wait_for(5), wait_until(eq(sig("S", "REQ"), lit(0))),
                 assign("WOKE", lit(1))}));
  SimResult result;
  const std::uint64_t ops = executed_ops(system, 1'000'000, &result);
  ASSERT_TRUE(result.status.is_ok()) << result.status;
  EXPECT_EQ(result.kernel.wakeups_condition, 0u);
  EXPECT_EQ(ops, 108u);
}

TEST(BytecodeVmTest, WaiterParkedAtQuiescenceIsChargedAtRunEnd) {
  SimResult result;
  const std::uint64_t ops =
      executed_ops(parked_waiter_system(40, false), 1'000'000, &result);
  ASSERT_TRUE(result.status.is_ok()) << result.status;
  EXPECT_EQ(result.kernel.wakeups_condition, 0u);
  EXPECT_FALSE(result.find("waiter")->completed);
  EXPECT_EQ(ops, 492u);
}

TEST(BytecodeVmTest, WaiterParkedAtMaxTimeIsChargedAtRunEnd) {
  // The noise outlives max_time, so the run aborts with the waiter parked.
  SimResult result;
  const std::uint64_t ops =
      executed_ops(parked_waiter_system(1000, true), 30, &result);
  EXPECT_FALSE(result.status.is_ok());
  EXPECT_FALSE(result.find("waiter")->completed);
  EXPECT_EQ(ops, 381u);
}

TEST(BytecodeVmTest, WaitUntilOnAGlobalWakesLikeTheAstEngine) {
  // G is a system variable: the writer changes it with no signal event of
  // its own, in a delta that also commits an unrelated signal. The waiter
  // reads G together with a signal, so a read set of signals alone would
  // never re-evaluate it when G changes. Both engines must wake it in
  // that commit and agree on wake time, end time and final state.
  System system("t");
  system.add_variable(Variable("G", Type::integer(32)));
  system.add_variable(Variable("SEEN", Type::integer(32)));
  system.add_signal(make_signal("S", {SignalField{"REQ", 1}}));
  system.add_signal(make_signal("N", {SignalField{"X", 1}}));
  system.add_signal(make_signal("W", {SignalField{"V", 1}}));
  system.add_process(make_process(
      "writer", {sig_assign("S", "REQ", lit(1)), wait_for(5),
                 assign("G", lit(7)), sig_assign("N", "X", lit(1))}));
  system.add_process(make_process(
      "waiter", {wait_until(land(eq(sig("S", "REQ"), lit(1)),
                                 eq(var("G"), lit(7)))),
                 sig_assign("W", "V", lit(1)), wait_for(3),
                 assign("SEEN", var("G"))}));

  auto vm = simulate(system, 1'000'000, true, {}, {Engine::kVm});
  auto ast = simulate(system, 1'000'000, true, {}, {Engine::kAst});
  ASSERT_TRUE(vm.result.status.is_ok()) << vm.result.status;
  ASSERT_TRUE(ast.result.status.is_ok()) << ast.result.status;
  auto wake_time = [](const SimulationRun& run) {
    for (const TraceEntry& e : run.kernel->trace()) {
      if (e.key == FieldKey{"W", "V"}) return e.time;
    }
    return ~std::uint64_t{0};
  };
  EXPECT_EQ(wake_time(ast), 5u);
  EXPECT_EQ(wake_time(vm), wake_time(ast));
  EXPECT_EQ(ast.result.end_time, 8u);
  EXPECT_EQ(vm.result.end_time, ast.result.end_time);
  EXPECT_EQ(vm.result.find("waiter")->finish_time,
            ast.result.find("waiter")->finish_time);
  EXPECT_EQ(ast.interpreter->value_of("SEEN").get().to_int(), 7);
  EXPECT_EQ(vm.interpreter->value_of("SEEN").get().to_int(),
            ast.interpreter->value_of("SEEN").get().to_int());
}

}  // namespace
}  // namespace ifsyn::sim
