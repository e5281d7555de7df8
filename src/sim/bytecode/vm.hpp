// ifsyn/sim/bytecode/vm.hpp
//
// The dispatch-loop virtual machine executing compiled ProcPrograms on the
// discrete-event kernel.
//
// Execution model: one SimTask coroutine per process runs a flat dispatch
// loop over the process's instruction array. Straight-line code (loads,
// stores, arithmetic, branches, calls) executes without touching the
// coroutine machinery; only the kernel suspensions (`wait for/on/until`,
// bus acquisition) reach a co_await, with the program counter already
// advanced past the instruction — resuming simply re-enters the loop.
// Procedure calls are an explicit frame stack inside the VM (push frame,
// jump, pop on kReturn), not child coroutines, so a deep call chain costs
// no coroutine frames either.
//
// The VM replaces the AST interpreter's data plane only; scheduling,
// signal commits and tracing stay in the kernel, which is why the two
// engines produce identical traces (the differential fuzz harness holds
// them to that).
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "sim/bytecode/program.hpp"
#include "sim/config.hpp"
#include "sim/kernel.hpp"
#include "spec/system.hpp"

namespace ifsyn::obs {
class Counter;
}

namespace ifsyn::sim::bytecode {

class Vm {
 public:
  /// Binds to a system and kernel; both (and config.programs, if set)
  /// must outlive the Vm. Only config.opt and config.programs matter here.
  Vm(const spec::System& system, Kernel& kernel, SimConfig config = {});

  /// Compile the system at config.opt (or fetch the artifact from
  /// config.programs — see program_cache.hpp) and register one
  /// process coroutine per compiled program. Call once, after the
  /// kernel's signals and bus locks are declared (the compiler interns
  /// through the kernel) and before Kernel::run. Records compile time and
  /// size through the kernel's attached metrics registry (sim.vm.*
  /// metrics); the deterministic ones are identical whether the artifact
  /// was compiled or cached, so reports keep their byte-identity.
  void setup();

  /// Read / overwrite a system-level variable (same contract as
  /// Interpreter::value_of / set_value).
  const spec::Value& value_of(const std::string& variable) const;
  void set_value(const std::string& variable, spec::Value value);

  const CompiledSystem& compiled() const { return *compiled_; }

 private:
  struct CallRecord {
    std::uint32_t return_pc = 0;
    std::uint32_t layout = 0;        ///< caller frame's layout index
    std::vector<spec::Value> frame;  ///< caller's suspended frame
  };

  /// Live execution state of one process (one per compiled program;
  /// addresses are stable — states_ is a deque — because the coroutine
  /// factory captures a reference).
  struct ExecState {
    Vm* vm = nullptr;  ///< owner; lets wait-until lambdas capture only
                       ///< {&st, &cond} and fit std::function's inline
                       ///< buffer (no allocation per executed wait)
    const ProcProgram* prog = nullptr;
    std::uint32_t pc = 0;
    std::vector<spec::Value> proc_frame;  ///< layout 0: process locals
    std::vector<spec::Value> frame;       ///< current procedure activation
    std::vector<spec::Value> ret_frame;   ///< last returned activation
    std::uint32_t frame_layout = 0;       ///< layout index of `frame`
    std::uint32_t ret_frame_layout = 0;   ///< layout index of `ret_frame`
    std::vector<CallRecord> call_stack;
    std::vector<Scalar> regs;
    /// The `wait until` whose first evaluation succeeded and that has not
    /// been charged yet (nullptr when none), and the kernel's
    /// change-commit count at that evaluation; see charge_cond.
    const CondProgram* parked_cond = nullptr;
    std::uint64_t parked_at = 0;
    /// Retired activation frames, per layout index, recycled by do_call
    /// to avoid a heap allocation per procedure call.
    std::vector<std::vector<std::vector<spec::Value>>> frame_pool;
  };

  /// Why run_until_suspend handed control back to the coroutine.
  enum class SuspendKind {
    kHalt,
    kWaitFor,     ///< arg = cycle count
    kWaitOn,      ///< arg = wait-set index
    kWaitUntil,   ///< arg = condition-program index
    kAcquireBus,  ///< arg = BusId
  };

  SimTask run_process(ExecState& st);
  /// The hot dispatch loop: executes straight-line code from st.pc until
  /// the next suspension point (or halt), leaving st.pc at the resume
  /// address. Lives outside the coroutine so pc and the instruction
  /// pointer stay in machine registers instead of the coroutine frame.
  SuspendKind run_until_suspend(ExecState& st, std::uint64_t& ops,
                                std::uint64_t& arg);
  void reset(ExecState& st);
  std::vector<spec::Value> make_frame(const FrameLayout& layout) const;
  /// A zero-initialized frame for `layout_index`, reusing a pooled frame's
  /// storage when one is available.
  std::vector<spec::Value> acquire_frame(ExecState& st,
                                         std::uint32_t layout_index) const;

  spec::Value& slot(ExecState& st, Space space, std::int32_t index);
  /// Execute one non-suspending, non-control-flow instruction.
  void exec_op(ExecState& st, const Instr& in);
  /// Superinstruction handlers (optimizer-emitted, see optimizer.hpp):
  /// one whole P3 transfer-loop word — and, for sends, the fused strobe
  /// raise — per dispatch.
  void exec_bulk_send(ExecState& st, const BulkTransfer& bt);
  void exec_bulk_recv(ExecState& st, const BulkTransfer& bt);
  bool eval_cond(ExecState& st, const CondProgram& cp);
  /// Charges st.parked_cond: ref_ops x (1 + change-commits since it was
  /// first evaluated), the evaluations the kernel's evaluate-every-commit
  /// rule would have run, however many it actually ran.
  void charge_cond(ExecState& st);
  void do_call(ExecState& st, const CallSite& cs);
  void do_return(ExecState& st);
  /// Moves a burst's op count into executed_ops_ (at suspension, halt).
  void flush_ops(std::uint64_t& ops);
  /// Kernel end-of-run hook: charges conditions still parked, adds this
  /// run's counts to the registry counters (when one is attached) and
  /// zeroes them.
  void flush_metrics();

  const spec::System& system_;
  Kernel& kernel_;
  SimConfig config_;
  /// Immutable, possibly shared with other Vms via a ProgramCache; all
  /// mutable state lives in states_.
  std::shared_ptr<const CompiledSystem> compiled_;
  std::deque<ExecState> states_;
  std::vector<spec::Value> globals_;  ///< shared by all processes
  /// Run-time counts of the current kernel run, in plain integers: the
  /// dispatch loop, `wait until` charges and every suspension add here,
  /// never to a registry counter, and flush_metrics writes them into the
  /// registry once at the end of the run. A registry several concurrent
  /// runs share (the explorer's validate workers) is thus written once
  /// per run, not once per suspension (DESIGN.md Sec. 8).
  std::uint64_t executed_ops_ = 0;
  /// kBulkSend/kBulkRecv dispatches. Depends on the optimization level,
  /// so its registry counter is wall-clock-classed and never feeds a
  /// deterministic report table.
  std::uint64_t bulk_ops_ = 0;
  obs::Counter* executed_ops_counter_ = nullptr;  ///< sim.vm.executed_ops
  obs::Counter* bulk_ops_counter_ = nullptr;      ///< sim.vm.opt.bulk_ops
};

}  // namespace ifsyn::sim::bytecode
