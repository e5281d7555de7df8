// ifsyn/sim/bytecode/compiler.hpp
//
// One-shot lowering pass from the specification IR to register bytecode.
//
// Compilation happens at Interpreter::setup time, after the kernel's
// signals and bus locks are declared (the compiler interns every
// signal/bus reference through the kernel's find_* lookups, mirroring the
// AST engine's elaboration pre-pass). The pass never fails: anything that
// cannot be resolved statically — and that the AST engine would only
// report when executed — lowers to a kTrap instruction carrying the
// matching error message, preserving lazy error timing.
//
// Lowering rules, the slot model and the worked FLC example live in
// DESIGN.md Sec. 10.
#pragma once

#include "sim/bytecode/program.hpp"
#include "sim/kernel.hpp"
#include "spec/system.hpp"

namespace ifsyn::sim::bytecode {

/// Compile `system` against `kernel` (whose signals/buses must already be
/// declared). The result is self-contained: it borrows nothing from the
/// system's AST except variable initializer Values (copied in).
CompiledSystem compile(const spec::System& system, const Kernel& kernel);

/// Compile and then run the post-compile optimizer (optimizer.hpp) at
/// `level`. kNone returns the compiler output verbatim (bookkeeping
/// fields stamped); kFull rewrites recognized sequences into
/// superinstructions. This is the overload Vm::setup uses, with the level
/// taken from SimConfig::opt.
CompiledSystem compile(const spec::System& system, const Kernel& kernel,
                       OptLevel level);

}  // namespace ifsyn::sim::bytecode
