// ifsyn/sim/config.hpp
//
// How a simulation runs, passed by value from the caller down to the
// engine: which engine executes the processes, which bytecode opt level
// the VM compiles at, and which compiled-program store (if any) the VM
// shares artifacts through. Nothing below this value reads the process
// environment; a front end that wants environment knobs parses them once
// in main (the parsers sit beside Engine and OptLevel's users:
// interpreter.hpp, bytecode/optimizer.hpp) and passes the result along.
#pragma once

#include "sim/bytecode/program.hpp"

namespace ifsyn::sim {

namespace bytecode {
class ProgramCache;
}

/// Which execution engine runs the spec's processes.
///
/// kVm (default) compiles every process to register bytecode once at setup
/// and runs a dispatch loop (sim/bytecode/); kAst walks the statement/
/// expression trees directly — slower, but structurally close to the IR,
/// so it serves as the reference the VM is differentially fuzzed against.
enum class Engine {
  kVm,
  kAst,
};

struct SimConfig {
  Engine engine = Engine::kVm;
  /// Post-compile optimizer level for kVm; the AST engine ignores it.
  bytecode::OptLevel opt = bytecode::OptLevel::kFull;
  /// Compiled-artifact store the VM consults before compiling (non-owning;
  /// must outlive every simulation using it). nullptr = compile privately,
  /// the one-shot CLI shape. The AST engine ignores it.
  bytecode::ProgramCache* programs = nullptr;
};

}  // namespace ifsyn::sim
