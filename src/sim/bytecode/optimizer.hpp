// ifsyn/sim/bytecode/optimizer.hpp
//
// Post-compile optimization pass over compiled bytecode: a set of
// declarative pattern-match-and-rewrite rules (matchers.hpp) that collapse
// recognized instruction sequences into superinstructions.
//
// Two rule families:
//   - Bulk transfer: the per-word DATA-slice sequences that P3's generated
//     Send/Receive procedures compile to become kBulkSend / kBulkRecv —
//     one dispatch moves a whole word (and, on the send side, raises the
//     strobe). The loop skeleton (kLoopTest/kLoopInc) and every kernel
//     suspension (wait for/on/until, bus ops) are left in place, so the
//     optimized program yields to the kernel at exactly the original
//     protocol-visible points: delta-cycle timing, trace events and bus
//     hold/wait accounting are byte-identical by construction.
//   - Peepholes: compare+branch -> kCmpBranch, load/binary/store chains ->
//     kBinaryFused three-address forms, constant operands folded into
//     kWaitForImm / kSignalAssignImm / kSliceImm.
//
// Soundness rests on two facts (argued in DESIGN.md Sec. 14): every
// superinstruction performs the same architectural writes and raises the
// same errors as its source sequence, and the register writes it elides
// are dead by the compiler's write-before-read discipline (each statement
// writes a register before any instruction reads it, and no register is
// live across a suspension). Matches whose interior contains a jump
// target are rejected, so control flow never lands mid-superinstruction.
//
// Every superinstruction carries the dispatch count of the sequence it
// replaced; the VM charges that weight to sim.vm.executed_ops, keeping
// the deterministic metrics byte-identical across opt levels 0 and 1.
#pragma once

#include "sim/bytecode/program.hpp"

namespace ifsyn::sim::bytecode {

/// Parses the IFSYN_SIM_OPT environment variable for a front end's main:
/// "0" disables the pass (compiler output runs verbatim), anything else —
/// including unset — enables it. The simulator itself never reads the
/// environment; callers pass the level as SimConfig::opt.
OptLevel opt_level_from_env();

/// Rewrite `cs` in place at `level`, recording opt_level, opt stats and
/// optimized_instructions on the artifact. kNone only stamps the
/// bookkeeping fields; the code is untouched.
void optimize(CompiledSystem& cs, OptLevel level);

}  // namespace ifsyn::sim::bytecode
