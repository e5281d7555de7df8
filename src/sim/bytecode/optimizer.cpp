// ifsyn/sim/bytecode/optimizer.cpp
//
// The rewrite rules and the match-collect-rebuild engine behind them.
//
// Matching is anchored and greedy: at each pc the rules are tried in
// priority order (bulk transfers first, then the peepholes, longest
// first); an accepted match consumes its instructions and scanning
// resumes after them, so collected matches never overlap. A match is
// rejected when any *interior* instruction is a jump target (control may
// land mid-sequence there — entry points, branch targets, loop edges,
// call-return and suspension-resume pcs all count), or when the rule's
// semantic guards fail (see each build_* function). Rejected sequences
// simply keep running as compiler output.
//
// The rebuild maps old pcs to new ones (every interior pc maps to its
// superinstruction, so stored jump targets stay valid by construction)
// and patches every target-bearing field: kJump/kJumpIfFalse/kLoopTest/
// kLoopInc/kCmpBranch operands, the program entry and callsite entry pcs.
// Condition programs rewrite per-CondProgram range (start/count remapped,
// ref_ops untouched); only expression-legal rules can structurally match
// there, since cond code contains no stores, jumps or suspensions.

#include "sim/bytecode/optimizer.hpp"

#include <algorithm>
#include <cstdlib>
#include <span>
#include <vector>

#include "sim/bytecode/matchers.hpp"
#include "util/assert.hpp"

namespace ifsyn::sim::bytecode {

OptLevel opt_level_from_env() {
  const char* v = std::getenv("IFSYN_SIM_OPT");
  if (v != nullptr && v[0] == '0' && v[1] == '\0') return OptLevel::kNone;
  return OptLevel::kFull;
}

namespace {

using spec::BinaryOp;

OperandPat bop(BinaryOp op) {
  return lit_(static_cast<std::int64_t>(op));
}

// ---------------------------------------------------------------------------
// Capture slots. Each rule family has its own namespace of slots; patterns
// from different rules never share a MatchContext.

// Bulk transfers (kBulkSend / kBulkRecv).
enum : int {
  kBVarSpace,   ///< message variable (send source / receive target)
  kBVarSlot,
  kBWHi,        ///< const pool: w_hi      (hi = w_hi * J - k_hi)
  kBJSpace,     ///< loop index J
  kBJSlot,
  kBKHi,        ///< const pool: k_hi
  kBWLo,        ///< const pool: w_lo      (lo = w_lo * (J - k_lo))
  kBKLo,        ///< const pool: k_lo
  kBDataSig,
  kBDataW,
  kBJ2Space,    ///< parity index (strobe stage)
  kBJ2Slot,
  kBPar,        ///< const pool: parity modulus — or strobe const (kConst)
  kBStrobeSig,
  kBStrobeW,
};
enum : int { kBStrobeConst = kBPar };

// kBinaryFused.
enum : int { kFOp, kFR1, kFR2, kFSpace, kFSlot, kFWidth };

// kSliceImm.
enum : int { kSlRH, kSlCH, kSlRL, kSlCL, kSlRD };

// kWaitForImm.
enum : int { kWR, kWC };

// kCmpBranch.
enum : int { kCbOp, kCbD, kCbA, kCbB, kCbTarget };

// kSignalAssignImm.
enum : int { kSaR, kSaC, kSaSig, kSaW };

// ---------------------------------------------------------------------------
// Pattern construction.

// Rows 1..10 of a bulk-transfer word: the shared index arithmetic both
// generated Send and Receive bodies compile to for the word slice
// (w_hi*J - k_hi  downto  w_lo*(J - k_lo)). The word payload sits in r0
// (loaded by the rule-specific row 0); hi lands in r1, lo in r2. Register
// numbers are literal because statement compilation deterministically
// allocates from r0 (compiler.cpp), so the generated procedures always
// produce exactly these registers.
void append_index_rows(std::vector<InstrPat>& rows) {
  rows.push_back(ip(Op::kConst, any_(), lit_(1), cap_(kBWHi)));
  rows.push_back(ip(Op::kLoadVar, cap_(kBJSpace), lit_(2), cap_(kBJSlot)));
  rows.push_back(ip(Op::kBinary, bop(BinaryOp::kMul), lit_(1), lit_(1),
                    lit_(2)));
  rows.push_back(ip(Op::kConst, any_(), lit_(2), cap_(kBKHi)));
  rows.push_back(ip(Op::kBinary, bop(BinaryOp::kSub), lit_(1), lit_(1),
                    lit_(2)));
  rows.push_back(ip(Op::kConst, any_(), lit_(2), cap_(kBWLo)));
  rows.push_back(ip(Op::kLoadVar, cap_(kBJSpace), lit_(3), cap_(kBJSlot)));
  rows.push_back(ip(Op::kConst, any_(), lit_(4), cap_(kBKLo)));
  rows.push_back(ip(Op::kBinary, bop(BinaryOp::kSub), lit_(3), lit_(3),
                    lit_(4)));
  rows.push_back(ip(Op::kBinary, bop(BinaryOp::kMul), lit_(2), lit_(2),
                    lit_(3)));
}

Pattern bulk_send_pattern(BulkTransfer::Strobe strobe) {
  std::vector<InstrPat> rows;
  rows.push_back(ip(Op::kLoadVar, cap_(kBVarSpace), lit_(0), cap_(kBVarSlot)));
  append_index_rows(rows);
  rows.push_back(ip(Op::kSlice, any_(), lit_(0), lit_(0), lit_(1), lit_(2)));
  rows.push_back(ip(Op::kSignalAssign, any_(), any_(), cap_(kBDataSig),
                    cap_(kBDataW), lit_(0)));
  switch (strobe) {
    case BulkTransfer::Strobe::kNone:
      break;
    case BulkTransfer::Strobe::kConst:
      // START <= '1' style handshake raise right after the word.
      rows.push_back(ip(Op::kConst, any_(), lit_(0), cap_(kBStrobeConst)));
      rows.push_back(ip(Op::kSignalAssign, any_(), any_(), cap_(kBStrobeSig),
                        cap_(kBStrobeW), lit_(0)));
      break;
    case BulkTransfer::Strobe::kParity:
      // STROBE <= J mod 2 word-parity raise.
      rows.push_back(ip(Op::kLoadVar, cap_(kBJ2Space), lit_(0),
                        cap_(kBJ2Slot)));
      rows.push_back(ip(Op::kConst, any_(), lit_(1), cap_(kBPar)));
      rows.push_back(ip(Op::kBinary, bop(BinaryOp::kMod), lit_(0), lit_(0),
                        lit_(1)));
      rows.push_back(ip(Op::kSignalAssign, any_(), any_(), cap_(kBStrobeSig),
                        cap_(kBStrobeW), lit_(0)));
      break;
  }
  return Pattern{std::move(rows)};
}

Pattern bulk_recv_pattern() {
  std::vector<InstrPat> rows;
  rows.push_back(ip(Op::kLoadSignal, any_(), lit_(0), cap_(kBDataSig)));
  append_index_rows(rows);
  rows.push_back(ip(Op::kStoreSlice, cap_(kBVarSpace), lit_(0),
                    cap_(kBVarSlot), lit_(1), lit_(2)));
  return Pattern{std::move(rows)};
}

Pattern fused_binary_pattern(bool with_store) {
  std::vector<InstrPat> rows;
  const std::initializer_list<Op> loads = {Op::kLoadVar, Op::kConst,
                                           Op::kLoadSignal};
  if (with_store) {
    // Top-level `x := a <op> b`: operands always land in r0/r1.
    rows.push_back(ip_any(loads, any_(), lit_(0)));
    rows.push_back(ip_any(loads, any_(), lit_(1)));
    rows.push_back(ip(Op::kBinary, cap_(kFOp), lit_(0), lit_(0), lit_(1)));
    rows.push_back(ip(Op::kStoreVar, cap_(kFSpace), any_(), cap_(kFSlot),
                      lit_(0), cap_(kFWidth)));
  } else {
    rows.push_back(ip_any(loads, any_(), cap_(kFR1)));
    rows.push_back(ip_any(loads, any_(), cap_(kFR2)));
    rows.push_back(ip(Op::kBinary, cap_(kFOp), cap_(kFR1), cap_(kFR1),
                      cap_(kFR2)));
  }
  return Pattern{std::move(rows)};
}

Pattern slice_imm_pattern() {
  std::vector<InstrPat> rows;
  rows.push_back(ip(Op::kConst, any_(), cap_(kSlRH), cap_(kSlCH)));
  rows.push_back(ip(Op::kConst, any_(), cap_(kSlRL), cap_(kSlCL)));
  rows.push_back(ip(Op::kSlice, any_(), cap_(kSlRD), cap_(kSlRD),
                    cap_(kSlRH), cap_(kSlRL)));
  return Pattern{std::move(rows)};
}

Pattern wait_for_imm_pattern() {
  std::vector<InstrPat> rows;
  rows.push_back(ip(Op::kConst, any_(), cap_(kWR), cap_(kWC)));
  rows.push_back(ip(Op::kToInt, any_(), cap_(kWR), cap_(kWR)));
  rows.push_back(ip(Op::kWaitFor, any_(), any_(), cap_(kWR)));
  return Pattern{std::move(rows)};
}

Pattern cmp_branch_pattern() {
  std::vector<InstrPat> rows;
  rows.push_back(ip(Op::kBinary, cap_(kCbOp), cap_(kCbD), cap_(kCbA),
                    cap_(kCbB)));
  rows.push_back(ip(Op::kJumpIfFalse, any_(), any_(), cap_(kCbD),
                    cap_(kCbTarget)));
  return Pattern{std::move(rows)};
}

Pattern signal_assign_imm_pattern() {
  std::vector<InstrPat> rows;
  rows.push_back(ip(Op::kConst, any_(), cap_(kSaR), cap_(kSaC)));
  rows.push_back(ip(Op::kSignalAssign, any_(), any_(), cap_(kSaSig),
                    cap_(kSaW), cap_(kSaR)));
  return Pattern{std::move(rows)};
}

// ---------------------------------------------------------------------------
// Semantic guards + replacement builders. Every builder either fills
// `repl` (appending to the program's side tables as needed) or returns
// false, in which case the original sequence runs unchanged.

/// Fold a pool constant into raw int64 arithmetic only when to_int() is
/// total for it (width in [1,64]) — the folding happens at optimization
/// time, so a constant whose conversion would trap at runtime must stay
/// on the generic path to keep its lazy error timing.
bool fusable_const(const ProcProgram& prog, std::int64_t idx,
                   std::int64_t& out) {
  const Scalar& c = prog.consts[static_cast<std::size_t>(idx)];
  const int w = c.bits.width();
  if (w < 1 || w > 64) return false;
  out = c.to_int();
  return true;
}

bool build_bulk_common(const ProcProgram& prog, const MatchContext& ctx,
                       BulkTransfer& bt) {
  if (!fusable_const(prog, ctx[kBWHi], bt.w_hi)) return false;
  if (!fusable_const(prog, ctx[kBKHi], bt.k_hi)) return false;
  if (!fusable_const(prog, ctx[kBWLo], bt.w_lo)) return false;
  if (!fusable_const(prog, ctx[kBKLo], bt.k_lo)) return false;
  bt.var_space = static_cast<Space>(ctx[kBVarSpace]);
  bt.var_slot = static_cast<std::int32_t>(ctx[kBVarSlot]);
  bt.j_space = static_cast<Space>(ctx[kBJSpace]);
  bt.j_slot = static_cast<std::int32_t>(ctx[kBJSlot]);
  bt.data_signal = static_cast<SignalId>(ctx[kBDataSig]);
  return true;
}

bool build_bulk_send(ProcProgram& prog, std::span<const Instr> seq,
                     const MatchContext& ctx, BulkTransfer::Strobe strobe,
                     Instr& repl) {
  BulkTransfer bt;
  if (!build_bulk_common(prog, ctx, bt)) return false;
  bt.data_width = static_cast<int>(ctx[kBDataW]);
  bt.strobe = strobe;
  switch (strobe) {
    case BulkTransfer::Strobe::kNone:
      break;
    case BulkTransfer::Strobe::kConst:
      bt.strobe_signal = static_cast<SignalId>(ctx[kBStrobeSig]);
      bt.strobe_width = static_cast<int>(ctx[kBStrobeW]);
      bt.strobe_const = static_cast<std::int32_t>(ctx[kBStrobeConst]);
      break;
    case BulkTransfer::Strobe::kParity:
      bt.strobe_signal = static_cast<SignalId>(ctx[kBStrobeSig]);
      bt.strobe_width = static_cast<int>(ctx[kBStrobeW]);
      bt.j2_space = static_cast<Space>(ctx[kBJ2Space]);
      bt.j2_slot = static_cast<std::int32_t>(ctx[kBJ2Slot]);
      // Modulus zero would hit the generic path's lazy "mod by zero"
      // error at runtime; keep such code unfused.
      if (!fusable_const(prog, ctx[kBPar], bt.par_mod)) return false;
      if (bt.par_mod == 0) return false;
      break;
  }
  bt.weight = static_cast<std::uint32_t>(seq.size());
  prog.bulks.push_back(bt);
  repl = Instr{.op = Op::kBulkSend,
               .a = static_cast<std::int32_t>(prog.bulks.size()) - 1};
  return true;
}

bool build_bulk_send_parity(ProcProgram& prog, std::span<const Instr> seq,
                            const MatchContext& ctx, Instr& repl) {
  return build_bulk_send(prog, seq, ctx, BulkTransfer::Strobe::kParity, repl);
}

bool build_bulk_send_const(ProcProgram& prog, std::span<const Instr> seq,
                           const MatchContext& ctx, Instr& repl) {
  return build_bulk_send(prog, seq, ctx, BulkTransfer::Strobe::kConst, repl);
}

bool build_bulk_send_bare(ProcProgram& prog, std::span<const Instr> seq,
                          const MatchContext& ctx, Instr& repl) {
  return build_bulk_send(prog, seq, ctx, BulkTransfer::Strobe::kNone, repl);
}

bool build_bulk_recv(ProcProgram& prog, std::span<const Instr> seq,
                     const MatchContext& ctx, Instr& repl) {
  BulkTransfer bt;
  if (!build_bulk_common(prog, ctx, bt)) return false;
  bt.weight = static_cast<std::uint32_t>(seq.size());
  prog.bulks.push_back(bt);
  repl = Instr{.op = Op::kBulkRecv,
               .a = static_cast<std::int32_t>(prog.bulks.size()) - 1};
  return true;
}

FusedOperand fused_operand(const Instr& load) {
  FusedOperand o;
  switch (load.op) {
    case Op::kLoadVar:
      o.kind = FusedOperand::Kind::kSlot;
      o.space = static_cast<Space>(load.aux);
      break;
    case Op::kConst:
      o.kind = FusedOperand::Kind::kConst;
      break;
    case Op::kLoadSignal:
      o.kind = FusedOperand::Kind::kSignal;
      break;
    default:
      IFSYN_ASSERT_MSG(false, "non-load row in fused-binary match");
  }
  o.index = load.a;
  return o;
}

bool build_fused(ProcProgram& prog, std::span<const Instr> seq, bool has_store,
                 std::uint16_t dst_reg, Instr& repl) {
  // const<op>const stays on the generic path: the compiler already folds
  // every non-trapping case, so what remains is a deliberate lazy error
  // (e.g. division by zero) whose per-execution behavior must not change.
  if (seq[0].op == Op::kConst && seq[1].op == Op::kConst) return false;
  FusedBinary f;
  f.op = static_cast<BinaryOp>(seq[2].aux);
  f.lhs = fused_operand(seq[0]);
  f.rhs = fused_operand(seq[1]);
  f.dst_reg = dst_reg;
  f.has_store = has_store;
  if (has_store) {
    f.store_space = static_cast<Space>(seq[3].aux);
    f.store_slot = seq[3].a;
    f.store_width = seq[3].c;
  }
  f.weight = static_cast<std::uint32_t>(seq.size());
  prog.fusions.push_back(f);
  repl = Instr{.op = Op::kBinaryFused,
               .a = static_cast<std::int32_t>(prog.fusions.size()) - 1};
  return true;
}

bool build_fused_store(ProcProgram& prog, std::span<const Instr> seq,
                       const MatchContext& ctx, Instr& repl) {
  (void)ctx;
  return build_fused(prog, seq, /*has_store=*/true, /*dst_reg=*/0, repl);
}

bool build_fused_plain(ProcProgram& prog, std::span<const Instr> seq,
                       const MatchContext& ctx, Instr& repl) {
  // Distinct operand registers, or the second load would have clobbered
  // the first and the fusion would read a stale lhs.
  if (ctx[kFR1] == ctx[kFR2]) return false;
  return build_fused(prog, seq, /*has_store=*/false,
                     static_cast<std::uint16_t>(ctx[kFR1]), repl);
}

bool build_slice_imm(ProcProgram& prog, std::span<const Instr> seq,
                     const MatchContext& ctx, Instr& repl) {
  (void)prog;
  (void)seq;
  // The two bound constants must land in distinct registers, neither of
  // them the slice base (the compiler emits base, base+1, base+2) — any
  // other shape means a register clobber the fusion would not reproduce.
  const std::int64_t rh = ctx[kSlRH], rl = ctx[kSlRL], rd = ctx[kSlRD];
  if (rh == rl || rh == rd || rl == rd) return false;
  repl = Instr{.op = Op::kSliceImm,
               .dst = static_cast<std::uint16_t>(rd),
               .a = static_cast<std::int32_t>(rd),
               .b = static_cast<std::int32_t>(ctx[kSlCH]),
               .c = static_cast<std::int32_t>(ctx[kSlCL])};
  return true;
}

bool build_wait_for_imm(ProcProgram& prog, std::span<const Instr> seq,
                        const MatchContext& ctx, Instr& repl) {
  (void)prog;
  (void)seq;
  // No value guard: the handler calls consts[a].to_int() at runtime,
  // which raises the exact asserts the replaced kToInt/kWaitFor pair did.
  repl = Instr{.op = Op::kWaitForImm,
               .a = static_cast<std::int32_t>(ctx[kWC])};
  return true;
}

bool build_cmp_branch(ProcProgram& prog, std::span<const Instr> seq,
                      const MatchContext& ctx, Instr& repl) {
  (void)prog;
  (void)seq;
  repl = Instr{.op = Op::kCmpBranch,
               .aux = static_cast<std::uint8_t>(ctx[kCbOp]),
               .dst = static_cast<std::uint16_t>(ctx[kCbD]),
               .a = static_cast<std::int32_t>(ctx[kCbA]),
               .b = static_cast<std::int32_t>(ctx[kCbB]),
               .c = static_cast<std::int32_t>(ctx[kCbTarget])};
  return true;
}

bool build_signal_assign_imm(ProcProgram& prog, std::span<const Instr> seq,
                             const MatchContext& ctx, Instr& repl) {
  (void)prog;
  (void)seq;
  repl = Instr{.op = Op::kSignalAssignImm,
               .a = static_cast<std::int32_t>(ctx[kSaSig]),
               .b = static_cast<std::int32_t>(ctx[kSaW]),
               .c = static_cast<std::int32_t>(ctx[kSaC])};
  return true;
}

// ---------------------------------------------------------------------------
// Rule table and the scan / rebuild / remap engine.

struct Rule {
  const char* name;
  Pattern pattern;
  bool (*build)(ProcProgram&, std::span<const Instr>, const MatchContext&,
                Instr&);
};

const std::vector<Rule>& rules() {
  // Priority order: bulk transfers (longest, biggest win) before the
  // peepholes; a bulk candidate whose guards reject still degrades
  // gracefully into peephole fusions over its arithmetic rows.
  static const std::vector<Rule> kRules = [] {
    std::vector<Rule> r;
    r.push_back({"bulk-send-parity",
                 bulk_send_pattern(BulkTransfer::Strobe::kParity),
                 build_bulk_send_parity});
    r.push_back({"bulk-send-const",
                 bulk_send_pattern(BulkTransfer::Strobe::kConst),
                 build_bulk_send_const});
    r.push_back({"bulk-send-bare",
                 bulk_send_pattern(BulkTransfer::Strobe::kNone),
                 build_bulk_send_bare});
    r.push_back({"bulk-recv", bulk_recv_pattern(), build_bulk_recv});
    r.push_back({"fused-binary-store", fused_binary_pattern(true),
                 build_fused_store});
    r.push_back({"fused-binary", fused_binary_pattern(false),
                 build_fused_plain});
    r.push_back({"slice-imm", slice_imm_pattern(), build_slice_imm});
    r.push_back({"wait-for-imm", wait_for_imm_pattern(), build_wait_for_imm});
    r.push_back({"cmp-branch", cmp_branch_pattern(), build_cmp_branch});
    r.push_back({"signal-assign-imm", signal_assign_imm_pattern(),
                 build_signal_assign_imm});
    return r;
  }();
  return kRules;
}

/// Every pc control can land on without falling through: rewrites must
/// not swallow one into a superinstruction interior. Suspension-resume
/// and call-return pcs are included defensively — no current pattern
/// contains a mid-sequence suspension or call, but the invariant is
/// cheap to enforce and rules shouldn't have to reason about it.
std::vector<char> jump_targets(const ProcProgram& prog) {
  std::vector<char> t(prog.code.size() + 1, 0);
  auto mark = [&t](std::int64_t pc) {
    if (pc >= 0 && pc < static_cast<std::int64_t>(t.size())) {
      t[static_cast<std::size_t>(pc)] = 1;
    }
  };
  mark(prog.entry);
  for (const CallSite& cs : prog.callsites) mark(cs.entry_pc);
  for (std::size_t pc = 0; pc < prog.code.size(); ++pc) {
    const Instr& in = prog.code[pc];
    switch (in.op) {
      case Op::kJump: mark(in.a); break;
      case Op::kJumpIfFalse: mark(in.b); break;
      case Op::kLoopTest: mark(in.c); break;
      case Op::kLoopInc: mark(in.b); break;
      case Op::kCmpBranch: mark(in.c); break;
      case Op::kCall:
      case Op::kWaitFor:
      case Op::kWaitForImm:
      case Op::kWaitOn:
      case Op::kWaitUntil:
      case Op::kAcquireBus:
        mark(static_cast<std::int64_t>(pc) + 1);
        break;
      default:
        break;
    }
  }
  return t;
}

struct PendingMatch {
  std::size_t at = 0;
  std::size_t len = 0;
  Instr repl;
};

/// Collect non-overlapping matches over code[lo, hi). `targets` is null
/// for condition code (no jumps can exist there).
void scan_region(ProcProgram& prog, const std::vector<Instr>& code,
                 std::size_t lo, std::size_t hi,
                 const std::vector<char>* targets,
                 std::vector<PendingMatch>& out) {
  const std::span<const Instr> window(code.data(), hi);
  MatchContext ctx;
  std::size_t pc = lo;
  while (pc < hi) {
    bool matched = false;
    for (const Rule& rule : rules()) {
      const std::size_t len = rule.pattern.size();
      if (!rule.pattern.match(window, pc, ctx)) continue;
      if (targets != nullptr) {
        bool interior = false;
        for (std::size_t k = pc + 1; k < pc + len; ++k) {
          interior = interior || (*targets)[k] != 0;
        }
        if (interior) continue;
      }
      Instr repl;
      if (!rule.build(prog, std::span<const Instr>(code.data() + pc, len),
                      ctx, repl)) {
        continue;
      }
      out.push_back(PendingMatch{pc, len, repl});
      pc += len;
      matched = true;
      break;
    }
    if (!matched) ++pc;
  }
}

/// Replace each matched sequence with its superinstruction. Returns the
/// old-pc -> new-pc map (size old_size + 1, one-past-the-end included);
/// interior pcs map to their superinstruction, so any stored target that
/// survived the interior check maps correctly.
std::vector<std::uint32_t> rebuild(std::vector<Instr>& code,
                                   const std::vector<PendingMatch>& matches) {
  std::vector<std::uint32_t> map(code.size() + 1, 0);
  std::vector<Instr> out;
  out.reserve(code.size());
  std::size_t mi = 0;
  std::size_t pc = 0;
  while (pc < code.size()) {
    if (mi < matches.size() && matches[mi].at == pc) {
      for (std::size_t k = 0; k < matches[mi].len; ++k) {
        map[pc + k] = static_cast<std::uint32_t>(out.size());
      }
      out.push_back(matches[mi].repl);
      pc += matches[mi].len;
      ++mi;
    } else {
      map[pc] = static_cast<std::uint32_t>(out.size());
      out.push_back(code[pc]);
      ++pc;
    }
  }
  map[code.size()] = static_cast<std::uint32_t>(out.size());
  code = std::move(out);
  return map;
}

void remap_code_targets(ProcProgram& prog,
                        const std::vector<std::uint32_t>& map) {
  auto rm = [&map](std::int32_t& target) {
    target = static_cast<std::int32_t>(map[static_cast<std::size_t>(target)]);
  };
  for (Instr& in : prog.code) {
    switch (in.op) {
      case Op::kJump: rm(in.a); break;
      case Op::kJumpIfFalse: rm(in.b); break;
      case Op::kLoopTest: rm(in.c); break;
      case Op::kLoopInc: rm(in.b); break;
      case Op::kCmpBranch: rm(in.c); break;
      default: break;
    }
  }
  prog.entry = map[prog.entry];
  for (CallSite& cs : prog.callsites) cs.entry_pc = map[cs.entry_pc];
}

void optimize_program(ProcProgram& prog, OptStats& stats) {
  // Iterate to fixpoint: a second pass can match around (never inside)
  // first-pass superinstructions. No current rule matches a
  // superinstruction opcode, so this converges in two passes; the cap is
  // a safety net.
  for (int pass = 0; pass < 4; ++pass) {
    std::size_t found = 0;

    std::vector<PendingMatch> matches;
    const std::vector<char> targets = jump_targets(prog);
    scan_region(prog, prog.code, 0, prog.code.size(), &targets, matches);
    found += matches.size();
    if (!matches.empty()) {
      const std::vector<std::uint32_t> map = rebuild(prog.code, matches);
      remap_code_targets(prog, map);
    }

    // Condition programs: match within each CondProgram's range so no
    // rewrite straddles two conditions, then remap every range through
    // the shared map. ref_ops keeps the pre-optimization count.
    matches.clear();
    for (const CondProgram& cp : prog.conds) {
      scan_region(prog, prog.cond_code, cp.start, cp.start + cp.count,
                  nullptr, matches);
    }
    std::sort(matches.begin(), matches.end(),
              [](const PendingMatch& a, const PendingMatch& b) {
                return a.at < b.at;
              });
    found += matches.size();
    if (!matches.empty()) {
      const std::vector<std::uint32_t> map = rebuild(prog.cond_code, matches);
      for (CondProgram& cp : prog.conds) {
        const std::uint32_t end = map[cp.start + cp.count];
        cp.start = map[cp.start];
        cp.count = end - cp.start;
      }
    }

    stats.patterns_matched += found;
    if (found == 0) break;
  }
}

}  // namespace

void optimize(CompiledSystem& cs, OptLevel level) {
  cs.opt_level = level;
  cs.opt = OptStats{};
  cs.optimized_instructions = cs.total_instructions;
  if (level == OptLevel::kNone) return;
  for (ProcProgram& prog : cs.processes) optimize_program(prog, cs.opt);
  std::uint64_t after = 0;
  for (const ProcProgram& p : cs.processes) {
    after += p.code.size() + p.cond_code.size();
  }
  cs.optimized_instructions = after;
  cs.opt.instructions_eliminated = cs.total_instructions - after;
}

}  // namespace ifsyn::sim::bytecode
