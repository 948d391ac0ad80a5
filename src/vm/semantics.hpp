// The execution semantics of every VX64 instruction, defined once, and the
// one fetch/decode path in front of them.
//
// Both execution engines expand this one definition. execute() is a
// force-inlined template on the opcode, so each expansion compiles to that
// opcode's case alone, in unoptimized builds too. The interpreter
// (exec.cpp) reaches it through with_op(), the one switch from a decoded
// opcode to a template argument; each direct-threaded handler of the
// superblock dispatcher (superblock.cpp) names its own opcode and keeps its
// own dispatch. execute() only changes registers, flags and guest memory;
// each engine keeps its own ip bookkeeping, budget checks and trace
// successors, driven by the returned Outcome. A fused trace therefore
// cannot disagree with the interpreter about what an instruction does.
//
// Internal to src/vm.
#pragma once

#include <cstdint>
#include <type_traits>

#include "isa/isa.hpp"
#include "vm/addrspace.hpp"
#include "vm/cpu.hpp"
#include "vm/exec.hpp"

#if defined(__GNUC__) || defined(__clang__)
#define DYNACUT_ALWAYS_INLINE __attribute__((always_inline))
#else
#define DYNACUT_ALWAYS_INLINE
#endif

namespace dynacut::vm {

/// Fetches and decodes the instruction at `ip`: the one fetch/decode path of
/// every engine, of the decode cache's fills and of block_at. On failure
/// returns the fault a CPU takes: kSegv at the first byte that is not
/// readable as code, or kIll at `ip` for an invalid or undecodable encoding.
StepResult fetch(const AddressSpace& mem, uint64_t ip, isa::Instr& out);

/// What one instruction did, for the engine that runs it.
struct Outcome {
  enum Flow : uint8_t {
    kNext,      ///< continue after it (an untaken branch included)
    kJump,      ///< direct transfer to `addr` (taken branch, jmp, call)
    kIndirect,  ///< transfer to `addr` read from a register or the stack
    kSyscall,   ///< the kernel takes over; it resumes after the instruction
    kTrap,      ///< SIGTRAP; ip stays on the trap byte
    kFault,     ///< `fault` at `addr`; ip stays on the instruction
  };
  Flow flow = kNext;
  bool wrote = false;  ///< guest memory was written (store, push, call)
  FaultType fault = FaultType::kNone;
  uint64_t addr = 0;
};

DYNACUT_ALWAYS_INLINE inline void set_flags(Cpu& cpu, uint64_t a,
                                            uint64_t b) {
  cpu.zf = a == b;
  cpu.lt_u = a < b;
  cpu.lt_s = static_cast<int64_t>(a) < static_cast<int64_t>(b);
}

DYNACUT_ALWAYS_INLINE inline Outcome segv(const Access& a) {
  return {Outcome::kFault, false, FaultType::kSegv, a.fault_addr};
}

DYNACUT_ALWAYS_INLINE inline Outcome branch(bool taken, uint64_t target) {
  return taken ? Outcome{Outcome::kJump, false, FaultType::kNone, target}
               : Outcome{};
}

/// Executes the semantics of `kOp` for the instruction at `ip`. `o`
/// supplies its operands (an isa::Instr or a Superblock::ThreadedOp: r1,
/// r2, imm, length). A faulting instruction leaves registers as they were,
/// except that a faulting push/call keeps sp decremented.
template <isa::Op kOp, class Ops>
DYNACUT_ALWAYS_INLINE inline Outcome execute(AddressSpace& mem, Cpu& cpu,
                                             const Ops& o, uint64_t ip) {
  using isa::Op;
  uint64_t* const r = cpu.regs.data();
  const uint64_t imm = static_cast<uint64_t>(o.imm);
  const uint64_t next = ip + o.length;
  const uint64_t target = next + imm;  // IP-relative transfer / lea target
  constexpr Outcome kStored{Outcome::kNext, true};

  switch (kOp) {
    case Op::kMovRI:
      r[o.r1] = imm;
      break;
    case Op::kMovRR:
      r[o.r1] = r[o.r2];
      break;
    case Op::kLoad: {
      uint64_t v;
      const Access a = mem.read(r[o.r2] + imm, &v, 8, kProtRead);
      if (!a.ok) return segv(a);
      r[o.r1] = v;
      break;
    }
    case Op::kStore: {
      const Access a = mem.write(r[o.r1] + imm, &r[o.r2], 8, kProtWrite);
      if (!a.ok) return segv(a);
      return kStored;
    }
    case Op::kLoadB: {
      uint8_t v;
      const Access a = mem.read(r[o.r2] + imm, &v, 1, kProtRead);
      if (!a.ok) return segv(a);
      r[o.r1] = v;
      break;
    }
    case Op::kStoreB: {
      const uint8_t v = static_cast<uint8_t>(r[o.r2]);
      const Access a = mem.write(r[o.r1] + imm, &v, 1, kProtWrite);
      if (!a.ok) return segv(a);
      return kStored;
    }
    case Op::kAddRR:
      r[o.r1] += r[o.r2];
      break;
    case Op::kAddRI:
      r[o.r1] += imm;
      break;
    case Op::kSubRR:
      r[o.r1] -= r[o.r2];
      break;
    case Op::kSubRI:
      r[o.r1] -= imm;
      break;
    case Op::kMulRR:
      r[o.r1] *= r[o.r2];
      break;
    case Op::kDivRR:
      if (r[o.r2] == 0) return {Outcome::kFault, false, FaultType::kFpe, ip};
      r[o.r1] /= r[o.r2];
      break;
    case Op::kAndRR:
      r[o.r1] &= r[o.r2];
      break;
    case Op::kOrRR:
      r[o.r1] |= r[o.r2];
      break;
    case Op::kXorRR:
      r[o.r1] ^= r[o.r2];
      break;
    case Op::kShlRI:
      r[o.r1] <<= (imm & 63);
      break;
    case Op::kShrRI:
      r[o.r1] >>= (imm & 63);
      break;
    case Op::kCmpRR:
      set_flags(cpu, r[o.r1], r[o.r2]);
      break;
    case Op::kCmpRI:
      set_flags(cpu, r[o.r1], imm);
      break;
    case Op::kJmp:
      return branch(true, target);
    case Op::kJe:
      return branch(cpu.zf, target);
    case Op::kJne:
      return branch(!cpu.zf, target);
    case Op::kJlt:
      return branch(cpu.lt_s, target);
    case Op::kJle:
      return branch(cpu.lt_s || cpu.zf, target);
    case Op::kJgt:
      return branch(!cpu.lt_s && !cpu.zf, target);
    case Op::kJge:
      return branch(!cpu.lt_s, target);
    case Op::kJb:
      return branch(cpu.lt_u, target);
    case Op::kJae:
      return branch(!cpu.lt_u, target);
    case Op::kCall:
    case Op::kCallR: {
      cpu.sp() -= 8;
      const Access a = mem.write(cpu.sp(), &next, 8, kProtWrite);
      if (!a.ok) return segv(a);
      if (kOp == Op::kCall) {
        return {Outcome::kJump, true, FaultType::kNone, target};
      }
      return {Outcome::kIndirect, true, FaultType::kNone, r[o.r1]};
    }
    case Op::kRet: {
      uint64_t ra;
      const Access a = mem.read(cpu.sp(), &ra, 8, kProtRead);
      if (!a.ok) return segv(a);
      cpu.sp() += 8;
      return {Outcome::kIndirect, false, FaultType::kNone, ra};
    }
    case Op::kJmpR:
      return {Outcome::kIndirect, false, FaultType::kNone, r[o.r1]};
    case Op::kPush: {
      cpu.sp() -= 8;
      const Access a = mem.write(cpu.sp(), &r[o.r1], 8, kProtWrite);
      if (!a.ok) return segv(a);
      return kStored;
    }
    case Op::kPop: {
      uint64_t v;
      const Access a = mem.read(cpu.sp(), &v, 8, kProtRead);
      if (!a.ok) return segv(a);
      cpu.sp() += 8;
      r[o.r1] = v;
      break;
    }
    case Op::kSyscall:
      return {Outcome::kSyscall};
    case Op::kTrap:
      return {Outcome::kTrap};
    case Op::kLea:
      r[o.r1] = target;
      break;
    case Op::kNop:
      break;
    default:  // a VX64_OPS row without a case here runs as SIGILL
      return {Outcome::kFault, false, FaultType::kIll, ip};
  }
  return {};
}

/// Calls `f(std::integral_constant<isa::Op, op>{})`: the one switch that
/// turns a decoded opcode into the template argument of execute().
template <class F>
DYNACUT_ALWAYS_INLINE inline decltype(auto) with_op(isa::Op op, F&& f) {
  switch (op) {
#define VX_WITH_OP(name, byte, format, mnemonic, control) \
  case isa::Op::name:                                     \
    return f(std::integral_constant<isa::Op, isa::Op::name>{});
    VX64_OPS(VX_WITH_OP)
#undef VX_WITH_OP
  }
  // Unreachable: decoders only produce listed opcodes.
  return f(std::integral_constant<isa::Op, isa::Op::kTrap>{});
}

}  // namespace dynacut::vm
