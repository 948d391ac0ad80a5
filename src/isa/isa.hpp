// VX64: the small 64-bit variable-length ISA executed by the simulator.
//
// VX64 stands in for x86-64 in this reproduction. It keeps the three
// properties DynaCut's mechanism depends on:
//   * variable-length encoding (so disassembly/BB recovery is non-trivial),
//   * a one-byte trap instruction TRAP = 0xCC (the int3 analogue),
//   * IP-relative control flow and addressing (so code is position
//     independent and injectable as a shared library).
//
// Registers: r0..r15, 64-bit. r15 doubles as the stack pointer (SP).
// By convention r0 holds syscall numbers / return values and r1..r5 carry
// syscall/function arguments.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>

namespace dynacut::isa {

inline constexpr int kNumRegs = 16;
inline constexpr int kSpReg = 15;  ///< r15 is the stack pointer.

/// Longest encoding in the ISA (kMovRI: opcode + reg + imm64). Fetchers and
/// decode caches size speculative reads and page-edge checks with this.
inline constexpr uint8_t kMaxInstrLength = 10;

/// Operand layout after the opcode byte; it fixes the encoded length.
enum class Format : uint8_t {
  kNone,      ///< opcode only (1 byte)
  kR,         ///< r1 (2 bytes)
  kRR,        ///< r1, r2 (3 bytes)
  kRImm8,     ///< r1, zero-extended imm8 (3 bytes)
  kRImm32,    ///< r1, simm32 or rel32 (6 bytes)
  kRImm64,    ///< r1, imm64 (10 bytes)
  kRRDisp32,  ///< r1, r2, disp32 (7 bytes)
  kRel32,     ///< rel32 (5 bytes)
};

/// Control-class bits of an opcode.
inline constexpr uint8_t kFlow = 0;        ///< falls through; ends no block
inline constexpr uint8_t kTerminator = 1;  ///< ends a basic block
inline constexpr uint8_t kConditional = 2; ///< also has a fall-through edge
inline constexpr uint8_t kDirect = 4;      ///< IP-relative static target
inline constexpr uint8_t kJump = kTerminator | kDirect;
inline constexpr uint8_t kBranch = kJump | kConditional;

/// The VX64 opcode list: one row per instruction and the only place that
/// names every opcode. Row order is the dense opcode index (op_index), so
/// the enum, the opcode table, the block-boundary predicates, the decoder
/// and the superblock jump table all expand this list. Byte values are part
/// of the binary format; do not renumber. Adding an opcode is one row here
/// plus its semantics entry in vm/semantics.hpp.
///
///   X(name, byte, format, mnemonic, control)
#define VX64_OPS(X)                                                        \
  X(kMovRI, 0x01, kRImm64, "mov", kFlow)      /* r1 = imm64 */             \
  X(kMovRR, 0x02, kRR, "mov", kFlow)          /* r1 = r2 */                \
  X(kLoad, 0x03, kRRDisp32, "load", kFlow)    /* r1 = mem64[r2 + disp] */  \
  X(kStore, 0x04, kRRDisp32, "store", kFlow)  /* mem64[r1 + disp] = r2 */  \
  X(kLoadB, 0x05, kRRDisp32, "loadb", kFlow)  /* r1 = zx(mem8[r2+disp]) */ \
  X(kStoreB, 0x06, kRRDisp32, "storeb", kFlow) /* mem8[r1+d] = low8(r2) */\
  X(kAddRR, 0x07, kRR, "add", kFlow)                                       \
  X(kAddRI, 0x08, kRImm32, "add", kFlow)      /* r1 += simm32 */           \
  X(kSubRR, 0x09, kRR, "sub", kFlow)                                       \
  X(kSubRI, 0x0A, kRImm32, "sub", kFlow)                                   \
  X(kMulRR, 0x0B, kRR, "mul", kFlow)                                       \
  X(kDivRR, 0x0C, kRR, "div", kFlow)  /* unsigned; divisor 0 faults */     \
  X(kAndRR, 0x0D, kRR, "and", kFlow)                                       \
  X(kOrRR, 0x0E, kRR, "or", kFlow)                                         \
  X(kXorRR, 0x0F, kRR, "xor", kFlow)                                       \
  X(kShlRI, 0x10, kRImm8, "shl", kFlow)                                    \
  X(kShrRI, 0x11, kRImm8, "shr", kFlow)                                    \
  X(kCmpRR, 0x12, kRR, "cmp", kFlow)          /* flags from r1 ? r2 */     \
  X(kCmpRI, 0x13, kRImm32, "cmp", kFlow)      /* flags from r1 ? simm32 */ \
  X(kJmp, 0x14, kRel32, "jmp", kJump)         /* ip = ip_after + rel32 */  \
  X(kJe, 0x15, kRel32, "je", kBranch)                                      \
  X(kJne, 0x16, kRel32, "jne", kBranch)                                    \
  X(kJlt, 0x17, kRel32, "jlt", kBranch)       /* signed < */               \
  X(kJle, 0x18, kRel32, "jle", kBranch)                                    \
  X(kJgt, 0x19, kRel32, "jgt", kBranch)                                    \
  X(kJge, 0x1A, kRel32, "jge", kBranch)                                    \
  X(kJb, 0x1B, kRel32, "jb", kBranch)         /* unsigned < */             \
  X(kJae, 0x1C, kRel32, "jae", kBranch)       /* unsigned >= */            \
  X(kCall, 0x1D, kRel32, "call", kJump)                                    \
  X(kRet, 0x1E, kNone, "ret", kTerminator)                                 \
  X(kCallR, 0x1F, kR, "callr", kTerminator)   /* call through register */  \
  X(kJmpR, 0x20, kR, "jmpr", kTerminator)     /* jump through register */  \
  X(kPush, 0x21, kR, "push", kFlow)                                        \
  X(kPop, 0x22, kR, "pop", kFlow)                                          \
  X(kSyscall, 0x23, kNone, "syscall", kTerminator)                         \
  X(kLea, 0x24, kRImm32, "lea", kFlow)  /* r1 = ip_after + rel32 (PIC) */  \
  X(kNop, 0x90, kNone, "nop", kFlow)                                       \
  X(kTrap, 0xCC, kNone, "trap", kTerminator)  /* int3 analogue: SIGTRAP */

/// One-byte opcodes, generated from VX64_OPS.
enum class Op : uint8_t {
#define VX64_ENUM(name, byte, format, mnemonic, control) name = byte,
  VX64_OPS(VX64_ENUM)
#undef VX64_ENUM
};

/// Everything the ISA knows about one opcode byte; length 0 marks an
/// invalid opcode.
struct OpInfo {
  uint8_t length = 0;
  Format format = Format::kNone;
  uint8_t control = kFlow;
  uint8_t index = 0;  ///< row number in VX64_OPS (dense, 0-based)
  const char* name = nullptr;
};

/// Encoded length of an instruction of format `f`.
constexpr uint8_t format_length(Format f) {
  constexpr uint8_t kLength[] = {1, 2, 3, 3, 6, 10, 7, 5};  // Format order
  return kLength[static_cast<uint8_t>(f)];
}

/// The opcode table, indexed by opcode byte.
inline constexpr auto op_table = [] {
  std::array<OpInfo, 256> t{};
  uint8_t index = 0;
#define VX64_ROW(name, byte, format, mnemonic, control)               \
  t[byte] = {format_length(Format::format), Format::format, control, \
             index++, mnemonic};
  VX64_OPS(VX64_ROW)
#undef VX64_ROW
  return t;
}();

constexpr const OpInfo& op_info(Op op) {
  return op_table[static_cast<uint8_t>(op)];
}

/// True if the opcode byte names a valid VX64 instruction.
constexpr bool valid_opcode(uint8_t byte) { return op_table[byte].length != 0; }

/// Encoded length of an instruction starting with this opcode byte, or 0 if
/// the opcode is invalid.
constexpr uint8_t instr_length(uint8_t opcode_byte) {
  return op_table[opcode_byte].length;
}

/// Dense index of an opcode: its row number in VX64_OPS.
constexpr uint8_t op_index(Op op) { return op_info(op).index; }

/// Instructions that end a basic block (any control transfer, syscalls and
/// traps) — the same block boundaries drcov observes.
constexpr bool is_terminator(Op op) {
  return (op_info(op).control & kTerminator) != 0;
}

/// Conditional branches (terminators with fall-through successors).
constexpr bool is_cond_branch(Op op) {
  return (op_info(op).control & kConditional) != 0;
}

/// Direct IP-relative transfers whose static target is recoverable.
constexpr bool is_direct_transfer(Op op) {
  return (op_info(op).control & kDirect) != 0;
}

/// A decoded instruction. `imm` holds imm64, simm32, disp32, rel32 or the
/// shift amount depending on the opcode.
struct Instr {
  Op op = Op::kNop;
  uint8_t r1 = 0;
  uint8_t r2 = 0;
  int64_t imm = 0;
  uint8_t length = 1;  ///< encoded size in bytes

  /// Branch/call target for IP-relative transfers, given the instruction's
  /// own address.
  uint64_t target(uint64_t addr) const {
    return addr + length + static_cast<uint64_t>(imm);
  }
};

/// Decodes one instruction at the start of `code`. Returns std::nullopt on
/// an invalid opcode or truncated encoding (the executor raises SIGILL).
std::optional<Instr> try_decode(std::span<const uint8_t> code);

/// Decoding that throws DecodeError instead; for host-side tooling.
Instr decode(std::span<const uint8_t> code);

/// Mnemonic of an opcode ("mov", "jne", "trap", ...).
std::string mnemonic(Op op);

}  // namespace dynacut::isa
