#include "isa/disasm.hpp"

#include <cstdio>

#include "common/hex.hpp"

namespace dynacut::isa {

namespace {
std::string reg_name(uint8_t r) {
  if (r == kSpReg) return "sp";
  std::string name = "r";
  name += std::to_string(r);
  return name;
}
}  // namespace

std::string format_instr(const Instr& ins, uint64_t addr) {
  const std::string m = mnemonic(ins.op);
  switch (ins.op) {
    case Op::kMovRI:
      return m + " " + reg_name(ins.r1) + ", " +
             hex_addr(static_cast<uint64_t>(ins.imm));
    case Op::kMovRR:
    case Op::kAddRR:
    case Op::kSubRR:
    case Op::kMulRR:
    case Op::kDivRR:
    case Op::kAndRR:
    case Op::kOrRR:
    case Op::kXorRR:
    case Op::kCmpRR:
      return m + " " + reg_name(ins.r1) + ", " + reg_name(ins.r2);
    case Op::kLoad:
    case Op::kLoadB:
      return m + " " + reg_name(ins.r1) + ", [" + reg_name(ins.r2) +
             (ins.imm >= 0 ? "+" : "") + std::to_string(ins.imm) + "]";
    case Op::kStore:
    case Op::kStoreB:
      return m + " [" + reg_name(ins.r1) + (ins.imm >= 0 ? "+" : "") +
             std::to_string(ins.imm) + "], " + reg_name(ins.r2);
    case Op::kAddRI:
    case Op::kSubRI:
    case Op::kCmpRI:
      return m + " " + reg_name(ins.r1) + ", " + std::to_string(ins.imm);
    case Op::kShlRI:
    case Op::kShrRI:
      return m + " " + reg_name(ins.r1) + ", " + std::to_string(ins.imm);
    case Op::kJmp:
    case Op::kJe:
    case Op::kJne:
    case Op::kJlt:
    case Op::kJle:
    case Op::kJgt:
    case Op::kJge:
    case Op::kJb:
    case Op::kJae:
    case Op::kCall:
      return m + " " + hex_addr(ins.target(addr));
    case Op::kCallR:
    case Op::kJmpR:
    case Op::kPush:
    case Op::kPop:
      return m + " " + reg_name(ins.r1);
    case Op::kLea:
      return m + " " + reg_name(ins.r1) + ", " + hex_addr(ins.target(addr));
    case Op::kRet:
    case Op::kSyscall:
    case Op::kNop:
    case Op::kTrap:
      return m;
  }
  return "(bad)";
}

std::vector<DisasmLine> disassemble(std::span<const uint8_t> code,
                                    uint64_t base) {
  std::vector<DisasmLine> lines;
  size_t pos = 0;
  while (pos < code.size()) {
    DisasmLine line;
    line.addr = base + pos;
    if (auto ins = try_decode(code.subspan(pos))) {
      line.instr = *ins;
      pos += ins->length;
    } else {
      line.valid = false;
      line.raw_byte = code[pos];
      pos += 1;
    }
    lines.push_back(line);
  }
  return lines;
}

std::string disassemble_text(std::span<const uint8_t> code, uint64_t base) {
  std::string out;
  char buf[32];
  for (const auto& line : disassemble(code, base)) {
    std::snprintf(buf, sizeof buf, "%12llx:  ",
                  static_cast<unsigned long long>(line.addr));
    out += buf;
    if (line.valid) {
      out += format_instr(line.instr, line.addr);
    } else {
      std::snprintf(buf, sizeof buf, ".byte 0x%02x", line.raw_byte);
      out += buf;
    }
    out.push_back('\n');
  }
  return out;
}

}  // namespace dynacut::isa
