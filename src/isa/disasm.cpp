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
  const std::string r1 = reg_name(ins.r1);
  switch (op_info(ins.op).format) {
    case Format::kNone:
      return m;
    case Format::kR:
      return m + " " + r1;
    case Format::kRR:
      return m + " " + r1 + ", " + reg_name(ins.r2);
    case Format::kRImm8:
      return m + " " + r1 + ", " + std::to_string(ins.imm);
    case Format::kRImm32:
      if (ins.op == Op::kLea) {
        return m + " " + r1 + ", " + hex_addr(ins.target(addr));
      }
      return m + " " + r1 + ", " + std::to_string(ins.imm);
    case Format::kRImm64:
      return m + " " + r1 + ", " + hex_addr(static_cast<uint64_t>(ins.imm));
    case Format::kRRDisp32: {
      std::string disp = ins.imm >= 0 ? "+" : "";
      disp += std::to_string(ins.imm);
      disp += "]";
      if (ins.op == Op::kStore || ins.op == Op::kStoreB) {
        return m + " [" + r1 + disp + ", " + reg_name(ins.r2);
      }
      return m + " " + r1 + ", [" + reg_name(ins.r2) + disp;
    }
    case Format::kRel32:
      return m + " " + hex_addr(ins.target(addr));
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
