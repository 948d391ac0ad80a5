#include "isa/isa.hpp"

#include <cstring>

#include "common/error.hpp"

namespace dynacut::isa {

namespace {

int32_t read_i32(std::span<const uint8_t> p) {
  int32_t v;
  std::memcpy(&v, p.data(), sizeof v);
  return v;
}

int64_t read_i64(std::span<const uint8_t> p) {
  int64_t v;
  std::memcpy(&v, p.data(), sizeof v);
  return v;
}

}  // namespace

std::optional<Instr> try_decode(std::span<const uint8_t> code) {
  if (code.empty()) return std::nullopt;
  const OpInfo& info = op_table[code[0]];
  if (info.length == 0 || code.size() < info.length) return std::nullopt;

  Instr ins;
  ins.op = static_cast<Op>(code[0]);
  ins.length = info.length;
  switch (info.format) {
    case Format::kNone:
      break;
    case Format::kR:
      ins.r1 = code[1] & 0x0f;
      break;
    case Format::kRR:
      ins.r1 = code[1] & 0x0f;
      ins.r2 = code[2] & 0x0f;
      break;
    case Format::kRImm8:
      ins.r1 = code[1] & 0x0f;
      ins.imm = code[2];
      break;
    case Format::kRImm32:
      ins.r1 = code[1] & 0x0f;
      ins.imm = read_i32(code.subspan(2));
      break;
    case Format::kRImm64:
      ins.r1 = code[1] & 0x0f;
      ins.imm = read_i64(code.subspan(2));
      break;
    case Format::kRRDisp32:
      ins.r1 = code[1] & 0x0f;
      ins.r2 = code[2] & 0x0f;
      ins.imm = read_i32(code.subspan(3));
      break;
    case Format::kRel32:
      ins.imm = read_i32(code.subspan(1));
      break;
  }
  return ins;
}

Instr decode(std::span<const uint8_t> code) {
  auto ins = try_decode(code);
  if (!ins) {
    throw DecodeError(code.empty() ? "empty code span"
                                   : "invalid or truncated instruction, "
                                     "opcode byte " +
                                         std::to_string(code[0]));
  }
  return *ins;
}

std::string mnemonic(Op op) {
  const char* name = op_info(op).name;
  return name ? name : "(bad)";
}

}  // namespace dynacut::isa
