#include "analysis/gadget.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "isa/isa.hpp"

namespace dynacut::analysis {

uint64_t count_gadget_starts(std::span<const uint8_t> run, size_t from,
                             size_t to, int max_instrs) {
  to = std::min(to, run.size());
  if (from >= to || max_instrs <= 0) return 0;
  // A gadget starting below `to` ends before `end`, so the pass can start
  // there: an offset whose sequence needs bytes past it is no gadget start
  // either way.
  const size_t end = std::min(
      run.size(), to + static_cast<size_t>(max_instrs) * isa::kMaxInstrLength);

  // d[a % kRing] for the offsets just above `a`; 0 means "no gadget". An
  // instruction is at most kMaxInstrLength < kRing bytes long, so the slot
  // of a + length still holds d[a + length] (or 0 at and past `end`).
  constexpr size_t kRing = 16;
  static_assert(isa::kMaxInstrLength < kRing);
  std::array<int, kRing> d{};
  uint64_t starts = 0;
  for (size_t a = end; a-- > from;) {
    // try_decode fails only on an invalid opcode or a truncated encoding,
    // so the opcode byte and the bytes left decide the instruction.
    const uint8_t byte = run[a];
    const size_t len = isa::instr_length(byte);
    int steps = 0;
    if (len == 0 || len > run.size() - a) {
      // invalid or truncated: no gadget
    } else if (byte == static_cast<uint8_t>(isa::Op::kRet)) {
      steps = 1;
    } else if (!isa::is_terminator(static_cast<isa::Op>(byte))) {
      const int next = d[(a + len) % kRing];
      if (next != 0 && next < max_instrs) steps = next + 1;
    }
    d[a % kRing] = steps;
    if (steps != 0 && a < to) ++starts;
  }
  return starts;
}

GadgetStats scan_gadgets(const vm::AddressSpace& mem, int max_instrs) {
  return scan_gadgets(mem, 0, UINT64_MAX, max_instrs);
}

GadgetStats scan_gadgets(const vm::AddressSpace& mem, uint64_t lo,
                         uint64_t hi, int max_instrs) {
  GadgetStats stats;
  const auto& vmas = mem.vmas();
  for (auto it = vmas.begin(); it != vmas.end();) {
    if ((it->second.prot & kProtExec) == 0) {
      ++it;
      continue;
    }
    // One run: this VMA and each executable VMA that starts where the
    // previous one ends.
    const uint64_t start = it->second.start;
    uint64_t end = start;
    for (; it != vmas.end() && it->second.start == end &&
           (it->second.prot & kProtExec) != 0;
         ++it) {
      const vm::Vma& v = it->second;
      const uint64_t from = std::max(v.start, lo);
      const uint64_t to = std::min(v.end, hi);
      if (from < to) stats.executable_bytes += to - from;
      end = v.end;
    }
    const uint64_t from = std::max(start, lo);
    const uint64_t to = std::min(end, hi);
    if (from >= to) continue;
    const std::vector<uint8_t> bytes = mem.peek_bytes(start, end - start);
    stats.gadget_starts +=
        count_gadget_starts(bytes, from - start, to - start, max_instrs);
  }
  return stats;
}

}  // namespace dynacut::analysis
