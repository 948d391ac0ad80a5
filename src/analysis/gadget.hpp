// Code-reuse gadget scanner for the BROP/ROP case study (paper §4.2):
// counts ret-terminated instruction sequences reachable at any byte offset
// of executable memory — the attacker's raw material. Wiping blocks with
// TRAP bytes and unmapping pages removes gadgets, which this scanner makes
// measurable.
//
// One linear pass per run of adjacent executable bytes decides every
// offset at once: walking backward, d[a] (instructions from `a` to a RET)
// is 1 at a RET, none at an invalid opcode, any other terminator or an
// instruction running off the run's end, and 1 + d[a + length] otherwise.
// An offset starts a gadget when d[a] <= max_instrs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "vm/addrspace.hpp"

namespace dynacut::analysis {

struct GadgetStats {
  uint64_t gadget_starts = 0;    ///< distinct addresses beginning a gadget
  uint64_t executable_bytes = 0; ///< total bytes in executable VMAs
};

/// Gadget starts among offsets [from, to) of `run`, one maximal stretch of
/// adjacent executable bytes: an offset starts a gadget if decoding at most
/// `max_instrs` instructions from it reaches a RET without hitting an
/// invalid byte, a TRAP or another terminator, or the end of `run`.
uint64_t count_gadget_starts(std::span<const uint8_t> run, size_t from,
                             size_t to, int max_instrs);

/// Counts gadget starts over every run of adjacent executable VMAs
/// (unpopulated pages read as zeros).
GadgetStats scan_gadgets(const vm::AddressSpace& mem, int max_instrs = 5);

/// Same scan restricted to start addresses in [lo, hi) — used to measure a
/// specific module's surface while ignoring injected helper libraries.
/// Sequences may still run past `hi` within their run.
GadgetStats scan_gadgets(const vm::AddressSpace& mem, uint64_t lo,
                         uint64_t hi, int max_instrs = 5);

}  // namespace dynacut::analysis
