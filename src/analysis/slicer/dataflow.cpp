#include "analysis/slicer/dataflow.hpp"

#include <algorithm>
#include <bit>
#include <optional>

namespace dynacut::analysis::slicer {
namespace {

using isa::Op;

constexpr uint16_t kCallerSavedMask = 0x0FFF;  // r0..r11 (r11: PLT scratch)
constexpr uint16_t kArgMask = 0x003E;          // r1..r5

uint16_t bit(int reg) { return static_cast<uint16_t>(1u << reg); }

/// Immutable per-module context shared by both analyses.
struct ModCtx {
  std::map<uint64_t, int64_t> abs_relocs;  ///< offset -> addend (kAbs64)
  uint64_t got_begin = 0, got_end = 0;
  std::vector<std::pair<uint64_t, uint64_t>> data_extents;  // rodata+data

  explicit ModCtx(const melf::Binary& b) {
    for (const auto& rel : b.relocs) {
      if (rel.kind == melf::RelocKind::kAbs64) {
        abs_relocs[rel.offset] = rel.addend;
      }
    }
    for (const auto& sec : b.sections) {
      if (sec.kind == melf::SectionKind::kGot) {
        got_begin = sec.offset;
        got_end = sec.offset + sec.size;
      } else if (sec.kind == melf::SectionKind::kRodata ||
                 sec.kind == melf::SectionKind::kData) {
        data_extents.emplace_back(sec.offset, sec.offset + sec.size);
      }
    }
  }

  bool in_data(uint64_t off) const {
    for (const auto& [b, e] : data_extents) {
      if (off >= b && off < e) return true;
    }
    return false;
  }

  std::optional<size_t> got_slot(uint64_t off) const {
    if (off < got_begin || off >= got_end || (off - got_begin) % 8 != 0) {
      return std::nullopt;
    }
    return (off - got_begin) / 8;
  }
};

AbsVal add_vals(const AbsVal& a, const AbsVal& b) {
  using K = AbsVal::Kind;
  if (a.kind == K::kConst && b.kind == K::kConst) {
    return AbsVal::konst(a.value + b.value);
  }
  // offset + constant keeps exactness; offset + unknown keeps the base.
  auto mix = [](const AbsVal& off, const AbsVal& other) -> AbsVal {
    if (other.kind == K::kConst) {
      if (off.kind == K::kModOff) return AbsVal::mod_off(off.value + other.value);
      return AbsVal::mod_off_var(off.value);
    }
    if (other.kind == K::kUnknown) return AbsVal::mod_off_var(off.value);
    return AbsVal::unknown();
  };
  if (a.kind == K::kModOff || a.kind == K::kModOffVar) return mix(a, b);
  if (b.kind == K::kModOff || b.kind == K::kModOffVar) return mix(b, a);
  return AbsVal::unknown();
}

AbsVal sub_vals(const AbsVal& a, const AbsVal& b) {
  using K = AbsVal::Kind;
  if (a.kind == K::kConst && b.kind == K::kConst) {
    return AbsVal::konst(a.value - b.value);
  }
  if (a.kind == K::kModOff && b.kind == K::kConst) {
    return AbsVal::mod_off(a.value - b.value);
  }
  if (a.kind == K::kModOffVar) return AbsVal::mod_off_var(a.value);
  return AbsVal::unknown();
}

/// The address an instruction's memory operand resolves to, if any.
struct ResolvedAddr {
  uint64_t target = 0;
  bool exact = false;
  bool ok = false;
};

ResolvedAddr resolve_addr(const AbsVal& base, int64_t disp) {
  using K = AbsVal::Kind;
  if (base.kind == K::kModOff) {
    return {base.value + static_cast<uint64_t>(disp), true, true};
  }
  if (base.kind == K::kModOffVar) return {base.value, false, true};
  return {};
}

/// Applies one instruction to the register state; records resolvable memory
/// accesses into `refs` when non-null.
void transfer(const ModCtx& mc, uint64_t off, uint64_t block,
              const isa::Instr& ins, RegState& s,
              std::vector<MemRef>* refs) {
  using K = AbsVal::Kind;
  switch (ins.op) {
    case Op::kMovRI: {
      auto rit = mc.abs_relocs.find(off + 2);  // imm64 field (mov_sym)
      s[ins.r1] = rit != mc.abs_relocs.end()
                      ? AbsVal::mod_off(static_cast<uint64_t>(rit->second))
                      : AbsVal::konst(static_cast<uint64_t>(ins.imm));
      break;
    }
    case Op::kMovRR:
      s[ins.r1] = s[ins.r2];
      break;
    case Op::kLea:
      s[ins.r1] = AbsVal::mod_off(off + ins.length +
                                  static_cast<uint64_t>(ins.imm));
      break;
    case Op::kLoad:
    case Op::kLoadB: {
      ResolvedAddr a = resolve_addr(s[ins.r2], ins.imm);
      if (a.ok && refs != nullptr) {
        refs->push_back({off, block, a.target, false, a.exact});
      }
      AbsVal v = AbsVal::unknown();
      if (ins.op == Op::kLoad && a.ok) {
        if (a.exact) {
          if (auto slot = mc.got_slot(a.target)) {
            v = AbsVal::import(*slot);
          } else if (auto rit = mc.abs_relocs.find(a.target);
                     rit != mc.abs_relocs.end()) {
            // A pointer slot with a constant index: the loaded value is the
            // relocated absolute address, i.e. base + addend.
            v = AbsVal::mod_off(static_cast<uint64_t>(rit->second));
          }
        } else if (mc.in_data(a.target)) {
          v = AbsVal::table_val(a.target);
        }
      }
      s[ins.r1] = v;
      break;
    }
    case Op::kStore:
    case Op::kStoreB: {
      ResolvedAddr a = resolve_addr(s[ins.r1], ins.imm);
      if (a.ok && refs != nullptr) {
        refs->push_back({off, block, a.target, true, a.exact});
      }
      break;
    }
    case Op::kAddRR:
      s[ins.r1] = add_vals(s[ins.r1], s[ins.r2]);
      break;
    case Op::kAddRI:
      s[ins.r1] = add_vals(s[ins.r1],
                           AbsVal::konst(static_cast<uint64_t>(ins.imm)));
      break;
    case Op::kSubRR:
      s[ins.r1] = sub_vals(s[ins.r1], s[ins.r2]);
      break;
    case Op::kSubRI:
      s[ins.r1] = sub_vals(s[ins.r1],
                           AbsVal::konst(static_cast<uint64_t>(ins.imm)));
      break;
    case Op::kXorRR:
      if (ins.r1 == ins.r2) {
        s[ins.r1] = AbsVal::konst(0);
        break;
      }
      [[fallthrough]];
    case Op::kMulRR:
    case Op::kDivRR:
    case Op::kAndRR:
    case Op::kOrRR: {
      const AbsVal &a = s[ins.r1], &b = s[ins.r2];
      if (a.kind == K::kConst && b.kind == K::kConst) {
        uint64_t r = 0;
        switch (ins.op) {
          case Op::kMulRR: r = a.value * b.value; break;
          case Op::kDivRR: r = b.value == 0 ? 0 : a.value / b.value; break;
          case Op::kAndRR: r = a.value & b.value; break;
          case Op::kOrRR: r = a.value | b.value; break;
          default: r = a.value ^ b.value; break;
        }
        s[ins.r1] = AbsVal::konst(r);
      } else {
        s[ins.r1] = AbsVal::unknown();
      }
      break;
    }
    case Op::kShlRI:
    case Op::kShrRI:
      s[ins.r1] = s[ins.r1].kind == K::kConst
                      ? AbsVal::konst(ins.op == Op::kShlRI
                                          ? s[ins.r1].value << ins.imm
                                          : s[ins.r1].value >> ins.imm)
                      : AbsVal::unknown();
      break;
    case Op::kPop:
      s[ins.r1] = AbsVal::unknown();  // stack contents are not modelled
      break;
    case Op::kSyscall:
      s[0] = AbsVal::unknown();
      break;
    default:
      break;  // cmp/branches/push/call/ret/nop/trap: no register writes here
  }
}

}  // namespace

AbsVal join(const AbsVal& a, const AbsVal& b) {
  using K = AbsVal::Kind;
  if (a == b) return a;
  if (a.kind == K::kUnknown || b.kind == K::kUnknown) return AbsVal::unknown();
  auto base_of = [](const AbsVal& v) -> std::optional<uint64_t> {
    if (v.kind == K::kModOff || v.kind == K::kModOffVar) return v.value;
    return std::nullopt;
  };
  auto ab = base_of(a), bb = base_of(b);
  if (ab && bb) return AbsVal::mod_off_var(std::min(*ab, *bb));
  return AbsVal::unknown();
}

ModuleDataflow analyze_module(const melf::Binary& bin, const StaticCfg& cfg) {
  ModCtx mc(bin);
  ModuleDataflow out;

  // Dense block numbering in offset order; edges to block starts only.
  std::vector<const CfgBlock*> blocks;
  blocks.reserve(cfg.blocks.size());
  for (const auto& [off, blk] : cfg.blocks) blocks.push_back(&blk);
  const uint32_t n = static_cast<uint32_t>(blocks.size());
  auto index_of = [&](uint64_t off) -> uint32_t {
    auto it = std::lower_bound(blocks.begin(), blocks.end(), off,
                               [](auto* b, auto o) { return b->offset < o; });
    return it != blocks.end() && (*it)->offset == off ? it - blocks.begin() : n;
  };
  std::vector<uint32_t> succ_begin(1, 0), succs;
  std::vector<uint8_t> entry_like(n, 1);  ///< in-state pinned unknown
  for (const CfgBlock* blk : blocks) {
    for (uint64_t t : blk->succs) {
      uint32_t ti = index_of(t);
      if (ti == n) continue;
      succs.push_back(ti);
      entry_like[ti] = 0;  // has a predecessor
    }
    succ_begin.push_back(static_cast<uint32_t>(succs.size()));
  }
  for (const auto& sym : bin.symbols) {
    if (!sym.is_function) continue;
    if (uint32_t i = index_of(sym.value); i != n) entry_like[i] = 1;
  }

  // Entry states live in the output map; in[b] points at b's.
  RegState all_unknown{};
  std::vector<RegState*> in(n, nullptr);
  std::vector<uint32_t> work;  // FIFO: `head` is the front
  for (uint32_t i = 0; i < n; ++i) {
    if (!entry_like[i]) continue;
    in[i] = &out.block_in.emplace_hint(out.block_in.end(), blocks[i]->offset,
                                       all_unknown)
                 ->second;
    work.push_back(i);
  }

  // Forward fixpoint: states only rise towards unknown (flat lattices per
  // register), so it terminates without an iteration cap. The FIFO keeps
  // repeats: transfer is not monotone (kModOff - c vs kModOffVar), so the
  // visiting order is part of the answer.
  for (size_t head = 0; head < work.size(); ++head) {
    const uint32_t b = work[head];
    const CfgBlock& blk = *blocks[b];
    RegState s = *in[b];
    cfg.for_each_instr(blk, [&](uint64_t off, const isa::Instr& ins) {
      transfer(mc, off, blk.offset, ins, s, nullptr);
    });

    uint64_t fallthrough = blk.offset + blk.size;
    for (uint32_t e = succ_begin[b]; e < succ_begin[b + 1]; ++e) {
      const uint32_t t = succs[e];
      if (entry_like[t]) continue;  // pinned to all-unknown
      RegState edge = s;
      if ((blk.term == Op::kCall || blk.term == Op::kCallR) &&
          blocks[t]->offset == fallthrough) {
        for (int r = 0; r < isa::kNumRegs; ++r) {
          if ((kCallerSavedMask & bit(r)) != 0) edge[r] = AbsVal::unknown();
        }
      }
      if (in[t] == nullptr) {
        in[t] = &out.block_in.emplace(blocks[t]->offset, edge).first->second;
        work.push_back(t);
        continue;
      }
      bool changed = false;
      for (int r = 0; r < isa::kNumRegs; ++r) {
        AbsVal j = join((*in[t])[r], edge[r]);
        if (!(j == (*in[t])[r])) {
          (*in[t])[r] = j;
          changed = true;
        }
      }
      if (changed) work.push_back(t);
    }
  }

  // Final pass: with stable entry states, record memory references and the
  // transfer-register value at every indirect terminator.
  for (uint32_t b = 0; b < n; ++b) {
    const CfgBlock& blk = *blocks[b];
    RegState s = in[b] != nullptr ? *in[b] : all_unknown;
    const uint64_t end = blk.offset + blk.size;
    cfg.for_each_instr(blk, [&](uint64_t off, const isa::Instr& ins) {
      if ((ins.op == Op::kCallR || ins.op == Op::kJmpR) &&
          off + ins.length == end) {
        out.indirect_reg.emplace_hint(out.indirect_reg.end(), blk.offset,
                                      s[ins.r1]);
      }
      transfer(mc, off, blk.offset, ins, s, &out.mem_refs);
    });
  }
  return out;
}

FuncDataflow analyze_function(const StaticCfg& cfg, const FuncCfg& f) {
  FuncDataflow out;
  const DenseFunc d(f);
  const uint32_t n = d.size();

  // Per-block facts: def/use masks and net stack delta.
  std::vector<BlockFacts> facts(n);
  std::vector<uint8_t> has(n, 0);
  for (uint32_t b = 0; b < n; ++b) {
    const CfgBlock* blk = cfg.block_at(d.blocks[b]);
    if (blk == nullptr) continue;
    has[b] = 1;
    BlockFacts& fb = facts[b];
    auto use = [&](int r) {
      if ((fb.def_mask & bit(r)) == 0) fb.use_mask |= bit(r);
    };
    auto def = [&](int r) { fb.def_mask |= bit(r); };
    auto bump = [&](int64_t delta) {
      if (fb.stack_delta != kUnknownDepth) fb.stack_delta += delta;
    };
    cfg.for_each_instr(*blk, [&](uint64_t, const isa::Instr& ins) {
      switch (ins.op) {
        case Op::kMovRI: def(ins.r1); break;
        case Op::kMovRR: use(ins.r2); def(ins.r1); break;
        case Op::kLea: def(ins.r1); break;
        case Op::kLoad:
        case Op::kLoadB: use(ins.r2); def(ins.r1); break;
        case Op::kStore:
        case Op::kStoreB: use(ins.r1); use(ins.r2); break;
        case Op::kAddRR:
        case Op::kSubRR:
        case Op::kMulRR:
        case Op::kDivRR:
        case Op::kAndRR:
        case Op::kOrRR:
        case Op::kXorRR: use(ins.r1); use(ins.r2); def(ins.r1); break;
        case Op::kAddRI:
        case Op::kSubRI:
        case Op::kShlRI:
        case Op::kShrRI: use(ins.r1); def(ins.r1); break;
        case Op::kCmpRR: use(ins.r1); use(ins.r2); break;
        case Op::kCmpRI: use(ins.r1); break;
        case Op::kPush: use(ins.r1); bump(-8); break;
        case Op::kPop: def(ins.r1); bump(8); break;
        case Op::kCall:
          for (int r = 1; r <= 5; ++r) use(r);
          for (int r = 0; r < isa::kNumRegs; ++r) {
            if ((kCallerSavedMask & bit(r)) != 0) def(r);
          }
          break;
        case Op::kCallR:
        case Op::kJmpR:
          use(ins.r1);
          for (int r = 1; r <= 5; ++r) use(r);
          if (ins.op == Op::kCallR) {
            for (int r = 0; r < isa::kNumRegs; ++r) {
              if ((kCallerSavedMask & bit(r)) != 0) def(r);
            }
          }
          break;
        case Op::kRet: use(0); break;
        case Op::kSyscall:
          use(0);
          for (int r = 1; r <= 5; ++r) use(r);
          def(0);
          break;
        default: break;
      }
      // SP written non-incrementally (pop r15 included) poisons the whole
      // block's delta.
      bool writes_sp =
          (ins.op == Op::kMovRI || ins.op == Op::kMovRR || ins.op == Op::kLea ||
           ins.op == Op::kLoad || ins.op == Op::kLoadB ||
           ins.op == Op::kPop) &&
          ins.r1 == isa::kSpReg;
      if (ins.op == Op::kAddRI && ins.r1 == isa::kSpReg) {
        bump(ins.imm);
        writes_sp = false;
      } else if (ins.op == Op::kSubRI && ins.r1 == isa::kSpReg) {
        bump(-ins.imm);
        writes_sp = false;
      }
      if (writes_sp) fb.stack_delta = kUnknownDepth;
    });
    out.facts.emplace_hint(out.facts.end(), d.blocks[b], fb);
  }

  // Backward liveness to a fixed point.
  std::vector<uint16_t> live_in(n, 0), live_out(n, 0);
  for (bool changed = true; changed;) {
    changed = false;
    for (uint32_t b = n; b-- > 0;) {
      if (!has[b]) continue;
      uint16_t lo = 0;
      if (d.succs(b).empty()) {
        lo = bit(0);  // exits: the return value is observable
      } else {
        for (uint32_t t : d.succs(b)) lo |= live_in[t];
      }
      uint16_t li = facts[b].use_mask |
                    static_cast<uint16_t>(lo & ~facts[b].def_mask);
      if (lo != live_out[b] || li != live_in[b]) {
        live_out[b] = lo;
        live_in[b] = li;
        changed = true;
      }
    }
  }
  for (uint32_t b = 0; b < n; ++b) {
    out.live_in.emplace_hint(out.live_in.end(), d.blocks[b], live_in[b]);
    out.live_out.emplace_hint(out.live_out.end(), d.blocks[b], live_out[b]);
  }

  // Forward stack depth from the function entry.
  const uint32_t entry = d.index_of(f.entry);
  if (entry == n) {
    out.depth_in[f.entry] = 0;
  } else {
    std::vector<int64_t> depth(n, 0);
    std::vector<uint8_t> seen(n, 0);
    std::vector<uint32_t> work{entry};
    seen[entry] = 1;
    for (size_t head = 0; head < work.size(); ++head) {
      const uint32_t b = work[head];
      if (!has[b]) continue;
      int64_t depth_out = (depth[b] == kUnknownDepth ||
                           facts[b].stack_delta == kUnknownDepth)
                              ? kUnknownDepth
                              : depth[b] + facts[b].stack_delta;
      for (uint32_t t : d.succs(b)) {
        if (!seen[t]) {
          seen[t] = 1;
          depth[t] = depth_out;
          work.push_back(t);
        } else if (depth[t] != depth_out && depth[t] != kUnknownDepth) {
          depth[t] = kUnknownDepth;  // paths disagree
          work.push_back(t);
        }
      }
    }
    for (uint32_t b = 0; b < n; ++b) {
      if (!seen[b]) continue;
      out.depth_in.emplace_hint(out.depth_in.end(), d.blocks[b], depth[b]);
    }
  }

  // Reaching definitions at block granularity -> data dependences. One
  // register at a time: rd[b] is the bitset (over dense block indices) of
  // the blocks whose definition of that register reaches b's entry.
  const size_t words = (n + 63) / 64;
  std::vector<uint64_t> deps(n * words, 0), rd(n * words), in(words);
  uint16_t used = 0;
  for (uint32_t b = 0; b < n; ++b) used |= has[b] ? facts[b].use_mask : 0;
  for (int r = 0; r < isa::kNumRegs; ++r) {
    if ((used & bit(r)) == 0) continue;
    std::fill(rd.begin(), rd.end(), 0);
    for (bool changed = true; changed;) {
      changed = false;
      for (uint32_t b = 0; b < n; ++b) {
        if (!has[b]) continue;
        std::fill(in.begin(), in.end(), 0);
        for (uint32_t p : d.preds(b)) {
          if (!has[p]) continue;
          if ((facts[p].def_mask & bit(r)) != 0) {
            in[p / 64] |= 1ull << (p % 64);
          } else {
            for (size_t w = 0; w < words; ++w) in[w] |= rd[p * words + w];
          }
        }
        if (!std::equal(in.begin(), in.end(), rd.begin() + b * words)) {
          std::copy(in.begin(), in.end(), rd.begin() + b * words);
          changed = true;
        }
      }
    }
    for (uint32_t b = 0; b < n; ++b) {
      if (!has[b] || (facts[b].use_mask & bit(r)) == 0) continue;
      for (size_t w = b * words; w < (b + 1) * words; ++w) deps[w] |= rd[w];
    }
  }
  for (uint32_t b = 0; b < n; ++b) {
    if (!has[b]) continue;
    std::set<uint64_t>& ds =
        out.data_deps.emplace_hint(out.data_deps.end(), d.blocks[b],
                                   std::set<uint64_t>())
            ->second;
    for (size_t w = 0; w < words; ++w) {
      for (uint64_t x = deps[b * words + w]; x != 0; x &= x - 1) {
        size_t k = w * 64 + static_cast<size_t>(std::countr_zero(x));
        if (k != b) ds.insert(ds.end(), d.blocks[k]);
      }
    }
  }
  return out;
}

}  // namespace dynacut::analysis::slicer
