#include "analysis/slicer/dataflow.hpp"

#include <algorithm>
#include <optional>

namespace dynacut::analysis::slicer {
namespace {

using isa::Op;

constexpr uint16_t kCallerSavedMask = 0x0FFF;  // r0..r11 (r11: PLT scratch)

uint16_t bit(int reg) { return static_cast<uint16_t>(1u << reg); }

/// Immutable per-module context of the propagation.
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

  // Entry state of each block, all-unknown until the propagation first
  // arrives (reached[b]).
  std::vector<RegState> in(n);
  std::vector<uint8_t> reached(entry_like);
  std::vector<uint32_t> work;  // FIFO: `head` is the front
  for (uint32_t i = 0; i < n; ++i) {
    if (entry_like[i]) work.push_back(i);
  }

  // Forward fixpoint: states only rise towards unknown (flat lattices per
  // register), so it terminates without an iteration cap. The FIFO keeps
  // repeats: transfer is not monotone (kModOff - c vs kModOffVar), so the
  // visiting order is part of the answer.
  for (size_t head = 0; head < work.size(); ++head) {
    const uint32_t b = work[head];
    const CfgBlock& blk = *blocks[b];
    RegState s = in[b];
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
      if (!reached[t]) {
        reached[t] = 1;
        in[t] = edge;
        work.push_back(t);
        continue;
      }
      bool changed = false;
      for (int r = 0; r < isa::kNumRegs; ++r) {
        AbsVal j = join(in[t][r], edge[r]);
        if (!(j == in[t][r])) {
          in[t][r] = j;
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
    RegState s = in[b];
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

int64_t stack_after(int64_t depth, const isa::Instr& ins) {
  if (depth == kUnknownDepth) return depth;
  switch (ins.op) {
    case Op::kPush: return depth - 8;
    case Op::kPop: return ins.r1 == isa::kSpReg ? kUnknownDepth : depth + 8;
    case Op::kAddRI: return ins.r1 == isa::kSpReg ? depth + ins.imm : depth;
    case Op::kSubRI: return ins.r1 == isa::kSpReg ? depth - ins.imm : depth;
    case Op::kMovRI:
    case Op::kMovRR:
    case Op::kLea:
    case Op::kLoad:
    case Op::kLoadB:
      return ins.r1 == isa::kSpReg ? kUnknownDepth : depth;
    default: return depth;
  }
}

std::map<uint64_t, int64_t> stack_depth_in(const StaticCfg& cfg,
                                           const FuncCfg& f) {
  std::map<uint64_t, int64_t> out;
  const DenseFunc d(f);
  const uint32_t n = d.size();
  const uint32_t entry = d.index_of(f.entry);
  if (entry == n) {
    out[f.entry] = 0;
    return out;
  }

  // Net stack delta of each block; blocks missing from `cfg` stop the walk.
  std::vector<int64_t> delta(n, 0);
  std::vector<uint8_t> has(n, 0);
  for (uint32_t b = 0; b < n; ++b) {
    const CfgBlock* blk = cfg.block_at(d.blocks[b]);
    if (blk == nullptr) continue;
    has[b] = 1;
    cfg.for_each_instr(*blk, [&](uint64_t, const isa::Instr& ins) {
      delta[b] = stack_after(delta[b], ins);
    });
  }

  // Forward from the entry: the first path to reach a block sets its depth,
  // a later one that disagrees makes it unknown.
  std::vector<int64_t> depth(n, 0);
  std::vector<uint8_t> seen(n, 0);
  std::vector<uint32_t> work{entry};
  seen[entry] = 1;
  for (size_t head = 0; head < work.size(); ++head) {
    const uint32_t b = work[head];
    if (!has[b]) continue;
    int64_t depth_out =
        (depth[b] == kUnknownDepth || delta[b] == kUnknownDepth)
            ? kUnknownDepth
            : depth[b] + delta[b];
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
    if (seen[b]) out.emplace_hint(out.end(), d.blocks[b], depth[b]);
  }
  return out;
}

}  // namespace dynacut::analysis::slicer
