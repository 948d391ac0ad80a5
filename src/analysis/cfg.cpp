#include "analysis/cfg.hpp"

#include <algorithm>
#include <deque>

namespace dynacut::analysis {

bool decode_at(const melf::Binary& bin, uint64_t off, isa::Instr& out) {
  for (const auto& sec : bin.sections) {
    if (sec.kind != melf::SectionKind::kText &&
        sec.kind != melf::SectionKind::kPlt) {
      continue;
    }
    if (off < sec.offset || off >= sec.offset + sec.bytes.size()) continue;
    uint64_t rel = off - sec.offset;
    auto ins = isa::try_decode(
        std::span(sec.bytes).subspan(rel));
    if (!ins) return false;
    out = *ins;
    return true;
  }
  return false;
}

const CfgBlock* StaticCfg::block_at(uint64_t off) const {
  auto it = blocks.find(off);
  return it == blocks.end() ? nullptr : &it->second;
}

const CfgBlock* StaticCfg::block_containing(uint64_t off) const {
  auto it = blocks.upper_bound(off);
  if (it == blocks.begin()) return nullptr;
  --it;
  const CfgBlock& b = it->second;
  return off < b.offset + b.size ? &b : nullptr;
}

StaticCfg recover_cfg(const melf::Binary& bin) {
  // Pass 1: instruction-level reachability from all function entries.
  std::set<uint64_t> leaders;
  std::deque<uint64_t> work;
  for (const auto& sym : bin.symbols) {
    if (sym.is_function) {
      work.push_back(sym.value);
      leaders.insert(sym.value);
    }
  }

  std::map<uint64_t, isa::Instr> instrs;  // reachable instruction starts
  while (!work.empty()) {
    uint64_t off = work.front();
    work.pop_front();
    if (instrs.count(off)) continue;
    isa::Instr ins;
    if (!decode_at(bin, off, ins)) continue;
    instrs[off] = ins;

    uint64_t next = off + ins.length;
    if (isa::is_direct_transfer(ins.op)) {
      uint64_t target = ins.target(off);
      leaders.insert(target);
      work.push_back(target);
      if (isa::is_cond_branch(ins.op) || ins.op == isa::Op::kCall) {
        leaders.insert(next);
        work.push_back(next);
      }
    } else if (!isa::is_terminator(ins.op)) {
      work.push_back(next);
    } else if (ins.op == isa::Op::kSyscall ||
               ins.op == isa::Op::kCallR) {
      // Syscalls fall through (except exit, which we can't know statically);
      // register calls return to the next instruction like direct calls,
      // even though their outgoing edge is only known to the slicer.
      leaders.insert(next);
      work.push_back(next);
    }
    // ret / indirect jumps end the path.
  }

  // Pass 2: form blocks between leaders.
  StaticCfg cfg;
  for (const auto& [off, ins] : instrs) cfg.instr_starts.insert(off);
  for (uint64_t leader : leaders) {
    auto it = instrs.find(leader);
    if (it == instrs.end()) continue;
    CfgBlock blk;
    blk.offset = leader;
    uint64_t cur = leader;
    while (true) {
      auto iit = instrs.find(cur);
      if (iit == instrs.end()) break;
      const isa::Instr& ins = iit->second;
      blk.size = static_cast<uint32_t>(cur + ins.length - leader);
      blk.instr_count += 1;
      uint64_t next = cur + ins.length;
      if (isa::is_terminator(ins.op)) {
        blk.term = ins.op;
        if (isa::is_direct_transfer(ins.op)) {
          blk.succs.push_back(ins.target(cur));
        }
        if (isa::is_cond_branch(ins.op) || ins.op == isa::Op::kCall ||
            ins.op == isa::Op::kSyscall || ins.op == isa::Op::kCallR) {
          blk.succs.push_back(next);
        }
        break;
      }
      if (leaders.count(next)) {  // a leader splits the straight line
        blk.succs.push_back(next);
        break;
      }
      cur = next;
    }
    if (blk.size > 0) cfg.blocks[leader] = blk;
  }
  return cfg;
}

size_t total_block_count(const melf::Binary& bin) {
  return recover_cfg(bin).block_count();
}

std::map<uint64_t, std::vector<uint64_t>> predecessors(const StaticCfg& cfg) {
  std::map<uint64_t, std::vector<uint64_t>> preds;
  for (const auto& [off, blk] : cfg.blocks) {
    for (uint64_t t : blk.succs) {
      if (cfg.blocks.count(t)) preds[t].push_back(off);
    }
  }
  return preds;
}

FunctionIndex::FunctionIndex(const melf::Binary& bin) {
  // A symbol whose end wraps past 2^64 contains nothing under the linear
  // scan's test, exactly like a zero-size one.
  auto indexed = [](const melf::Symbol& s) {
    return s.is_function && s.value + s.size > s.value;
  };
  // Elementary intervals between every function-symbol boundary.
  std::vector<uint64_t> cuts;
  for (const auto& s : bin.symbols) {
    if (!indexed(s)) continue;
    cuts.push_back(s.value);
    cuts.push_back(s.value + s.size);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  if (cuts.empty()) return;

  // Each interval belongs to the first symbol (vector order) covering it.
  std::vector<const melf::Symbol*> owner(cuts.size() - 1, nullptr);
  for (const auto& s : bin.symbols) {
    if (!indexed(s)) continue;
    auto lo = std::lower_bound(cuts.begin(), cuts.end(), s.value);
    auto hi = std::lower_bound(lo, cuts.end(), s.value + s.size);
    for (auto i = lo; i != hi; ++i) {
      const melf::Symbol*& o = owner[i - cuts.begin()];
      if (o == nullptr) o = &s;
    }
  }

  // Flatten: merge neighbours with the same owner, drop unowned gaps.
  for (size_t i = 0; i < owner.size(); ++i) {
    if (owner[i] == nullptr) continue;
    if (!spans_.empty() && spans_.back().sym == owner[i] &&
        spans_.back().end == cuts[i]) {
      spans_.back().end = cuts[i + 1];
    } else {
      spans_.push_back({cuts[i], cuts[i + 1], owner[i]});
    }
  }
}

const melf::Symbol* FunctionIndex::symbol_containing(uint64_t off) const {
  auto it = std::upper_bound(
      spans_.begin(), spans_.end(), off,
      [](uint64_t o, const Span& s) { return o < s.begin; });
  if (it == spans_.begin()) return nullptr;
  --it;
  return off < it->end ? it->sym : nullptr;
}

std::map<uint64_t, FuncCfg> split_functions(const StaticCfg& cfg,
                                            const FunctionIndex& fns) {
  std::map<uint64_t, FuncCfg> funcs;
  // Block -> owning function entry, resolved through the symbol table.
  std::map<uint64_t, uint64_t> owner;
  for (const auto& [off, blk] : cfg.blocks) {
    const melf::Symbol* fn = fns.symbol_containing(off);
    if (fn == nullptr) continue;
    owner[off] = fn->value;
    FuncCfg& f = funcs[fn->value];
    f.entry = fn->value;
    f.blocks.insert(off);
  }
  for (const auto& [off, fn_entry] : owner) {
    FuncCfg& f = funcs[fn_entry];
    for (uint64_t t : cfg.blocks.at(off).succs) {
      auto oit = owner.find(t);
      if (oit != owner.end() && oit->second == fn_entry) {
        f.succs[off].push_back(t);
      }
    }
  }
  return funcs;
}

std::map<uint64_t, uint64_t> dominator_tree(const FuncCfg& f) {
  if (f.blocks.count(f.entry) == 0) return {};

  // Reverse postorder over the intra-function edges.
  std::vector<uint64_t> rpo;
  std::map<uint64_t, int> rpo_index;
  {
    std::set<uint64_t> visited;
    std::vector<std::pair<uint64_t, size_t>> stack;  // (block, next succ idx)
    stack.emplace_back(f.entry, 0);
    visited.insert(f.entry);
    std::vector<uint64_t> postorder;
    while (!stack.empty()) {
      auto& [blk, idx] = stack.back();
      auto sit = f.succs.find(blk);
      const std::vector<uint64_t>* succs =
          sit == f.succs.end() ? nullptr : &sit->second;
      if (succs != nullptr && idx < succs->size()) {
        uint64_t next = (*succs)[idx++];
        if (f.blocks.count(next) != 0 && visited.insert(next).second) {
          stack.emplace_back(next, 0);
        }
      } else {
        postorder.push_back(blk);
        stack.pop_back();
      }
    }
    rpo.assign(postorder.rbegin(), postorder.rend());
    for (size_t i = 0; i < rpo.size(); ++i) {
      rpo_index[rpo[i]] = static_cast<int>(i);
    }
  }

  // Predecessors restricted to reachable intra-function blocks.
  std::map<uint64_t, std::vector<uint64_t>> preds;
  for (const auto& [blk, succs] : f.succs) {
    if (rpo_index.count(blk) == 0) continue;
    for (uint64_t t : succs) {
      if (rpo_index.count(t) != 0) preds[t].push_back(blk);
    }
  }

  // Cooper–Harvey–Kennedy: iterate idom intersection to a fixed point.
  std::map<uint64_t, uint64_t> idom;
  idom[f.entry] = f.entry;
  auto intersect = [&](uint64_t a, uint64_t b) {
    while (a != b) {
      while (rpo_index.at(a) > rpo_index.at(b)) a = idom.at(a);
      while (rpo_index.at(b) > rpo_index.at(a)) b = idom.at(b);
    }
    return a;
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (uint64_t blk : rpo) {
      if (blk == f.entry) continue;
      uint64_t new_idom = 0;
      bool seeded = false;
      for (uint64_t p : preds[blk]) {
        if (idom.count(p) == 0) continue;  // predecessor not processed yet
        if (!seeded) {
          new_idom = p;
          seeded = true;
        } else {
          new_idom = intersect(new_idom, p);
        }
      }
      if (!seeded) continue;  // only unreachable predecessors
      auto it = idom.find(blk);
      if (it == idom.end() || it->second != new_idom) {
        idom[blk] = new_idom;
        changed = true;
      }
    }
  }
  return idom;
}

std::map<uint64_t, std::vector<uint64_t>> call_sites(const StaticCfg& cfg,
                                                     const FunctionIndex& fns) {
  std::map<uint64_t, std::vector<uint64_t>> sites;
  for (const auto& [off, blk] : cfg.blocks) {
    const melf::Symbol* from = fns.symbol_containing(off);
    for (uint64_t t : blk.succs) {
      const melf::Symbol* to = fns.symbol_containing(t);
      if (to == nullptr || to == from) continue;
      if (t != to->value) continue;  // only transfers to function entries
      sites[to->value].push_back(off);
    }
  }
  return sites;
}

}  // namespace dynacut::analysis
