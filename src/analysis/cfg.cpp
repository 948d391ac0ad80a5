#include "analysis/cfg.hpp"

#include <algorithm>
#include <span>

namespace dynacut::analysis {

std::optional<size_t> StaticCfg::covering_instr(uint64_t off) const {
  auto it = std::upper_bound(instr_starts.begin(), instr_starts.end(), off);
  if (it == instr_starts.begin()) return std::nullopt;
  size_t i = static_cast<size_t>(it - instr_starts.begin()) - 1;
  return off < instr_starts[i] + instrs[i].length ? std::optional(i)
                                                  : std::nullopt;
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

namespace {

/// One executable section with dense per-byte traversal state.
struct CodeSec {
  const melf::Section* sec = nullptr;
  /// 0: not reached; kBadSlot: no valid encoding; else 1 + discovery index.
  std::vector<uint32_t> slot;
  std::vector<uint8_t> leader;
};
constexpr uint32_t kBadSlot = UINT32_MAX;

}  // namespace

StaticCfg recover_cfg(const melf::Binary& bin) {
  // An offset belongs to the first code section (in section order) whose
  // bytes cover it; leaders outside all of them are kept aside.
  std::vector<CodeSec> code;
  for (const auto& sec : bin.sections) {
    if (melf::is_code(sec.kind)) {
      code.push_back({&sec, std::vector<uint32_t>(sec.bytes.size(), 0),
                      std::vector<uint8_t>(sec.bytes.size(), 0)});
    }
  }
  auto locate = [&](uint64_t off, uint64_t& rel) -> CodeSec* {
    for (CodeSec& c : code) {
      if (off >= c.sec->offset && off < c.sec->offset + c.sec->bytes.size()) {
        rel = off - c.sec->offset;
        return &c;
      }
    }
    return nullptr;
  };
  std::vector<uint64_t> stray_leaders;
  auto mark_leader = [&](uint64_t off) {
    uint64_t rel = 0;
    if (CodeSec* c = locate(off, rel)) {
      c->leader[rel] = 1;
    } else {
      stray_leaders.push_back(off);
    }
  };
  auto is_leader_at = [&](uint64_t off) {
    uint64_t rel = 0;
    if (const CodeSec* c = locate(off, rel)) return c->leader[rel] != 0;
    return std::binary_search(stray_leaders.begin(), stray_leaders.end(), off);
  };

  // Pass 1: instruction-level reachability from all function entries, each
  // reachable offset decoded once.
  std::vector<uint64_t> work;
  for (const auto& sym : bin.symbols) {
    if (sym.is_function) {
      work.push_back(sym.value);
      mark_leader(sym.value);
    }
  }
  std::vector<std::pair<uint64_t, isa::Instr>> found;
  while (!work.empty()) {
    uint64_t off = work.back();
    work.pop_back();
    // Follow the straight line in place; branch targets go on the stack.
    for (;;) {
      uint64_t rel = 0;
      CodeSec* c = locate(off, rel);
      if (c == nullptr || c->slot[rel] != 0) break;
      auto ins = isa::try_decode(std::span(c->sec->bytes).subspan(rel));
      c->slot[rel] = ins ? static_cast<uint32_t>(found.size() + 1) : kBadSlot;
      if (!ins) break;
      found.emplace_back(off, *ins);
      const uint64_t next = off + ins->length;
      if (isa::is_direct_transfer(ins->op)) {
        mark_leader(ins->target(off));
        work.push_back(ins->target(off));
        if (!isa::is_cond_branch(ins->op) && ins->op != isa::Op::kCall) break;
        mark_leader(next);
      } else if (ins->op == isa::Op::kSyscall || ins->op == isa::Op::kCallR) {
        // Syscalls fall through (except exit, which we can't know
        // statically); register calls return to the next instruction like
        // direct calls, even though their outgoing edge is only known to
        // the slicer.
        mark_leader(next);
      } else if (isa::is_terminator(ins->op)) {
        break;  // ret / indirect jumps end the path
      }
      off = next;
    }
  }

  // The decoded instructions in offset order: section order yields it
  // unless code sections overlap (a malformed binary); sort then.
  std::vector<uint32_t> order;  // indices into `found`
  order.reserve(found.size());
  for (const CodeSec& c : code) {
    for (uint32_t slot : c.slot) {
      if (slot != 0 && slot != kBadSlot) order.push_back(slot - 1);
    }
  }
  auto by_start = [&](uint32_t a, uint32_t b) {
    return found[a].first < found[b].first;
  };
  if (!std::is_sorted(order.begin(), order.end(), by_start)) {
    std::sort(order.begin(), order.end(), by_start);
  }
  StaticCfg cfg;
  cfg.instr_starts.reserve(order.size());
  cfg.instrs.reserve(order.size());
  for (uint32_t k : order) {
    cfg.instr_starts.push_back(found[k].first);
    cfg.instrs.push_back(found[k].second);
  }
  std::sort(stray_leaders.begin(), stray_leaders.end());

  // Pass 2: form blocks between leaders.
  const size_t n = cfg.instr_starts.size();
  for (size_t first = 0; first < n; ++first) {
    if (!is_leader_at(cfg.instr_starts[first])) continue;
    CfgBlock blk;
    blk.offset = cfg.instr_starts[first];
    blk.first_instr = static_cast<uint32_t>(first);
    for (size_t i = first;;) {
      const uint64_t cur = cfg.instr_starts[i];
      const isa::Instr& ins = cfg.instrs[i];
      const uint64_t next = cur + ins.length;
      blk.size = static_cast<uint32_t>(next - blk.offset);
      blk.instr_count += 1;
      blk.last_instr = static_cast<uint32_t>(i);
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
      if (is_leader_at(next)) {  // a leader splits the straight line
        blk.succs.push_back(next);
        break;
      }
      i = cfg.next_instr(i);
      if (i == n || cfg.instr_starts[i] != next) break;
    }
    cfg.blocks.emplace_hint(cfg.blocks.end(), blk.offset, std::move(blk));
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
  // Block -> owning function symbol, resolved through the symbol table.
  std::vector<uint64_t> starts;
  std::vector<const melf::Symbol*> owner;
  starts.reserve(cfg.blocks.size());
  owner.reserve(cfg.blocks.size());
  for (const auto& [off, blk] : cfg.blocks) {
    starts.push_back(off);
    owner.push_back(fns.symbol_containing(off));
  }
  std::map<uint64_t, FuncCfg> funcs;
  FuncCfg* f = nullptr;
  size_t i = 0;
  for (const auto& [off, blk] : cfg.blocks) {
    const melf::Symbol* fn = owner[i++];
    if (fn == nullptr) continue;
    if (f == nullptr || f->entry != fn->value) {
      f = &funcs[fn->value];
      f->entry = fn->value;
    }
    f->blocks.insert(f->blocks.end(), off);
    std::vector<uint64_t>* out = nullptr;
    for (uint64_t t : blk.succs) {
      auto it = std::lower_bound(starts.begin(), starts.end(), t);
      if (it == starts.end() || *it != t) continue;
      const melf::Symbol* to = owner[it - starts.begin()];
      if (to == nullptr || to->value != fn->value) continue;
      if (out == nullptr) out = &f->succs[off];
      out->push_back(t);
    }
  }
  return funcs;
}

DenseFunc::DenseFunc(const FuncCfg& f)
    : blocks(f.blocks.begin(), f.blocks.end()),
      succ_begin(1, 0),
      pred_begin(blocks.size() + 1, 0) {
  for (uint64_t b : blocks) {
    if (auto sit = f.succs.find(b); sit != f.succs.end()) {
      for (uint64_t t : sit->second) {
        uint32_t ti = index_of(t);
        if (ti == size()) continue;
        succ.push_back(ti);
        ++pred_begin[ti + 1];
      }
    }
    succ_begin.push_back(static_cast<uint32_t>(succ.size()));
  }
  for (uint32_t b = 0; b < size(); ++b) pred_begin[b + 1] += pred_begin[b];
  std::vector<uint32_t> fill(pred_begin.begin(), pred_begin.end() - 1);
  pred.resize(succ.size());
  for (uint32_t b = 0; b < size(); ++b) {
    for (uint32_t t : succs(b)) pred[fill[t]++] = b;
  }
}

uint32_t DenseFunc::index_of(uint64_t off) const {
  auto it = std::lower_bound(blocks.begin(), blocks.end(), off);
  if (it == blocks.end() || *it != off) return size();
  return static_cast<uint32_t>(it - blocks.begin());
}

std::map<uint64_t, uint64_t> dominator_tree(const FuncCfg& f) {
  const DenseFunc d(f);
  const uint32_t entry = d.index_of(f.entry);
  if (entry == d.size()) return {};

  // Reverse postorder over the intra-function edges.
  constexpr uint32_t kNone = UINT32_MAX;
  std::vector<uint32_t> rpo;  // filled in postorder, then reversed
  std::vector<uint32_t> rpo_index(d.size(), kNone);
  std::vector<std::pair<uint32_t, uint32_t>> stack;  // (block, next edge)
  stack.emplace_back(entry, d.succ_begin[entry]);
  rpo_index[entry] = 0;  // visited
  while (!stack.empty()) {
    auto& [blk, e] = stack.back();
    if (e < d.succ_begin[blk + 1]) {
      uint32_t next = d.succ[e++];
      if (rpo_index[next] == kNone) {
        rpo_index[next] = 0;
        stack.emplace_back(next, d.succ_begin[next]);
      }
    } else {
      rpo.push_back(blk);
      stack.pop_back();
    }
  }
  std::reverse(rpo.begin(), rpo.end());
  for (uint32_t k = 0; k < rpo.size(); ++k) rpo_index[rpo[k]] = k;

  // Cooper–Harvey–Kennedy over RPO indices; rpo[0] is the entry.
  std::vector<uint32_t> idom(rpo.size(), kNone);
  idom[0] = 0;
  auto intersect = [&](uint32_t a, uint32_t b) {
    while (a != b) {
      while (a > b) a = idom[a];
      while (b > a) b = idom[b];
    }
    return a;
  };
  for (bool changed = true; changed;) {
    changed = false;
    for (uint32_t k = 1; k < rpo.size(); ++k) {
      uint32_t new_idom = kNone;
      for (uint32_t p : d.preds(rpo[k])) {
        p = rpo_index[p];
        if (p == kNone || idom[p] == kNone) continue;  // not processed yet
        new_idom = new_idom == kNone ? p : intersect(new_idom, p);
      }
      if (new_idom != kNone && idom[k] != new_idom) {
        idom[k] = new_idom;
        changed = true;
      }
    }
  }
  std::map<uint64_t, uint64_t> out;
  for (uint32_t b = 0; b < d.size(); ++b) {
    if (rpo_index[b] == kNone) continue;
    out.emplace_hint(out.end(), d.blocks[b],
                     d.blocks[rpo[idom[rpo_index[b]]]]);
  }
  return out;
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
