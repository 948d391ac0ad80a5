#include "analysis/slicer/slicer.hpp"

#include <algorithm>

#include "common/hex.hpp"

namespace dynacut::analysis::slicer {
namespace {

/// Targets of the pointer table at `base`: the contiguous run of kAbs64
/// relocated 8-byte slots starting there (the builder lays data_ptr slots
/// out back to back). Empty when the base slot carries no relocation.
std::vector<uint64_t> table_targets(
    const melf::Binary& bin, const std::map<uint64_t, int64_t>& abs_relocs,
    uint64_t base) {
  std::vector<uint64_t> out;
  for (uint64_t slot = base;; slot += 8) {
    auto it = abs_relocs.find(slot);
    if (it == abs_relocs.end()) break;
    uint64_t t = static_cast<uint64_t>(it->second);
    if (bin.in_code(t)) out.push_back(t);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::optional<uint64_t> entry_function(const SliceModel& m) {
  if (m.bin == nullptr || m.bin->entry == melf::Binary::kNoEntry) {
    return std::nullopt;
  }
  return m.function_of(m.bin->entry);
}

}  // namespace

const IndirectSite* SliceModel::site_at_block(uint64_t block) const {
  auto it = std::lower_bound(
      indirect.begin(), indirect.end(), block,
      [](const IndirectSite& s, uint64_t b) { return s.block < b; });
  return (it != indirect.end() && it->block == block) ? &*it : nullptr;
}

std::optional<uint64_t> SliceModel::function_of(uint64_t off) const {
  const melf::Symbol* fn = symbol_containing(off);
  if (fn == nullptr) return std::nullopt;
  return fn->value;
}

const char* witness_kind_name(Witness::Kind k) {
  switch (k) {
    case Witness::Kind::kSeed: return "seed";
    case Witness::Kind::kDominated: return "dominated";
    case Witness::Kind::kCallClosure: return "call-closure";
  }
  return "?";
}

SliceModel analyze(const melf::Binary& bin) {
  SliceModel m;
  m.bin = &bin;
  m.functions = FunctionIndex(bin);
  m.cfg = recover_cfg(bin);
  m.mdf = analyze_module(bin, m.cfg);
  m.funcs = split_functions(m.cfg, m.functions);

  std::map<uint64_t, int64_t> abs_relocs;
  for (const auto& rel : bin.relocs) {
    if (rel.kind == melf::RelocKind::kAbs64) {
      abs_relocs[rel.offset] = rel.addend;
    }
  }

  // Merged per-function dominator trees.
  for (const auto& fn : m.funcs) {
    for (const auto& bd : dominator_tree(fn.second)) {
      m.deps.idom.insert(m.deps.idom.end(), bd);
    }
  }

  // Classify every indirect terminator.
  for (const auto& [boff, val] : m.mdf.indirect_reg) {
    const CfgBlock* blk = m.cfg.block_at(boff);
    if (blk == nullptr) continue;
    IndirectSite site;
    site.block = boff;
    site.is_call = blk->term == isa::Op::kCallR;
    // Offset of the terminator itself: last instruction of the block.
    site.instr = m.cfg.instr_starts[blk->last_instr];

    using K = AbsVal::Kind;
    switch (val.kind) {
      case K::kImport:
        if (val.value < bin.imports.size()) {
          site.kind = IndirectSite::Kind::kPltImport;
          site.import_name = bin.imports[val.value];
        }
        break;
      case K::kModOff:
        site.kind = IndirectSite::Kind::kDirect;
        site.targets = {val.value};
        break;
      case K::kTableVal: {
        auto targets = table_targets(bin, abs_relocs, val.value);
        if (!targets.empty()) {
          site.kind = IndirectSite::Kind::kTable;
          site.targets = std::move(targets);
        }
        break;
      }
      default:
        break;  // kUnknown / kModOffVar / kConst: unresolved
    }
    if (site.kind == IndirectSite::Kind::kUnresolved) {
      m.all_indirect_resolved = false;
    }
    m.indirect.push_back(std::move(site));
  }

  // Caller map: the direct call graph plus resolved indirect transfers into
  // function entries. Resolved targets that are NOT entries pin their
  // function (the CFG is missing edges inside it).
  m.deps.direct_callers = call_sites(m.cfg, m.functions);
  m.deps.callers = m.deps.direct_callers;
  for (const auto& site : m.indirect) {
    for (uint64_t t : site.targets) {
      const melf::Symbol* to = m.symbol_containing(t);
      if (to == nullptr) continue;
      if (t == to->value) {
        auto from = m.function_of(site.block);
        if (!from.has_value() || *from != to->value) {
          m.deps.callers[to->value].push_back(site.block);
        }
      } else {
        m.pinned_functions.insert(to->value);
      }
    }
  }

  // Address-taken functions: any kAbs64 relocation (code immediate or data
  // slot) whose value lands inside a function body.
  for (const auto& [off, addend] : abs_relocs) {
    const melf::Symbol* fn =
        m.symbol_containing(static_cast<uint64_t>(addend));
    if (fn != nullptr) m.deps.address_taken.insert(fn->value);
  }
  return m;
}

std::shared_ptr<const SliceModel> plan_model(const cutcheck::CutPlan& plan) {
  if (plan.binary == nullptr) return nullptr;
  if (plan.model != nullptr && plan.model->bin == plan.binary.get()) {
    return plan.model;
  }
  return std::make_shared<const SliceModel>(analyze(*plan.binary));
}

FeatureSlice feature_slice(const SliceModel& m, const std::set<uint64_t>& seeds,
                           const SliceOptions& opts) {
  FeatureSlice out;
  auto include = [&](uint64_t b, Witness::Kind kind, uint64_t via,
                     std::string detail) {
    if (!out.blocks.insert(b).second) return false;
    out.witnesses.push_back({b, kind, via, std::move(detail)});
    return true;
  };
  for (uint64_t s : seeds) {
    if (m.cfg.block_at(s) == nullptr || opts.keep_blocks.count(s) != 0) {
      continue;
    }
    include(s, Witness::Kind::kSeed, s, "named by the feature's coverage");
  }
  out.seed_count = out.blocks.size();
  // An unresolved indirect transfer could reach any block; nothing beyond
  // the seeds is provably removable.
  if (!m.all_indirect_resolved) return out;

  std::optional<uint64_t> entry_fn = entry_function(m);
  auto fn_name = [&](uint64_t entry) {
    const melf::Symbol* sym = m.symbol_containing(entry);
    return sym != nullptr ? sym->name : hex_addr(entry);
  };

  bool changed = true;
  while (changed) {
    changed = false;

    // Rule 1: a block whose dominator chain passes through a slice block can
    // only execute after the trap fires — it is unreachable once cut.
    for (const auto& [entry, f] : m.funcs) {
      if (m.pinned_functions.count(entry) != 0) continue;
      for (uint64_t b : f.blocks) {
        if (b == entry || out.blocks.count(b) != 0 ||
            opts.keep_blocks.count(b) != 0) {
          continue;
        }
        for (uint64_t cur = b;;) {
          auto it = m.deps.idom.find(cur);
          if (it == m.deps.idom.end() || it->second == cur) break;
          cur = it->second;
          if (out.blocks.count(cur) != 0) {
            std::string why = "dominated by removed block ";
            why += hex_addr(cur);
            why += " in '";
            why += fn_name(entry);
            why += "'";
            changed |= include(b, Witness::Kind::kDominated, cur,
                               std::move(why));
            break;
          }
          if (cur == entry) break;
        }
      }
    }

    // Rule 2: a function whose every caller is in the slice, whose address
    // is never taken and which is not externally reachable joins wholesale.
    for (const auto& [entry, sites] : m.deps.callers) {
      if (sites.empty()) continue;
      auto fit = m.funcs.find(entry);
      if (fit == m.funcs.end()) continue;
      if (m.pinned_functions.count(entry) != 0 ||
          m.deps.address_taken.count(entry) != 0) {
        continue;
      }
      if (entry_fn.has_value() && entry == *entry_fn) continue;
      if (opts.keep_functions.count(fn_name(entry)) != 0) continue;
      const FuncCfg& f = fit->second;
      bool kept = std::any_of(f.blocks.begin(), f.blocks.end(), [&](uint64_t b) {
        return opts.keep_blocks.count(b) != 0;
      });
      if (kept) continue;
      bool covered = std::all_of(f.blocks.begin(), f.blocks.end(),
                                 [&](uint64_t b) {
                                   return out.blocks.count(b) != 0;
                                 });
      if (covered) continue;
      bool all_cut = std::all_of(sites.begin(), sites.end(), [&](uint64_t s) {
        return out.blocks.count(s) != 0;
      });
      if (!all_cut) continue;
      std::string why = "'";
      why += fn_name(entry);
      why += "' is only reached from removed call sites";
      for (uint64_t b : f.blocks) {
        changed |= include(b, Witness::Kind::kCallClosure, entry, why);
      }
    }
  }
  return out;
}

PlanExpansion expand_plan(cutcheck::CutPlan& plan, const SliceOptions& opts) {
  PlanExpansion stats;
  stats.seed_blocks = plan.blocks.size();
  stats.slice_blocks = plan.blocks.size();
  if (plan.binary == nullptr) return stats;
  plan.model = plan_model(plan);
  if (plan.blocks.empty()) return stats;

  const SliceModel& m = *plan.model;
  SliceOptions eff = opts;
  if (plan.has_redirect) {
    // The error stub must survive the cut it serves.
    const CfgBlock* rb = m.cfg.block_containing(plan.redirect_offset);
    if (rb != nullptr) eff.keep_blocks.insert(rb->offset);
  }

  // Map observed (dynamic) block starts onto the static blocks containing
  // them; traced blocks split at call returns exactly like static ones, but
  // mapping through block_containing also absorbs sub-block starts.
  std::set<uint64_t> seeds;
  std::vector<CovBlock> unmapped;
  for (const auto& b : plan.blocks) {
    const CfgBlock* blk = m.cfg.block_containing(b.offset);
    if (blk != nullptr) {
      seeds.insert(blk->offset);
    } else {
      unmapped.push_back(b);  // outside the recovered CFG: keep verbatim
    }
  }

  FeatureSlice slice = feature_slice(m, seeds, eff);
  std::vector<CovBlock> blocks = std::move(unmapped);
  for (uint64_t b : slice.blocks) {
    const CfgBlock* blk = m.cfg.block_at(b);
    blocks.push_back({plan.module, b, blk != nullptr ? blk->size : 0});
  }
  std::sort(blocks.begin(), blocks.end());
  plan.blocks = std::move(blocks);

  stats.slice_blocks = plan.blocks.size();
  stats.witnesses = slice.witnesses.size() - slice.seed_count;
  return stats;
}

StubPlan plan_stubs(const cutcheck::CutPlan& plan) {
  StubPlan out;
  if (plan.mechanism == cutcheck::Mechanism::kTrap || plan.binary == nullptr) {
    return out;
  }
  const std::shared_ptr<const SliceModel> model = plan_model(plan);
  const SliceModel& m = *model;
  std::set<uint64_t> cut_starts;
  for (const auto& b : plan.blocks) cut_starts.insert(b.offset);

  // Candidate entries: explicit, or every function symbol whose entry block
  // is cut and whose whole intra-procedural CFG lies inside the cut.
  const bool explicit_entries = !plan.stub_entries.empty();
  std::set<uint64_t> candidates;
  if (explicit_entries) {
    candidates.insert(plan.stub_entries.begin(), plan.stub_entries.end());
  } else {
    for (const auto& [entry, f] : m.funcs) {
      if (cut_starts.count(entry) == 0) continue;
      bool whole = !f.blocks.empty();
      for (uint64_t b : f.blocks) {
        if (cut_starts.count(b) == 0) {
          whole = false;
          break;
        }
      }
      if (whole) candidates.insert(entry);
    }
  }

  // Entries reachable through pointers the callsite pass cannot retarget.
  std::set<uint64_t> pointer_reachable(m.deps.address_taken);
  for (const IndirectSite& site : m.indirect) {
    if (site.kind != IndirectSite::Kind::kTable &&
        site.kind != IndirectSite::Kind::kDirect) {
      continue;
    }
    pointer_reachable.insert(site.targets.begin(), site.targets.end());
  }

  std::set<uint64_t> entries;
  for (uint64_t entry : candidates) {
    if (plan.mechanism == cutcheck::Mechanism::kAuto &&
        pointer_reachable.count(entry) != 0) {
      out.trap_only.push_back(entry);  // int3 must keep covering it
    } else {
      entries.insert(entry);
    }
  }
  out.entries.assign(entries.begin(), entries.end());

  for (uint64_t entry : entries) {
    const melf::Symbol* sym = m.symbol_containing(entry);
    if (sym != nullptr && sym->value == entry && sym->global) {
      out.exports.emplace_back(sym->name, entry);
    }
  }

  // Direct callsites: every block terminated by kCall/kJmp whose static
  // target is a stubbed entry.
  for (const auto& [boff, block] : m.cfg.blocks) {
    if (block.term != isa::Op::kCall && block.term != isa::Op::kJmp) continue;
    const uint64_t toff = m.cfg.instr_starts[block.last_instr];
    const uint64_t target = m.cfg.instrs[block.last_instr].target(toff);
    if (entries.count(target) == 0) continue;
    StubSite site;
    site.instr = toff;
    site.block = boff;
    site.entry = target;
    site.is_call = block.term == isa::Op::kCall;
    if (cut_starts.count(boff) != 0) {
      if (toff == boff) {
        // A cut block *starting* with the callsite: the redirect is the
        // denial; removal must not overwrite the branch opcode.
        site.skip_trap = true;
        out.skip_trap_blocks.insert(boff);
      } else if (!explicit_entries) {
        // Mid-block inside the cut: the int3 net denies it first.
        out.int3_covered.push_back(site);
        continue;
      }
    }
    out.sites.push_back(site);
  }
  std::sort(out.sites.begin(), out.sites.end(),
            [](const StubSite& a, const StubSite& b) {
              return a.instr < b.instr;
            });
  return out;
}

cutcheck::CutPlan synthesize_plan(std::shared_ptr<const melf::Binary> bin,
                                  const std::string& module,
                                  const std::string& feature,
                                  const std::vector<CovBlock>& observed,
                                  cutcheck::Removal removal,
                                  cutcheck::Trap trap,
                                  const SliceOptions& opts) {
  cutcheck::CutPlan plan;
  plan.feature = feature;
  plan.module = module;
  plan.binary = std::move(bin);
  plan.removal = removal;
  plan.trap = trap;
  for (const auto& b : observed) {
    if (b.module == module) plan.blocks.push_back(b);
  }
  expand_plan(plan, opts);
  return plan;
}

}  // namespace dynacut::analysis::slicer
