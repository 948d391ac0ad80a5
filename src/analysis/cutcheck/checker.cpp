#include "analysis/cutcheck/checker.hpp"

#include <algorithm>
#include <deque>
#include <optional>
#include <set>
#include <string>

#include "analysis/cfg.hpp"
#include "analysis/gadget.hpp"
#include "analysis/plt.hpp"
#include "analysis/slicer/slicer.hpp"
#include "common/constants.hpp"
#include "common/hex.hpp"
#include "vm/addrspace.hpp"

namespace dynacut::analysis::cutcheck {
namespace {

bool is_exec_kind(melf::SectionKind k) {
  return k == melf::SectionKind::kText || k == melf::SectionKind::kPlt;
}

bool in_exec_section(const melf::Binary& bin, uint64_t off) {
  for (const auto& sec : bin.sections) {
    if (!is_exec_kind(sec.kind)) continue;
    if (off >= sec.offset && off < sec.offset + sec.bytes.size()) return true;
  }
  return false;
}

/// Applies the per-rule option knobs and the function/range enrichment one
/// diagnostic at a time. Returns false when the rule is suppressed.
bool emit_diag(CheckReport& report, const CheckOptions& opts,
               const FunctionIndex* fns, const char* rule, Severity sev,
               const std::string& module, uint64_t off, std::string msg,
               std::string hint, uint64_t end = 0) {
  if (opts.suppress.count(rule) != 0) return false;
  if (auto it = opts.severity_override.find(rule);
      it != opts.severity_override.end()) {
    sev = it->second;
  }
  Diagnostic d{rule, sev, module, off, std::move(msg), std::move(hint)};
  d.end_offset = end;
  if (fns != nullptr) {
    const melf::Symbol* fn = fns->symbol_containing(off);
    if (fn != nullptr) d.function = fn->name;
  }
  report.add(std::move(d));
  return true;
}

/// Everything the rules share: the plan's module model plus the byte sets
/// derived once per plan.
struct Ctx {
  Ctx(const CutPlan& p, const slicer::SliceModel& model, const CheckOptions& o)
      : plan(p), bin(*p.binary), m(model), opts(o) {}

  const CutPlan& plan;
  const melf::Binary& bin;
  const slicer::SliceModel& m;
  const CheckOptions& opts;
  std::vector<std::pair<uint64_t, uint64_t>> ranges;  // (offset, size)
  std::set<uint64_t> range_starts;
  ByteSet range_bytes;  ///< exactly the bytes the plan names
  ByteSet dead;         ///< bytes actually killed under the removal policy
  std::vector<uint64_t> dropped_pages;  ///< kUnmapPages only
  std::set<uint64_t> dropped_set;
  CheckReport report;

  void add(const char* rule, Severity sev, uint64_t off, std::string msg,
           std::string hint = "", uint64_t end = 0) {
    emit_diag(report, opts, &m.functions, rule, sev, plan.module, off,
              std::move(msg), std::move(hint), end);
  }

  bool live_block(uint64_t block_start) const {
    return !dead.contains(block_start);
  }

  /// " (in 'dispatch')" for offsets inside a function, "" otherwise — used
  /// to name the source of a stray edge inside messages.
  std::string in_function(uint64_t off) const {
    const melf::Symbol* fn = m.symbol_containing(off);
    return fn != nullptr ? " (in '" + fn->name + "')" : std::string();
  }
};

/// The reachable instruction whose encoding covers `off` (as its first byte
/// or an interior byte), if any.
std::optional<uint64_t> covering_instr(const Ctx& c, uint64_t off) {
  auto it = c.m.cfg.instr_starts.upper_bound(off);
  if (it == c.m.cfg.instr_starts.begin()) return std::nullopt;
  --it;
  isa::Instr ins;
  if (!decode_at(c.bin, *it, ins)) return std::nullopt;
  if (off < *it + ins.length) return *it;
  return std::nullopt;
}

// --- CC001: block boundaries --------------------------------------------

void check_boundary(Ctx& c) {
  for (const auto& [off, size] : c.ranges) {
    if (!in_exec_section(c.bin, off)) {
      c.add(kRuleBoundary, Severity::kError, off,
            "block start lies outside every executable section",
            "drop the block or fix its module-relative offset");
      continue;
    }
    if (!c.m.cfg.is_instr_start(off)) {
      if (auto host = covering_instr(c, off)) {
        c.add(kRuleBoundary, Severity::kError, off,
              "block starts mid-instruction, inside the encoding at " +
                  hex_addr(*host) + "; patching here corrupts a live " +
                  "instruction",
              "align the block to the instruction boundary at " +
                  hex_addr(*host));
      } else {
        c.add(kRuleBoundary, Severity::kWarning, off,
              "block start is not statically reachable; boundary checks "
              "cannot be validated here",
              "confirm the block comes from a trusted trace");
      }
      continue;
    }
    if (c.plan.removal == Removal::kBlockFirstByte) continue;

    // Wipe/unmap consume the whole range: its end must not tear code.
    uint64_t end = off + size;
    if (!in_exec_section(c.bin, end - 1)) {
      c.add(kRuleBoundary, Severity::kWarning, off,
            "block [" + hex_addr(off) + ", " + hex_addr(end) +
                ") extends past the executable section holding its start",
            "trim the block to the section's code bytes");
      continue;
    }
    if (c.m.cfg.block_containing(end) != nullptr &&
        !c.m.cfg.is_instr_start(end)) {
      c.add(kRuleBoundary, Severity::kError, off,
            "block end " + hex_addr(end) +
                " falls mid-instruction; wiping up to it tears the "
                "surviving instruction stream",
            "extend or shrink the block to an instruction boundary");
    }
  }
}

// --- CC002: stray edges into removed code -------------------------------

void check_stray_edges(Ctx& c) {
  // First-byte removal leaves every interior byte intact, so edges into the
  // interior still execute original code — that is the policy's documented
  // (weaker) contract, not a plan defect.
  if (c.plan.removal == Removal::kBlockFirstByte) return;

  for (const auto& [boff, blk] : c.m.cfg.blocks) {
    if (!c.live_block(boff)) continue;  // removed blocks are not sources
    for (uint64_t t : blk.succs) {
      if (c.plan.removal == Removal::kUnmapPages &&
          c.dropped_set.count(page_floor(t)) != 0) {
        c.add(kRuleStrayEdge, Severity::kError, t,
              "live block " + hex_addr(boff) + c.in_function(boff) +
                  " transfers to " + hex_addr(t) +
                  " on a page the plan unmaps; reaching it raises SIGSEGV, "
                  "which no trap policy handles",
              "keep the page mapped (wipe-blocks) or cut the source block "
              "too");
        continue;
      }
      if (c.dead.contains(t) && c.range_starts.count(t) == 0) {
        // A trap fires at a byte the handler has no table entry for.
        Severity sev = c.plan.trap == Trap::kTerminate ? Severity::kWarning
                                                       : Severity::kError;
        c.add(kRuleStrayEdge, sev, t,
              "live block " + hex_addr(boff) + c.in_function(boff) +
                  " branches into the interior of a removed range at " +
                  hex_addr(t) +
                  "; the trap handler only recognises block entry points",
              "start a plan block exactly at " + hex_addr(t) +
                  " or cut the source block");
      }
    }
  }
}

// --- CC003: redirect-target validity ------------------------------------

void check_redirect(Ctx& c) {
  if (c.plan.trap != Trap::kRedirect || !c.plan.has_redirect) return;
  uint64_t tgt = c.plan.redirect_offset;

  if (!c.m.cfg.is_instr_start(tgt)) {
    c.add(kRuleRedirect, Severity::kError, tgt,
          "redirect target is not a reachable instruction start",
          "point the redirect at a decoded instruction boundary");
    return;
  }
  const melf::Symbol* fn = c.m.symbol_containing(tgt);
  if (fn == nullptr) {
    c.add(kRuleRedirect, Severity::kError, tgt,
          "redirect target lies outside every function symbol",
          "redirect into a function's error path");
    return;
  }

  bool same_fn = false;
  size_t outside = 0;
  for (const auto& [off, size] : c.ranges) {
    if (c.m.symbol_containing(off) == fn) {
      same_fn = true;
    } else {
      ++outside;
    }
  }
  if (!same_fn) {
    c.add(kRuleRedirect, Severity::kError, tgt,
          "no removed block shares function '" + fn->name +
              "' with the redirect target; redirecting would rewrite the IP "
              "across a call frame",
          "choose an error path inside the function being cut, or use the "
          "terminate policy");
    return;
  }
  if (outside > 0) {
    c.add(kRuleRedirect, Severity::kNote, tgt,
          std::to_string(outside) + " removed block(s) fall outside '" +
              fn->name +
              "'; traps there terminate instead of redirecting "
              "(same-function restriction)");
  }

  // The redirect only helps if the error path can actually finish the
  // request: walk live intra-function blocks from the target and look for a
  // return or a syscall.
  const CfgBlock* start = c.m.cfg.block_containing(tgt);
  if (start == nullptr) return;
  std::set<uint64_t> seen;
  std::deque<uint64_t> work{start->offset};
  bool exits = false;
  while (!work.empty() && !exits) {
    uint64_t off = work.front();
    work.pop_front();
    if (!seen.insert(off).second) continue;
    const CfgBlock* b = c.m.cfg.block_at(off);
    if (b == nullptr || !c.live_block(off)) continue;
    if (b->term == isa::Op::kRet || b->term == isa::Op::kSyscall) {
      exits = true;
      break;
    }
    for (uint64_t t : b->succs) {
      if (c.m.symbol_containing(t) == fn) work.push_back(t);
    }
  }
  if (!exits) {
    c.add(kRuleRedirect, Severity::kWarning, tgt,
          "redirect target cannot reach a return or syscall through live "
          "blocks of '" +
              fn->name + "'; redirected requests may never complete",
          "verify the error path survives the cut");
  }
}

// --- CC004: reachability amplification ----------------------------------

void check_reach_amp(Ctx& c) {
  // Block offsets are module-unique, so the model's merged dominator map
  // restricted to one function is that function's dominator tree.
  const std::map<uint64_t, uint64_t>& idom = c.m.deps.idom;
  for (const auto& [entry, f] : c.m.funcs) {
    std::set<uint64_t> cut;
    for (uint64_t b : f.blocks) {
      if (c.dead.contains(b)) cut.insert(b);
    }
    if (cut.empty()) continue;

    size_t amplified = 0;
    uint64_t example = 0, example_dom = 0;
    for (uint64_t b : f.blocks) {
      if (b == entry || cut.count(b) != 0 || idom.count(b) == 0) continue;
      for (uint64_t cur = b; cur != entry;) {
        auto it = idom.find(cur);
        if (it == idom.end() || it->second == cur) break;
        cur = it->second;
        if (cut.count(cur) != 0) {
          if (amplified == 0) {
            example = b;
            example_dom = cur;
          }
          ++amplified;
          break;
        }
      }
    }
    if (amplified > 0) {
      const melf::Symbol* sym = c.m.symbol_containing(entry);
      c.add(kRuleReachAmp, Severity::kNote, entry,
            std::to_string(amplified) + " live block(s) in '" +
                (sym != nullptr ? sym->name : hex_addr(entry)) +
                "' are dominated by removed blocks and become unreachable "
                "with the cut (e.g. " +
                hex_addr(example) + " below removed block " +
                hex_addr(example_dom) + ")",
            "grow the cut to the dominated region to reclaim more bytes");
    }
  }

  // Call-graph amplification: a function all of whose direct call sites are
  // removed cannot be reached any more (modulo indirect calls).
  for (const auto& [entry, sites] : c.m.deps.direct_callers) {
    if (sites.empty() || c.dead.contains(entry)) continue;
    bool all_cut = std::all_of(sites.begin(), sites.end(), [&](uint64_t s) {
      return c.dead.contains(s);
    });
    if (all_cut) {
      const melf::Symbol* sym = c.m.symbol_containing(entry);
      std::string site_list;
      for (uint64_t s : sites) {
        if (!site_list.empty()) site_list += ", ";
        site_list += hex_addr(s) + c.in_function(s);
      }
      c.add(kRuleReachAmp, Severity::kNote, entry,
            "function '" + (sym != nullptr ? sym->name : hex_addr(entry)) +
                "' is only reached through removed call sites (" + site_list +
                "); it is dead after the cut",
            "consider adding the whole function to the plan");
    }
  }
}

// --- CC005: page safety under kUnmapPages -------------------------------

void check_page_safety(Ctx& c) {
  if (c.plan.removal != Removal::kUnmapPages) return;

  for (uint64_t page : c.dropped_pages) {
    uint64_t pend = page + kPageSize;

    // The rewriter's per-range accounting sums range lengths per page, so
    // overlapping or duplicate blocks can add up to kPageSize while the
    // union of their bytes does not cover the page. Diff against the true
    // byte coverage.
    for (const auto& [gb, ge] : c.range_bytes.gaps(page, pend)) {
      auto it = c.m.cfg.instr_starts.lower_bound(gb);
      bool has_code = it != c.m.cfg.instr_starts.end() && *it < ge;
      if (!has_code) has_code = c.m.cfg.block_containing(gb) != nullptr;
      if (has_code) {
        c.add(kRulePageSafety, Severity::kError, gb,
              "page " + hex_addr(page) +
                  " is dropped by per-range accounting, but [" +
                  hex_addr(gb) + ", " + hex_addr(ge) +
                  ") holds reachable code the plan never covered",
              "deduplicate overlapping plan blocks or switch to "
              "wipe-blocks");
      } else {
        c.add(kRulePageSafety, Severity::kWarning, gb,
              "page " + hex_addr(page) + " is dropped with " +
                  std::to_string(ge - gb) +
                  " byte(s) at " + hex_addr(gb) +
                  " not named by the plan (no code recovered there)");
      }
    }

    // A live block starting on an earlier page that runs into this page
    // falls off a cliff at the page boundary.
    const CfgBlock* straddler = c.m.cfg.block_containing(page);
    if (straddler != nullptr && straddler->offset < page &&
        !c.range_bytes.contains(straddler->offset)) {
      c.add(kRulePageSafety, Severity::kError, straddler->offset,
            "live block " + hex_addr(straddler->offset) +
                " runs into unmapped page " + hex_addr(page),
            "cut the whole block or keep the page mapped");
    }

    // Import plumbing on the page (reuses the PLT analysis).
    for (const auto& import : c.bin.imports) {
      for (const auto& stub : plt_blocks(c.bin, c.plan.module, {import})) {
        uint64_t sb = stub.offset;
        uint64_t se = stub.offset + stub.size;
        if (se <= page || sb >= pend) continue;
        bool referenced = false;
        for (const auto& [boff, blk] : c.m.cfg.blocks) {
          if (!c.live_block(boff)) continue;
          for (uint64_t t : blk.succs) {
            if (t == sb) referenced = true;
          }
        }
        if (referenced) {
          c.add(kRulePageSafety, Severity::kError, sb,
                "PLT stub for '" + import + "' sits on dropped page " +
                    hex_addr(page) + " but live code still calls it",
                "keep the import's stub or cut its callers too");
        } else if (!c.range_bytes.contains(sb)) {
          c.add(kRulePageSafety, Severity::kWarning, sb,
                "PLT stub for '" + import + "' vanishes with page " +
                    hex_addr(page) + " without being named by the plan");
        }
      }
    }
    for (size_t i = 0; i < c.bin.imports.size(); ++i) {
      uint64_t got = c.bin.got_slot_offset(i);
      if (got < page || got >= pend) continue;
      auto stub = c.bin.plt_stub_offset(c.bin.imports[i]);
      if (stub.has_value() && !c.dead.contains(*stub)) {
        c.add(kRulePageSafety, Severity::kError, got,
              "GOT slot of '" + c.bin.imports[i] + "' sits on dropped page " +
                  hex_addr(page) + " while its PLT stub stays live",
              "the stub's indirect jump would fault; cut the stub as well");
      }
    }
  }
}

// --- CC006: gadget delta ------------------------------------------------

void check_gadget_delta(Ctx& c, const CheckOptions& opts) {
  if (!opts.gadget_delta) return;

  // Rebuild the module's executable memory in a scratch address space and
  // apply the plan the way the rewriter would.
  vm::AddressSpace mem;
  std::vector<std::pair<uint64_t, uint64_t>> extents;  // code byte ranges
  for (const auto& sec : c.bin.sections) {
    if (!is_exec_kind(sec.kind) || sec.bytes.empty()) continue;
    uint64_t start = kAppBase + sec.offset;
    mem.map(start, page_ceil(sec.bytes.size()), kProtRead | kProtExec,
            c.plan.module + ":" + melf::section_name(sec.kind));
    mem.poke_bytes(start, sec.bytes);
    extents.emplace_back(sec.offset, sec.offset + sec.bytes.size());
  }
  if (extents.empty()) return;

  GadgetStats before = scan_gadgets(mem, opts.gadget_max_instrs);

  // Clamped trap fill: plans may (legitimately, with a CC001 warning) name
  // ranges past the recovered code; the rewriter would fault the guest, the
  // simulation just ignores the out-of-code remainder.
  auto fill = [&](uint64_t off, uint64_t len) {
    for (const auto& [eb, ee] : extents) {
      uint64_t lo = std::max(off, eb);
      uint64_t hi = std::min(off + len, ee);
      if (lo >= hi) continue;
      std::vector<uint8_t> trap(hi - lo,
                                static_cast<uint8_t>(isa::Op::kTrap));
      mem.poke_bytes(kAppBase + lo, trap);
    }
  };

  switch (c.plan.removal) {
    case Removal::kBlockFirstByte:
      for (const auto& [off, size] : c.ranges) fill(off, 1);
      break;
    case Removal::kWipeBlocks:
      for (const auto& [off, size] : c.ranges) fill(off, size);
      break;
    case Removal::kUnmapPages:
      for (const auto& [off, size] : c.ranges) fill(off, size);
      for (uint64_t page : c.dropped_pages) {
        uint64_t addr = kAppBase + page;
        const vm::Vma* v = mem.vma_at(addr);
        if (v != nullptr && v->contains(addr + kPageSize - 1)) {
          mem.unmap(addr, kPageSize);
        }
      }
      break;
  }

  GadgetStats after = scan_gadgets(mem, opts.gadget_max_instrs);
  int64_t delta = static_cast<int64_t>(after.gadget_starts) -
                  static_cast<int64_t>(before.gadget_starts);
  c.report.gadget_delta = delta;

  uint64_t anchor = c.ranges.empty() ? 0 : c.ranges.front().first;
  std::string counts = std::to_string(before.gadget_starts) + " -> " +
                       std::to_string(after.gadget_starts);
  if (delta > 0) {
    c.add(kRuleGadget, Severity::kWarning, anchor,
          "the cut adds " + std::to_string(delta) +
              " ROP gadget start(s) (" + counts + ")",
          "prefer wipe-blocks/unmap-pages over partial patches");
  } else {
    c.add(kRuleGadget, Severity::kNote, anchor,
          "gadget starts " + counts + " (delta " + std::to_string(delta) +
              ")");
  }
}

// --- CC007: indirect transfers escaping into removed code ---------------

void check_indirect(Ctx& c) {
  for (const auto& site : c.m.indirect) {
    if (!c.live_block(site.block)) continue;
    const char* what = site.is_call ? "call" : "jump";
    if (site.kind == slicer::IndirectSite::Kind::kPltImport) {
      continue;  // resolves to an import in another module
    }
    if (site.kind == slicer::IndirectSite::Kind::kUnresolved) {
      // Nothing is known about where this lands; flag it only when the plan
      // actually removes something it could land on.
      if (!c.dead.empty()) {
        c.add(kRuleIndirect, Severity::kWarning, site.instr,
              std::string("indirect ") + what + " in live block " +
                  hex_addr(site.block) + c.in_function(site.block) +
                  " cannot be resolved statically; it may land inside the "
                  "removed region",
              "cut the transfer's block too, or route the target through a "
              "resolvable pointer table");
      }
      continue;
    }
    for (uint64_t t : site.targets) {
      if (c.plan.removal == Removal::kUnmapPages &&
          c.dropped_set.count(page_floor(t)) != 0) {
        c.add(kRuleIndirect, Severity::kError, t,
              std::string("indirect ") + what + " at " +
                  hex_addr(site.instr) + c.in_function(site.instr) +
                  " targets " + hex_addr(t) +
                  " on a page the plan unmaps; reaching it raises SIGSEGV",
              "cut the transfer's block or keep the page mapped");
        continue;
      }
      if (c.dead.contains(t) && c.range_starts.count(t) == 0) {
        Severity sev = c.plan.trap == Trap::kTerminate ? Severity::kWarning
                                                       : Severity::kError;
        c.add(kRuleIndirect, sev, t,
              std::string("indirect ") + what + " at " +
                  hex_addr(site.instr) + c.in_function(site.instr) +
                  " escapes into the interior of a removed range at " +
                  hex_addr(t) +
                  "; the trap handler only recognises block entry points",
              "start a plan block exactly at " + hex_addr(t) +
                  " or cut the transfer's block");
      }
    }
  }
}

// --- CC008: the plan cuts a strict subset of its slice ------------------

void check_partial_slice(Ctx& c) {
  std::set<uint64_t> seeds;
  for (uint64_t s : c.range_starts) {
    const CfgBlock* blk = c.m.cfg.block_containing(s);
    if (blk != nullptr) seeds.insert(blk->offset);
  }
  if (seeds.empty()) return;
  slicer::SliceOptions sopts;
  if (c.plan.trap == Trap::kRedirect && c.plan.has_redirect) {
    const CfgBlock* rb = c.m.cfg.block_containing(c.plan.redirect_offset);
    if (rb != nullptr) sopts.keep_blocks.insert(rb->offset);
  }
  slicer::FeatureSlice slice = slicer::feature_slice(c.m, seeds, sopts);
  std::vector<const slicer::Witness*> extra;
  for (const auto& w : slice.witnesses) {
    if (w.kind != slicer::Witness::Kind::kSeed && !c.dead.contains(w.block)) {
      extra.push_back(&w);
    }
  }
  if (extra.empty()) return;
  const slicer::Witness* ex = extra.front();
  c.add(kRulePartialSlice, Severity::kNote, ex->block,
        "the plan cuts " + std::to_string(seeds.size()) +
            " block(s) of a " + std::to_string(slice.blocks.size()) +
            "-block static slice; " + std::to_string(extra.size()) +
            " dead-but-reachable block(s) remain (e.g. " +
            hex_addr(ex->block) + ", " + ex->detail + ")",
        "expand the plan to the slice (CutRequest.expand_to_slice) to "
        "remove them");
}

// --- CC009: surviving data pointers into removed code -------------------

void check_data_reach(Ctx& c) {
  for (const auto& rel : c.bin.relocs) {
    if (rel.kind != melf::RelocKind::kAbs64) continue;
    // Code immediates are visible to the CFG/slicer rules; this rule owns
    // the pointers living in data sections (vtable/jump-table style).
    if (in_exec_section(c.bin, rel.offset)) continue;
    uint64_t t = static_cast<uint64_t>(rel.addend);
    if (!in_exec_section(c.bin, t)) continue;
    if (c.plan.removal == Removal::kUnmapPages &&
        c.dropped_set.count(page_floor(t)) != 0) {
      c.add(kRuleDataReach, Severity::kError, rel.offset,
            "data pointer at " + hex_addr(rel.offset) + " targets " +
                hex_addr(t) + c.in_function(t) +
                " on a page the plan unmaps; calling through it raises "
                "SIGSEGV",
            "retarget or clear the pointer, or keep the page mapped");
      continue;
    }
    if (c.dead.contains(t) && c.range_starts.count(t) == 0) {
      Severity sev = c.plan.trap == Trap::kTerminate ? Severity::kWarning
                                                     : Severity::kError;
      c.add(kRuleDataReach, sev, rel.offset,
            "data pointer at " + hex_addr(rel.offset) +
                " survives the cut but targets the interior of a removed "
                "range at " +
                hex_addr(t) + c.in_function(t),
            "start a plan block exactly at " + hex_addr(t) +
                " or cut the pointer's consumers");
    }
  }
}

// --- CC010: stack depth across redirects --------------------------------

/// SP depth at `off` relative to its function entry; kUnknownDepth when the
/// block-entry depth is unknown or SP escapes tracking on the way.
int64_t sp_depth_at(const Ctx& c, const slicer::FuncDataflow& fd,
                    uint64_t off) {
  const CfgBlock* blk = c.m.cfg.block_containing(off);
  if (blk == nullptr) return slicer::kUnknownDepth;
  auto dit = fd.depth_in.find(blk->offset);
  if (dit == fd.depth_in.end() || dit->second == slicer::kUnknownDepth) {
    return slicer::kUnknownDepth;
  }
  int64_t depth = dit->second;
  uint64_t cur = blk->offset;
  isa::Instr ins;
  while (cur < off && decode_at(c.bin, cur, ins)) {
    switch (ins.op) {
      case isa::Op::kPush: depth -= 8; break;
      case isa::Op::kPop:
        if (ins.r1 == isa::kSpReg) return slicer::kUnknownDepth;
        depth += 8;
        break;
      case isa::Op::kAddRI:
        if (ins.r1 == isa::kSpReg) depth += ins.imm;
        break;
      case isa::Op::kSubRI:
        if (ins.r1 == isa::kSpReg) depth -= ins.imm;
        break;
      case isa::Op::kMovRI:
      case isa::Op::kMovRR:
      case isa::Op::kLea:
      case isa::Op::kLoad:
      case isa::Op::kLoadB:
        if (ins.r1 == isa::kSpReg) return slicer::kUnknownDepth;
        break;
      default: break;
    }
    cur += ins.length;
  }
  return cur == off ? depth : slicer::kUnknownDepth;
}

void check_stack_imbalance(Ctx& c) {
  if (c.plan.trap != Trap::kRedirect || !c.plan.has_redirect) return;
  uint64_t tgt = c.plan.redirect_offset;
  const melf::Symbol* fn = c.m.symbol_containing(tgt);
  if (fn == nullptr) return;  // CC003 already rejects this
  auto fit = c.m.fdf.find(fn->value);
  if (fit == c.m.fdf.end()) return;
  int64_t want = sp_depth_at(c, fit->second, tgt);

  for (uint64_t s : c.range_starts) {
    // Only same-function trap sites redirect; the rest terminate (CC003).
    if (c.m.symbol_containing(s) != fn) continue;
    int64_t have = sp_depth_at(c, fit->second, s);
    if (want == slicer::kUnknownDepth || have == slicer::kUnknownDepth) {
      c.add(kRuleStackImbalance, Severity::kWarning, s,
            "cannot prove the stack depth at trap site " + hex_addr(s) +
                " matches the redirect target " + hex_addr(tgt) +
                " (SP escapes static tracking or paths disagree)",
            "keep pushes and pops balanced on every path through '" +
                fn->name + "'");
    } else if (have != want) {
      c.add(kRuleStackImbalance, Severity::kError, s,
            "redirecting from " + hex_addr(s) + " (stack depth " +
                std::to_string(have) + ") to " + hex_addr(tgt) + " (depth " +
                std::to_string(want) + ") unbalances the stack by " +
                std::to_string(have - want) +
                " byte(s); the error path would pop or leak a stale frame",
            "cut at a matching depth or move the error stub past the "
            "push/pop pairs");
    }
  }
}

// --- CC011: stores orphaned by the cut ----------------------------------

void check_dead_store(Ctx& c) {
  // Heuristic (note severity): resolvable accesses only — an unresolved
  // load through an escaped pointer is invisible here, so this is a shrink
  // hint, never a rejection.
  for (const auto& sym : c.bin.symbols) {
    if (sym.is_function || sym.size == 0) continue;
    if (sym.section == melf::SectionKind::kText ||
        sym.section == melf::SectionKind::kPlt ||
        sym.section == melf::SectionKind::kGot) {
      continue;
    }
    std::set<uint64_t> readers, writers;
    for (const auto& ref : c.m.mdf.mem_refs) {
      if (ref.target < sym.value || ref.target >= sym.value + sym.size) {
        continue;
      }
      (ref.is_store ? writers : readers).insert(ref.block);
    }
    if (readers.empty() || writers.empty()) continue;
    bool readers_dead = std::all_of(
        readers.begin(), readers.end(),
        [&](uint64_t b) { return c.dead.contains(b); });
    if (!readers_dead) continue;
    std::vector<uint64_t> live_writers;
    for (uint64_t w : writers) {
      if (c.live_block(w)) live_writers.push_back(w);
    }
    if (live_writers.empty()) continue;
    c.add(kRuleDeadStore, Severity::kNote, sym.value,
          "every resolvable reader of '" + sym.name +
              "' is removed, but " + std::to_string(live_writers.size()) +
              " writer block(s) survive (e.g. " +
              hex_addr(live_writers.front()) +
              c.in_function(live_writers.front()) +
              "); the surviving stores are dead",
          "extend the cut to the writers to reclaim them",
          sym.value + sym.size);
  }
}

// --- CC012: redirect stub liveness and recoverability -------------------

void check_stub_reach(Ctx& c) {
  if (c.plan.trap != Trap::kRedirect || !c.plan.has_redirect) return;
  uint64_t tgt = c.plan.redirect_offset;

  if (c.plan.removal == Removal::kUnmapPages) {
    c.add(kRuleStubReach, Severity::kError, tgt,
          "redirect cannot recover code removed by unmap-pages: reaching a "
          "dropped page raises SIGSEGV, not SIGTRAP, so the handler never "
          "runs",
          "use first-byte or wipe-blocks removal with the redirect policy");
  }
  if (c.dead.contains(tgt)) {
    c.add(kRuleStubReach, Severity::kError, tgt,
          "the redirect target is itself removed by the plan; every "
          "redirected trap would land on another trap",
          "keep the error stub's block out of the plan");
    return;
  }
  const melf::Symbol* fn = c.m.symbol_containing(tgt);
  const CfgBlock* tb = c.m.cfg.block_containing(tgt);
  if (fn == nullptr || tb == nullptr) return;  // CC003 covers these

  // The stub must stay reachable from the function entry after the cut —
  // either through live blocks, or through a removed same-function block
  // whose trap redirects straight to the stub. A stub failing both is dead
  // code the redirect table can never deliver control to.
  std::set<uint64_t> seen;
  std::deque<uint64_t> work{fn->value};
  bool reached = false;
  while (!work.empty() && !reached) {
    uint64_t off = work.front();
    work.pop_front();
    if (!seen.insert(off).second) continue;
    const CfgBlock* b = c.m.cfg.block_at(off);
    if (b == nullptr) continue;
    if (!c.live_block(off)) {
      // Trapping here redirects to the stub (same-function restriction);
      // any other removed block terminates and the walk stops.
      if (c.range_starts.count(off) != 0 &&
          c.m.symbol_containing(off) == fn) {
        reached = true;
      }
      continue;
    }
    if (off == tb->offset) {
      reached = true;
      break;
    }
    for (uint64_t t : b->succs) {
      if (c.m.symbol_containing(t) == fn) work.push_back(t);
    }
  }
  if (!reached) {
    c.add(kRuleStubReach, Severity::kError, tgt,
          "error stub at " + hex_addr(tgt) + " is unreachable from '" +
              fn->name +
              "' after the cut: no live path and no redirecting trap leads "
              "to it",
          "keep a live path from the function entry to the stub, or pick a "
          "reachable error path");
  }
}

// --- CC013: stub-mechanism entry reachability ---------------------------

void check_stub_reachability(Ctx& c, const slicer::StubPlan& sp) {
  if (c.plan.mechanism == Mechanism::kTrap) return;

  if (c.plan.removal == Removal::kUnmapPages) {
    c.add(kRuleStubReachability, Severity::kError, 0,
          "the stub mechanism needs mapped code for its int3 safety net; "
          "unmap-pages turns residual reachability into SIGSEGV instead of "
          "a recoverable SIGTRAP",
          "use first-byte or wipe-blocks removal with mechanism=stub/auto");
  }

  // Entries reachable through pointers the callsite pass cannot retarget —
  // recomputed exactly as plan_stubs demotes them under kAuto.
  std::set<uint64_t> pointer_reachable(c.m.deps.address_taken);
  for (const slicer::IndirectSite& site : c.m.indirect) {
    if (site.kind == slicer::IndirectSite::Kind::kTable ||
        site.kind == slicer::IndirectSite::Kind::kDirect) {
      pointer_reachable.insert(site.targets.begin(), site.targets.end());
    }
  }
  std::set<uint64_t> explicit_set(c.plan.stub_entries.begin(),
                                  c.plan.stub_entries.end());

  for (uint64_t e : c.plan.stub_entries) {
    const melf::Symbol* sym = c.m.symbol_containing(e);
    if (sym == nullptr || sym->value != e || !sym->is_function) {
      c.add(kRuleStubReachability, Severity::kError, e,
            "stub entry " + hex_addr(e) +
                " is not a function-entry symbol; a callsite redirect can "
                "only stand in for a whole function call",
            "stub function entries only; interior blocks keep the int3 net");
      continue;
    }
    if (c.range_starts.count(e) == 0) {
      c.add(kRuleStubReachability, Severity::kError, e,
            "stub entry '" + sym->name +
                "' is not in the cut: the stub would deny a feature the "
                "plan keeps live",
            "add the function's blocks to the plan or drop the entry");
      continue;
    }
    auto fit = c.m.funcs.find(e);
    if (fit != c.m.funcs.end()) {
      bool whole = true;
      for (uint64_t b : fit->second.blocks) {
        if (c.range_starts.count(b) == 0) {
          whole = false;
          break;
        }
      }
      if (!whole) {
        c.add(kRuleStubReachability, Severity::kWarning, e,
              "stub entry '" + sym->name +
                  "' is only partially cut; live interior blocks stay "
                  "reachable through non-callsite edges while every direct "
                  "call is denied",
              "cut the whole function or use mechanism=trap for it");
      }
    }
  }

  for (uint64_t e : sp.trap_only) {
    const melf::Symbol* sym = c.m.symbol_containing(e);
    std::string name = sym != nullptr ? "'" + sym->name + "'" : hex_addr(e);
    if (explicit_set.count(e) != 0) {
      c.add(kRuleStubReachability, Severity::kError, e,
            "explicitly pinned stub entry " + name +
                " is address-taken or an indirect-transfer target; "
                "mechanism=auto demotes it to trap, contradicting the pin",
            "drop the pin or use mechanism=stub to accept the int3 net");
    } else {
      c.add(kRuleStubReachability, Severity::kNote, e,
            "entry " + name +
                " is pointer-reachable; mechanism=auto keeps the trap "
                "mechanism for it",
            "");
    }
  }
  if (c.plan.mechanism == Mechanism::kStub) {
    for (uint64_t e : sp.entries) {
      if (pointer_reachable.count(e) == 0) continue;
      const melf::Symbol* sym = c.m.symbol_containing(e);
      std::string name = sym != nullptr ? "'" + sym->name + "'" : hex_addr(e);
      c.add(kRuleStubReachability, Severity::kNote, e,
            "stubbed entry " + name +
                " is also pointer-reachable; those paths bypass the stub "
                "and fall onto the int3 safety net",
            "mechanism=auto would keep it on the trap mechanism");
    }
  }

  // Redirect-mode stubs jump into the app's error path: the stack depth at
  // the (post-pop) callsite must match the depth at the redirect target,
  // exactly as CC010 demands of trap redirects.
  if (c.plan.trap == Trap::kRedirect && c.plan.has_redirect) {
    uint64_t tgt = c.plan.redirect_offset;
    const melf::Symbol* tfn = c.m.symbol_containing(tgt);
    auto tdf = tfn != nullptr ? c.m.fdf.find(tfn->value) : c.m.fdf.end();
    if (tfn != nullptr && tdf != c.m.fdf.end()) {
      int64_t want = sp_depth_at(c, tdf->second, tgt);
      for (const slicer::StubSite& s : sp.sites) {
        if (c.m.symbol_containing(s.instr) != tfn) continue;  // deny-ret
        int64_t have = sp_depth_at(c, tdf->second, s.instr);
        if (want == slicer::kUnknownDepth || have == slicer::kUnknownDepth) {
          c.add(kRuleStubReachability, Severity::kWarning, s.instr,
                "cannot prove the stack depth at stubbed callsite " +
                    hex_addr(s.instr) + " matches the redirect target " +
                    hex_addr(tgt),
                "keep pushes and pops balanced on every path to the "
                "callsite");
        } else if (have != want) {
          c.add(kRuleStubReachability, Severity::kError, s.instr,
                "stub redirect from callsite " + hex_addr(s.instr) +
                    " (stack depth " + std::to_string(have) + ") to " +
                    hex_addr(tgt) + " (depth " + std::to_string(want) +
                    ") unbalances the stack by " +
                    std::to_string(have - want) + " byte(s)",
                "cut at a matching depth or let the stub deny by return "
                "value");
        }
      }
    }
  }

  for (const slicer::StubSite& s : sp.int3_covered) {
    c.add(kRuleStubReachability, Severity::kNote, s.instr,
          "callsite " + hex_addr(s.instr) + " at stubbed entry " +
              hex_addr(s.entry) +
              " sits mid-block inside the cut; it stays on the int3 net "
              "(the block's first byte denies it before the call decodes)",
          "");
  }
}

// --- CC014: stub patch reversibility ------------------------------------

void check_stub_reversibility(Ctx& c, const slicer::StubPlan& sp) {
  if (c.plan.mechanism == Mechanism::kTrap) return;

  // The bytes the removal pass will actually rewrite: the plan's dead bytes
  // minus the skip_trap blocks plan_stubs carves out (there, the redirect
  // IS the denial and removal stands down).
  ByteSet rewritten;
  for (const auto& [off, size] : c.ranges) {
    if (sp.skip_trap_blocks.count(off) != 0) continue;
    switch (c.plan.removal) {
      case Removal::kBlockFirstByte:
        rewritten.add(off, off + 1);
        break;
      case Removal::kWipeBlocks:
      case Removal::kUnmapPages:
        rewritten.add(off, off + size);
        break;
    }
  }

  for (const slicer::StubSite& s : sp.sites) {
    // A branch redirect rewrites [instr, instr+5): the opcode byte must
    // survive and the rel32 must not land inside removal-rewritten bytes.
    bool overlaps = false;
    for (uint64_t b = s.instr; b < s.instr + 5; ++b) {
      if (rewritten.contains(b)) {
        overlaps = true;
        break;
      }
    }
    if (overlaps) {
      c.add(kRuleStubReversibility, Severity::kError, s.instr,
            "stub patch at " + hex_addr(s.instr) +
                " overlaps bytes the removal policy rewrites; overlapping "
                "edits have order-dependent pre-images, so undoing the stub "
                "alone (a mechanism flip) cannot restore bit-identical "
                "pages",
            "let the int3 net cover this callsite or exclude its block "
            "from the removal");
    }
  }
}

}  // namespace

CheckReport check_plan(const CutPlan& plan, const CheckOptions& opts) {
  if (plan.binary == nullptr) {
    CheckReport r;
    if (plan.has_redirect) {
      emit_diag(r, opts, nullptr, kRuleRedirect, Severity::kError,
                plan.module, 0,
                "redirect module '" + plan.module + "' is not loaded",
                "load the module or drop the redirect");
    } else {
      emit_diag(r, opts, nullptr, kRuleBoundary, Severity::kWarning,
                plan.module, 0,
                "module '" + plan.module +
                    "' is not loaded; the rewriter will silently skip its " +
                    std::to_string(plan.blocks.size()) + " block(s)",
                "load the module or drop its blocks from the feature");
    }
    return r;
  }

  if (plan.model == nullptr || plan.model->bin != plan.binary.get()) {
    CutPlan modelled = plan;
    modelled.model = slicer::plan_model(plan);
    return check_plan(modelled, opts);
  }

  Ctx c{plan, *plan.model, opts};
  c.ranges = plan.ranges();
  for (const auto& [off, size] : c.ranges) {
    c.range_starts.insert(off);
    c.range_bytes.add(off, off + size);
  }
  switch (plan.removal) {
    case Removal::kBlockFirstByte:
      for (const auto& [off, size] : c.ranges) c.dead.add(off, off + 1);
      break;
    case Removal::kWipeBlocks:
      for (const auto& [off, size] : c.ranges) c.dead.add(off, off + size);
      break;
    case Removal::kUnmapPages:
      for (const auto& [off, size] : c.ranges) c.dead.add(off, off + size);
      c.dropped_pages = accounted_full_pages(plan);
      for (uint64_t p : c.dropped_pages) {
        c.dropped_set.insert(p);
        c.dead.add(p, p + kPageSize);
      }
      break;
  }

  check_boundary(c);
  check_stray_edges(c);
  check_redirect(c);
  check_reach_amp(c);
  check_page_safety(c);
  check_gadget_delta(c, opts);
  check_indirect(c);
  check_partial_slice(c);
  check_data_reach(c);
  check_stack_imbalance(c);
  check_dead_store(c);
  check_stub_reach(c);
  slicer::StubPlan stubs = slicer::plan_stubs(plan);
  check_stub_reachability(c, stubs);
  check_stub_reversibility(c, stubs);
  return std::move(c.report);
}

CheckReport check_plans(const std::vector<CutPlan>& plans,
                        const CheckOptions& opts) {
  CheckReport merged;
  for (const auto& p : plans) merged.merge(check_plan(p, opts));
  return merged;
}

}  // namespace dynacut::analysis::cutcheck
