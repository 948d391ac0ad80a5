// Tests for static CFG recovery (total-BB counting), PLT-usage analysis and
// the gadget scanner.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "analysis/cfg.hpp"
#include "analysis/gadget.hpp"
#include "analysis/plt.hpp"
#include "apps/libc.hpp"
#include "isa/encode.hpp"
#include "isa/isa.hpp"
#include "apps/minikv.hpp"
#include "apps/miniweb.hpp"
#include "common/rng.hpp"
#include "melf/builder.hpp"
#include "os/os.hpp"
#include "test_guests.hpp"
#include "trace/trace.hpp"

namespace dynacut::analysis {
namespace {

using melf::Binary;
using melf::ProgramBuilder;

TEST(Cfg, StraightLineFunctionIsOneBlock) {
  ProgramBuilder b("line");
  b.func("f").mov_ri(1, 1).add_ri(1, 2).ret();
  Binary bin = b.link();
  StaticCfg cfg = recover_cfg(bin);
  ASSERT_EQ(cfg.block_count(), 1u);
  const CfgBlock& blk = cfg.blocks.begin()->second;
  EXPECT_EQ(blk.instr_count, 3u);
  EXPECT_TRUE(blk.succs.empty());  // ret
}

TEST(Cfg, DiamondHasFourBlocks) {
  ProgramBuilder b("diamond");
  auto& f = b.func("f");
  f.cmp_ri(1, 0)
      .je("right")
      .mov_ri(2, 1)  // left
      .jmp("join")
      .label("right")
      .mov_ri(2, 2)
      .label("join")
      .ret();
  Binary bin = b.link();
  StaticCfg cfg = recover_cfg(bin);
  EXPECT_EQ(cfg.block_count(), 4u);
}

TEST(Cfg, BranchTargetsSplitBlocks) {
  // A backward branch into the middle of a straight line must split it.
  ProgramBuilder b("split");
  auto& f = b.func("f");
  f.mov_ri(1, 0)
      .label("mid")
      .add_ri(1, 1)
      .cmp_ri(1, 5)
      .jlt("mid")
      .ret();
  Binary bin = b.link();
  StaticCfg cfg = recover_cfg(bin);
  // Blocks: [entry..jlt], [mid..jlt], [ret]; mid is a leader.
  EXPECT_EQ(cfg.block_count(), 3u);
}

TEST(Cfg, CallCreatesEdgeAndFallthrough) {
  ProgramBuilder b("calls");
  b.func("callee").ret();
  b.func("caller").call("callee").mov_ri(1, 0).ret();
  Binary bin = b.link();
  StaticCfg cfg = recover_cfg(bin);
  uint64_t callee = bin.find_symbol("callee")->value;
  uint64_t caller = bin.find_symbol("caller")->value;
  const CfgBlock& first = cfg.blocks.at(caller);
  EXPECT_EQ(first.succs.size(), 2u);  // call target + fallthrough
  EXPECT_NE(std::find(first.succs.begin(), first.succs.end(), callee),
            first.succs.end());
}

TEST(Cfg, UnreachableFunctionsStillCounted) {
  // Angr-style totals include never-called functions (symbol roots).
  ProgramBuilder b("cold");
  b.func("used").ret();
  b.func("cold").mov_ri(1, 1).ret();
  Binary bin = b.link();
  EXPECT_GE(total_block_count(bin), 2u);
}

TEST(Cfg, TotalCountsCoverRealApps) {
  // Sanity ranges for the evaluation apps; exact numbers are asserted by
  // determinism (same binary => same count).
  size_t kv = total_block_count(*apps::build_minikv());
  size_t web = total_block_count(*apps::build_miniweb());
  EXPECT_GT(kv, 100u);
  EXPECT_GT(web, 500u);  // padded with synthetic modules
  EXPECT_EQ(kv, total_block_count(*apps::build_minikv()));  // deterministic
}

TEST(Cfg, StaticBlocksSupersetOfTracedBlocks) {
  // Every dynamically observed toysrv block must exist statically (the
  // traced block's start must fall on a static block start or inside one,
  // since dynamic blocks split at call returns the static CFG also splits).
  os::Os vos;
  trace::Tracer tracer(vos);
  auto bin = testing::build_toysrv();
  int pid = vos.spawn(bin, {apps::build_libc()});
  vos.run();
  auto conn = vos.connect(80);
  conn.send("A\nB\nQ\n");
  vos.run();
  trace::TraceLog log = tracer.dump(pid);

  StaticCfg cfg = recover_cfg(*bin);
  for (const auto& blk : log.blocks) {
    if (log.modules[blk.module_id].name != "toysrv") continue;
    // Find the static block containing this offset.
    auto it = cfg.blocks.upper_bound(blk.offset);
    ASSERT_NE(it, cfg.blocks.begin()) << "offset " << blk.offset;
    --it;
    EXPECT_LT(blk.offset, it->second.offset + it->second.size)
        << "traced block at " << blk.offset << " not covered statically";
  }
}

// ---------------------------------------------------------------------------
// Dominators and recovery corner cases (slicer prerequisites)
// ---------------------------------------------------------------------------

/// A single-.text binary from hand-assembled bytes, for layouts the
/// ProgramBuilder cannot express (cross-function jumps, overlapping
/// decodings).
Binary raw_binary(std::vector<uint8_t> text,
                  std::vector<melf::Symbol> symbols) {
  Binary bin;
  bin.name = "hand";
  melf::Section sec;
  sec.kind = melf::SectionKind::kText;
  sec.offset = 0;
  sec.size = text.size();
  sec.bytes = std::move(text);
  bin.sections.push_back(std::move(sec));
  bin.symbols = std::move(symbols);
  return bin;
}

melf::Symbol func_symbol(const std::string& name, uint64_t value,
                         uint64_t size) {
  melf::Symbol s;
  s.name = name;
  s.value = value;
  s.size = size;
  s.global = true;
  s.is_function = true;
  return s;
}

TEST(Cfg, DominatorsOfIrreducibleLoop) {
  // entry -> {l1, l2}; l1 <-> l2: a two-entry (irreducible) loop. Neither
  // loop block dominates the other; both are immediately dominated by the
  // entry, and each exit block by the loop block that reaches it.
  ProgramBuilder b("irr");
  auto& f = b.func("f");
  f.cmp_ri(1, 0).je("l2");
  f.label("l1").add_ri(1, 1).cmp_ri(1, 10).jlt("l2").ret();
  f.label("l2").add_ri(1, 2).cmp_ri(1, 20).jlt("l1").ret();
  Binary bin = b.link();
  StaticCfg cfg = recover_cfg(bin);
  auto funcs = split_functions(cfg, FunctionIndex(bin));
  ASSERT_EQ(funcs.size(), 1u);
  const FuncCfg& fc = funcs.begin()->second;
  auto idom = dominator_tree(fc);
  ASSERT_EQ(idom.size(), fc.blocks.size());

  uint64_t entry = fc.entry;
  uint64_t l1 = entry + 11;  // cmp(6) + je(5)
  uint64_t ret1 = l1 + 17;   // add(6) + cmp(6) + jlt(5)
  uint64_t l2 = ret1 + 1;
  uint64_t ret2 = l2 + 17;
  ASSERT_TRUE(fc.blocks.count(l1) && fc.blocks.count(l2) &&
              fc.blocks.count(ret1) && fc.blocks.count(ret2));
  EXPECT_EQ(idom.at(entry), entry);
  EXPECT_EQ(idom.at(l1), entry);  // reachable around the loop both ways
  EXPECT_EQ(idom.at(l2), entry);
  EXPECT_EQ(idom.at(ret1), l1);
  EXPECT_EQ(idom.at(ret2), l2);
}

TEST(Cfg, MultiEntrySubgraphKeepsDominatorsPartial) {
  // Function f's tail block is only entered by a jump from g: inside f's
  // subgraph it has no predecessors, so the dominator tree (rooted at f's
  // entry) must omit it rather than invent a dominator.
  std::vector<uint8_t> code;
  isa::Encoder enc(code);
  enc.ret();            // f entry: returns immediately
  enc.mov_ri(1, 2);     // f tail, offset 1: only reachable from g
  enc.ret();            // offset 11
  enc.branch(isa::Op::kJmp, -16);  // g at 12: target 12+5-16 = 1
  Binary bin = raw_binary(code, {func_symbol("f", 0, 12),
                                 func_symbol("g", 12, code.size() - 12)});
  StaticCfg cfg = recover_cfg(bin);
  ASSERT_TRUE(cfg.block_at(1) != nullptr);

  auto funcs = split_functions(cfg, FunctionIndex(bin));
  ASSERT_EQ(funcs.size(), 2u);
  const FuncCfg& fc = funcs.at(0);
  EXPECT_TRUE(fc.blocks.count(1));  // owned by f's symbol...
  auto idom = dominator_tree(fc);
  EXPECT_EQ(idom.count(1), 0u);  // ...but not dominated by f's entry
  EXPECT_EQ(idom.at(0), 0u);
}

TEST(Cfg, JumpIntoImmediateDecodesBothStreams) {
  // je +2 jumps into the byte 7..8 *inside* the mov's imm64: the traversal
  // must decode both the outer instruction stream and the overlapping inner
  // one, and instr_starts must carry offsets from both.
  std::vector<uint8_t> code;
  isa::Encoder enc(code);
  enc.branch(isa::Op::kJe, 2);  // 0: -> 7 or fallthrough 5
  enc.mov_ri(1, 0x1E90);       // 5: imm bytes 7.. decode as nop, ret
  enc.ret();                    // 15
  Binary bin = raw_binary(code, {func_symbol("f", 0, code.size())});
  StaticCfg cfg = recover_cfg(bin);

  EXPECT_TRUE(cfg.is_instr_start(5));   // outer mov
  EXPECT_TRUE(cfg.is_instr_start(7));   // inner nop
  EXPECT_TRUE(cfg.is_instr_start(8));   // inner ret
  EXPECT_FALSE(cfg.is_instr_start(6));  // never decoded at
  const CfgBlock* outer = cfg.block_at(5);
  const CfgBlock* inner = cfg.block_at(7);
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->size, 11u);  // mov + ret: overlaps inner's bytes
  EXPECT_EQ(inner->size, 2u);   // nop + ret
  EXPECT_EQ(cfg.block_containing(8), inner);
}

TEST(Cfg, FallthroughOnlySplitEndsWithNopTerminator) {
  // The block before a backward-branch target ends only because the next
  // instruction is a leader: its terminator must be the kNop sentinel and
  // its single successor the leader.
  ProgramBuilder b("fall");
  auto& f = b.func("f");
  f.mov_ri(1, 0).label("mid").add_ri(1, 1).cmp_ri(1, 5).jlt("mid").ret();
  Binary bin = b.link();
  StaticCfg cfg = recover_cfg(bin);
  uint64_t entry = bin.find_symbol("f")->value;
  const CfgBlock* head = cfg.block_at(entry);
  ASSERT_NE(head, nullptr);
  EXPECT_EQ(head->term, isa::Op::kNop);
  ASSERT_EQ(head->succs.size(), 1u);
  EXPECT_EQ(head->succs[0], entry + 10);  // mid
  EXPECT_NE(cfg.block_at(entry + 10), nullptr);
}

TEST(Cfg, RegisterCallGetsFallthroughEdge) {
  // kCallR returns to the next instruction like a direct call: the block
  // must end at the callr with exactly the fallthrough successor (the
  // callee edge is only known to the slicer).
  ProgramBuilder b("rcall");
  b.func("target").ret();
  auto& f = b.func("f");
  f.lea_sym(1, "target").callr(1).mov_ri(2, 1).ret();
  Binary bin = b.link();
  StaticCfg cfg = recover_cfg(bin);
  uint64_t entry = bin.find_symbol("f")->value;
  const CfgBlock* head = cfg.block_at(entry);
  ASSERT_NE(head, nullptr);
  EXPECT_EQ(head->term, isa::Op::kCallR);
  ASSERT_EQ(head->succs.size(), 1u);
  EXPECT_EQ(head->succs[0], entry + head->size);
  const CfgBlock* fall = cfg.block_at(entry + head->size);
  ASSERT_NE(fall, nullptr);
  EXPECT_EQ(fall->term, isa::Op::kRet);
}

// ---------------------------------------------------------------------------
// PLT analysis
// ---------------------------------------------------------------------------

struct PhaseCov {
  CoverageGraph init;
  CoverageGraph serving;
  std::shared_ptr<const Binary> bin;
};

PhaseCov minikv_phases() {
  os::Os vos;
  trace::Tracer tracer(vos);
  auto bin = apps::build_minikv();
  int pid = vos.spawn(bin, {apps::build_libc()});
  vos.run();
  trace::TraceLog init_log = tracer.dump_and_reset(pid);
  auto conn = vos.connect(apps::kMinikvPort);
  conn.send("SET a 1\nGET a\nPING\n");
  vos.run();
  trace::TraceLog serving_log = tracer.dump(pid);
  return {CoverageGraph::from_log(init_log),
          CoverageGraph::from_log(serving_log), bin};
}

TEST(Plt, ClassifiesInitOnlyEntries) {
  PhaseCov pc = minikv_phases();
  PltUsage usage = analyze_plt(*pc.bin, "minikv", pc.init, pc.serving);

  EXPECT_EQ(usage.total_entries, pc.bin->imports.size());
  EXPECT_FALSE(usage.executed.empty());
  EXPECT_FALSE(usage.init_only.empty());
  EXPECT_FALSE(usage.serving.empty());

  auto has = [](const std::vector<std::string>& v, const char* name) {
    return std::find(v.begin(), v.end(), name) != v.end();
  };
  // socket/bind/listen/memset run only during startup.
  EXPECT_TRUE(has(usage.init_only, "socket"));
  EXPECT_TRUE(has(usage.init_only, "bind"));
  EXPECT_TRUE(has(usage.init_only, "listen"));
  EXPECT_TRUE(has(usage.init_only, "memset"));
  // recv_line/strcmp serve requests.
  EXPECT_TRUE(has(usage.serving, "recv_line"));
  EXPECT_TRUE(has(usage.serving, "strcmp"));
  // init_only and serving are disjoint; both are subsets of executed.
  for (const auto& e : usage.init_only) {
    EXPECT_FALSE(has(usage.serving, e.c_str())) << e;
    EXPECT_TRUE(has(usage.executed, e.c_str()));
  }
}

TEST(Plt, BlocksForEntriesMatchStubOffsets) {
  auto bin = apps::build_minikv();
  auto blocks = plt_blocks(*bin, "minikv", {"socket", "bind"});
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[0].offset, *bin->plt_stub_offset("socket"));
  EXPECT_EQ(blocks[0].size, melf::Binary::kPltStubSize);
  // Unknown entries are skipped, not invented.
  EXPECT_TRUE(plt_blocks(*bin, "minikv", {"no_such_import"}).empty());
}

// ---------------------------------------------------------------------------
// Gadget scanner
// ---------------------------------------------------------------------------

TEST(Gadgets, FindsRetSequences) {
  os::Os vos;
  int pid = vos.spawn(testing::build_toysrv(), {apps::build_libc()});
  GadgetStats stats = scan_gadgets(vos.process(pid)->mem);
  EXPECT_GT(stats.gadget_starts, 10u);
  EXPECT_GT(stats.executable_bytes, 0u);
}

TEST(Gadgets, WipingCodeRemovesGadgets) {
  os::Os vos;
  int pid = vos.spawn(testing::build_toysrv(), {apps::build_libc()});
  os::Process* p = vos.process(pid);
  GadgetStats before = scan_gadgets(p->mem);

  // Wipe the whole app .text with traps (host-side, simulating the
  // aggressive wipe policy).
  const os::LoadedModule* app = p->module_named("toysrv");
  const melf::Section* text =
      app->binary->section(melf::SectionKind::kText);
  std::vector<uint8_t> traps(text->size, 0xCC);
  p->mem.poke_bytes(app->base + text->offset, traps);

  GadgetStats after = scan_gadgets(p->mem);
  EXPECT_LT(after.gadget_starts, before.gadget_starts);
}

// --- FunctionIndex: must answer exactly like the linear symbol scan -----

/// A random symbol table mixing every shape the first-match rule has to
/// break ties for: overlapping, nested, duplicate-start, zero-size,
/// non-function and end-wrapping symbols.
Binary random_symbols(Rng& rng) {
  Binary bin;
  const size_t n = rng.range(0, 24);
  for (size_t i = 0; i < n; ++i) {
    melf::Symbol s;
    s.name = "s";
    s.name += std::to_string(i);
    s.is_function = !rng.chance(1, 5);
    const uint64_t shape = rng.below(6);
    if (shape == 0 && !bin.symbols.empty()) {
      // Duplicate start of an earlier symbol.
      s.value = bin.symbols[rng.below(bin.symbols.size())].value;
      s.size = rng.range(0, 64);
    } else if (shape == 1 && !bin.symbols.empty()) {
      // Nested inside (or flush with) an earlier symbol.
      const melf::Symbol& outer = bin.symbols[rng.below(bin.symbols.size())];
      s.value = outer.value + rng.range(0, outer.size);
      s.size = rng.range(0, outer.size);
    } else if (shape == 2) {
      s.value = rng.range(0, 256);
      s.size = 0;
    } else if (shape == 3 && rng.chance(1, 4)) {
      // value + size wraps past 2^64: the scan's test never matches it.
      s.value = ~0ull - rng.range(0, 8);
      s.size = rng.range(1, 32);
    } else {
      s.value = rng.range(0, 256);
      s.size = rng.range(1, 96);
    }
    bin.symbols.push_back(s);
  }
  return bin;
}

TEST(FunctionIndex, AgreesWithLinearScanOnRandomSymbolTables) {
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    Binary bin = random_symbols(rng);
    FunctionIndex index(bin);
    auto agrees = [&](uint64_t off) {
      EXPECT_EQ(index.symbol_containing(off), bin.symbol_containing(off))
          << "seed " << seed << " offset " << off;
    };
    for (uint64_t off = 0; off < 420; ++off) agrees(off);
    for (uint64_t off = ~0ull - 40; off != 0; ++off) agrees(off);
  }
}

TEST(FunctionIndex, FirstFunctionSymbolInVectorOrderWins) {
  Binary bin;
  bin.symbols = {
      {.name = "data", .value = 0, .size = 100, .is_function = false},
      {.name = "empty", .value = 10, .size = 0, .is_function = true},
      {.name = "inner", .value = 20, .size = 10, .is_function = true},
      {.name = "outer", .value = 0, .size = 100, .is_function = true},
      {.name = "twin", .value = 20, .size = 40, .is_function = true},
  };
  FunctionIndex index(bin);
  EXPECT_EQ(index.symbol_containing(10)->name, "outer");
  EXPECT_EQ(index.symbol_containing(25)->name, "inner");
  EXPECT_EQ(index.symbol_containing(30)->name, "outer");  // twin is shadowed
  EXPECT_EQ(index.symbol_containing(100), nullptr);
  EXPECT_EQ(FunctionIndex().symbol_containing(0), nullptr);
}

TEST(FunctionIndex, AgreesWithLinearScanOnAppBinaries) {
  for (const auto& bin : {apps::build_minikv(), apps::build_miniweb(),
                          apps::build_libc()}) {
    FunctionIndex index(*bin);
    for (uint64_t off = 0; off < bin->image_size(); ++off) {
      ASSERT_EQ(index.symbol_containing(off), bin->symbol_containing(off))
          << bin->name << " offset " << off;
    }
  }
}

TEST(Gadgets, UnmappingCodeRemovesGadgetsEntirely) {
  os::Os vos;
  int pid = vos.spawn(testing::build_toysrv(), {apps::build_libc()});
  os::Process* p = vos.process(pid);
  const os::LoadedModule* libc = p->module_named("libc.so");
  GadgetStats before = scan_gadgets(p->mem);
  // Unmap libc .text: its gadget contribution disappears.
  const melf::Section* text =
      libc->binary->section(melf::SectionKind::kText);
  p->mem.unmap(libc->base + text->offset, page_ceil(text->size));
  GadgetStats after = scan_gadgets(p->mem);
  EXPECT_LT(after.gadget_starts, before.gadget_starts);
  EXPECT_LT(after.executable_bytes, before.executable_bytes);
}

TEST(Gadgets, RespectsMaxInstrs) {
  os::Os vos;
  int pid = vos.spawn(testing::build_toysrv(), {apps::build_libc()});
  const os::Process* p = vos.process(pid);
  GadgetStats narrow = scan_gadgets(p->mem, 1);
  GadgetStats wide = scan_gadgets(p->mem, 8);
  EXPECT_LE(narrow.gadget_starts, wide.gadget_starts);
}

// --- scan_gadgets against a per-address reference walk ---------------------

/// Reference gadget test: decode forward from `addr` through checked
/// executable reads, at most `max_instrs` instructions, until a RET.
bool reference_gadget_at(const vm::AddressSpace& mem, uint64_t addr,
                         int max_instrs) {
  uint64_t cur = addr;
  for (int i = 0; i < max_instrs; ++i) {
    uint8_t buf[16];
    if (!mem.read(cur, buf, 1, kProtExec).ok) return false;
    uint8_t len = isa::instr_length(buf[0]);
    if (len == 0) return false;
    if (len > 1 && !mem.read(cur + 1, buf + 1, len - 1, kProtExec).ok) {
      return false;
    }
    auto ins = isa::try_decode({buf, len});
    if (!ins) return false;
    if (ins->op == isa::Op::kRet) return true;
    if (isa::is_terminator(ins->op)) return false;
    cur += len;
  }
  return false;
}

GadgetStats reference_scan(const vm::AddressSpace& mem, uint64_t lo,
                           uint64_t hi, int max_instrs) {
  GadgetStats stats;
  for (const auto& [start, vma] : mem.vmas()) {
    if ((vma.prot & kProtExec) == 0) continue;
    uint64_t from = std::max(vma.start, lo);
    uint64_t to = std::min(vma.end, hi);
    if (from >= to) continue;
    stats.executable_bytes += to - from;
    for (uint64_t addr = from; addr < to; ++addr) {
      if (reference_gadget_at(mem, addr, max_instrs)) ++stats.gadget_starts;
    }
  }
  return stats;
}

/// A few one- or two-page VMAs, adjacent or one page apart, executable or
/// not. Each page is left unpopulated (reads as zeros) or filled with
/// random bytes rich in RET and TRAP so that gadgets are common and
/// sequences often run into a neighbouring page or off a VMA's end.
vm::AddressSpace random_code_space(Rng& rng) {
  vm::AddressSpace mem;
  uint64_t addr = kAppBase;
  const size_t vmas = rng.range(1, 5);
  for (size_t i = 0; i < vmas; ++i) {
    if (rng.chance(1, 3)) addr += kPageSize;
    const uint64_t pages = rng.range(1, 2);
    const uint32_t prot = rng.chance(3, 4) ? kProtRead | kProtExec
                                           : kProtRead | kProtWrite;
    mem.map(addr, pages * kPageSize, prot, "v" + std::to_string(i));
    for (uint64_t p = 0; p < pages; ++p, addr += kPageSize) {
      if (rng.chance(1, 4)) continue;
      std::vector<uint8_t> bytes(kPageSize);
      for (uint8_t& b : bytes) {
        if (rng.chance(1, 4)) {
          b = static_cast<uint8_t>(isa::Op::kRet);
        } else if (rng.chance(1, 12)) {
          b = static_cast<uint8_t>(isa::Op::kTrap);
        } else {
          b = static_cast<uint8_t>(rng.below(256));
        }
      }
      mem.poke_bytes(addr, bytes);
    }
  }
  return mem;
}

TEST(Gadgets, ScanAgreesWithReferenceWalkOnRandomSpaces) {
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    Rng rng(seed);
    const vm::AddressSpace mem = random_code_space(rng);
    const int max_instrs = static_cast<int>(1 + seed % 8);
    const uint64_t end = mem.vmas().rbegin()->second.end;
    std::vector<std::pair<uint64_t, uint64_t>> windows = {
        {0, UINT64_MAX}, {end, kAppBase}};
    for (int w = 0; w < 3; ++w) {
      uint64_t a = rng.range(kAppBase - kPageSize, end + kPageSize);
      uint64_t b = rng.range(kAppBase - kPageSize, end + kPageSize);
      windows.emplace_back(std::min(a, b), std::max(a, b));
    }
    for (const auto& [lo, hi] : windows) {
      GadgetStats want = reference_scan(mem, lo, hi, max_instrs);
      GadgetStats got = scan_gadgets(mem, lo, hi, max_instrs);
      EXPECT_EQ(got.gadget_starts, want.gadget_starts)
          << "seed " << seed << " window [" << lo << ", " << hi << ")";
      EXPECT_EQ(got.executable_bytes, want.executable_bytes)
          << "seed " << seed << " window [" << lo << ", " << hi << ")";
    }
    EXPECT_EQ(scan_gadgets(mem, max_instrs).gadget_starts,
              reference_scan(mem, 0, UINT64_MAX, max_instrs).gadget_starts)
        << "seed " << seed;
  }
}

// --- edge cases of the dense traversal state --------------------------------
// Each expected shape was recorded from recover_cfg before its per-section
// arrays replaced the node-based sets.

melf::Section code_section(melf::SectionKind kind, uint64_t offset,
                           std::vector<uint8_t> bytes) {
  melf::Section sec;
  sec.kind = kind;
  sec.offset = offset;
  sec.size = bytes.size();
  sec.bytes = std::move(bytes);
  return sec;
}

melf::Symbol fn_symbol(const std::string& name, uint64_t value,
                       uint64_t size) {
  melf::Symbol s;
  s.name = name;
  s.value = value;
  s.size = size;
  s.is_function = true;
  return s;
}

/// "start+size/instrs:term>succ,succ" per block, then the instruction starts.
std::string shape(const StaticCfg& cfg) {
  std::string out;
  for (const auto& [off, b] : cfg.blocks) {
    out += std::to_string(off) + "+" + std::to_string(b.size) + "/" +
           std::to_string(b.instr_count) + ":" + isa::mnemonic(b.term) + ">";
    for (uint64_t t : b.succs) out += std::to_string(t) + ",";
    out += " ";
  }
  out += "|";
  for (uint64_t s : cfg.instr_starts) out += " " + std::to_string(s);
  return out;
}

TEST(CfgEdgeCases, BranchTargetsOutsideEveryCodeSection) {
  // je to the end of .text (no section there), a call far outside, and a
  // straight line running into that end: the stray leader still splits it.
  std::vector<uint8_t> code;
  isa::Encoder enc(code);
  enc.branch(isa::Op::kJe, 0);  // patched below to reach the end
  enc.branch(isa::Op::kCall, 0x10000);
  enc.mov_ri(1, 5);
  enc.add_ri(1, 1);
  enc.patch_rel32(0, static_cast<int32_t>(code.size() - 5));
  Binary bin;
  bin.sections.push_back(code_section(melf::SectionKind::kText, 0, code));
  bin.symbols.push_back(fn_symbol("f", 0, code.size()));
  EXPECT_EQ(shape(recover_cfg(bin)),
            "0+5/1:je>26,5, 5+5/1:call>65546,10, 10+16/2:nop>26, "
            "| 0 5 10 20");
}

TEST(CfgEdgeCases, FunctionSymbolsInDataOrPastTextEndDecodeNothing) {
  std::vector<uint8_t> code, data;
  isa::Encoder(code).mov_ri(1, 5);
  isa::Encoder(code).ret();
  isa::Encoder(data).ret();  // executable-looking bytes outside code
  Binary bin;
  bin.sections.push_back(code_section(melf::SectionKind::kText, 0, code));
  bin.sections.push_back(code_section(melf::SectionKind::kData, 0x1000, data));
  bin.symbols = {fn_symbol("f", 0, code.size()),
                 fn_symbol("in_data", 0x1000, 1),
                 fn_symbol("past_end", code.size() + 4, 4)};
  EXPECT_EQ(shape(recover_cfg(bin)), "0+11/2:ret> | 0 10");
}

TEST(CfgEdgeCases, InstructionTruncatedAtTextEnd) {
  // The second mov is cut short by the end of .text; a symbol naming it
  // makes it a leader that never decodes.
  std::vector<uint8_t> code, tail;
  isa::Encoder(code).mov_ri(1, 5);
  const uint64_t cut = code.size();
  isa::Encoder(tail).mov_ri(2, 7);
  code.insert(code.end(), tail.begin(), tail.begin() + 3);
  Binary bin;
  bin.sections.push_back(code_section(melf::SectionKind::kText, 0, code));
  bin.symbols = {fn_symbol("f", 0, cut), fn_symbol("torn", cut, 3)};
  EXPECT_EQ(shape(recover_cfg(bin)), "0+10/1:nop>10, | 0");
}

TEST(CfgEdgeCases, CallsIntoThePltReachItsStubs) {
  ProgramBuilder b("pltcall");
  b.func("main").mov_ri(1, 0).call_import("memset").call_import("strlen").ret();
  Binary bin = b.link();
  ASSERT_NE(bin.section(melf::SectionKind::kPlt), nullptr);
  EXPECT_EQ(shape(recover_cfg(bin)),
            "0+15/2:call>4096,15, 15+5/1:call>4111,20, 20+1/1:ret> "
            "4096+15/3:jmpr> 4111+15/3:jmpr> "
            "| 0 10 15 20 4096 4102 4109 4111 4117 4124");
}

}  // namespace
}  // namespace dynacut::analysis
