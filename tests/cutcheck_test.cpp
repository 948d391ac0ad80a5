// Tests for the cutcheck static cut-plan verifier: the plan model (ByteSet,
// page accounting), the CFG extensions it builds on (instruction starts,
// dominators, call graph), each of the six rules, plan extraction, and the
// DynaCut enforce/warn/off integration.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/cfg.hpp"
#include "analysis/cutcheck/checker.hpp"
#include "apps/libc.hpp"
#include "common/error.hpp"
#include "core/dynacut.hpp"
#include "isa/encode.hpp"
#include "melf/builder.hpp"
#include "os/os.hpp"
#include "rewriter/rewriter.hpp"
#include "test_guests.hpp"

namespace dynacut::analysis::cutcheck {
namespace {

using melf::Binary;
using melf::ProgramBuilder;

// --- helpers -------------------------------------------------------------

CutPlan make_plan(std::shared_ptr<const melf::Binary> bin,
                  std::vector<CovBlock> blocks, Removal removal, Trap trap) {
  CutPlan p;
  p.feature = "test";
  p.module = bin->name;
  p.binary = std::move(bin);
  p.blocks = std::move(blocks);
  p.removal = removal;
  p.trap = trap;
  return p;
}

size_t rule_count(const CheckReport& r, const char* rule, Severity sev) {
  size_t n = 0;
  for (const Diagnostic* d : r.by_rule(rule)) {
    if (d->severity == sev) ++n;
  }
  return n;
}

bool rule_mentions(const CheckReport& r, const char* rule,
                   const std::string& text) {
  for (const Diagnostic* d : r.by_rule(rule)) {
    if (d->message.find(text) != std::string::npos) return true;
  }
  return false;
}

/// A single-.text-section binary from hand-assembled bytes — for layouts
/// the ProgramBuilder cannot express (overlapping decodings, fallthrough
/// off the section end).
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

// --- ByteSet -------------------------------------------------------------

TEST(ByteSetTest, AddMergesOverlapsAndNeighbours) {
  ByteSet s;
  s.add(10, 20);
  s.add(30, 40);
  s.add(18, 30);  // bridges both
  EXPECT_TRUE(s.covers(10, 40));
  EXPECT_FALSE(s.contains(9));
  EXPECT_TRUE(s.contains(10));
  EXPECT_TRUE(s.contains(39));
  EXPECT_FALSE(s.contains(40));
}

TEST(ByteSetTest, DuplicateAddsDoNotGrowCoverage) {
  ByteSet s;
  s.add(0, 100);
  s.add(0, 100);
  EXPECT_TRUE(s.covers(0, 100));
  EXPECT_FALSE(s.covers(0, 101));
}

TEST(ByteSetTest, GapsReportsUncoveredIntervalsInOrder) {
  ByteSet s;
  s.add(10, 20);
  s.add(30, 40);
  auto gaps = s.gaps(0, 50);
  ASSERT_EQ(gaps.size(), 3u);
  EXPECT_EQ(gaps[0], std::make_pair(uint64_t{0}, uint64_t{10}));
  EXPECT_EQ(gaps[1], std::make_pair(uint64_t{20}, uint64_t{30}));
  EXPECT_EQ(gaps[2], std::make_pair(uint64_t{40}, uint64_t{50}));
}

TEST(ByteSetTest, GapsOfFullyCoveredWindowIsEmpty) {
  ByteSet s;
  s.add(0, 4096);
  EXPECT_TRUE(s.gaps(512, 1024).empty());
  EXPECT_TRUE(s.gaps(0, 4096).empty());
}

TEST(ByteSetTest, GapsStartingInsideAnInterval) {
  ByteSet s;
  s.add(0, 100);
  auto gaps = s.gaps(50, 200);
  ASSERT_EQ(gaps.size(), 1u);
  EXPECT_EQ(gaps[0], std::make_pair(uint64_t{100}, uint64_t{200}));
}

TEST(ByteSetTest, EmptySetGapIsWholeWindow) {
  ByteSet s;
  auto gaps = s.gaps(5, 10);
  ASSERT_EQ(gaps.size(), 1u);
  EXPECT_EQ(gaps[0], std::make_pair(uint64_t{5}, uint64_t{10}));
}

// --- page accounting -----------------------------------------------------

TEST(PageAccountingTest, DisjointRangesMustReallyFillThePage) {
  CutPlan p;
  p.blocks = {{"m", 0, 2048}, {"m", 2048, 2048}};
  auto pages = accounted_full_pages(p);
  ASSERT_EQ(pages.size(), 1u);
  EXPECT_EQ(pages[0], 0u);
}

TEST(PageAccountingTest, DuplicateRangesDoubleCountLikeTheRewriter) {
  // Two copies of a half-page range sum to a full page in the rewriter's
  // per-range arithmetic even though only half the page is covered — the
  // exact bug class CC005 exists to catch.
  CutPlan p;
  p.blocks = {{"m", 0, 2048}, {"m", 0, 2048}};
  auto pages = accounted_full_pages(p);
  ASSERT_EQ(pages.size(), 1u);
  EXPECT_EQ(pages[0], 0u);
}

TEST(PageAccountingTest, PartialPageIsNotDropped) {
  CutPlan p;
  p.blocks = {{"m", 0, 4095}};
  EXPECT_TRUE(accounted_full_pages(p).empty());
}

// --- CFG extensions ------------------------------------------------------

TEST(CfgExtensionsTest, JumpIntoImmediateYieldsOverlappingDecodings) {
  // 0:  je +2        -> target 7, fallthrough 5
  // 5:  mov r1, 0x1E90   (imm bytes at 7..14: nop, ret, zeros)
  // 15: ret
  // Offset 7 decodes as nop/ret *inside* the mov's immediate: two blocks
  // whose byte ranges overlap.
  std::vector<uint8_t> code;
  isa::Encoder enc(code);
  enc.branch(isa::Op::kJe, 2);
  enc.mov_ri(1, 0x1E90);
  enc.ret();
  Binary bin = raw_binary(code, {func_symbol("f", 0, code.size())});

  StaticCfg cfg = recover_cfg(bin);
  EXPECT_TRUE(cfg.is_instr_start(0));
  EXPECT_TRUE(cfg.is_instr_start(5));
  EXPECT_TRUE(cfg.is_instr_start(7));
  EXPECT_TRUE(cfg.is_instr_start(8));
  EXPECT_FALSE(cfg.is_instr_start(6));

  const CfgBlock* outer = cfg.block_at(5);
  const CfgBlock* inner = cfg.block_at(7);
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->size, 11u);  // mov + ret
  EXPECT_EQ(inner->size, 2u);   // nop + ret
  // block_containing favours the latest-starting block covering the offset.
  EXPECT_EQ(cfg.block_containing(8), inner);
}

TEST(CfgExtensionsTest, FallthroughAtTextEndTerminatesBlock) {
  std::vector<uint8_t> code;
  isa::Encoder enc(code);
  enc.mov_ri(1, 5);
  enc.add_ri(1, 1);  // no terminator; code simply ends
  Binary bin = raw_binary(code, {func_symbol("f", 0, code.size())});

  StaticCfg cfg = recover_cfg(bin);
  ASSERT_EQ(cfg.block_count(), 1u);
  const CfgBlock& blk = cfg.blocks.begin()->second;
  EXPECT_EQ(blk.size, code.size());
  EXPECT_EQ(blk.term, isa::Op::kNop);  // ended by running out of code
  EXPECT_TRUE(blk.succs.empty());
}

TEST(CfgExtensionsTest, DominatorTreeOfDiamond) {
  ProgramBuilder b("diamond");
  auto& f = b.func("f");
  f.cmp_ri(1, 0)
      .je("right")
      .mov_ri(2, 1)
      .jmp("join")
      .label("right")
      .mov_ri(2, 2)
      .label("join")
      .ret();
  Binary bin = b.link();
  StaticCfg cfg = recover_cfg(bin);
  auto funcs = split_functions(cfg, FunctionIndex(bin));
  ASSERT_EQ(funcs.size(), 1u);
  const FuncCfg& fc = funcs.begin()->second;
  auto idom = dominator_tree(fc);
  ASSERT_EQ(idom.size(), 4u);
  // Both arms and the join are immediately dominated by the branch block
  // (the entry maps to itself).
  uint64_t entry = fc.entry;
  for (uint64_t blk : fc.blocks) {
    EXPECT_EQ(idom.at(blk), entry) << "block " << blk;
  }
}

TEST(CfgExtensionsTest, DominatorTreeOfChainFollowsTheChain) {
  ProgramBuilder b("chain");
  auto& f = b.func("f");
  f.cmp_ri(1, 0).je("b2");  // E -> {b2, A}
  f.label("a1").mov_ri(2, 1).jmp("c1");
  f.label("c1").mov_ri(2, 3).jmp("d1");
  f.label("b2").mov_ri(2, 2);
  f.label("d1").ret();
  Binary bin = b.link();
  StaticCfg cfg = recover_cfg(bin);
  auto funcs = split_functions(cfg, FunctionIndex(bin));
  const FuncCfg& fc = funcs.begin()->second;
  auto idom = dominator_tree(fc);

  uint64_t entry = fc.entry;
  uint64_t a1 = 11;       // after cmp(6)+je(5)
  uint64_t c1 = a1 + 15;  // mov(10)+jmp(5)
  uint64_t b2 = c1 + 15;
  uint64_t d1 = b2 + 10;
  ASSERT_TRUE(fc.blocks.count(a1) && fc.blocks.count(c1) &&
              fc.blocks.count(b2) && fc.blocks.count(d1));
  EXPECT_EQ(idom.at(a1), entry);
  EXPECT_EQ(idom.at(c1), a1);   // only reachable through a1
  EXPECT_EQ(idom.at(b2), entry);
  EXPECT_EQ(idom.at(d1), entry);  // join of two paths
}

TEST(CfgExtensionsTest, PredecessorsInvertSuccessors) {
  ProgramBuilder b("p");
  auto& f = b.func("f");
  f.cmp_ri(1, 0).je("x").mov_ri(2, 1).label("x").ret();
  Binary bin = b.link();
  StaticCfg cfg = recover_cfg(bin);
  auto preds = predecessors(cfg);
  for (const auto& [off, blk] : cfg.blocks) {
    for (uint64_t t : blk.succs) {
      if (cfg.blocks.count(t) == 0) continue;
      const auto& pv = preds.at(t);
      EXPECT_NE(std::find(pv.begin(), pv.end(), off), pv.end());
    }
  }
}

TEST(CfgExtensionsTest, CallSitesIndexCalleesByCallingBlocks) {
  auto bin = dynacut::testing::build_toysrv();
  StaticCfg cfg = recover_cfg(*bin);
  auto sites = call_sites(cfg, FunctionIndex(*bin));
  const melf::Symbol* ha = bin->find_symbol("handle_a");
  ASSERT_NE(ha, nullptr);
  ASSERT_TRUE(sites.count(ha->value));
  // handle_a is called exactly once, from dispatch's arm_a block.
  ASSERT_EQ(sites.at(ha->value).size(), 1u);
  const melf::Symbol* owner =
      bin->symbol_containing(sites.at(ha->value)[0]);
  ASSERT_NE(owner, nullptr);
  EXPECT_EQ(owner->name, "dispatch");
}

TEST(CfgExtensionsTest, SplitFunctionsKeepsEdgesIntraprocedural) {
  auto bin = dynacut::testing::build_toysrv();
  StaticCfg cfg = recover_cfg(*bin);
  auto funcs = split_functions(cfg, FunctionIndex(*bin));
  for (const auto& [entry, fc] : funcs) {
    for (const auto& [from, succs] : fc.succs) {
      for (uint64_t t : succs) {
        EXPECT_TRUE(fc.blocks.count(t))
            << "edge " << from << "->" << t << " leaves function " << entry;
      }
    }
  }
}

// --- CC001 boundary ------------------------------------------------------

TEST(RuleBoundaryTest, MidInstructionStartIsError) {
  auto bin = dynacut::testing::build_toysrv();
  uint64_t d = bin->find_symbol("dispatch")->value;
  auto r = check_plan(make_plan(bin, {{"toysrv", d + 1, 1}},
                                Removal::kBlockFirstByte, Trap::kTerminate));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(rule_count(r, kRuleBoundary, Severity::kError), 1u);
}

TEST(RuleBoundaryTest, StartOutsideExecutableSectionsIsError) {
  auto bin = dynacut::testing::build_toysrv();
  auto r = check_plan(make_plan(bin, {{"toysrv", 0x100000, 4}},
                                Removal::kBlockFirstByte, Trap::kTerminate));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(rule_mentions(r, kRuleBoundary, "outside every executable"));
}

TEST(RuleBoundaryTest, UnreachableCodeStartIsOnlyWarning) {
  // ret at 0, then two nops no symbol/branch reaches.
  std::vector<uint8_t> code;
  isa::Encoder enc(code);
  enc.ret();
  enc.nop();
  enc.nop();
  auto bin = std::make_shared<Binary>(
      raw_binary(code, {func_symbol("f", 0, 1)}));
  auto r = check_plan(make_plan(bin, {{"hand", 1, 1}},
                                Removal::kBlockFirstByte, Trap::kTerminate));
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(rule_count(r, kRuleBoundary, Severity::kWarning), 1u);
}

TEST(RuleBoundaryTest, WipeEndTearingAnInstructionIsError) {
  auto bin = dynacut::testing::build_toysrv();
  uint64_t d = bin->find_symbol("dispatch")->value;
  // dispatch starts with two 10-byte movs; end at +12 tears the second.
  auto r = check_plan(make_plan(bin, {{"toysrv", d, 12}},
                                Removal::kWipeBlocks, Trap::kTerminate));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(rule_mentions(r, kRuleBoundary, "mid-instruction"));
  // The same range under first-byte removal only patches the first byte —
  // no boundary finding at all.
  auto r2 = check_plan(make_plan(bin, {{"toysrv", d, 12}},
                                 Removal::kBlockFirstByte, Trap::kTerminate));
  EXPECT_TRUE(r2.by_rule(kRuleBoundary).empty());
}

TEST(RuleBoundaryTest, RangePastCodeEndIsWarningNotError) {
  auto bin = dynacut::testing::build_toysrv();
  uint64_t d = bin->find_symbol("dispatch")->value;
  auto r = check_plan(make_plan(bin, {{"toysrv", d, 8192}},
                                Removal::kWipeBlocks, Trap::kTerminate));
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(rule_count(r, kRuleBoundary, Severity::kWarning), 1u);
}

// --- CC002 stray edges ---------------------------------------------------

std::shared_ptr<const Binary> build_stray_guest(uint64_t* cut_start,
                                                uint64_t* cut_mid,
                                                uint64_t* cut_end) {
  ProgramBuilder b("stray");
  auto& f = b.func("f");
  f.cmp_ri(1, 0).je("mid");                          // entry block, live
  f.label("cut").mark("cut_start").mov_ri(2, 1).nop();
  f.label("mid").mark("cut_mid").mov_ri(2, 2).ret();
  auto bin = std::make_shared<Binary>(b.link());
  *cut_start = bin->find_symbol("cut_start")->value;
  *cut_mid = bin->find_symbol("cut_mid")->value;
  *cut_end = *cut_mid + 11;  // mov(10) + ret(1)
  return bin;
}

TEST(RuleStrayEdgeTest, LiveEdgeIntoWipedInteriorIsErrorUnderRedirectish) {
  uint64_t cs = 0, cm = 0, ce = 0;
  auto bin = build_stray_guest(&cs, &cm, &ce);
  // One range spanning both blocks: the je edge lands at cut_mid, which is
  // inside the range but not a range start.
  auto r = check_plan(
      make_plan(bin, {{"stray", cs, static_cast<uint32_t>(ce - cs)}},
                Removal::kWipeBlocks, Trap::kVerify));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(rule_count(r, kRuleStrayEdge, Severity::kError), 1u);
}

TEST(RuleStrayEdgeTest, SameStrayEdgeUnderTerminateIsWarning) {
  uint64_t cs = 0, cm = 0, ce = 0;
  auto bin = build_stray_guest(&cs, &cm, &ce);
  auto r = check_plan(
      make_plan(bin, {{"stray", cs, static_cast<uint32_t>(ce - cs)}},
                Removal::kWipeBlocks, Trap::kTerminate));
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(rule_count(r, kRuleStrayEdge, Severity::kWarning), 1u);
}

TEST(RuleStrayEdgeTest, EdgesOntoRangeStartsAreFine) {
  uint64_t cs = 0, cm = 0, ce = 0;
  auto bin = build_stray_guest(&cs, &cm, &ce);
  // Per-block ranges: every inbound edge lands on a range start.
  auto r = check_plan(
      make_plan(bin,
                {{"stray", cs, static_cast<uint32_t>(cm - cs)},
                 {"stray", cm, static_cast<uint32_t>(ce - cm)}},
                Removal::kWipeBlocks, Trap::kVerify));
  EXPECT_TRUE(r.by_rule(kRuleStrayEdge).empty());
  EXPECT_TRUE(r.ok());
}

TEST(RuleStrayEdgeTest, FirstByteRemovalSkipsTheRule) {
  uint64_t cs = 0, cm = 0, ce = 0;
  auto bin = build_stray_guest(&cs, &cm, &ce);
  auto r = check_plan(
      make_plan(bin, {{"stray", cs, static_cast<uint32_t>(ce - cs)}},
                Removal::kBlockFirstByte, Trap::kVerify));
  EXPECT_TRUE(r.by_rule(kRuleStrayEdge).empty());
}

// --- CC003 redirect ------------------------------------------------------

CutPlan redirect_plan(std::shared_ptr<const Binary> bin,
                      std::vector<CovBlock> blocks, uint64_t target) {
  CutPlan p = make_plan(std::move(bin), std::move(blocks),
                        Removal::kBlockFirstByte, Trap::kRedirect);
  p.has_redirect = true;
  p.redirect_offset = target;
  return p;
}

TEST(RuleRedirectTest, TargetMidInstructionIsError) {
  auto bin = dynacut::testing::build_toysrv();
  uint64_t err = bin->find_symbol("dispatch_err")->value;
  uint64_t d = bin->find_symbol("dispatch")->value;
  auto r = check_plan(redirect_plan(bin, {{"toysrv", d, 1}}, err + 1));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(rule_mentions(r, kRuleRedirect, "instruction start"));
}

TEST(RuleRedirectTest, TargetOutsideAnyFunctionIsError) {
  // 0: jmp +1 -> 6;  5: nop (dead);  6: ret.  Symbol f only covers [0, 5),
  // so offset 6 is a reachable instruction start outside every function.
  std::vector<uint8_t> code;
  isa::Encoder enc(code);
  enc.branch(isa::Op::kJmp, 1);
  enc.nop();
  enc.ret();
  auto bin =
      std::make_shared<Binary>(raw_binary(code, {func_symbol("f", 0, 5)}));
  auto r = check_plan(redirect_plan(bin, {{"hand", 0, 1}}, 6));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(rule_mentions(r, kRuleRedirect, "outside every function"));
}

TEST(RuleRedirectTest, PltStubTargetIsCrossFunctionError) {
  // PLT stubs carry their own @plt function symbols; redirecting into one
  // is rejected by the same-function restriction, not the no-symbol check.
  auto bin = dynacut::testing::build_toysrv();
  uint64_t stub = *bin->plt_stub_offset("write_str");
  uint64_t d = bin->find_symbol("dispatch")->value;
  auto r = check_plan(redirect_plan(bin, {{"toysrv", d, 1}}, stub));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(rule_mentions(r, kRuleRedirect, "no removed block"));
}

TEST(RuleRedirectTest, CrossFunctionRedirectIsError) {
  auto bin = dynacut::testing::build_toysrv();
  uint64_t err = bin->find_symbol("dispatch_err")->value;
  uint64_t ha = bin->find_symbol("handle_a")->value;
  auto r = check_plan(redirect_plan(bin, {{"toysrv", ha, 1}}, err));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(rule_mentions(r, kRuleRedirect, "no removed block"));
}

TEST(RuleRedirectTest, SameFunctionRedirectPassesAndNotesOutsiders) {
  auto bin = dynacut::testing::build_toysrv();
  uint64_t err = bin->find_symbol("dispatch_err")->value;
  uint64_t d = bin->find_symbol("dispatch")->value;
  uint64_t ha = bin->find_symbol("handle_a")->value;
  auto r = check_plan(
      redirect_plan(bin, {{"toysrv", d, 1}, {"toysrv", ha, 1}}, err));
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(rule_count(r, kRuleRedirect, Severity::kNote), 1u);
}

TEST(RuleRedirectTest, TargetWithNoLivePathToExitWarns) {
  // g: entry -> (ok | cut); ok's only way out runs through fin, which the
  // plan removes: the redirect target can never finish a request.
  ProgramBuilder b("g");
  auto& f = b.func("g");
  f.cmp_ri(1, 0).je("cut");
  f.label("ok").mark("tgt").mov_ri(2, 1).jmp("fin");
  f.label("cut").mov_ri(2, 2);
  f.label("fin").mark("fin").mov_ri(3, 1).ret();
  auto bin = std::make_shared<Binary>(b.link());
  uint64_t tgt = bin->find_symbol("tgt")->value;
  uint64_t fin = bin->find_symbol("fin")->value;
  auto r = check_plan(redirect_plan(bin, {{"g", fin, 1}}, tgt));
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(rule_mentions(r, kRuleRedirect, "return or syscall"));
}

// --- CC004 reachability amplification ------------------------------------

TEST(RuleReachAmpTest, DominatedBlocksAreReportedAsFreeRemovals) {
  ProgramBuilder b("amp");
  auto& f = b.func("f");
  f.cmp_ri(1, 0).je("bb");
  f.label("aa").mark("blk_a").mov_ri(2, 1).jmp("cc");
  f.label("cc").mov_ri(2, 3).jmp("dd");
  f.label("bb").mov_ri(2, 2);
  f.label("dd").ret();
  auto bin = std::make_shared<Binary>(b.link());
  uint64_t aa = bin->find_symbol("blk_a")->value;
  auto r = check_plan(make_plan(bin, {{"amp", aa, 1}},
                                Removal::kBlockFirstByte, Trap::kTerminate));
  EXPECT_TRUE(r.ok());
  // cc is only reachable through aa; dd joins two paths and is not flagged.
  EXPECT_TRUE(rule_mentions(r, kRuleReachAmp, "1 live block"));
}

TEST(RuleReachAmpTest, FunctionWithAllCallSitesCutIsReported) {
  auto bin = dynacut::testing::build_toysrv();
  StaticCfg cfg = recover_cfg(*bin);
  auto sites = call_sites(cfg, FunctionIndex(*bin));
  uint64_t ha = bin->find_symbol("handle_a")->value;
  ASSERT_TRUE(sites.count(ha));
  std::vector<CovBlock> blocks;
  for (uint64_t s : sites.at(ha)) {
    blocks.push_back({"toysrv", s, 1});
  }
  auto r = check_plan(make_plan(bin, std::move(blocks),
                                Removal::kBlockFirstByte, Trap::kTerminate));
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(rule_mentions(r, kRuleReachAmp, "handle_a"));
}

// --- CC005 page safety ---------------------------------------------------

std::shared_ptr<const Binary> build_padded_guest() {
  ProgramBuilder b("padded");
  b.func("lead").mov_ri(1, 1).ret();
  auto& f = b.func("filler");
  for (int i = 0; i < 2200; ++i) f.nop();
  f.ret();
  return std::make_shared<Binary>(b.link());
}

TEST(RulePageSafetyTest, DoubleCountedRangesDroppingLiveCodeIsError) {
  auto bin = build_padded_guest();
  uint64_t filler = bin->find_symbol("filler")->value;
  // Two copies of a half-page range: the rewriter's accounting sums them to
  // a full page and unmaps it — lead and the filler tail were never covered.
  auto r = check_plan(make_plan(bin,
                                {{"padded", filler, 2048},
                                 {"padded", filler, 2048}},
                                Removal::kUnmapPages, Trap::kTerminate));
  EXPECT_FALSE(r.ok());
  EXPECT_GE(rule_count(r, kRulePageSafety, Severity::kError), 1u);
  EXPECT_TRUE(rule_mentions(r, kRulePageSafety, "per-range accounting"));
}

TEST(RulePageSafetyTest, UncoveredNonCodeBytesAreOnlyWarnings) {
  auto bin = dynacut::testing::build_toysrv();
  const melf::Section* text = bin->section(melf::SectionKind::kText);
  ASSERT_NE(text, nullptr);
  ASSERT_LT(text->bytes.size(), 2048u);  // all code fits the first half page
  auto r = check_plan(make_plan(bin,
                                {{"toysrv", 0, 2048}, {"toysrv", 0, 2048}},
                                Removal::kUnmapPages, Trap::kTerminate));
  // Page 0 is dropped, its second half was never named — but there is no
  // code there, so nothing is provably broken.
  EXPECT_TRUE(r.ok());
  EXPECT_GE(rule_count(r, kRulePageSafety, Severity::kWarning), 1u);
}

TEST(RulePageSafetyTest, PltStubOnDroppedPageStillCalledIsError) {
  auto bin = dynacut::testing::build_toysrv();
  const melf::Section* plt = bin->section(melf::SectionKind::kPlt);
  ASSERT_NE(plt, nullptr);
  uint64_t off = plt->offset + melf::Binary::kPltStubSize;
  auto r = check_plan(make_plan(bin,
                                {{"toysrv", off, 2048}, {"toysrv", off, 2048}},
                                Removal::kUnmapPages, Trap::kTerminate));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(rule_mentions(r, kRulePageSafety, "PLT stub"));
}

TEST(RulePageSafetyTest, GotSlotOnDroppedPageWithLiveStubIsError) {
  auto bin = dynacut::testing::build_toysrv();
  const melf::Section* got = bin->section(melf::SectionKind::kGot);
  ASSERT_NE(got, nullptr);
  auto r = check_plan(
      make_plan(bin,
                {{"toysrv", got->offset, 2048}, {"toysrv", got->offset, 2048}},
                Removal::kUnmapPages, Trap::kTerminate));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(rule_mentions(r, kRulePageSafety, "GOT slot"));
}

TEST(RulePageSafetyTest, OtherPoliciesSkipTheRule) {
  auto bin = build_padded_guest();
  uint64_t filler = bin->find_symbol("filler")->value;
  auto r = check_plan(make_plan(bin,
                                {{"padded", filler, 2048},
                                 {"padded", filler, 2048}},
                                Removal::kWipeBlocks, Trap::kTerminate));
  EXPECT_TRUE(r.by_rule(kRulePageSafety).empty());
}

// --- CC006 gadget delta --------------------------------------------------

TEST(RuleGadgetTest, WipingRetfulCodeReducesGadgetStarts) {
  auto bin = dynacut::testing::build_toysrv();
  const melf::Symbol* ha = bin->find_symbol("handle_a");
  auto r = check_plan(make_plan(
      bin, {{"toysrv", ha->value, static_cast<uint32_t>(ha->size)}},
      Removal::kWipeBlocks, Trap::kTerminate));
  EXPECT_TRUE(r.ok());
  EXPECT_LT(r.gadget_delta, 0);
  EXPECT_FALSE(r.by_rule(kRuleGadget).empty());
}

TEST(RuleGadgetTest, DisabledByOptions) {
  auto bin = dynacut::testing::build_toysrv();
  uint64_t d = bin->find_symbol("dispatch")->value;
  CheckOptions opts;
  opts.gadget_delta = false;
  auto r = check_plan(make_plan(bin, {{"toysrv", d, 1}},
                                Removal::kBlockFirstByte, Trap::kTerminate),
                      opts);
  EXPECT_TRUE(r.by_rule(kRuleGadget).empty());
  EXPECT_EQ(r.gadget_delta, 0);
}

// --- CC013 stub reachability / CC014 stub reversibility ------------------

/// `feat` is a single-block leaf called once from main — the cleanest
/// possible stub cut: one wholly-cut function, one block-terminating
/// callsite.
std::shared_ptr<const Binary> build_stub_rule_guest() {
  ProgramBuilder b("stubg");
  b.func("feat").mov_ri(0, 7).ret();
  b.func("other").mov_ri(0, 8).ret();
  auto& m = b.func("main");
  m.mark("site").call("feat");
  m.mov_ri(0, 0).ret();
  return std::make_shared<Binary>(b.link());
}

CutPlan stub_plan(std::shared_ptr<const Binary> bin, const char* func,
                  Mechanism mech, Removal removal = Removal::kBlockFirstByte) {
  const melf::Symbol* f = bin->find_symbol(func);
  CutPlan p = make_plan(
      bin, {{bin->name, f->value, static_cast<uint32_t>(f->size)}}, removal,
      Trap::kTerminate);
  p.mechanism = mech;
  return p;
}

TEST(RuleStubReachabilityTest, CleanWholeFunctionStubPlanPasses) {
  auto bin = build_stub_rule_guest();
  auto r = check_plan(stub_plan(bin, "feat", Mechanism::kStub));
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(rule_count(r, kRuleStubReachability, Severity::kError), 0u);
  EXPECT_TRUE(r.by_rule(kRuleStubReversibility).empty());
}

TEST(RuleStubReachabilityTest, UnmapRemovalWithStubMechanismIsError) {
  auto bin = build_stub_rule_guest();
  auto r =
      check_plan(stub_plan(bin, "feat", Mechanism::kStub, Removal::kUnmapPages));
  EXPECT_GE(rule_count(r, kRuleStubReachability, Severity::kError), 1u);
  EXPECT_TRUE(rule_mentions(r, kRuleStubReachability, "SIGSEGV"));
}

TEST(RuleStubReachabilityTest, ExplicitNonFunctionEntryIsError) {
  auto bin = build_stub_rule_guest();
  CutPlan p = stub_plan(bin, "feat", Mechanism::kStub);
  p.stub_entries = {bin->find_symbol("feat")->value + 1};
  auto r = check_plan(p);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(rule_mentions(r, kRuleStubReachability, "not a function-entry"));
}

TEST(RuleStubReachabilityTest, ExplicitEntryOutsideTheCutIsError) {
  auto bin = build_stub_rule_guest();
  // Cut `other`, pin `feat`: the stub would deny a feature the plan keeps.
  CutPlan p = stub_plan(bin, "other", Mechanism::kStub);
  p.stub_entries = {bin->find_symbol("feat")->value};
  auto r = check_plan(p);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(rule_mentions(r, kRuleStubReachability, "keeps live"));
}

TEST(RuleStubReachabilityTest, PartiallyCutEntryWarnsButPasses) {
  ProgramBuilder b("partial");
  auto& f = b.func("feat2");
  f.cmp_ri(1, 0).je("tail");
  f.mov_ri(2, 1);
  f.label("tail").mov_ri(0, 0).ret();
  auto& m = b.func("main");
  m.call("feat2").ret();
  auto bin = std::make_shared<Binary>(b.link());
  const melf::Symbol* f2 = bin->find_symbol("feat2");
  // Cut only the entry block and pin it: live interior blocks remain.
  analysis::StaticCfg cfg = recover_cfg(*bin);
  auto bit = cfg.blocks.find(f2->value);
  ASSERT_NE(bit, cfg.blocks.end());
  uint64_t first_block_end = bit->first + bit->second.size;
  ASSERT_GT(first_block_end, f2->value);
  CutPlan p = make_plan(
      bin,
      {{"partial", f2->value,
        static_cast<uint32_t>(first_block_end - f2->value)}},
      Removal::kBlockFirstByte, Trap::kTerminate);
  p.mechanism = Mechanism::kStub;
  p.stub_entries = {f2->value};
  auto r = check_plan(p);
  EXPECT_TRUE(r.ok());
  EXPECT_GE(rule_count(r, kRuleStubReachability, Severity::kWarning), 1u);
  EXPECT_TRUE(rule_mentions(r, kRuleStubReachability, "partially cut"));
}

std::shared_ptr<const Binary> build_taken_guest() {
  ProgramBuilder b("takeng");
  b.func("feat").mov_ri(0, 7).ret();
  auto& m = b.func("main");
  m.mov_sym(5, "feat");  // address-taken: kAbs64 reloc into feat
  m.call("feat").ret();
  return std::make_shared<Binary>(b.link());
}

TEST(RuleStubReachabilityTest, AutoDemotesAddressTakenToTrapWithNote) {
  auto bin = build_taken_guest();
  auto r = check_plan(stub_plan(bin, "feat", Mechanism::kAuto));
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(rule_count(r, kRuleStubReachability, Severity::kError), 0u);
  EXPECT_TRUE(rule_mentions(r, kRuleStubReachability, "pointer-reachable"));
}

TEST(RuleStubReachabilityTest, PinningAddressTakenEntryUnderAutoIsError) {
  auto bin = build_taken_guest();
  CutPlan p = stub_plan(bin, "feat", Mechanism::kAuto);
  p.stub_entries = {bin->find_symbol("feat")->value};
  auto r = check_plan(p);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(rule_mentions(r, kRuleStubReachability, "contradicting the pin"));
}

TEST(RuleStubReachabilityTest, ForcedStubOnAddressTakenEntryOnlyNotes) {
  auto bin = build_taken_guest();
  auto r = check_plan(stub_plan(bin, "feat", Mechanism::kStub));
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(rule_count(r, kRuleStubReachability, Severity::kError), 0u);
  EXPECT_TRUE(rule_mentions(r, kRuleStubReachability, "bypass the stub"));
}

/// main's entry block ends at the call terminator, so `site` sits mid-block
/// when the block's own bytes are in the cut.
std::shared_ptr<const Binary> build_midblock_site_guest(uint64_t* site,
                                                        uint64_t* site_end) {
  ProgramBuilder b("rev");
  b.func("feat").mov_ri(0, 7).ret();
  auto& m = b.func("main");
  m.mov_ri(1, 1);
  m.mark("site").call("feat");
  m.mov_ri(0, 0).ret();
  auto bin = std::make_shared<Binary>(b.link());
  *site = bin->find_symbol("site")->value;
  *site_end = *site + 5;  // kCall is 5 bytes
  return bin;
}

TEST(RuleStubReversibilityTest, WipeOverlappingAnExplicitSiteIsError) {
  uint64_t site = 0, site_end = 0;
  auto bin = build_midblock_site_guest(&site, &site_end);
  const melf::Symbol* feat = bin->find_symbol("feat");
  const melf::Symbol* mn = bin->find_symbol("main");
  // Wipe both feat and main's first block; pin feat so the mid-block
  // callsite is planned as a redirect. The 5 patched bytes then overlap
  // bytes the wipe rewrites — order-dependent pre-images.
  CutPlan p = make_plan(
      bin,
      {{"rev", feat->value, static_cast<uint32_t>(feat->size)},
       {"rev", mn->value, static_cast<uint32_t>(site_end - mn->value)}},
      Removal::kWipeBlocks, Trap::kTerminate);
  p.mechanism = Mechanism::kStub;
  p.stub_entries = {feat->value};
  auto r = check_plan(p);
  EXPECT_FALSE(r.ok());
  EXPECT_GE(rule_count(r, kRuleStubReversibility, Severity::kError), 1u);
  EXPECT_TRUE(rule_mentions(r, kRuleStubReversibility, "order-dependent"));
}

TEST(RuleStubReversibilityTest, DerivedPlanLeavesMidBlockSiteOnTheNet) {
  uint64_t site = 0, site_end = 0;
  auto bin = build_midblock_site_guest(&site, &site_end);
  const melf::Symbol* feat = bin->find_symbol("feat");
  const melf::Symbol* mn = bin->find_symbol("main");
  // Same cut without the pin: plan_stubs leaves the mid-block callsite on
  // the int3 net (CC013 note), so no overlapping patch exists.
  CutPlan p = make_plan(
      bin,
      {{"rev", feat->value, static_cast<uint32_t>(feat->size)},
       {"rev", mn->value, static_cast<uint32_t>(site_end - mn->value)}},
      Removal::kWipeBlocks, Trap::kTerminate);
  p.mechanism = Mechanism::kStub;
  auto r = check_plan(p);
  EXPECT_TRUE(r.by_rule(kRuleStubReversibility).empty());
  EXPECT_TRUE(rule_mentions(r, kRuleStubReachability, "int3 net"));
}

TEST(RuleStubReversibilityTest, TrapMechanismSkipsBothStubRules) {
  uint64_t site = 0, site_end = 0;
  auto bin = build_midblock_site_guest(&site, &site_end);
  const melf::Symbol* feat = bin->find_symbol("feat");
  auto r = check_plan(make_plan(
      bin, {{"rev", feat->value, static_cast<uint32_t>(feat->size)}},
      Removal::kWipeBlocks, Trap::kTerminate));
  EXPECT_TRUE(r.by_rule(kRuleStubReachability).empty());
  EXPECT_TRUE(r.by_rule(kRuleStubReversibility).empty());
}

// --- plan extraction and merged checking ---------------------------------

TEST(ExtractPlansTest, GroupsBlocksPerModuleAndBindsBinaries) {
  auto bin = dynacut::testing::build_toysrv();
  uint64_t d = bin->find_symbol("dispatch")->value;
  uint64_t err = bin->find_symbol("dispatch_err")->value;
  std::vector<rw::ModuleRef> mods = {{"toysrv", bin}};
  std::vector<CovBlock> blocks = {{"toysrv", d, 1}, {"ghost", 0x10, 1}};
  auto plans = rw::extract_plans(mods, "feat", blocks, Removal::kWipeBlocks,
                                 Trap::kRedirect, "toysrv", err);
  ASSERT_EQ(plans.size(), 2u);
  const CutPlan* toysrv = nullptr;
  const CutPlan* ghost = nullptr;
  for (const auto& p : plans) {
    if (p.module == "toysrv") toysrv = &p;
    if (p.module == "ghost") ghost = &p;
  }
  ASSERT_NE(toysrv, nullptr);
  ASSERT_NE(ghost, nullptr);
  EXPECT_EQ(toysrv->binary, bin);
  EXPECT_TRUE(toysrv->has_redirect);
  EXPECT_EQ(toysrv->redirect_offset, err);
  EXPECT_EQ(ghost->binary, nullptr);
  EXPECT_FALSE(ghost->has_redirect);
}

TEST(ExtractPlansTest, RedirectModuleGetsAPlanEvenWithoutBlocks) {
  auto bin = dynacut::testing::build_toysrv();
  std::vector<rw::ModuleRef> mods = {{"toysrv", bin}};
  auto plans =
      rw::extract_plans(mods, "feat", {}, Removal::kBlockFirstByte,
                        Trap::kRedirect, "toysrv", 0x20);
  ASSERT_EQ(plans.size(), 1u);
  EXPECT_TRUE(plans[0].has_redirect);
  EXPECT_TRUE(plans[0].blocks.empty());
}

TEST(CheckPlansTest, UnloadedModuleWarnsAndUnloadedRedirectErrors) {
  CutPlan missing;
  missing.feature = "f";
  missing.module = "ghost";
  missing.blocks = {{"ghost", 0, 1}};
  auto r1 = check_plan(missing);
  EXPECT_TRUE(r1.ok());
  EXPECT_EQ(r1.warnings(), 1u);

  missing.trap = Trap::kRedirect;
  missing.has_redirect = true;
  auto r2 = check_plan(missing);
  EXPECT_FALSE(r2.ok());
  EXPECT_FALSE(r2.by_rule(kRuleRedirect).empty());
}

TEST(CheckPlansTest, MergeSumsFindingsAndGadgetDelta) {
  auto bin = dynacut::testing::build_toysrv();
  const melf::Symbol* ha = bin->find_symbol("handle_a");
  const melf::Symbol* hb = bin->find_symbol("handle_b");
  std::vector<CutPlan> plans = {
      make_plan(bin, {{"toysrv", ha->value, (uint32_t)ha->size}},
                Removal::kWipeBlocks, Trap::kTerminate),
      make_plan(bin, {{"toysrv", hb->value, (uint32_t)hb->size}},
                Removal::kWipeBlocks, Trap::kTerminate)};
  auto merged = check_plans(plans);
  auto r1 = check_plan(plans[0]);
  auto r2 = check_plan(plans[1]);
  EXPECT_EQ(merged.diags.size(), r1.diags.size() + r2.diags.size());
  EXPECT_EQ(merged.gadget_delta, r1.gadget_delta + r2.gadget_delta);
}

// --- DynaCut integration -------------------------------------------------

struct BootedToysrv {
  os::Os vos;
  int pid = 0;
  std::shared_ptr<const melf::Binary> bin;

  BootedToysrv() {
    bin = dynacut::testing::build_toysrv();
    pid = vos.spawn(bin, {apps::build_libc()});
    vos.run();
  }
};

TEST(DynaCutEnforceTest, RejectsMidInstructionPlan) {
  BootedToysrv t;
  core::DynaCut dc(t.vos, t.pid);
  core::FeatureSpec spec;
  spec.name = "skewed";
  spec.blocks = {{"toysrv", t.bin->find_symbol("dispatch")->value + 1, 1}};
  EXPECT_THROW(dc.disable_feature({spec, core::RemovalPolicy::kBlockFirstByte,
                                  core::TrapPolicy::kTerminate}),
               StateError);
  EXPECT_FALSE(dc.feature_disabled("skewed"));
}

TEST(DynaCutEnforceTest, RejectsDoubleCountedUnmapPlan) {
  BootedToysrv t;
  core::DynaCut dc(t.vos, t.pid);
  uint64_t d = t.bin->find_symbol("dispatch")->value;
  core::FeatureSpec spec;
  spec.name = "doubled";
  spec.blocks = {{"toysrv", d, 2048}, {"toysrv", d, 2048}};
  try {
    dc.disable_feature({spec, core::RemovalPolicy::kUnmapPages,
                       core::TrapPolicy::kTerminate});
    FAIL() << "plan should have been rejected";
  } catch (const StateError& e) {
    EXPECT_NE(std::string(e.what()).find(kRulePageSafety),
              std::string::npos);
  }
  EXPECT_FALSE(dc.feature_disabled("doubled"));
}

TEST(DynaCutEnforceTest, RejectsCrossFunctionRedirect) {
  BootedToysrv t;
  core::DynaCut dc(t.vos, t.pid);
  core::FeatureSpec spec;
  spec.name = "cross";
  spec.blocks = {{"toysrv", t.bin->find_symbol("handle_a")->value, 1}};
  spec.redirect_module = "toysrv";
  spec.redirect_offset = t.bin->find_symbol("dispatch_err")->value;
  try {
    dc.disable_feature({spec, core::RemovalPolicy::kBlockFirstByte,
                       core::TrapPolicy::kRedirect});
    FAIL() << "plan should have been rejected";
  } catch (const StateError& e) {
    EXPECT_NE(std::string(e.what()).find(kRuleRedirect), std::string::npos);
  }
}

TEST(DynaCutCheckModeTest, WarnModeAppliesRejectablePlans) {
  BootedToysrv t;
  core::DynaCut dc(t.vos, t.pid);
  dc.set_check_mode(core::CheckMode::kWarn);
  EXPECT_EQ(dc.check_mode(), core::CheckMode::kWarn);
  core::FeatureSpec spec;
  spec.name = "skewed";
  spec.blocks = {{"toysrv", t.bin->find_symbol("dispatch")->value + 1, 1}};
  dc.disable_feature({spec, core::RemovalPolicy::kBlockFirstByte,
                     core::TrapPolicy::kTerminate});
  EXPECT_TRUE(dc.feature_disabled("skewed"));
  dc.restore_feature("skewed");
}

TEST(DynaCutCheckModeTest, OffModeSkipsVerification) {
  BootedToysrv t;
  core::DynaCut dc(t.vos, t.pid, {}, core::CheckMode::kOff);
  core::FeatureSpec spec;
  spec.name = "skewed";
  spec.blocks = {{"toysrv", t.bin->find_symbol("dispatch")->value + 1, 1}};
  dc.disable_feature({spec, core::RemovalPolicy::kBlockFirstByte,
                     core::TrapPolicy::kTerminate});
  EXPECT_TRUE(dc.feature_disabled("skewed"));
  dc.restore_feature("skewed");
}

TEST(DynaCutCheckModeTest, PreflightReportsWithoutTouchingTheProcess) {
  BootedToysrv t;
  core::DynaCut dc(t.vos, t.pid);
  StaticCfg cfg = recover_cfg(*t.bin);
  auto sites = call_sites(cfg, FunctionIndex(*t.bin));
  uint64_t ha = t.bin->find_symbol("handle_a")->value;
  core::FeatureSpec spec;
  spec.name = "armA";
  for (uint64_t s : sites.at(ha)) spec.blocks.push_back({"toysrv", s, 1});
  auto report = dc.preflight({spec, core::RemovalPolicy::kBlockFirstByte,
                             core::TrapPolicy::kTerminate});
  EXPECT_TRUE(report.ok());
  EXPECT_GE(report.notes(), 1u);       // reach-amp + gadget notes
  EXPECT_FALSE(dc.feature_disabled("armA"));
}

}  // namespace
}  // namespace dynacut::analysis::cutcheck
