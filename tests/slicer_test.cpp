// Tests for the interprocedural feature slicer (src/analysis/slicer):
// dataflow lattice and stack depths, indirect-target resolution
// (PLT / jump table / exact offset / unresolved), feature_slice closure
// witnesses, plan expansion, the cutcheck rule matrix CC007–CC012 (one
// guest that trips each rule and one near-miss that must not), and the
// DynaCut expand_to_slice integration.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "analysis/cfg.hpp"
#include "analysis/cutcheck/checker.hpp"
#include "analysis/slicer/dataflow.hpp"
#include "analysis/slicer/slicer.hpp"
#include "apps/libc.hpp"
#include "apps/minihttpd.hpp"
#include "apps/minikv.hpp"
#include "apps/miniweb.hpp"
#include "apps/specgen.hpp"
#include "common/error.hpp"
#include "common/hex.hpp"
#include "core/dynacut.hpp"
#include "melf/builder.hpp"
#include "obs/bus.hpp"
#include "os/os.hpp"
#include "test_guests.hpp"

namespace dynacut {
namespace {

namespace slicer = analysis::slicer;
namespace cutcheck = analysis::cutcheck;
using analysis::CfgBlock;
using analysis::CovBlock;
using cutcheck::CheckReport;
using cutcheck::CutPlan;
using cutcheck::Removal;
using cutcheck::Severity;
using cutcheck::Trap;
using melf::ProgramBuilder;
using slicer::AbsVal;

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
  for (const cutcheck::Diagnostic* d : r.by_rule(rule)) {
    if (d->severity == sev) ++n;
  }
  return n;
}

bool rule_mentions(const CheckReport& r, const char* rule,
                   const std::string& text) {
  for (const cutcheck::Diagnostic* d : r.by_rule(rule)) {
    if (d->message.find(text) != std::string::npos) return true;
  }
  return false;
}

/// Block start + size of the CFG block starting at `off`.
CovBlock whole_block(const slicer::SliceModel& m, const std::string& module,
                     uint64_t off) {
  const CfgBlock* blk = m.cfg.block_at(off);
  EXPECT_NE(blk, nullptr) << "no block at " << off;
  return {module, off, blk != nullptr ? blk->size : 1};
}

// --- test guests ---------------------------------------------------------

/// drive() calls through a two-entry function-pointer table in .data:
/// the canonical jump-table shape the slicer must enumerate.
std::shared_ptr<const melf::Binary> build_table_guest() {
  ProgramBuilder b("tbl");
  b.func("alpha").mov_ri(0, 1).ret();
  b.func("beta").mov_ri(0, 2).ret();
  auto& d = b.func("drive");
  d.shl_ri(1, 3)        // r1 = index * 8 (index statically unknown)
      .lea_sym(2, "tbl")
      .add_rr(2, 1)     // table base + unknown delta
      .load(3, 2, 0)    // table_val(tbl)
      .callr(3)
      .ret();
  b.data_ptr("tbl", "alpha");
  b.data_ptr("tbl_1", "beta");  // contiguous with "tbl": one 2-entry table
  b.set_entry("drive");
  return std::make_shared<melf::Binary>(b.link());
}

/// go() register-calls one exact function address (kDirect).
std::shared_ptr<const melf::Binary> build_direct_guest() {
  ProgramBuilder b("dir");
  b.func("target_fn").mov_ri(0, 7).ret();
  auto& g = b.func("go");
  g.lea_sym(1, "target_fn").callr(1).ret();
  b.set_entry("go");
  return std::make_shared<melf::Binary>(b.link());
}

/// go() calls through a pointer read from writable bss — statically
/// unresolvable, which must pin the module against slice expansion.
std::shared_ptr<const melf::Binary> build_unresolved_guest() {
  ProgramBuilder b("unres");
  b.bss("fp", 8);
  auto& g = b.func("go");
  g.mov_sym(1, "fp").load(2, 1, 0).callr(2).ret();
  b.func("spare").mov_ri(0, 3).ret();
  b.set_entry("go");
  return std::make_shared<melf::Binary>(b.link());
}

/// go() tail-jumps to the mark "inner" in the middle of victim's only
/// block — a resolved indirect target that is not a block entry.
std::shared_ptr<const melf::Binary> build_interior_target_guest() {
  ProgramBuilder b("esc");
  auto& f = b.func("victim");
  f.mov_ri(0, 1).mark("inner").mov_ri(0, 2).ret();
  auto& g = b.func("go");
  g.lea_sym(1, "inner").jmpr(1);
  b.set_entry("go");
  return std::make_shared<melf::Binary>(b.link());
}

/// A .data pointer aimed at the mark "vt_inner" inside victim; no code
/// references it, so only CC009 can see the hazard.
std::shared_ptr<const melf::Binary> build_data_pointer_guest() {
  ProgramBuilder b("dptr");
  auto& f = b.func("victim");
  f.mov_ri(0, 1).mark("vt_inner").mov_ri(0, 2).ret();
  b.func("keeper").mov_ri(0, 0).ret();
  b.data_ptr("vt", "vt_inner");
  b.set_entry("keeper");
  return std::make_shared<melf::Binary>(b.link());
}

/// f() has an error stub at depth 0 ("f_err") plus a block at depth -8
/// ("f_site", inside a push/pop pair) and one at depth 0 ("f_deep").
std::shared_ptr<const melf::Binary> build_stack_guest() {
  ProgramBuilder b("stk");
  auto& f = b.func("f");
  f.cmp_ri(1, 0).je("err_lbl");
  f.mark("f_deep").push(12).cmp_ri(1, 1).je("site").pop(12).ret();
  f.label("site").mark("f_site").pop(12).mov_ri(0, 1).ret();
  f.label("err_lbl").mark("f_err").mov_ri(0, 9).ret();
  b.set_entry("f");
  return std::make_shared<melf::Binary>(b.link());
}

/// writer() stores to 'stat', reader() is its only resolvable reader.
std::shared_ptr<const melf::Binary> build_store_guest() {
  ProgramBuilder b("ds");
  b.bss("stat", 8);
  b.func("writer").mov_sym(1, "stat").mov_ri(2, 7).store(1, 0, 2).ret();
  b.func("reader").mov_sym(1, "stat").load(2, 1, 0).ret();
  b.func("main").call("writer").call("reader").mov_ri(0, 0).ret();
  b.set_entry("main");
  return std::make_shared<melf::Binary>(b.link());
}

/// The dispatch block that calls handle_a — the natural coverage seed for
/// "feature A" and the anchor of most closure tests.
uint64_t arm_a_block(const slicer::SliceModel& m,
                     const melf::Binary& bin) {
  uint64_t ha = bin.find_symbol("handle_a")->value;
  auto it = m.deps.callers.find(ha);
  EXPECT_TRUE(it != m.deps.callers.end() && it->second.size() == 1);
  return it->second.front();
}

// --- dataflow: lattice and stack depths ----------------------------------

TEST(DataflowTest, JoinLattice) {
  EXPECT_EQ(join(AbsVal::konst(5), AbsVal::konst(5)), AbsVal::konst(5));
  EXPECT_EQ(join(AbsVal::konst(1), AbsVal::konst(2)), AbsVal::unknown());
  EXPECT_EQ(join(AbsVal::mod_off(0x40), AbsVal::mod_off(0x10)),
            AbsVal::mod_off_var(0x10));
  EXPECT_EQ(join(AbsVal::unknown(), AbsVal::mod_off(8)), AbsVal::unknown());
  EXPECT_EQ(join(AbsVal::import(3), AbsVal::import(3)), AbsVal::import(3));
}

TEST(DataflowTest, StackDepthsAndLiveness) {
  auto bin = build_stack_guest();
  analysis::StaticCfg cfg = analysis::recover_cfg(*bin);
  auto funcs = analysis::split_functions(cfg, analysis::FunctionIndex(*bin));
  uint64_t entry = bin->find_symbol("f")->value;
  ASSERT_TRUE(funcs.count(entry));
  const std::map<uint64_t, int64_t> depth =
      slicer::stack_depth_in(cfg, funcs.at(entry));

  uint64_t deep = bin->find_symbol("f_deep")->value;
  uint64_t site = bin->find_symbol("f_site")->value;
  uint64_t err = bin->find_symbol("f_err")->value;
  ASSERT_TRUE(depth.count(deep));
  EXPECT_EQ(depth.at(deep), 0);
  EXPECT_EQ(depth.at(site), -8);  // inside the push(12) frame
  EXPECT_EQ(depth.at(err), 0);
  // f_deep's block pushes and branches out: its stack delta is -8.
  EXPECT_EQ(depth.at(site) - depth.at(deep), -8);
}

TEST(DataflowTest, ResolvableAccessesBecomeMemRefs) {
  auto bin = build_store_guest();
  slicer::SliceModel m = slicer::analyze(*bin);
  uint64_t stat = bin->find_symbol("stat")->value;
  bool saw_store = false, saw_load = false;
  for (const auto& ref : m.mdf.mem_refs) {
    if (ref.target != stat) continue;
    EXPECT_TRUE(ref.exact);
    (ref.is_store ? saw_store : saw_load) = true;
  }
  EXPECT_TRUE(saw_store);
  EXPECT_TRUE(saw_load);
}

// --- indirect-target resolution ------------------------------------------

TEST(IndirectResolutionTest, PltStubsResolveToImports) {
  auto bin = dynacut::testing::build_toysrv();
  slicer::SliceModel m = slicer::analyze(*bin);
  EXPECT_TRUE(m.all_indirect_resolved);
  const std::set<std::string> imports = {"memset", "write_str", "recv_line",
                                         "strncmp"};
  ASSERT_FALSE(m.indirect.empty());
  for (const auto& site : m.indirect) {
    EXPECT_EQ(site.kind, slicer::IndirectSite::Kind::kPltImport);
    EXPECT_TRUE(imports.count(site.import_name))
        << "unexpected import " << site.import_name;
  }
}

TEST(IndirectResolutionTest, JumpTableEnumeratesTargets) {
  auto bin = build_table_guest();
  slicer::SliceModel m = slicer::analyze(*bin);
  EXPECT_TRUE(m.all_indirect_resolved);
  const slicer::IndirectSite* table = nullptr;
  for (const auto& s : m.indirect) {
    if (s.kind == slicer::IndirectSite::Kind::kTable) table = &s;
  }
  ASSERT_NE(table, nullptr);
  EXPECT_TRUE(table->is_call);
  std::vector<uint64_t> want = {bin->find_symbol("alpha")->value,
                                bin->find_symbol("beta")->value};
  EXPECT_EQ(table->targets, want);
}

TEST(IndirectResolutionTest, ExactOffsetResolvesToOneTarget) {
  auto bin = build_direct_guest();
  slicer::SliceModel m = slicer::analyze(*bin);
  EXPECT_TRUE(m.all_indirect_resolved);
  const slicer::IndirectSite* direct = nullptr;
  for (const auto& s : m.indirect) {
    if (s.kind == slicer::IndirectSite::Kind::kDirect) direct = &s;
  }
  ASSERT_NE(direct, nullptr);
  std::vector<uint64_t> want = {bin->find_symbol("target_fn")->value};
  EXPECT_EQ(direct->targets, want);
  // A resolved function-entry target is a caller edge, not a pinned one.
  EXPECT_TRUE(m.pinned_functions.empty());
  EXPECT_EQ(m.deps.callers.at(want[0]).size(), 1u);
}

TEST(IndirectResolutionTest, EscapedPointerStaysUnresolved) {
  auto bin = build_unresolved_guest();
  slicer::SliceModel m = slicer::analyze(*bin);
  EXPECT_FALSE(m.all_indirect_resolved);
  bool saw = false;
  for (const auto& s : m.indirect) {
    if (s.kind == slicer::IndirectSite::Kind::kUnresolved) saw = true;
  }
  EXPECT_TRUE(saw);
}

TEST(IndirectResolutionTest, AppsGuestsFullyResolve) {
  // Acceptance bar: the real guests in src/apps must resolve every
  // indirect transfer (their only register jumps are PLT stubs).
  for (auto bin : {apps::build_minikv(), apps::build_miniweb()}) {
    slicer::SliceModel m = slicer::analyze(*bin);
    EXPECT_TRUE(m.all_indirect_resolved) << bin->name;
  }
}

// --- feature_slice closure -----------------------------------------------

TEST(FeatureSliceTest, ClosurePullsDominatedAndExclusiveCallees) {
  auto bin = dynacut::testing::build_toysrv();
  slicer::SliceModel m = slicer::analyze(*bin);
  uint64_t arm = arm_a_block(m, *bin);
  uint64_t ha = bin->find_symbol("handle_a")->value;

  slicer::FeatureSlice slice = slicer::feature_slice(m, {arm});
  EXPECT_EQ(slice.seed_count, 1u);
  EXPECT_EQ(slice.witnesses.size(), slice.blocks.size());
  EXPECT_TRUE(slice.blocks.count(arm));
  EXPECT_TRUE(slice.blocks.count(ha)) << "handle_a not pulled by closure";
  // arm_a's fallthrough (mov r0,0; ret) is dominated by the seed.
  const CfgBlock* armblk = m.cfg.block_at(arm);
  ASSERT_NE(armblk, nullptr);
  EXPECT_TRUE(slice.blocks.count(arm + armblk->size));

  bool ha_by_call_closure = false, seed_witnessed = false;
  for (const auto& w : slice.witnesses) {
    if (w.block == ha && w.kind == slicer::Witness::Kind::kCallClosure) {
      ha_by_call_closure = true;
    }
    if (w.block == arm && w.kind == slicer::Witness::Kind::kSeed) {
      seed_witnessed = true;
    }
  }
  EXPECT_TRUE(ha_by_call_closure);
  EXPECT_TRUE(seed_witnessed);
  EXPECT_STREQ(slicer::witness_kind_name(slicer::Witness::Kind::kCallClosure),
               "call-closure");
}

TEST(FeatureSliceTest, KeepFunctionsBlocksCallClosure) {
  auto bin = dynacut::testing::build_toysrv();
  slicer::SliceModel m = slicer::analyze(*bin);
  uint64_t arm = arm_a_block(m, *bin);
  slicer::SliceOptions opts;
  opts.keep_functions.insert("handle_a");
  slicer::FeatureSlice slice = slicer::feature_slice(m, {arm}, opts);
  EXPECT_FALSE(slice.blocks.count(bin->find_symbol("handle_a")->value));
  EXPECT_GT(slice.blocks.size(), 1u);  // the dominated fallthrough still joins
}

TEST(FeatureSliceTest, UnresolvedModuleExpandsToSeedsOnly) {
  auto bin = build_unresolved_guest();
  slicer::SliceModel m = slicer::analyze(*bin);
  uint64_t spare = bin->find_symbol("spare")->value;
  slicer::FeatureSlice slice = slicer::feature_slice(m, {spare});
  EXPECT_EQ(slice.blocks, std::set<uint64_t>{spare});
  ASSERT_EQ(slice.witnesses.size(), 1u);
  EXPECT_EQ(slice.witnesses[0].kind, slicer::Witness::Kind::kSeed);
}

TEST(FeatureSliceTest, ExpandPlanIsIdempotent) {
  auto bin = dynacut::testing::build_toysrv();
  slicer::SliceModel m = slicer::analyze(*bin);
  uint64_t arm = arm_a_block(m, *bin);
  CutPlan plan = make_plan(bin, {whole_block(m, "toysrv", arm)},
                           Removal::kBlockFirstByte, Trap::kTerminate);
  slicer::PlanExpansion first = slicer::expand_plan(plan);
  EXPECT_EQ(first.seed_blocks, 1u);
  EXPECT_GT(first.slice_blocks, first.seed_blocks);
  EXPECT_EQ(first.witnesses, first.slice_blocks - first.seed_blocks);
  EXPECT_EQ(plan.blocks.size(), first.slice_blocks);

  slicer::PlanExpansion second = slicer::expand_plan(plan);
  EXPECT_EQ(second.seed_blocks, first.slice_blocks);
  EXPECT_EQ(second.slice_blocks, first.slice_blocks);  // fixpoint reached
  EXPECT_EQ(second.witnesses, 0u);
}

TEST(FeatureSliceTest, SynthesizePlanIsSliceClosedAndClean) {
  auto bin = dynacut::testing::build_toysrv();
  slicer::SliceModel m = slicer::analyze(*bin);
  uint64_t arm = arm_a_block(m, *bin);
  CutPlan plan = slicer::synthesize_plan(
      bin, "toysrv", "feature-a", {whole_block(m, "toysrv", arm)},
      Removal::kBlockFirstByte, Trap::kTerminate);
  EXPECT_EQ(plan.module, "toysrv");
  EXPECT_EQ(plan.feature, "feature-a");
  EXPECT_GT(plan.blocks.size(), 1u);
  CheckReport r = cutcheck::check_plan(plan);
  EXPECT_TRUE(r.ok()) << r.format();
  EXPECT_EQ(rule_count(r, cutcheck::kRulePartialSlice, Severity::kNote), 0u);
}

// --- one model per plan ---------------------------------------------------

TEST(PlanModelTest, CheckPlanIsIdenticalWithAttachedOrRebuiltModel) {
  std::vector<std::shared_ptr<const melf::Binary>> guests = {
      apps::build_minikv(), apps::build_miniweb(), apps::build_minihttpd(),
      apps::build_kvbench(), apps::build_libc()};
  for (const auto& sb : apps::spec_suite()) {
    guests.push_back(apps::build_spec(sb));
  }
  for (const auto& bin : guests) {
    // Pseudo-coverage: every fifth block of the binary.
    slicer::SliceModel m = slicer::analyze(*bin);
    std::vector<CovBlock> observed;
    size_t i = 0;
    for (const auto& [off, blk] : m.cfg.blocks) {
      if (i++ % 5 == 0) observed.push_back({bin->name, off, blk.size});
    }
    ASSERT_FALSE(observed.empty()) << bin->name;
    CutPlan plan = slicer::synthesize_plan(bin, bin->name, "reuse", observed,
                                           Removal::kBlockFirstByte,
                                           Trap::kTerminate);
    ASSERT_NE(plan.model, nullptr) << bin->name;
    EXPECT_EQ(plan.model->bin, bin.get());

    // The same plan under every mechanism, a wipe, and a redirect into the
    // function of its first block: each rule family reads the model.
    std::vector<CutPlan> variants(4, plan);
    variants[1].removal = Removal::kWipeBlocks;
    variants[2].mechanism = cutcheck::Mechanism::kAuto;
    variants[3].mechanism = cutcheck::Mechanism::kStub;
    variants[3].trap = Trap::kRedirect;
    variants[3].has_redirect = true;
    variants[3].redirect_offset =
        m.function_of(plan.blocks.front().offset).value_or(0);
    for (const CutPlan& with_model : variants) {
      CutPlan bare = with_model;
      bare.model.reset();
      CheckReport a = cutcheck::check_plan(with_model);
      CheckReport b = cutcheck::check_plan(bare);
      EXPECT_EQ(a.format(), b.format()) << bin->name;
      EXPECT_EQ(a.gadget_delta, b.gadget_delta) << bin->name;
    }
  }
}

TEST(PlanModelTest, ModelOfAnotherBinaryIsNotReused) {
  auto bin = dynacut::testing::build_toysrv();
  slicer::SliceModel m = slicer::analyze(*bin);
  CutPlan plan =
      make_plan(bin, {whole_block(m, "toysrv", arm_a_block(m, *bin))},
                Removal::kWipeBlocks, Trap::kTerminate);
  CheckReport fresh = cutcheck::check_plan(plan);

  // A model left over from a different binary (here: libc) is stale.
  auto libc = apps::build_libc();
  plan.model =
      std::make_shared<const slicer::SliceModel>(slicer::analyze(*libc));
  EXPECT_EQ(slicer::plan_model(plan)->bin, bin.get());
  EXPECT_EQ(cutcheck::check_plan(plan).format(), fresh.format());

  plan.model = slicer::plan_model(plan);
  EXPECT_EQ(plan.model->bin, bin.get());
  EXPECT_EQ(slicer::plan_model(plan), plan.model);  // reused, not rebuilt
}

// --- CC007 indirect-escape -----------------------------------------------

TEST(RuleIndirectTest, ResolvedTargetInWipedInteriorTrips) {
  auto bin = build_interior_target_guest();
  slicer::SliceModel m = slicer::analyze(*bin);
  uint64_t victim = bin->find_symbol("victim")->value;
  CheckReport r = cutcheck::check_plan(
      make_plan(bin, {whole_block(m, "esc", victim)}, Removal::kWipeBlocks,
                Trap::kTerminate));
  EXPECT_EQ(rule_count(r, cutcheck::kRuleIndirect, Severity::kWarning), 1u);
  EXPECT_TRUE(rule_mentions(r, cutcheck::kRuleIndirect, "interior"));
}

TEST(RuleIndirectTest, TargetAtRangeStartDoesNotTrip) {
  auto bin = build_interior_target_guest();
  uint64_t victim = bin->find_symbol("victim")->value;
  uint64_t inner = bin->find_symbol("inner")->value;
  uint64_t end = victim + bin->find_symbol("victim")->size;
  // The cut starts exactly at the indirect target: the trap handler
  // recognises it, so CC007 must stay silent.
  CheckReport r = cutcheck::check_plan(
      make_plan(bin, {{"esc", inner, static_cast<uint32_t>(end - inner)}},
                Removal::kWipeBlocks, Trap::kTerminate));
  EXPECT_EQ(r.by_rule(cutcheck::kRuleIndirect).size(), 0u);
}

TEST(RuleIndirectTest, UnresolvedSiteWarnsOnlyWhenSomethingIsCut) {
  auto bin = build_unresolved_guest();
  slicer::SliceModel m = slicer::analyze(*bin);
  uint64_t spare = bin->find_symbol("spare")->value;
  CheckReport cut = cutcheck::check_plan(
      make_plan(bin, {whole_block(m, "unres", spare)}, Removal::kWipeBlocks,
                Trap::kTerminate));
  EXPECT_EQ(rule_count(cut, cutcheck::kRuleIndirect, Severity::kWarning), 1u);
  EXPECT_TRUE(rule_mentions(cut, cutcheck::kRuleIndirect, "resolved"));

  // Zero CC007 findings on an uncut binary (the false-positive bar).
  CheckReport uncut = cutcheck::check_plan(
      make_plan(bin, {}, Removal::kWipeBlocks, Trap::kTerminate));
  EXPECT_EQ(uncut.by_rule(cutcheck::kRuleIndirect).size(), 0u);
}

// --- CC008 partial-slice -------------------------------------------------

TEST(RulePartialSliceTest, SeedOnlyPlanGetsSliceNote) {
  auto bin = dynacut::testing::build_toysrv();
  slicer::SliceModel m = slicer::analyze(*bin);
  uint64_t arm = arm_a_block(m, *bin);
  CheckReport r = cutcheck::check_plan(
      make_plan(bin, {whole_block(m, "toysrv", arm)},
                Removal::kBlockFirstByte, Trap::kTerminate));
  EXPECT_TRUE(r.ok()) << r.format();  // a note, never a rejection
  EXPECT_EQ(rule_count(r, cutcheck::kRulePartialSlice, Severity::kNote), 1u);
  EXPECT_TRUE(
      rule_mentions(r, cutcheck::kRulePartialSlice, "dead-but-reachable"));
  EXPECT_NE(r.by_rule(cutcheck::kRulePartialSlice)
                .front()
                ->fix_hint.find("expand_to_slice"),
            std::string::npos);
}

TEST(RulePartialSliceTest, SliceClosedPlanDoesNotTrip) {
  auto bin = dynacut::testing::build_toysrv();
  slicer::SliceModel m = slicer::analyze(*bin);
  uint64_t arm = arm_a_block(m, *bin);
  CutPlan plan = make_plan(bin, {whole_block(m, "toysrv", arm)},
                           Removal::kBlockFirstByte, Trap::kTerminate);
  slicer::expand_plan(plan);
  CheckReport r = cutcheck::check_plan(plan);
  EXPECT_TRUE(r.ok()) << r.format();
  EXPECT_EQ(r.by_rule(cutcheck::kRulePartialSlice).size(), 0u);
}

// --- CC009 data-reach ----------------------------------------------------

TEST(RuleDataReachTest, SurvivingDataPointerIntoCutTrips) {
  auto bin = build_data_pointer_guest();
  slicer::SliceModel m = slicer::analyze(*bin);
  uint64_t victim = bin->find_symbol("victim")->value;
  CheckReport r = cutcheck::check_plan(
      make_plan(bin, {whole_block(m, "dptr", victim)}, Removal::kWipeBlocks,
                Trap::kVerify));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(rule_count(r, cutcheck::kRuleDataReach, Severity::kError), 1u);
  EXPECT_TRUE(rule_mentions(r, cutcheck::kRuleDataReach, "data pointer"));
}

TEST(RuleDataReachTest, PointerOntoRangeStartDoesNotTrip) {
  auto bin = build_data_pointer_guest();
  uint64_t inner = bin->find_symbol("vt_inner")->value;
  const melf::Symbol* victim = bin->find_symbol("victim");
  uint64_t end = victim->value + victim->size;
  CheckReport r = cutcheck::check_plan(
      make_plan(bin, {{"dptr", inner, static_cast<uint32_t>(end - inner)}},
                Removal::kWipeBlocks, Trap::kVerify));
  EXPECT_EQ(r.by_rule(cutcheck::kRuleDataReach).size(), 0u);
}

// --- CC010 stack-imbalance -----------------------------------------------

TEST(RuleStackImbalanceTest, RedirectAcrossFrameTrips) {
  auto bin = build_stack_guest();
  uint64_t site = bin->find_symbol("f_site")->value;
  CutPlan p = make_plan(bin, {{"stk", site, 1}}, Removal::kBlockFirstByte,
                        Trap::kRedirect);
  p.has_redirect = true;
  p.redirect_offset = bin->find_symbol("f_err")->value;
  CheckReport r = cutcheck::check_plan(p);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(rule_count(r, cutcheck::kRuleStackImbalance, Severity::kError),
            1u);
  EXPECT_TRUE(rule_mentions(r, cutcheck::kRuleStackImbalance, "depth"));
}

TEST(RuleStackImbalanceTest, MatchingDepthDoesNotTrip) {
  auto bin = build_stack_guest();
  uint64_t deep = bin->find_symbol("f_deep")->value;  // depth 0, like f_err
  CutPlan p = make_plan(bin, {{"stk", deep, 1}}, Removal::kBlockFirstByte,
                        Trap::kRedirect);
  p.has_redirect = true;
  p.redirect_offset = bin->find_symbol("f_err")->value;
  CheckReport r = cutcheck::check_plan(p);
  EXPECT_EQ(r.by_rule(cutcheck::kRuleStackImbalance).size(), 0u);
  EXPECT_EQ(r.by_rule(cutcheck::kRuleStubReach).size(), 0u);  // stub reachable
  EXPECT_TRUE(r.ok()) << r.format();
}

/// g() moves a register into SP before it branches, so no block after the
/// entry has a provable stack depth.
std::shared_ptr<const melf::Binary> build_sp_escape_guest() {
  ProgramBuilder b("spx");
  auto& g = b.func("g");
  g.mov_rr(15, 3).cmp_ri(1, 0).je("err_lbl");
  g.mark("g_site").mov_ri(0, 1).ret();
  g.label("err_lbl").mark("g_err").mov_ri(0, 9).ret();
  b.set_entry("g");
  return std::make_shared<melf::Binary>(b.link());
}

/// h() reaches "h_join" at depth 0 and at depth -8 (through a push), so
/// the depth there is unknown; "h_err" is at depth 0.
std::shared_ptr<const melf::Binary> build_disagreeing_paths_guest() {
  ProgramBuilder b("dis");
  auto& h = b.func("h");
  h.cmp_ri(1, 0).je("err_lbl");
  h.cmp_ri(2, 0).je("join");
  h.push(12);
  h.label("join").mark("h_join").mov_ri(0, 1).ret();
  h.label("err_lbl").mark("h_err").mov_ri(0, 9).ret();
  b.set_entry("h");
  return std::make_shared<melf::Binary>(b.link());
}

TEST(RuleStackImbalanceTest, SpEscapingTrackingWarns) {
  auto bin = build_sp_escape_guest();
  uint64_t site = bin->find_symbol("g_site")->value;
  uint64_t err = bin->find_symbol("g_err")->value;
  CutPlan p = make_plan(bin, {{"spx", site, 1}}, Removal::kBlockFirstByte,
                        Trap::kRedirect);
  p.has_redirect = true;
  p.redirect_offset = err;
  CheckReport r = cutcheck::check_plan(p);
  ASSERT_EQ(rule_count(r, cutcheck::kRuleStackImbalance, Severity::kWarning),
            1u)
      << r.format();
  EXPECT_EQ(rule_count(r, cutcheck::kRuleStackImbalance, Severity::kError),
            0u);
  const cutcheck::Diagnostic* d =
      r.by_rule(cutcheck::kRuleStackImbalance).front();
  EXPECT_EQ(d->offset, site);
  EXPECT_EQ(d->message, "cannot prove the stack depth at trap site " +
                            hex_addr(site) + " matches the redirect target " +
                            hex_addr(err) +
                            " (SP escapes static tracking or paths disagree)");
  EXPECT_EQ(d->fix_hint, "keep pushes and pops balanced on every path through 'g'");
}

TEST(RuleStackImbalanceTest, DisagreeingPathsWarn) {
  auto bin = build_disagreeing_paths_guest();
  uint64_t join = bin->find_symbol("h_join")->value;
  CutPlan p = make_plan(bin, {{"dis", join, 1}}, Removal::kBlockFirstByte,
                        Trap::kRedirect);
  p.has_redirect = true;
  p.redirect_offset = bin->find_symbol("h_err")->value;
  CheckReport r = cutcheck::check_plan(p);
  EXPECT_EQ(rule_count(r, cutcheck::kRuleStackImbalance, Severity::kWarning),
            1u)
      << r.format();
  EXPECT_EQ(rule_count(r, cutcheck::kRuleStackImbalance, Severity::kError),
            0u);
  EXPECT_TRUE(rule_mentions(r, cutcheck::kRuleStackImbalance,
                            "cannot prove the stack depth at trap site"));
}

// --- CC011 dead-store ----------------------------------------------------

TEST(RuleDeadStoreTest, OrphanedWritersGetNote) {
  auto bin = build_store_guest();
  slicer::SliceModel m = slicer::analyze(*bin);
  uint64_t reader = bin->find_symbol("reader")->value;
  CheckReport r = cutcheck::check_plan(
      make_plan(bin, {whole_block(m, "ds", reader)},
                Removal::kBlockFirstByte, Trap::kTerminate));
  EXPECT_TRUE(r.ok()) << r.format();  // shrink hint, not a rejection
  ASSERT_EQ(rule_count(r, cutcheck::kRuleDeadStore, Severity::kNote), 1u);
  const cutcheck::Diagnostic* d =
      r.by_rule(cutcheck::kRuleDeadStore).front();
  uint64_t stat = bin->find_symbol("stat")->value;
  EXPECT_EQ(d->offset, stat);
  EXPECT_EQ(d->end_offset, stat + 8);  // the diagnostic carries the range
  EXPECT_NE(d->format().find(".."), std::string::npos);
}

TEST(RuleDeadStoreTest, CuttingWritersTooDoesNotTrip) {
  auto bin = build_store_guest();
  slicer::SliceModel m = slicer::analyze(*bin);
  CheckReport r = cutcheck::check_plan(make_plan(
      bin,
      {whole_block(m, "ds", bin->find_symbol("reader")->value),
       whole_block(m, "ds", bin->find_symbol("writer")->value)},
      Removal::kBlockFirstByte, Trap::kTerminate));
  EXPECT_EQ(r.by_rule(cutcheck::kRuleDeadStore).size(), 0u);
}

// --- CC012 stub-reach ----------------------------------------------------

TEST(RuleStubReachTest, RedirectOverUnmapTrips) {
  auto bin = build_stack_guest();
  uint64_t deep = bin->find_symbol("f_deep")->value;
  CutPlan p = make_plan(bin, {{"stk", deep, 1}}, Removal::kUnmapPages,
                        Trap::kRedirect);
  p.has_redirect = true;
  p.redirect_offset = bin->find_symbol("f_err")->value;
  CheckReport r = cutcheck::check_plan(p);
  EXPECT_GE(rule_count(r, cutcheck::kRuleStubReach, Severity::kError), 1u);
  EXPECT_TRUE(rule_mentions(r, cutcheck::kRuleStubReach, "SIGSEGV"));
}

TEST(RuleStubReachTest, CuttingTheStubItselfTrips) {
  auto bin = build_stack_guest();
  uint64_t err = bin->find_symbol("f_err")->value;
  CutPlan p = make_plan(bin, {{"stk", err, 1}}, Removal::kBlockFirstByte,
                        Trap::kRedirect);
  p.has_redirect = true;
  p.redirect_offset = err;
  CheckReport r = cutcheck::check_plan(p);
  EXPECT_GE(rule_count(r, cutcheck::kRuleStubReach, Severity::kError), 1u);
  EXPECT_TRUE(rule_mentions(r, cutcheck::kRuleStubReach, "itself removed"));
}

TEST(DiagnosticsTest, FindingsCarryEnclosingFunction) {
  auto bin = build_interior_target_guest();
  slicer::SliceModel m = slicer::analyze(*bin);
  CheckReport r = cutcheck::check_plan(
      make_plan(bin, {whole_block(m, "esc",
                                  bin->find_symbol("victim")->value)},
                Removal::kWipeBlocks, Trap::kTerminate));
  ASSERT_GE(r.by_rule(cutcheck::kRuleIndirect).size(), 1u);
  const cutcheck::Diagnostic* d = r.by_rule(cutcheck::kRuleIndirect).front();
  EXPECT_EQ(d->function, "victim");
  EXPECT_NE(d->format().find("(in 'victim')"), std::string::npos);
  EXPECT_NE(d->format().find("esc+0x"), std::string::npos);
}

// --- DynaCut integration: CutRequest.expand_to_slice ---------------------

struct CollectSink : obs::Sink {
  std::vector<obs::Event> events;
  void on_event(const obs::Event& e) override { events.push_back(e); }
};

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

TEST(DynaCutSliceTest, ExpandToSliceGrowsCutChargesAnalysisAndEmitsEvent) {
  BootedToysrv t;
  core::DynaCut dc(t.vos, t.pid);
  obs::EventBus bus;
  CollectSink sink;
  bus.add_sink(&sink);
  dc.set_observer(&bus);

  slicer::SliceModel m = slicer::analyze(*t.bin);
  uint64_t arm = arm_a_block(m, *t.bin);
  core::FeatureSpec spec;
  spec.name = "feature-a";
  spec.blocks = {whole_block(m, "toysrv", arm)};

  core::CutRequest req;
  req.feature = spec;
  req.expand_to_slice = true;
  core::CustomizeReport rep = dc.disable_feature(req);
  EXPECT_TRUE(dc.feature_disabled("feature-a"));
  EXPECT_GT(rep.edits.blocks_patched, 1u);       // grew past the seed
  EXPECT_GT(rep.timing.analysis_ns, 0u);         // slicer cost charged
  // analysis_ns is offline work, not service interruption.
  core::TimingBreakdown only_analysis;
  only_analysis.analysis_ns = rep.timing.analysis_ns;
  EXPECT_EQ(only_analysis.total_ns(), 0u);

  const obs::Event* expand = nullptr;
  for (const auto& e : sink.events) {
    if (e.type == obs::ev::kSliceExpand) expand = &e;
  }
  ASSERT_NE(expand, nullptr);
  EXPECT_EQ(expand->attr_str("feature"), "feature-a");
  EXPECT_GT(expand->attr_u64("slice_blocks"), expand->attr_u64("seed_blocks"));
  EXPECT_GT(expand->attr_u64("witnesses"), 0u);

  dc.restore_feature("feature-a");
  EXPECT_FALSE(dc.feature_disabled("feature-a"));
}

TEST(DynaCutSliceTest, ObservedOnlyRequestStillPatchesJustTheSeed) {
  BootedToysrv t;
  core::DynaCut dc(t.vos, t.pid);
  slicer::SliceModel m = slicer::analyze(*t.bin);
  core::FeatureSpec spec;
  spec.name = "feature-a";
  spec.blocks = {whole_block(m, "toysrv", arm_a_block(m, *t.bin))};
  core::CutRequest req;
  req.feature = spec;
  core::CustomizeReport rep = dc.disable_feature(req);
  EXPECT_EQ(rep.edits.blocks_patched, 1u);
  EXPECT_EQ(rep.timing.analysis_ns, 0u);
}

// --- model pin -------------------------------------------------------------

/// FNV-1a over 64-bit words: a stable fingerprint of a whole SliceModel.
struct ModelHash {
  uint64_t h = 0xcbf29ce484222325ull;
  void mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
  void mix(const AbsVal& v) {
    mix(static_cast<uint64_t>(v.kind));
    mix(v.value);
  }
  void mix(const std::string& s) {
    mix(s.size());
    for (char c : s) mix(static_cast<uint64_t>(static_cast<uint8_t>(c)));
  }
  template <class C>
  void seq(const C& c) {
    mix(c.size());
    for (const auto& v : c) mix(v);
  }
  template <class M>
  void seq_map(const M& m) {
    mix(m.size());
    for (const auto& [k, v] : m) {
      mix(k);
      seq(v);
    }
  }
};

uint64_t model_digest(const slicer::SliceModel& m) {
  ModelHash h;
  h.mix(m.cfg.blocks.size());
  for (const auto& [off, b] : m.cfg.blocks) {
    h.mix(off);
    h.mix(b.offset);
    h.mix(b.size);
    h.mix(b.instr_count);
    h.mix(static_cast<uint64_t>(b.term));
    h.seq(b.succs);
  }
  h.seq(m.cfg.instr_starts);

  h.mix(m.mdf.indirect_reg.size());
  for (const auto& [off, v] : m.mdf.indirect_reg) {
    h.mix(off);
    h.mix(v);
  }
  h.mix(m.mdf.mem_refs.size());
  for (const auto& r : m.mdf.mem_refs) {
    h.mix(r.instr);
    h.mix(r.block);
    h.mix(r.target);
    h.mix(r.is_store);
    h.mix(r.exact);
  }

  h.mix(m.funcs.size());
  for (const auto& [entry, f] : m.funcs) {
    h.mix(entry);
    h.mix(f.entry);
    h.seq(f.blocks);
    h.seq_map(f.succs);
    const std::map<uint64_t, int64_t> depths =
        slicer::stack_depth_in(m.cfg, f);
    h.mix(depths.size());
    for (const auto& [off, d] : depths) {
      h.mix(off);
      h.mix(static_cast<uint64_t>(d));
    }
  }

  h.mix(m.indirect.size());
  for (const auto& s : m.indirect) {
    h.mix(s.block);
    h.mix(s.instr);
    h.mix(s.is_call);
    h.mix(static_cast<uint64_t>(s.kind));
    h.mix(s.import_name);
    h.seq(s.targets);
  }

  h.mix(m.deps.idom.size());
  for (const auto& [b, d] : m.deps.idom) {
    h.mix(b);
    h.mix(d);
  }
  h.seq_map(m.deps.callers);
  h.seq_map(m.deps.direct_callers);
  h.seq(m.deps.address_taken);
  h.seq(m.pinned_functions);
  h.mix(m.all_indirect_resolved);
  return h.h;
}

TEST(SliceModel, AnalysisDigestUnchanged) {
  // Fingerprints of every field slicer::analyze() produces, plus each
  // function's stack depths at block entry (the one per-function fact
  // cutcheck reads). A change here means the model itself changed, not just
  // how it is computed.
  const std::vector<std::pair<std::string, uint64_t>> want = {
      {"libc.so", 0xec64d2ecfc07dafaull},
      {"kvbench", 0x8f4ffe780c88c2d7ull},
      {"minikv", 0xcb236432f5ae66d9ull},
      {"miniweb", 0x6bd5e29384a1c1cdull},
      {"minihttpd", 0x4888c04cb720821full},
      {"600.perlbench_s", 0xa348d9f4d2f33321ull},
      {"605.mcf_s", 0xd94cb6b0dc33d056ull},
      {"620.omnetpp_s", 0xb450f40bfc470823ull},
      {"623.xalancbmk_s", 0xdb889bd4e257f55bull},
      {"625.x264_s", 0xa2f9d223538a3e1cull},
      {"631.deepsjeng_s", 0xd30007af5b266fc6ull},
      {"641.leela_s", 0x798ff136a3faeb63ull},
  };
  std::vector<std::shared_ptr<const melf::Binary>> guests = {
      apps::build_libc(), apps::build_kvbench(), apps::build_minikv(),
      apps::build_miniweb(), apps::build_minihttpd()};
  for (const auto& sb : apps::spec_suite()) guests.push_back(apps::build_spec(sb));
  ASSERT_EQ(guests.size(), want.size());
  for (size_t i = 0; i < guests.size(); ++i) {
    slicer::SliceModel m = slicer::analyze(*guests[i]);
    EXPECT_EQ(guests[i]->name, want[i].first);
    EXPECT_EQ(model_digest(m), want[i].second) << guests[i]->name;
  }
}

}  // namespace
}  // namespace dynacut
