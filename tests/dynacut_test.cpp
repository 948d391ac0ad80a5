// End-to-end tests of the DynaCut facade: the full trace → diff → disable →
// redirect/verify/restore lifecycle on a live server, including virtual-time
// accounting — the paper's §3 pipeline in miniature.
#include <gtest/gtest.h>

#include "analysis/coverage.hpp"
#include "apps/libc.hpp"
#include "core/dynacut.hpp"
#include "core/handler_lib.hpp"
#include "os/os.hpp"
#include "test_guests.hpp"
#include "trace/trace.hpp"

namespace dynacut::core {
namespace {

using analysis::CoverageGraph;
using analysis::CovBlock;

/// Boots toysrv, runs a wanted-only and an undesired trace pass offline,
/// then exposes the running server plus the discovered feature-B spec.
struct Pipeline {
  os::Os vos;
  int pid = 0;
  std::shared_ptr<const melf::Binary> bin;
  FeatureSpec feature_b;
  os::HostConn conn;

  Pipeline() {
    bin = testing::build_toysrv();

    // Offline profiling runs (separate OS instances, like profiling rigs).
    auto trace_requests = [&](const std::string& reqs) {
      os::Os prof;
      trace::Tracer tracer(prof);
      int p = prof.spawn(testing::build_toysrv(), {apps::build_libc()});
      prof.run();
      auto c = prof.connect(80);
      c.send(reqs);
      prof.run();
      return tracer.dump(p);
    };
    trace::TraceLog undesired = trace_requests("A\nB\nQ\n");
    trace::TraceLog wanted = trace_requests("A\nA\nQ\n");

    feature_b.name = "B";
    feature_b.blocks =
        analysis::feature_diff({undesired}, {wanted}, "toysrv").blocks();
    feature_b.redirect_module = "toysrv";
    feature_b.redirect_offset = bin->find_symbol("dispatch_err")->value;

    // The production instance under customization.
    pid = vos.spawn(bin, {apps::build_libc()});
    vos.run();
    conn = vos.connect(80);
  }

  std::string request(const std::string& line) {
    conn.send(line);
    vos.run();
    return conn.recv_all();
  }
};

TEST(DynaCut, DisableWithRedirectReturnsErrorPath) {
  Pipeline px;
  EXPECT_EQ(px.request("B\n"), "beta\n");  // enabled initially

  DynaCut dc(px.vos, px.pid);
  CustomizeReport rep = dc.disable_feature({
      px.feature_b, RemovalPolicy::kBlockFirstByte, TrapPolicy::kRedirect});
  EXPECT_GT(rep.edits.blocks_patched, 0u);
  EXPECT_EQ(rep.edits.processes, 1u);
  EXPECT_TRUE(dc.feature_disabled("B"));

  // Disabled feature answers through the app's own error path, service
  // stays up (paper Figure 5's 403-Forbidden behaviour).
  EXPECT_EQ(px.request("B\n"), "err\n");
  EXPECT_EQ(px.vos.process(px.pid)->term_signal, 0);
  // Other features unaffected.
  EXPECT_EQ(px.request("A\n"), "alpha\n");
}

TEST(DynaCut, RestoreFeatureReenables) {
  Pipeline px;
  DynaCut dc(px.vos, px.pid);
  dc.disable_feature({px.feature_b, RemovalPolicy::kBlockFirstByte,
                     TrapPolicy::kRedirect});
  EXPECT_EQ(px.request("B\n"), "err\n");

  CustomizeReport rep = dc.restore_feature("B");
  EXPECT_GT(rep.edits.blocks_patched, 0u);
  EXPECT_FALSE(dc.feature_disabled("B"));
  EXPECT_EQ(px.request("B\n"), "beta\n");  // bidirectional customization
  EXPECT_EQ(px.request("A\n"), "alpha\n");
}

TEST(DynaCut, DisableRestoreCycleIsRepeatable) {
  Pipeline px;
  DynaCut dc(px.vos, px.pid);
  for (int round = 0; round < 3; ++round) {
    dc.disable_feature({px.feature_b, RemovalPolicy::kBlockFirstByte,
                       TrapPolicy::kRedirect});
    EXPECT_EQ(px.request("B\n"), "err\n") << "round " << round;
    dc.restore_feature("B");
    EXPECT_EQ(px.request("B\n"), "beta\n") << "round " << round;
  }
}

TEST(DynaCut, RepeatedTogglesAnalyseTheModuleOnce) {
  Pipeline px;
  obs::Registry reg;
  DynaCut dc(px.vos, px.pid);
  dc.set_observer(nullptr, &reg);
  // Slice expansion, the cutcheck gate and stub planning all read the
  // module's model; only the first of them may build it.
  const CutRequest req{.feature = px.feature_b,
                       .trap = TrapPolicy::kRedirect,
                       .expand_to_slice = true,
                       .mechanism = CutMechanism::kAuto};
  for (int round = 0; round < 3; ++round) {
    dc.disable_feature(req);
    EXPECT_EQ(px.request("B\n"), "err\n") << "round " << round;
    dc.restore_feature("B");
    EXPECT_EQ(px.request("B\n"), "beta\n") << "round " << round;
  }
  EXPECT_TRUE(dc.preflight(req).ok());
  EXPECT_EQ(reg.counter("analysis.models_built"), 1u);

  // Models live with their DynaCut instance, never in a global cache.
  DynaCut other(px.vos, px.pid);
  other.set_observer(nullptr, &reg);
  EXPECT_TRUE(other.preflight(req).ok());
  EXPECT_EQ(reg.counter("analysis.models_built"), 2u);
}

TEST(DynaCut, WipePolicyAlsoRedirects) {
  Pipeline px;
  DynaCut dc(px.vos, px.pid);
  CustomizeReport rep = dc.disable_feature({
      px.feature_b, RemovalPolicy::kWipeBlocks, TrapPolicy::kRedirect});
  EXPECT_GT(rep.edits.blocks_patched, 0u);
  EXPECT_EQ(px.request("B\n"), "err\n");
  // Wipe is reversible too.
  dc.restore_feature("B");
  EXPECT_EQ(px.request("B\n"), "beta\n");
}

TEST(DynaCut, WipedBlocksContainOnlyTraps) {
  Pipeline px;
  DynaCut dc(px.vos, px.pid);
  dc.disable_feature({px.feature_b, RemovalPolicy::kWipeBlocks,
                     TrapPolicy::kRedirect});
  // Inspect live memory: every byte of handle_b's traced blocks is 0xCC
  // (no ROP gadgets left inside the wiped feature).
  const os::Process* p = px.vos.process(px.pid);
  const os::LoadedModule* app = p->module_named("toysrv");
  const melf::Symbol* hb = px.bin->find_symbol("handle_b");
  for (const auto& b : px.feature_b.blocks) {
    if (b.offset < hb->value || b.offset >= hb->value + hb->size) continue;
    auto bytes = p->mem.peek_bytes(app->base + b.offset, b.size);
    for (uint8_t byte : bytes) EXPECT_EQ(byte, 0xCC);
  }
}

TEST(DynaCut, TerminatePolicyKillsOnAccess) {
  Pipeline px;
  DynaCut dc(px.vos, px.pid);
  dc.disable_feature({px.feature_b, RemovalPolicy::kBlockFirstByte,
                     TrapPolicy::kTerminate});
  EXPECT_EQ(px.request("A\n"), "alpha\n");  // alive until touched
  px.conn.send("B\n");
  px.vos.run();
  EXPECT_EQ(px.vos.process(px.pid)->term_signal, os::sig::kSigTrap);
}

TEST(DynaCut, VerifyModeHealsAndLogsFalsePositives) {
  // Deliberately over-remove: mark feature-A blocks as undesired, run A
  // requests, and watch the verifier restore them on the fly (§3.2.3).
  Pipeline px;
  FeatureSpec bad;
  bad.name = "A_overremoved";
  const melf::Symbol* ha = px.bin->find_symbol("handle_a");
  bad.blocks = {CovBlock{"toysrv", ha->value, 1}};

  DynaCut dc(px.vos, px.pid);
  dc.disable_feature({bad, RemovalPolicy::kBlockFirstByte, TrapPolicy::kVerify});

  // First A request trips the verifier, which heals the byte and retries.
  EXPECT_EQ(px.request("A\n"), "alpha\n");
  EXPECT_EQ(px.vos.process(px.pid)->term_signal, 0);

  auto log = dc.verifier_log(px.pid);
  const os::LoadedModule* app = px.vos.process(px.pid)->module_named("toysrv");
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], app->base + ha->value);

  // Healed: subsequent requests don't trap again (log stays at 1).
  EXPECT_EQ(px.request("A\n"), "alpha\n");
  EXPECT_EQ(dc.verifier_log(px.pid).size(), 1u);
}

TEST(DynaCut, VerifyRequiresFirstBytePolicy) {
  Pipeline px;
  DynaCut dc(px.vos, px.pid);
  EXPECT_THROW(dc.disable_feature({px.feature_b, RemovalPolicy::kWipeBlocks,
                                  TrapPolicy::kVerify}),
               StateError);
}

TEST(DynaCut, DoubleDisableThrows) {
  Pipeline px;
  DynaCut dc(px.vos, px.pid);
  dc.disable_feature({px.feature_b, RemovalPolicy::kBlockFirstByte,
                     TrapPolicy::kRedirect});
  EXPECT_THROW(dc.disable_feature({px.feature_b,
                                  RemovalPolicy::kBlockFirstByte,
                                  TrapPolicy::kRedirect}),
               StateError);
}

TEST(DynaCut, RestoreUnknownFeatureThrows) {
  Pipeline px;
  DynaCut dc(px.vos, px.pid);
  EXPECT_THROW(dc.restore_feature("never_disabled"), StateError);
}

// Feature names become ImageKey feature-set tags: the reserved pre-rewrite
// tag would overwrite the pristine rollback image's key, '+' is the tag
// separator, and an empty name yields ambiguous tags — all rejected before
// any process is touched.
TEST(DynaCut, ReservedOrSeparatorFeatureNamesThrow) {
  Pipeline px;
  DynaCut dc(px.vos, px.pid);
  for (const char* bad : {"pre", "a+b", ""}) {
    FeatureSpec spec = px.feature_b;
    spec.name = bad;
    EXPECT_THROW(dc.disable_feature({spec, RemovalPolicy::kBlockFirstByte,
                                    TrapPolicy::kRedirect}),
                 StateError)
        << "feature name '" << bad << "' must be rejected";
  }
  EXPECT_TRUE(dc.disabled_features().empty());
}

TEST(DynaCut, RedirectOutsideAnyFunctionThrows) {
  Pipeline px;
  FeatureSpec spec = px.feature_b;
  spec.redirect_offset = 0xfffff;  // not inside any function
  DynaCut dc(px.vos, px.pid);
  EXPECT_THROW(dc.disable_feature({spec, RemovalPolicy::kBlockFirstByte,
                                  TrapPolicy::kRedirect}),
               StateError);
}

TEST(DynaCut, RedirectWithNoSameFunctionBlockThrows) {
  // All blocks in handle_b (not dispatch) + target in dispatch => the
  // same-function restriction rejects the redirect.
  Pipeline px;
  FeatureSpec spec;
  spec.name = "only_handler_blocks";
  const melf::Symbol* hb = px.bin->find_symbol("handle_b");
  spec.blocks = {CovBlock{"toysrv", hb->value, 1}};
  spec.redirect_module = "toysrv";
  spec.redirect_offset = px.bin->find_symbol("dispatch_err")->value;
  DynaCut dc(px.vos, px.pid);
  EXPECT_THROW(dc.disable_feature({spec, RemovalPolicy::kBlockFirstByte,
                                  TrapPolicy::kRedirect}),
               StateError);
}

TEST(DynaCut, ServiceInterruptionChargedToClock) {
  Pipeline px;
  DynaCut dc(px.vos, px.pid);
  uint64_t before = px.vos.now();
  CustomizeReport rep = dc.disable_feature({
      px.feature_b, RemovalPolicy::kBlockFirstByte, TrapPolicy::kRedirect});
  uint64_t elapsed = px.vos.now() - before;
  EXPECT_GE(elapsed, rep.timing.total_ns());
  EXPECT_GT(rep.timing.checkpoint_ns, 0u);
  EXPECT_GT(rep.timing.code_update_ns, 0u);
  EXPECT_GT(rep.timing.inject_ns, 0u);
  EXPECT_GT(rep.timing.restore_ns, 0u);
  // Feature blocking is sub-second on server-sized images (paper Fig. 6).
  EXPECT_LT(rep.timing.total_seconds(), 1.0);
}

TEST(DynaCut, ImageStoreHoldsRewrittenImage) {
  Pipeline px;
  DynaCut dc(px.vos, px.pid);
  dc.disable_feature({px.feature_b, RemovalPolicy::kBlockFirstByte,
                     TrapPolicy::kRedirect});
  // Committed images file under the typed key {pid, feature_set_tag}; the
  // pristine pre-image sits beside it under the reserved "pre" tag.
  const image::ImageKey key = dc.image_key(px.pid);
  EXPECT_EQ(key.feature_set_tag, px.feature_b.name);
  ASSERT_TRUE(dc.store().contains(key));
  ASSERT_TRUE(dc.store().contains(
      image::ImageKey{px.pid, image::ImageKey::kPreTag}));
  image::ProcessImage img = dc.store().get(key);
  // The stored image is the rewritten one: the handler library is present.
  EXPECT_NE(img.module_named(kSigLibName), nullptr);
}

TEST(DynaCut, InitCodeRemovalTrapsInitOnlyBlocks) {
  // Collect init/serving phases online with the nudge, remove init-only
  // blocks, confirm the server still serves and the init code is gone.
  os::Os vos;
  trace::Tracer tracer(vos);
  auto bin = testing::build_toysrv();
  int pid = vos.spawn(bin, {apps::build_libc()});
  vos.run();
  trace::TraceLog init_log = tracer.dump_and_reset(pid);
  auto conn = vos.connect(80);
  conn.send("A\nB\n");
  vos.run();
  trace::TraceLog serving_log = tracer.dump(pid);
  conn.recv_all();  // drain the profiling replies

  CoverageGraph init_blocks =
      analysis::init_only(init_log, serving_log, "toysrv");
  ASSERT_FALSE(init_blocks.empty());

  DynaCut dc(vos, pid);
  CustomizeReport rep =
      dc.remove_init_code(init_blocks, RemovalPolicy::kWipeBlocks);
  EXPECT_EQ(rep.edits.blocks_patched, init_blocks.size());

  conn.send("A\n");
  vos.run();
  EXPECT_EQ(conn.recv_all(), "alpha\n");  // serving path intact

  // The init function's entry byte is now a trap in live memory.
  const os::Process* p = vos.process(pid);
  const os::LoadedModule* app = p->module_named("toysrv");
  uint64_t init_addr = app->base + bin->find_symbol("init")->value;
  EXPECT_EQ(p->mem.peek_bytes(init_addr, 1)[0], 0xCC);
}

TEST(DynaCut, UnmapPolicyRemovesWholePagesAndRestores) {
  // Build a guest with a page-sized removable function so the unmap path
  // (not just the wipe fallback) is exercised.
  namespace sys = os::sys;
  melf::ProgramBuilder b("bigfeat");
  auto& big = b.func("big_feature");
  for (int i = 0; i < 600; ++i) big.nop();  // straight-line filler
  big.mov_ri(0, 7).ret();
  auto& f = b.func("main");
  f.label("spin").mov_ri(1, 1000).sys(sys::kNanosleep).jmp("spin");
  b.set_entry("main");
  auto bin = std::make_shared<melf::Binary>(b.link());

  os::Os vos;
  int pid = vos.spawn(bin);
  vos.run(3000);

  const melf::Symbol* feat = bin->find_symbol("big_feature");
  // Cover two full pages worth of the function plus slack.
  FeatureSpec spec;
  spec.name = "big";
  spec.blocks = {CovBlock{"bigfeat", feat->value,
                          static_cast<uint32_t>(2 * kPageSize)}};
  // Map the whole feature span as one block: ensure VMA is large enough.
  DynaCut dc(vos, pid);
  CustomizeReport rep =
      dc.disable_feature({spec, RemovalPolicy::kUnmapPages,
                         TrapPolicy::kTerminate});
  EXPECT_GT(rep.edits.pages_unmapped, 0u);

  const os::Process* p = vos.process(pid);
  uint64_t page = page_ceil(kAppBase + feat->value);  // first full page
  EXPECT_EQ(p->mem.vma_at(page), nullptr);

  // Restore brings the pages and their bytes back.
  dc.restore_feature("big");
  const os::Process* p2 = vos.process(pid);
  ASSERT_NE(p2->mem.vma_at(page), nullptr);
  auto bytes = p2->mem.peek_bytes(kAppBase + feat->value, 4);
  EXPECT_EQ(bytes[0], 0x90);  // the nop filler is back
}

TEST(DynaCut, MultiProcessGroupCustomizedTogether) {
  // A master+worker pair (nginx-style): both processes get the patch.
  namespace sys = os::sys;
  melf::ProgramBuilder b("master");
  b.func("victim").mov_ri(0, 1).ret();
  auto& f = b.func("main");
  f.sys(sys::kFork);
  f.label("spin").mov_ri(1, 500).sys(sys::kNanosleep).jmp("spin");
  b.set_entry("main");
  auto bin = std::make_shared<melf::Binary>(b.link());

  os::Os vos;
  int pid = vos.spawn(bin);
  vos.run(3000);
  ASSERT_EQ(vos.process_group(pid).size(), 2u);

  FeatureSpec spec;
  spec.name = "victim";
  spec.blocks = {CovBlock{"master", bin->find_symbol("victim")->value, 1}};
  DynaCut dc(vos, pid);
  CustomizeReport rep = dc.disable_feature({
      spec, RemovalPolicy::kBlockFirstByte, TrapPolicy::kTerminate});
  EXPECT_EQ(rep.edits.processes, 2u);
  EXPECT_EQ(rep.edits.blocks_patched, 2u);

  uint64_t addr = kAppBase + bin->find_symbol("victim")->value;
  for (int p : vos.process_group(pid)) {
    EXPECT_EQ(vos.process(p)->mem.peek_bytes(addr, 1)[0], 0xCC)
        << "pid " << p;
  }
}

TEST(DynaCut, ConstructorRejectsUnknownPid) {
  os::Os vos;
  EXPECT_THROW(DynaCut(vos, 4242), StateError);
}

}  // namespace
}  // namespace dynacut::core
