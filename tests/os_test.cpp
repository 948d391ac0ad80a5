// Integration tests for the osim kernel: process lifecycle, syscalls,
// sockets, fork, signal delivery/sigreturn (including the saved-IP
// redirection DynaCut's fault handlers rely on), loader/PLT linkage.
#include <gtest/gtest.h>

#include <algorithm>

#include "apps/libc.hpp"
#include "apps/minikv.hpp"
#include "common/error.hpp"
#include "melf/builder.hpp"
#include "obs/bus.hpp"
#include "obs/sinks.hpp"
#include "os/os.hpp"
#include "os/syscall.hpp"

namespace dynacut::os {
namespace {

using apps::build_libc;
using melf::Binary;
using melf::ProgramBuilder;

std::shared_ptr<const Binary> make(ProgramBuilder& b) {
  return std::make_shared<Binary>(b.link());
}

TEST(Os, SpawnRunExit) {
  ProgramBuilder b("exit42");
  b.func("main").mov_ri(1, 42).sys(sys::kExit);
  b.set_entry("main");
  Os os;
  int pid = os.spawn(make(b));
  os.run();
  ASSERT_TRUE(os.all_exited());
  EXPECT_EQ(os.process(pid)->exit_code, 42);
  EXPECT_EQ(os.process(pid)->term_signal, 0);
}

TEST(Os, SpawnLibraryWithoutEntryThrows) {
  Os os;
  EXPECT_THROW(os.spawn(build_libc()), GuestError);
}

TEST(Os, WriteToStdoutIsHostObservable) {
  ProgramBuilder b("hello");
  b.rodata_str("msg", "hello osim\n");
  b.func("main")
      .mov_ri(1, 1)
      .mov_sym(2, "msg")
      .mov_ri(3, 11)
      .sys(sys::kWrite)
      .mov_ri(1, 0)
      .sys(sys::kExit);
  b.set_entry("main");
  Os os;
  int pid = os.spawn(make(b));
  os.run();
  EXPECT_EQ(os.process(pid)->stdout_buf, "hello osim\n");
}

TEST(Os, HugeWriteLengthFailsWithoutStagingIt) {
  // A guest length far past its mapped memory (and one wrapping past 2^64)
  // must fail the write like any bad range, not size a host buffer by it.
  ProgramBuilder b("hugewrite");
  b.rodata_str("msg", "ok\n");
  auto& f = b.func("main");
  f.mov_ri(1, 1).mov_sym(2, "msg").mov_ri(3, 1ull << 62).sys(sys::kWrite);
  f.mov_rr(12, 0);
  f.mov_ri(1, 1).mov_sym(2, "msg").mov_ri(3, ~0ull - 15).sys(sys::kWrite);
  f.mov_rr(13, 0);
  f.mov_ri(1, 1).mov_sym(2, "msg").mov_ri(3, 3).sys(sys::kWrite);
  f.mov_rr(1, 12).and_rr(1, 13).sys(sys::kExit);  // kErr & kErr == kErr
  b.set_entry("main");
  Os os;
  int pid = os.spawn(make(b));
  EXPECT_NO_THROW(os.run());
  ASSERT_TRUE(os.all_exited());
  EXPECT_EQ(os.process(pid)->exit_code, static_cast<int>(sys::kErr));
  EXPECT_EQ(os.process(pid)->stdout_buf, "ok\n");
}

TEST(Os, HugeSendLengthFailsAndKeepsTheConnection) {
  ProgramBuilder b("hugesend");
  b.rodata_str("msg", "hey");
  auto& f = b.func("main");
  f.sys(sys::kSocket).mov_rr(12, 0);
  f.mov_rr(1, 12).mov_ri(2, 7).sys(sys::kBind);
  f.mov_rr(1, 12).sys(sys::kListen);
  f.mov_rr(1, 12).sys(sys::kAccept).mov_rr(13, 0);
  f.mov_rr(1, 13).mov_sym(2, "msg").mov_ri(3, 1ull << 62).sys(sys::kSend);
  f.mov_rr(14, 0);
  f.mov_rr(1, 13).mov_sym(2, "msg").mov_ri(3, 3).sys(sys::kSend);
  f.mov_rr(1, 14).sys(sys::kExit);
  b.set_entry("main");
  Os os;
  int pid = os.spawn(make(b));
  os.run();  // blocks in accept
  HostConn conn = os.connect(7);
  EXPECT_NO_THROW(os.run());
  EXPECT_EQ(conn.recv_all(), "hey");
  ASSERT_TRUE(os.all_exited());
  EXPECT_EQ(os.process(pid)->exit_code, static_cast<int>(sys::kErr));
}

TEST(Os, LibcCallThroughPlt) {
  ProgramBuilder b("uses_libc");
  b.rodata_str("msg", "four");
  b.func("main")
      .mov_sym(1, "msg")
      .call_import("strlen")
      .mov_rr(1, 0)
      .sys(sys::kExit);  // exit(strlen("four")) == exit(4)
  b.set_entry("main");
  Os os;
  int pid = os.spawn(make(b), {build_libc()});
  os.run();
  ASSERT_TRUE(os.all_exited());
  EXPECT_EQ(os.process(pid)->exit_code, 4);
}

TEST(Os, EchoServerWithHostClient) {
  // Guest: listen on port 7; accept; echo one line back; exit.
  ProgramBuilder b("echo");
  b.bss("buf", 128);
  auto& f = b.func("main");
  f.sys(sys::kSocket).mov_rr(12, 0);                       // r12 = listen fd
  f.mov_rr(1, 12).mov_ri(2, 7).sys(sys::kBind);
  f.mov_rr(1, 12).sys(sys::kListen);
  f.mov_rr(1, 12).sys(sys::kAccept).mov_rr(13, 0);         // r13 = conn fd
  f.mov_rr(1, 13).mov_sym(2, "buf").mov_ri(3, 128).call_import("recv_line");
  f.mov_rr(3, 0);                                          // line length
  f.mov_rr(1, 13).mov_sym(2, "buf").sys(sys::kSend);
  f.mov_ri(1, 0).sys(sys::kExit);
  b.set_entry("main");

  Os os;
  int pid = os.spawn(make(b), {build_libc()});
  os.run();  // runs until blocked in accept
  EXPECT_FALSE(os.all_exited());
  ASSERT_TRUE(os.has_listener(7));

  HostConn conn = os.connect(7);
  conn.send("ping\n");
  os.run();
  EXPECT_EQ(conn.recv_all(), "ping\n");
  EXPECT_TRUE(os.all_exited());
  EXPECT_EQ(os.process(pid)->exit_code, 0);
}

TEST(Os, ConnectWithoutListenerThrows) {
  Os os;
  EXPECT_THROW(os.connect(1234), StateError);
}

TEST(Os, RecvBlocksUntilDataArrives) {
  ProgramBuilder b("blocker");
  b.bss("buf", 16);
  auto& f = b.func("main");
  f.sys(sys::kSocket).mov_rr(12, 0);
  f.mov_rr(1, 12).mov_ri(2, 9).sys(sys::kBind);
  f.mov_rr(1, 12).sys(sys::kListen);
  f.mov_rr(1, 12).sys(sys::kAccept).mov_rr(13, 0);
  f.mov_rr(1, 13).mov_sym(2, "buf").mov_ri(3, 16).sys(sys::kRecv);
  f.mov_rr(1, 0).sys(sys::kExit);  // exit(bytes received)
  b.set_entry("main");

  Os os;
  int pid = os.spawn(make(b));
  os.run();
  HostConn conn = os.connect(9);
  os.run();
  EXPECT_EQ(os.process(pid)->state, Process::State::kBlocked);
  conn.send("abc");
  os.run();
  ASSERT_TRUE(os.all_exited());
  EXPECT_EQ(os.process(pid)->exit_code, 3);
}

TEST(Os, RecvReturnsZeroOnPeerClose) {
  ProgramBuilder b("eof");
  b.bss("buf", 16);
  auto& f = b.func("main");
  f.sys(sys::kSocket).mov_rr(12, 0);
  f.mov_rr(1, 12).mov_ri(2, 10).sys(sys::kBind);
  f.mov_rr(1, 12).sys(sys::kListen);
  f.mov_rr(1, 12).sys(sys::kAccept).mov_rr(13, 0);
  f.mov_rr(1, 13).mov_sym(2, "buf").mov_ri(3, 16).sys(sys::kRecv);
  f.add_ri(0, 77).mov_rr(1, 0).sys(sys::kExit);  // exit(77 + n)
  b.set_entry("main");

  Os os;
  int pid = os.spawn(make(b));
  os.run();
  HostConn conn = os.connect(10);
  os.run();
  conn.close();
  os.run();
  ASSERT_TRUE(os.all_exited());
  EXPECT_EQ(os.process(pid)->exit_code, 77);
}

TEST(Os, GuestToGuestConnection) {
  // Server guest echoes; client guest connects, sends, checks reply length.
  ProgramBuilder sb("server");
  sb.bss("buf", 64);
  auto& s = sb.func("main");
  s.sys(sys::kSocket).mov_rr(12, 0);
  s.mov_rr(1, 12).mov_ri(2, 11).sys(sys::kBind);
  s.mov_rr(1, 12).sys(sys::kListen);
  s.mov_rr(1, 12).sys(sys::kAccept).mov_rr(13, 0);
  s.mov_rr(1, 13).mov_sym(2, "buf").mov_ri(3, 64).sys(sys::kRecv);
  s.mov_rr(3, 0);
  s.mov_rr(1, 13).mov_sym(2, "buf").sys(sys::kSend);
  s.mov_ri(1, 0).sys(sys::kExit);
  sb.set_entry("main");

  ProgramBuilder cb("client");
  cb.rodata_str("msg", "hi!");
  cb.bss("buf", 64);
  auto& c = cb.func("main");
  c.sys(sys::kSocket).mov_rr(12, 0);
  c.mov_rr(1, 12).mov_ri(2, 11).sys(sys::kConnect);
  c.mov_rr(1, 12).mov_sym(2, "msg").mov_ri(3, 3).sys(sys::kSend);
  c.mov_rr(1, 12).mov_sym(2, "buf").mov_ri(3, 64).sys(sys::kRecv);
  c.mov_rr(1, 0).sys(sys::kExit);  // exit(reply length)
  cb.set_entry("main");

  Os os;
  int spid = os.spawn(make(sb));
  os.run();  // server parks in accept before the client exists
  int cpid = os.spawn(make(cb));
  os.run();
  ASSERT_TRUE(os.all_exited());
  EXPECT_EQ(os.process(spid)->exit_code, 0);
  EXPECT_EQ(os.process(cpid)->exit_code, 3);
}

TEST(Os, ForkReturnsChildPidAndZero) {
  // Parent exits with (fork() != 0), child with 0 after observing r0 == 0.
  ProgramBuilder b("forker");
  auto& f = b.func("main");
  f.sys(sys::kFork);
  f.cmp_ri(0, 0).je("child");
  f.mov_ri(1, 1).sys(sys::kExit);  // parent
  f.label("child").mov_ri(1, 2).sys(sys::kExit);
  b.set_entry("main");

  Os os;
  int pid = os.spawn(make(b));
  os.run();
  ASSERT_TRUE(os.all_exited());
  auto pids = os.pids();
  ASSERT_EQ(pids.size(), 2u);
  EXPECT_EQ(os.process(pid)->exit_code, 1);
  int child = pids[0] == pid ? pids[1] : pids[0];
  EXPECT_EQ(os.process(child)->exit_code, 2);
  EXPECT_EQ(os.process(child)->ppid, pid);
}

TEST(Os, ForkCopiesMemoryCopyOnWriteIndependence) {
  // Child increments a counter; parent must not see the change.
  ProgramBuilder b("cow");
  b.data_u64("counter", 5);
  auto& f = b.func("main");
  f.sys(sys::kFork);
  f.cmp_ri(0, 0).je("child");
  // parent: sleep a bit, then exit(counter)
  f.mov_ri(1, 100000).sys(sys::kNanosleep);
  f.mov_sym(6, "counter").load(1, 6, 0).sys(sys::kExit);
  f.label("child")
      .mov_sym(6, "counter")
      .load(7, 6, 0)
      .add_ri(7, 10)
      .store(6, 0, 7)
      .mov_ri(1, 0)
      .sys(sys::kExit);
  b.set_entry("main");

  Os os;
  int pid = os.spawn(make(b));
  os.run();
  ASSERT_TRUE(os.all_exited());
  EXPECT_EQ(os.process(pid)->exit_code, 5);  // parent unaffected
}

TEST(Os, ProcessGroupCollectsDescendants) {
  ProgramBuilder b("tree");
  auto& f = b.func("main");
  f.sys(sys::kFork);
  f.label("spin").jmp("spin");  // parent and child both spin forever
  b.set_entry("main");
  Os os;
  int pid = os.spawn(make(b));
  os.run(100000);  // enough to fork; both stay alive spinning
  auto group = os.process_group(pid);
  EXPECT_EQ(group.size(), 2u);
  EXPECT_EQ(group[0], pid);
}

TEST(Os, TrapWithoutHandlerKillsProcess) {
  ProgramBuilder b("trapdie");
  b.func("main").trap();
  b.set_entry("main");
  Os os;
  int pid = os.spawn(make(b));
  os.run();
  ASSERT_TRUE(os.all_exited());
  EXPECT_EQ(os.process(pid)->term_signal, sig::kSigTrap);
}

TEST(Os, SegvOnUnmappedAccessKills) {
  ProgramBuilder b("segv");
  b.func("main").mov_ri(1, 0xdead0000).load(2, 1, 0).ret();
  b.set_entry("main");
  Os os;
  int pid = os.spawn(make(b));
  os.run();
  EXPECT_EQ(os.process(pid)->term_signal, sig::kSigSegv);
}

TEST(Os, DivByZeroRaisesSigfpe) {
  ProgramBuilder b("fpe");
  b.func("main").mov_ri(1, 3).mov_ri(2, 0).div_rr(1, 2).ret();
  b.set_entry("main");
  Os os;
  int pid = os.spawn(make(b));
  os.run();
  EXPECT_EQ(os.process(pid)->term_signal, sig::kSigFpe);
}

// The central mechanism test: a guest SIGTRAP handler rewrites the saved IP
// in its signal frame; sigreturn resumes at the redirected location. This
// is exactly how DynaCut's injected fault handler implements "respond 403
// instead of crashing" (paper §3.2.2, Figure 5).
TEST(Os, TrapHandlerRedirectsSavedIp) {
  ProgramBuilder b("redirect");
  auto& f = b.func("main");
  f.mov_ri(1, sig::kSigTrap)
      .mov_sym(2, "handler")
      .mov_sym(3, "restorer")
      .sys(sys::kSigaction);
  f.trap();                            // 1 byte; handler skips over it
  f.mov_ri(1, 55).sys(sys::kExit);     // reached only via redirect
  b.func("handler")
      .load(6, 1, 0)   // frame->saved_ip (address of the trap byte)
      .add_ri(6, 1)    // skip the 1-byte trap
      .store(1, 0, 6)
      .ret();          // returns into the restorer
  b.func("restorer").sys(sys::kSigreturn);
  b.set_entry("main");

  Os os;
  int pid = os.spawn(make(b));
  os.run();
  ASSERT_TRUE(os.all_exited());
  EXPECT_EQ(os.process(pid)->term_signal, 0);
  EXPECT_EQ(os.process(pid)->exit_code, 55);
}

TEST(Os, TrapHandlerPreservesRegistersAcrossSignal) {
  ProgramBuilder b("sigregs");
  auto& f = b.func("main");
  f.mov_ri(1, sig::kSigTrap)
      .mov_sym(2, "handler")
      .mov_sym(3, "restorer")
      .sys(sys::kSigaction);
  f.mov_ri(9, 123);  // must survive the handler clobbering r9
  f.trap();
  f.mov_rr(1, 9).sys(sys::kExit);
  b.func("handler")
      .mov_ri(9, 999)  // clobber; sigreturn must restore 123
      .load(6, 1, 0)
      .add_ri(6, 1)
      .store(1, 0, 6)
      .ret();
  b.func("restorer").sys(sys::kSigreturn);
  b.set_entry("main");

  Os os;
  int pid = os.spawn(make(b));
  os.run();
  ASSERT_TRUE(os.all_exited());
  EXPECT_EQ(os.process(pid)->exit_code, 123);
}

TEST(Os, SigreturnWithoutFrameKills) {
  ProgramBuilder b("badsigret");
  b.func("main").sys(sys::kSigreturn);
  b.set_entry("main");
  Os os;
  int pid = os.spawn(make(b));
  os.run();
  EXPECT_EQ(os.process(pid)->term_signal, sig::kSigSegv);
}

TEST(Os, NanosleepAdvancesVirtualClock) {
  ProgramBuilder b("sleeper");
  b.func("main").mov_ri(1, 5000).sys(sys::kNanosleep).mov_ri(1, 0).sys(
      sys::kExit);
  b.set_entry("main");
  Os os;
  os.spawn(make(b));
  os.run();
  ASSERT_TRUE(os.all_exited());
  EXPECT_GE(os.now(), 5000u);
}

TEST(Os, MmapMunmap) {
  ProgramBuilder b("mapper");
  auto& f = b.func("main");
  f.mov_ri(1, 0)
      .mov_ri(2, 8192)
      .mov_ri(3, kProtRead | kProtWrite)
      .sys(sys::kMmap)
      .mov_rr(12, 0);            // addr
  f.mov_ri(6, 77).store(12, 0, 6).load(7, 12, 0);  // write+read the mapping
  f.mov_rr(1, 12).mov_ri(2, 8192).sys(sys::kMunmap);
  f.mov_rr(1, 7).sys(sys::kExit);
  b.set_entry("main");
  Os os;
  int pid = os.spawn(make(b));
  os.run();
  ASSERT_TRUE(os.all_exited());
  EXPECT_EQ(os.process(pid)->exit_code, 77);
}

TEST(Os, MprotectMakesCodeWritable) {
  // Guest patches its own code after mprotect (the verifier-library path).
  ProgramBuilder b("selfpatch");
  auto& f = b.func("main");
  // mprotect(kAppBase, page, RWX)
  f.mov_ri(1, kAppBase)
      .mov_ri(2, kPageSize)
      .mov_ri(3, kProtRead | kProtWrite | kProtExec)
      .sys(sys::kMprotect);
  // overwrite the trap below with NOP (0x90) before reaching it
  f.mov_sym(6, "patchee").mov_ri(7, 0x90).storeb(6, 0, 7);
  f.call("patchee");
  f.mov_ri(1, 21).sys(sys::kExit);
  b.func("patchee").trap().ret();  // trap byte gets replaced by nop
  b.set_entry("main");
  Os os;
  int pid = os.spawn(make(b));
  os.run();
  ASSERT_TRUE(os.all_exited());
  EXPECT_EQ(os.process(pid)->term_signal, 0);
  EXPECT_EQ(os.process(pid)->exit_code, 21);
}

TEST(Os, WriteToCodeWithoutMprotectFaults) {
  ProgramBuilder b("wxviolate");
  auto& f = b.func("main");
  f.mov_sym(6, "main").mov_ri(7, 0x90).storeb(6, 0, 7);
  f.mov_ri(1, 0).sys(sys::kExit);
  b.set_entry("main");
  Os os;
  int pid = os.spawn(make(b));
  os.run();
  EXPECT_EQ(os.process(pid)->term_signal, sig::kSigSegv);
}

TEST(Os, NudgeEventsRecorded) {
  ProgramBuilder b("nudger");
  b.func("main").mov_ri(1, 424242).sys(sys::kNudge).mov_ri(1, 0).sys(
      sys::kExit);
  b.set_entry("main");
  Os os;
  int pid = os.spawn(make(b));
  os.run();
  ASSERT_EQ(os.nudges().size(), 1u);
  EXPECT_EQ(os.nudges()[0].first, pid);
  EXPECT_EQ(os.nudges()[0].second, 424242u);
}

TEST(Os, GetpidAndClockSyscalls) {
  ProgramBuilder b("pidclk");
  auto& f = b.func("main");
  f.sys(sys::kGetpid).mov_rr(12, 0);
  f.sys(sys::kClock).cmp_ri(0, 0).je("bad");
  f.mov_rr(1, 12).sys(sys::kExit);
  f.label("bad").mov_ri(1, 0).sys(sys::kExit);
  b.set_entry("main");
  Os os;
  int pid = os.spawn(make(b));
  os.run();
  EXPECT_EQ(os.process(pid)->exit_code, pid);
}

TEST(Os, FreezeHidesProcessFromScheduler) {
  ProgramBuilder b("spinner");
  auto& f = b.func("main");
  f.label("spin").mov_ri(1, 10).sys(sys::kNanosleep).jmp("spin");
  b.set_entry("main");
  Os os;
  int pid = os.spawn(make(b));
  os.run(1000);
  uint64_t retired_before = os.process(pid)->instructions_retired;
  os.freeze(pid);
  os.run(1000);
  EXPECT_EQ(os.process(pid)->instructions_retired, retired_before);
  os.thaw(pid);
  os.run(1000);
  EXPECT_GT(os.process(pid)->instructions_retired, retired_before);
}

TEST(Os, FreezeTwiceThrows) {
  ProgramBuilder b("spin2");
  b.func("main").label("s").jmp("s");
  b.set_entry("main");
  Os os;
  int pid = os.spawn(make(b));
  os.freeze(pid);
  EXPECT_THROW(os.freeze(pid), StateError);
  EXPECT_THROW(os.thaw(999), StateError);
}

TEST(Os, RunTicksAdvancesIdleClock) {
  Os os;
  uint64_t t0 = os.now();
  os.run_ticks(12345);
  EXPECT_GE(os.now() - t0, 12345u);
}

TEST(Os, UnknownSyscallKillsProcess) {
  ProgramBuilder b("badsys");
  b.func("main").sys(9999);
  b.set_entry("main");
  Os os;
  int pid = os.spawn(make(b));
  os.run();
  EXPECT_EQ(os.process(pid)->term_signal, 31);
}

TEST(Os, TrapOnQuantumBoundaryChargedOncePerAttempt) {
  // kQuantum-1 nops then a trap: the trap is the quantum's last attempt and
  // must be charged to instructions_retired exactly once — on both the
  // interpreter and superblock execution paths.
  for (bool sb : {false, true}) {
    ProgramBuilder b("qtrap");
    auto& f = b.func("main");
    for (uint64_t i = 0; i + 1 < Os::kQuantum; ++i) f.nop();
    f.trap();
    b.set_entry("main");
    Os os;
    os.set_superblocks(sb);
    int pid = os.spawn(make(b));
    os.run();
    EXPECT_EQ(os.process(pid)->term_signal, sig::kSigTrap);
    EXPECT_EQ(os.process(pid)->instructions_retired, Os::kQuantum);
  }
}

TEST(Os, SuperblockAccountingMatchesInterpreter) {
  // A serving loop long enough to get traced and to cross many quantum
  // boundaries: per-instruction accounting must be identical with and
  // without superblocks.
  uint64_t retired[2] = {0, 0};
  for (int sb = 0; sb < 2; ++sb) {
    ProgramBuilder b("sbloop");
    auto& f = b.func("main");
    f.mov_ri(2, 0);
    f.label("top").add_ri(2, 1).cmp_ri(2, 5000).jlt("top");
    f.mov_ri(1, 42).sys(sys::kExit);
    b.set_entry("main");
    Os os;
    os.set_superblocks(sb == 1);
    int pid = os.spawn(make(b));
    os.run();
    ASSERT_TRUE(os.all_exited());
    EXPECT_EQ(os.process(pid)->exit_code, 42);
    retired[sb] = os.process(pid)->instructions_retired;
  }
  EXPECT_GT(retired[0], Os::kQuantum);  // really crossed quanta
  EXPECT_EQ(retired[0], retired[1]);
}

TEST(Os, PatchRetiresSuperblockAndEmitsEvents) {
  // A spinning guest gets its hot loop fused; the host then pokes a trap
  // byte at the guest's next instruction (the rewriter's int3). The stale
  // trace must retire before the next quantum retires anything from it,
  // and the bus must see the sb.build / sb.retire lifecycle.
  ProgramBuilder b("spin");
  b.func("main").label("s").add_ri(1, 1).jmp("s");
  b.set_entry("main");
  obs::EventBus bus;
  obs::RingBufferSink ring;
  bus.add_sink(&ring);
  Os os;
  os.set_event_bus(&bus);
  int pid = os.spawn(make(b));
  os.run(20 * Os::kQuantum);
  Process* p = os.process(pid);
  ASSERT_GT(p->sbcache.builds(), 0u);
  bool saw_build = false;
  for (const auto& ev : ring.events()) {
    saw_build = saw_build || ev.type == obs::ev::kSbBuild;
  }
  EXPECT_TRUE(saw_build);

  uint8_t trap = 0xCC;
  uint64_t target = p->cpu.ip;
  p->mem.poke(target, &trap, 1);
  uint64_t before = p->instructions_retired;
  os.run();
  EXPECT_EQ(p->term_signal, sig::kSigTrap);
  EXPECT_EQ(p->instructions_retired, before + 1);  // only the trap attempt
  bool saw_retire = false;
  for (const auto& ev : ring.events()) {
    saw_retire = saw_retire || ev.type == obs::ev::kSbRetire;
  }
  EXPECT_TRUE(saw_retire);
}

struct CountingSink : BlockSink {
  uint64_t blocks = 0;
  void on_block(const Process&, uint64_t) override { ++blocks; }
};

TEST(Os, BlockSinkKeepsPerBlockCoverage) {
  // Coverage tracing needs an event per basic block; while a sink is
  // attached the scheduler must bypass superblocks (a fused trace retires
  // many blocks without surfacing any of them).
  ProgramBuilder b("cover");
  auto& f = b.func("main");
  f.mov_ri(2, 0);
  f.label("top").add_ri(2, 1).cmp_ri(2, 100).jlt("top");
  f.mov_ri(1, 0).sys(sys::kExit);
  b.set_entry("main");
  Os os;
  CountingSink sink;
  os.set_block_sink(&sink);
  int pid = os.spawn(make(b));
  os.run();
  ASSERT_TRUE(os.all_exited());
  EXPECT_GE(sink.blocks, 100u);  // one event per iteration, not per trace
  EXPECT_EQ(os.process(pid)->sbcache.builds(), 0u);
}

std::shared_ptr<const Binary> make_spinner(const char* name, int body_adds) {
  ProgramBuilder b(name);
  auto& f = b.func("main");
  f.label("spin");
  for (int i = 0; i < body_adds; ++i) f.add_ri(2, 1);
  f.jmp("spin");
  b.set_entry("main");
  return make(b);
}

TEST(Os, SchedulerRotationAvoidsPidOrderStarvation) {
  // Budget-sliced driving (run(kQuantum) in a loop) used to restart the
  // ready scan at the lowest pid every call, so one hot low-pid spinner
  // could absorb every slice. The rotating ready queue must share slices
  // across all runnable pids regardless of pid order.
  Os os;
  auto spin = make_spinner("fair", 1);
  std::vector<int> pids;
  for (int i = 0; i < 4; ++i) pids.push_back(os.spawn(spin));
  for (int i = 0; i < 64; ++i) os.run(Os::kQuantum);
  uint64_t lo = ~0ull, hi = 0;
  for (int pid : pids) {
    uint64_t r = os.process(pid)->instructions_retired;
    lo = std::min(lo, r);
    hi = std::max(hi, r);
  }
  EXPECT_GT(lo, 0u) << "a runnable pid was starved";
  EXPECT_LE(hi, 2 * lo) << "slices not shared fairly across pids";
}

TEST(Os, RunTicksLandsComputeExactlyOnDeadline) {
  // The deadline must be honored per operation: a pure-compute workload
  // (1 tick per instruction) lands exactly on the deadline instead of
  // overshooting by up to a whole scheduling round.
  Os os;
  int pid = os.spawn(make_spinner("exact", 3));
  os.run_ticks(10'000);
  EXPECT_EQ(os.now(), 10'000u);
  EXPECT_EQ(os.process(pid)->instructions_retired, 10'000u);
  os.run_ticks(3'333);  // a second slice continues from the same clock
  EXPECT_EQ(os.now(), 13'333u);
}

TEST(Os, RunTicksIdleJumpIsExact) {
  // With nothing schedulable the clock jumps to the deadline, not past it.
  Os os;
  os.run_ticks(12'345);
  EXPECT_EQ(os.now(), 12'345u);
  os.set_cores(4);
  os.run_ticks(1'000);
  EXPECT_EQ(os.now(), 13'345u);
  for (size_t c = 0; c < 4; ++c) EXPECT_EQ(os.core_stats(c).clock, 13'345u);
}

TEST(Os, HostConnRecvLineDrainsPipelinedBatch) {
  // recv_line over a pipelined batch: every line comes back intact and in
  // order, a partial tail stays buffered (pending, not dropped), and the
  // consumed-offset bookkeeping stays consistent with recv_all.
  auto wire = std::make_shared<Conn>();
  HostConn host(SockEnd{wire, true});
  HostConn peer(SockEnd{wire, false});

  std::string batch;
  for (int i = 0; i < 100; ++i) batch += "line " + std::to_string(i) + "\n";
  peer.send(batch);
  peer.send("tail");  // incomplete final line
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(host.recv_line(), "line " + std::to_string(i) + "\n");
  }
  EXPECT_EQ(host.recv_line(), "");  // no complete line yet
  EXPECT_EQ(host.pending(), 4u);    // "tail" buffered, not dropped
  peer.send("\n");
  EXPECT_EQ(host.recv_line(), "tail\n");
  EXPECT_EQ(host.pending(), 0u);

  peer.send("x\nyz");
  EXPECT_EQ(host.recv_line(), "x\n");
  EXPECT_EQ(host.recv_all(), "yz");  // recv_all honors the consumed offset
  EXPECT_EQ(host.pending(), 0u);
}

TEST(Os, MultiCoreSpreadsLoadAcrossCores) {
  Os os;
  os.set_cores(4);
  auto spin = make_spinner("mc", 2);
  std::vector<int> pids;
  for (int i = 0; i < 8; ++i) pids.push_back(os.spawn(spin));
  os.run(80'000);
  uint64_t per_core_sum = 0, per_pid_sum = 0;
  for (size_t c = 0; c < 4; ++c) {
    EXPECT_GT(os.core_stats(c).retired, 0u) << "core " << c << " idle";
    per_core_sum += os.core_stats(c).retired;
  }
  for (int pid : pids) per_pid_sum += os.process(pid)->instructions_retired;
  EXPECT_EQ(per_core_sum, os.total_retired());
  EXPECT_EQ(per_pid_sum, os.total_retired());
}

TEST(Os, WorkStealingRebalancesPinnedBacklog) {
  // Pin every spinner onto core 0: the idle cores must steal work instead
  // of spinning their clocks forward, and the bus must see sched.steal.
  obs::EventBus bus;
  obs::RingBufferSink ring;
  bus.add_sink(&ring);
  Os os;
  os.set_event_bus(&bus);
  os.set_cores(2);
  os.set_seed(1);
  auto spin = make_spinner("steal", 2);
  std::vector<int> pids;
  for (int i = 0; i < 4; ++i) pids.push_back(os.spawn(spin));
  for (int pid : pids) os.pin(pid, 0);
  os.run(40'000);
  EXPECT_GT(os.core_stats(1).steals, 0u);
  EXPECT_GT(os.core_stats(1).retired, 0u);
  EXPECT_GT(ring.count(obs::ev::kSchedSteal), 0u);
}

TEST(Os, MultiCoreSameSeedIsDeterministic) {
  // Two runs with the same spawn sequence and seed must produce identical
  // schedules: per-pid retired counts and per-core clock/retired/steal
  // counters all match bit-for-bit.
  auto run_once = [](std::vector<uint64_t>& out) {
    Os os;
    os.set_cores(4);
    os.set_seed(99);
    std::vector<int> pids;
    for (int i = 0; i < 6; ++i) {
      pids.push_back(os.spawn(make_spinner("det", 1 + i % 3)));
    }
    ProgramBuilder s("sleeper");
    s.func("main").label("z").mov_ri(1, 50).sys(sys::kNanosleep).jmp("z");
    s.set_entry("main");
    pids.push_back(os.spawn(make(s)));
    os.run(120'000);
    for (int pid : pids) out.push_back(os.process(pid)->instructions_retired);
    for (size_t c = 0; c < 4; ++c) {
      out.push_back(os.core_stats(c).clock);
      out.push_back(os.core_stats(c).retired);
      out.push_back(os.core_stats(c).steals);
    }
    out.push_back(os.total_retired());
  };
  std::vector<uint64_t> a, b2;
  run_once(a);
  run_once(b2);
  EXPECT_EQ(a, b2);
}

TEST(Os, FreezeGroupFailureRollsBackWhileOtherCoresRetire) {
  // A freeze_group that fails mid-list (dead pid) must thaw everything it
  // already froze; a successful freeze of one pid must not stop processes
  // on other cores from retiring instructions.
  Os os;
  os.set_cores(2);
  auto spin = make_spinner("grp", 1);
  int a = os.spawn(spin);  // round-robin: core 0
  int b = os.spawn(spin);  // core 1
  os.run(4'000);

  EXPECT_THROW(os.freeze_group({a, 999}), StateError);
  EXPECT_EQ(os.process(a)->state, Process::State::kRunnable);  // rolled back
  uint64_t ra = os.process(a)->instructions_retired;
  uint64_t rb = os.process(b)->instructions_retired;
  os.run(4'000);
  EXPECT_GT(os.process(a)->instructions_retired, ra);
  EXPECT_GT(os.process(b)->instructions_retired, rb);

  os.freeze_group({a});
  ra = os.process(a)->instructions_retired;
  rb = os.process(b)->instructions_retired;
  os.run(4'000);
  EXPECT_EQ(os.process(a)->instructions_retired, ra);  // frozen: no progress
  EXPECT_GT(os.process(b)->instructions_retired, rb);  // other core serves
  os.thaw_group({a});
  os.run(4'000);
  EXPECT_GT(os.process(a)->instructions_retired, ra);
}

TEST(Os, FrozenServerConnectionsBufferBytesUntilThaw) {
  // Bytes sent to a frozen server's connection must sit in the socket
  // buffer (not be dropped); after thaw the server drains and answers them.
  ProgramBuilder b("echoloop");
  b.bss("buf", 128);
  auto& f = b.func("main");
  f.sys(sys::kSocket).mov_rr(12, 0);
  f.mov_rr(1, 12).mov_ri(2, 21).sys(sys::kBind);
  f.mov_rr(1, 12).sys(sys::kListen);
  f.mov_rr(1, 12).sys(sys::kAccept).mov_rr(13, 0);
  f.label("loop");
  f.mov_rr(1, 13).mov_sym(2, "buf").mov_ri(3, 128).call_import("recv_line");
  f.mov_rr(3, 0);
  f.mov_rr(1, 13).mov_sym(2, "buf").sys(sys::kSend);
  f.jmp("loop");
  b.set_entry("main");

  Os os;
  int pid = os.spawn(make(b), {build_libc()});
  os.run();  // blocked in accept
  HostConn conn = os.connect(21);
  conn.send("a\n");
  os.run();
  EXPECT_EQ(conn.recv_all(), "a\n");  // serving normally

  os.freeze(pid);
  conn.send("b\n");
  conn.send("c\n");
  os.run(50'000);
  EXPECT_EQ(conn.recv_all(), "");  // frozen: no replies yet

  os.thaw(pid);
  os.run(50'000);
  EXPECT_EQ(conn.recv_all(), "b\nc\n");  // buffered bytes served after thaw
}

TEST(Os, ChargeDowntimeGatesOnlyListedPids) {
  // Freeze-set-scoped downtime: the listed pid is gated until its core
  // clock reaches now + ticks, while other processes keep retiring.
  Os os;
  os.set_cores(2);
  auto spin = make_spinner("gate", 1);
  int a = os.spawn(spin);  // core 0
  int b = os.spawn(spin);  // core 1
  os.run(2'000);
  os.charge_downtime({a}, 50'000);
  uint64_t ra = os.process(a)->instructions_retired;
  uint64_t rb = os.process(b)->instructions_retired;
  os.run(20'000);
  EXPECT_EQ(os.process(a)->instructions_retired, ra);  // still inside window
  EXPECT_GT(os.process(b)->instructions_retired, rb);  // unaffected
  os.run_ticks(80'000);  // advances core clocks past the gate
  EXPECT_GT(os.process(a)->instructions_retired, ra);
}

TEST(Os, MinikvServingStaysOnGuestMemoryFastPath) {
  // The fig8 serving loop (minikv answering kvbench's GETs on one core)
  // alternates stack, heap, bss and code pages. The address space's
  // software TLB must keep it off the VMA/page-map walk: at most 2 slow
  // accesses per 1000 retired instructions. This counts rather than times,
  // so host load cannot decide it.
  Os vos;
  const int server = vos.spawn(apps::build_minikv(), {build_libc()});
  vos.run();  // boot: the heap is touched page by page, then accept blocks
  const int client = vos.spawn(apps::build_kvbench(), {build_libc()});
  vos.run(400'000);  // connect, SET, first GETs
  auto slow = [&] {
    return vos.process(server)->mem.slow_accesses() +
           vos.process(client)->mem.slow_accesses();
  };
  const uint64_t slow0 = slow();
  const uint64_t retired0 = vos.total_retired();
  vos.run(4'000'000);
  const uint64_t retired = vos.total_retired() - retired0;
  const uint64_t misses = slow() - slow0;
  EXPECT_EQ(retired, 4'000'000u);  // still serving: nobody blocked for good
  EXPECT_LE(misses * 1000, 2 * retired)
      << misses << " slow accesses over " << retired << " instructions";
}

TEST(Loader, ResolveSymbolAcrossModules) {
  ProgramBuilder b("resolver");
  b.func("main").call_import("strlen").mov_ri(1, 0).sys(sys::kExit);
  b.set_entry("main");
  Os os;
  int pid = os.spawn(make(b), {build_libc()});
  const Process* p = os.process(pid);
  uint64_t strlen_addr = resolve_symbol(*p, "strlen");
  EXPECT_NE(strlen_addr, 0u);
  EXPECT_GE(strlen_addr, kLibcBase);
  EXPECT_EQ(resolve_symbol(*p, "no_such_symbol"), 0u);
}

TEST(Loader, UnresolvedImportThrows) {
  ProgramBuilder b("missing");
  b.func("main").call_import("nonexistent_function").ret();
  b.set_entry("main");
  Os os;
  EXPECT_THROW(os.spawn(make(b)), GuestError);
}

TEST(Loader, ModuleAtMapsAddressesToModules) {
  ProgramBuilder b("mapped");
  b.func("main").call_import("strlen").mov_ri(1, 0).sys(sys::kExit);
  b.set_entry("main");
  Os os;
  int pid = os.spawn(make(b), {build_libc()});
  const Process* p = os.process(pid);
  const LoadedModule* app = p->module_at(kAppBase);
  ASSERT_NE(app, nullptr);
  EXPECT_EQ(app->name, "mapped");
  const LoadedModule* libc = p->module_at(kLibcBase);
  ASSERT_NE(libc, nullptr);
  EXPECT_EQ(libc->name, "libc.so");
  EXPECT_EQ(p->module_at(0x1), nullptr);
}

}  // namespace
}  // namespace dynacut::os
