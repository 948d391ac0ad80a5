// Tests for the VM substrate: address-space semantics (VMAs, pages,
// protections, faults) and the VX64 executor.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <random>
#include <set>

#include "common/constants.hpp"
#include "isa/encode.hpp"
#include "vm/addrspace.hpp"
#include "vm/cpu.hpp"
#include "vm/exec.hpp"
#include "vm/superblock.hpp"

namespace dynacut::vm {
namespace {

using isa::Encoder;
using isa::Op;

// ---------------------------------------------------------------------------
// AddressSpace
// ---------------------------------------------------------------------------

TEST(AddressSpace, MapAndQuery) {
  AddressSpace as;
  as.map(0x1000, 0x2000, kProtRead | kProtWrite, "test");
  const Vma* v = as.vma_at(0x1500);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->start, 0x1000u);
  EXPECT_EQ(v->end, 0x3000u);
  EXPECT_EQ(v->name, "test");
  EXPECT_EQ(as.vma_at(0x0fff), nullptr);
  EXPECT_EQ(as.vma_at(0x3000), nullptr);
}

TEST(AddressSpace, MapRoundsSizeToPage) {
  AddressSpace as;
  as.map(0x1000, 1, kProtRead, "tiny");
  EXPECT_NE(as.vma_at(0x1fff), nullptr);
}

TEST(AddressSpace, OverlappingMapThrows) {
  AddressSpace as;
  as.map(0x1000, 0x2000, kProtRead, "a");
  EXPECT_THROW(as.map(0x2000, 0x1000, kProtRead, "b"), StateError);
  EXPECT_THROW(as.map(0x0000, 0x2000, kProtRead, "c"), StateError);
  as.map(0x3000, 0x1000, kProtRead, "ok");  // adjacent is fine
}

TEST(AddressSpace, MapEmptyThrows) {
  AddressSpace as;
  EXPECT_THROW(as.map(0x1000, 0, kProtRead, "none"), StateError);
}

TEST(AddressSpace, ReadOfUnwrittenPagesIsZero) {
  AddressSpace as;
  as.map(0x1000, 0x1000, kProtRead | kProtWrite, "z");
  uint64_t v = 123;
  ASSERT_TRUE(as.read(0x1100, &v, 8, kProtRead).ok);
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(as.populated_pages().empty());  // reads don't populate
}

TEST(AddressSpace, WriteReadRoundtripAcrossPages) {
  AddressSpace as;
  as.map(0x1000, 0x3000, kProtRead | kProtWrite, "rw");
  std::vector<uint8_t> data(5000);
  for (size_t i = 0; i < data.size(); ++i) data[i] = uint8_t(i * 7);
  ASSERT_TRUE(as.write(0x1ffc, data.data(), data.size(), kProtWrite).ok);
  std::vector<uint8_t> back(5000);
  ASSERT_TRUE(as.read(0x1ffc, back.data(), back.size(), kProtRead).ok);
  EXPECT_EQ(back, data);
  EXPECT_EQ(as.populated_pages().size(), 3u);  // touched 3 pages
}

TEST(AddressSpace, ProtectionViolationFaults) {
  AddressSpace as;
  as.map(0x1000, 0x1000, kProtRead, "ro");
  uint8_t b = 1;
  Access a = as.write(0x1000, &b, 1, kProtWrite);
  EXPECT_FALSE(a.ok);
  EXPECT_EQ(a.fault_addr, 0x1000u);
  // Host pokes bypass protection.
  as.poke(0x1000, &b, 1);
  uint8_t out = 0;
  as.peek(0x1000, &out, 1);
  EXPECT_EQ(out, 1);
}

TEST(AddressSpace, UnmappedAccessFaultsAtExactAddress) {
  AddressSpace as;
  as.map(0x1000, 0x1000, kProtRead | kProtWrite, "a");
  std::vector<uint8_t> buf(0x2000);
  Access a = as.read(0x1800, buf.data(), 0x1000, kProtRead);
  EXPECT_FALSE(a.ok);
  EXPECT_EQ(a.fault_addr, 0x2000u);  // first byte outside the VMA
}

TEST(AddressSpace, UnmapWholeRegionDiscardsPages) {
  AddressSpace as;
  as.map(0x1000, 0x2000, kProtRead | kProtWrite, "gone");
  uint64_t v = 42;
  as.write(0x1000, &v, 8, kProtWrite);
  as.unmap(0x1000, 0x2000);
  EXPECT_EQ(as.vma_at(0x1000), nullptr);
  EXPECT_TRUE(as.populated_pages().empty());
  // Remapping the range sees zeros, not stale data.
  as.map(0x1000, 0x1000, kProtRead | kProtWrite, "fresh");
  uint64_t out = 99;
  as.read(0x1000, &out, 8, kProtRead);
  EXPECT_EQ(out, 0u);
}

TEST(AddressSpace, PartialUnmapSplitsVma) {
  AddressSpace as;
  as.map(0x1000, 0x3000, kProtRead, "big");
  as.unmap(0x2000, 0x1000);
  EXPECT_NE(as.vma_at(0x1000), nullptr);
  EXPECT_EQ(as.vma_at(0x2000), nullptr);
  EXPECT_NE(as.vma_at(0x3000), nullptr);
  EXPECT_EQ(as.vma_count(), 2u);
}

TEST(AddressSpace, UnmapUnmappedThrows) {
  AddressSpace as;
  EXPECT_THROW(as.unmap(0x5000, 0x1000), StateError);
}

TEST(AddressSpace, ProtectSplitsAndApplies) {
  AddressSpace as;
  as.map(0x1000, 0x3000, kProtRead | kProtWrite, "rw");
  as.protect(0x2000, 0x1000, kProtRead);
  uint8_t b = 1;
  EXPECT_TRUE(as.write(0x1000, &b, 1, kProtWrite).ok);
  EXPECT_FALSE(as.write(0x2000, &b, 1, kProtWrite).ok);
  EXPECT_TRUE(as.write(0x3000, &b, 1, kProtWrite).ok);
}

TEST(AddressSpace, FindFreeSkipsMappedRegions) {
  AddressSpace as;
  as.map(0x1000, 0x1000, kProtRead, "a");
  as.map(0x3000, 0x1000, kProtRead, "b");
  EXPECT_EQ(as.find_free(0x1000, 0x1000), 0x2000u);
  EXPECT_EQ(as.find_free(0x2000, 0x1000), 0x4000u);  // 0x2000 gap too small
  EXPECT_EQ(as.find_free(0x1000, 0x5000), 0x5000u);
}

TEST(AddressSpace, InstallAndReadPage) {
  AddressSpace as;
  as.map(0x1000, 0x1000, kProtRead, "p");
  std::vector<uint8_t> page(kPageSize, 0x5a);
  as.install_page(0x1000, page);
  auto bytes = as.page_bytes(0x1000);
  EXPECT_EQ(bytes[0], 0x5a);
  EXPECT_EQ(bytes[kPageSize - 1], 0x5a);
  EXPECT_THROW(as.page_bytes(0x2000), StateError);
}

// --- software TLB -----------------------------------------------------------
// Guest reads and writes of one page go through a small direct-mapped TLB of
// raw block pointers. These pin down every invalidation it depends on: each
// test arms an entry first, then changes what the page is, then checks that
// the next access sees the change.

uint64_t read_u64(const AddressSpace& as, uint64_t addr) {
  uint64_t v = 0;
  EXPECT_TRUE(as.read(addr, &v, 8, kProtRead).ok) << std::hex << addr;
  return v;
}

void write_u64(AddressSpace& as, uint64_t addr, uint64_t v) {
  EXPECT_TRUE(as.write(addr, &v, 8, kProtWrite).ok) << std::hex << addr;
}

TEST(AddressSpace, TlbAliasedPagesAlternateReadsAndWrites) {
  // Pages 16 apart share a slot of the direct-mapped TLB; page+1 does not.
  constexpr uint64_t kA = 0x100000;
  constexpr uint64_t kAlias = kA + 16 * kPageSize;
  AddressSpace as;
  as.map(kA, 17 * kPageSize, kProtRead | kProtWrite, "data");
  for (uint64_t i = 0; i < 64; ++i) {
    write_u64(as, kA + 8 * (i % 8), i);
    write_u64(as, kAlias + 8 * (i % 8), ~i);
    EXPECT_EQ(read_u64(as, kA + 8 * (i % 8)), i);
    EXPECT_EQ(read_u64(as, kAlias + 8 * (i % 8)), ~i);
  }
  // Two pages in different slots stay armed side by side.
  write_u64(as, kA, 1);
  write_u64(as, kA + kPageSize, 2);
  const uint64_t slow = as.slow_accesses();
  for (uint64_t i = 0; i < 64; ++i) {
    write_u64(as, kA, i);
    write_u64(as, kA + kPageSize, i + 1);
    EXPECT_EQ(read_u64(as, kA), i);
    EXPECT_EQ(read_u64(as, kA + kPageSize), i + 1);
  }
  EXPECT_EQ(as.slow_accesses(), slow);
}

TEST(AddressSpace, TlbSharedBlockStaysUnchanged) {
  AddressSpace as;
  as.map(0x1000, 0x1000, kProtRead | kProtWrite, "data");
  std::vector<uint8_t> page(kPageSize, 0x11);
  as.install_page(0x1000, page);
  // Read-armed entry, then share, then write: the write must clone.
  EXPECT_EQ(read_u64(as, 0x1000) & 0xff, 0x11u);
  PageRef shared = as.page_block(0x1000);
  write_u64(as, 0x1000, 0x22);
  EXPECT_EQ((*shared)[0], 0x11);
  EXPECT_EQ(read_u64(as, 0x1000), 0x22u);
  // Write-armed entry, then share: page_block disarms the raw pointer.
  write_u64(as, 0x1008, 0x33);
  PageRef again = as.page_block(0x1000);
  write_u64(as, 0x1008, 0x44);
  EXPECT_EQ((*again)[8], 0x33);
  EXPECT_EQ(read_u64(as, 0x1008), 0x44u);
}

TEST(AddressSpace, TlbDropsEntryOfClonedPage) {
  // A two-page store clones the shared block of a read-armed page without
  // re-arming its entry: the entry must not keep naming the old block.
  AddressSpace as;
  as.map(0x1000, 0x2000, kProtRead | kProtWrite, "data");
  write_u64(as, 0x2000, 1);
  EXPECT_EQ(read_u64(as, 0x2000), 1u);  // armed
  PageRef shared = as.page_block(0x2000);
  const uint64_t v = 0x0202020202020202u;
  ASSERT_TRUE(as.write(0x1ffc, &v, 8, kProtWrite).ok);
  EXPECT_EQ(read_u64(as, 0x2000) & 0xffffffffu, 0x02020202u);
  EXPECT_EQ((*shared)[0], 1);
}

TEST(AddressSpace, TlbProtectAndUnmapFaultAtExactAddress) {
  AddressSpace as;
  as.map(0x1000, 0x2000, kProtRead | kProtWrite | kProtExec, "rwx");
  write_u64(as, 0x1010, 7);  // armed for writes
  as.protect(0x1000, 0x1000, kProtRead);
  uint64_t v = 8;
  Access w = as.write(0x1018, &v, 8, kProtWrite);
  EXPECT_FALSE(w.ok);
  EXPECT_EQ(w.fault_addr, 0x1018u);
  Access x = as.read(0x1010, &v, 1, kProtExec);  // no longer executable
  EXPECT_FALSE(x.ok);
  EXPECT_EQ(x.fault_addr, 0x1010u);
  EXPECT_EQ(read_u64(as, 0x1010), 7u);

  write_u64(as, 0x2020, 9);
  EXPECT_EQ(read_u64(as, 0x2020), 9u);  // armed for reads
  as.unmap(0x2000, 0x1000);
  Access r = as.read(0x2020, &v, 8, kProtRead);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.fault_addr, 0x2020u);
}

TEST(AddressSpace, TlbSeesDropInstallAndAdopt) {
  AddressSpace as;
  as.map(0x1000, 0x1000, kProtRead | kProtWrite, "data");
  write_u64(as, 0x1000, 5);
  EXPECT_EQ(read_u64(as, 0x1000), 5u);
  as.drop_page(0x1000);
  EXPECT_EQ(read_u64(as, 0x1000), 0u);

  write_u64(as, 0x1000, 5);
  EXPECT_EQ(read_u64(as, 0x1000), 5u);
  as.install_page_block(0x1000,
                        std::make_shared<std::vector<uint8_t>>(kPageSize, 6));
  EXPECT_EQ(read_u64(as, 0x1000), 0x0606060606060606u);

  // adopt_page_block promises identical bytes; different ones here only
  // make a stale pointer visible.
  EXPECT_EQ(read_u64(as, 0x1000), 0x0606060606060606u);
  as.adopt_page_block(0x1000,
                      std::make_shared<std::vector<uint8_t>>(kPageSize, 7));
  EXPECT_EQ(read_u64(as, 0x1000), 0x0707070707070707u);
  write_u64(as, 0x1000, 8);  // armed for writes, then adopt again
  as.adopt_page_block(0x1000,
                      std::make_shared<std::vector<uint8_t>>(kPageSize, 9));
  write_u64(as, 0x1008, 10);
  EXPECT_EQ(read_u64(as, 0x1000), 0x0909090909090909u);
}

TEST(AddressSpace, TlbCopiesAreIsolatedBothWays) {
  AddressSpace a;
  a.map(0x1000, 0x1000, kProtRead | kProtWrite, "data");
  write_u64(a, 0x1000, 1);
  AddressSpace b;
  b.map(0x1000, 0x1000, kProtRead | kProtWrite, "data");
  write_u64(b, 0x1000, 2);
  b = a;  // both armed for writes before the copy
  write_u64(a, 0x1000, 3);
  EXPECT_EQ(read_u64(b, 0x1000), 1u);
  write_u64(b, 0x1000, 4);
  EXPECT_EQ(read_u64(a, 0x1000), 3u);

  AddressSpace c(a);  // copy-construct from an armed source
  write_u64(a, 0x1000, 5);
  EXPECT_EQ(read_u64(c, 0x1000), 3u);
  write_u64(c, 0x1000, 6);
  EXPECT_EQ(read_u64(a, 0x1000), 5u);

  AddressSpace d;
  d.map(0x1000, 0x1000, kProtRead | kProtWrite, "data");
  write_u64(d, 0x1000, 7);
  d = std::move(c);  // the destination's armed entry must go
  EXPECT_EQ(read_u64(d, 0x1000), 6u);
  // Whatever a moved-from space still holds, it must not reach the blocks
  // it gave away.
  uint64_t v = 8;
  (void)c.write(0x1000, &v, 8, kProtWrite);
  EXPECT_EQ(read_u64(d, 0x1000), 6u);
  write_u64(d, 0x1000, 9);  // armed in d
  AddressSpace e(std::move(d));
  (void)d.write(0x1000, &v, 8, kProtWrite);
  EXPECT_EQ(read_u64(e, 0x1000), 9u);
}

TEST(AddressSpace, TlbFastPathStoresBumpExecGeneration) {
  AddressSpace as;
  as.map(0x1000, 0x1000, kProtRead | kProtWrite | kProtExec, "rwx");
  uint8_t b = 0x90;
  ASSERT_TRUE(as.write(0x1000, &b, 1, kProtWrite).ok);
  const uint64_t gen = as.page_generation(0x1000);
  const uint64_t slow = as.slow_accesses();
  for (uint64_t i = 1; i <= 10; ++i) {
    ASSERT_TRUE(as.write(0x1000 + i, &b, 1, kProtWrite).ok);
    EXPECT_EQ(as.page_generation(0x1000), gen + i);
  }
  EXPECT_EQ(as.slow_accesses(), slow);  // all ten took the fast path
}

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

struct Machine {
  AddressSpace mem;
  Cpu cpu;

  explicit Machine(const std::vector<uint8_t>& code) {
    mem.map(0x1000, page_ceil(code.size()), kProtRead | kProtExec, "code");
    mem.poke(0x1000, code.data(), code.size());
    mem.map(0x8000, 0x1000, kProtRead | kProtWrite, "stack");
    cpu.ip = 0x1000;
    cpu.sp() = 0x9000;
  }

  /// Steps until a non-kOk result or `limit` instructions.
  StepResult run(int limit = 10000) {
    StepResult r;
    for (int i = 0; i < limit; ++i) {
      r = step(mem, cpu);
      if (r.kind != StepKind::kOk) return r;
    }
    return r;
  }
};

std::vector<uint8_t> assemble(const std::function<void(Encoder&)>& gen) {
  std::vector<uint8_t> code;
  Encoder enc(code);
  gen(enc);
  return code;
}

TEST(Exec, ArithmeticAndSyscall) {
  auto code = assemble([](Encoder& e) {
    e.mov_ri(1, 20);
    e.mov_ri(2, 22);
    e.add_rr(1, 2);   // r1 = 42
    e.mov_ri(3, 7);
    e.mul_rr(3, 1);   // r3 = 294
    e.sub_ri(3, 94);  // r3 = 200
    e.mov_ri(4, 8);
    e.div_rr(3, 4);   // r3 = 25
    e.syscall();
  });
  Machine m(code);
  StepResult r = m.run();
  EXPECT_EQ(r.kind, StepKind::kSyscall);
  EXPECT_EQ(m.cpu.regs[1], 42u);
  EXPECT_EQ(m.cpu.regs[3], 25u);
}

TEST(Exec, BitwiseAndShifts) {
  auto code = assemble([](Encoder& e) {
    e.mov_ri(1, 0xf0);
    e.mov_ri(2, 0x0f);
    e.or_rr(1, 2);    // 0xff
    e.mov_ri(3, 0xff);
    e.and_rr(3, 1);   // 0xff
    e.xor_rr(3, 2);   // 0xf0
    e.shl_ri(3, 4);   // 0xf00
    e.shr_ri(3, 8);   // 0xf
    e.syscall();
  });
  Machine m(code);
  m.run();
  EXPECT_EQ(m.cpu.regs[3], 0xfu);
}

TEST(Exec, ConditionalBranchesSignedUnsigned) {
  // r1 = -1 (unsigned huge), r2 = 1. Signed: r1 < r2. Unsigned: r1 > r2.
  auto code = assemble([](Encoder& e) {
    e.mov_ri(1, static_cast<uint64_t>(-1));
    e.mov_ri(2, 1);
    e.cmp_rr(1, 2);
    e.branch(Op::kJlt, 11);  // taken (signed): skip mov r5,1 (10B) + 1 trap
    e.mov_ri(5, 1);
    e.trap();
    e.cmp_rr(1, 2);
    e.branch(Op::kJb, 11);  // NOT taken (unsigned): falls through
    e.mov_ri(6, 7);
    e.syscall();
  });
  Machine m(code);
  StepResult r = m.run();
  EXPECT_EQ(r.kind, StepKind::kSyscall);
  EXPECT_EQ(m.cpu.regs[5], 0u);  // skipped
  EXPECT_EQ(m.cpu.regs[6], 7u);  // executed
}

TEST(Exec, LoopSumsToTen) {
  // for (r1=0, r2=0; r1<5; r1++) r2 += r1;  => r2 = 10
  auto code = assemble([](Encoder& e) {
    e.mov_ri(1, 0);
    e.mov_ri(2, 0);
    size_t loop = e.offset();
    e.add_rr(2, 1);
    e.add_ri(1, 1);
    e.cmp_ri(1, 5);
    size_t j = e.branch(Op::kJlt, 0);
    e.patch_rel32(j, static_cast<int32_t>(loop) -
                         static_cast<int32_t>(j + 5));
    e.syscall();
  });
  Machine m(code);
  m.run();
  EXPECT_EQ(m.cpu.regs[2], 10u);
}

TEST(Exec, CallRetUsesStack) {
  auto code = assemble([](Encoder& e) {
    e.branch(Op::kCall, 6);  // call over the next syscall (1B) + nops
    e.syscall();             // returns here
    e.nop();                 // padding
    e.nop();
    e.nop();
    e.nop();
    e.nop();
    // callee:
    e.mov_ri(4, 77);
    e.ret();
  });
  Machine m(code);
  uint64_t sp0 = m.cpu.sp();
  StepResult r = m.run();
  EXPECT_EQ(r.kind, StepKind::kSyscall);
  EXPECT_EQ(m.cpu.regs[4], 77u);
  EXPECT_EQ(m.cpu.sp(), sp0);  // balanced
}

TEST(Exec, PushPopRoundtrip) {
  auto code = assemble([](Encoder& e) {
    e.mov_ri(1, 111);
    e.mov_ri(2, 222);
    e.push(1);
    e.push(2);
    e.pop(3);
    e.pop(4);
    e.syscall();
  });
  Machine m(code);
  m.run();
  EXPECT_EQ(m.cpu.regs[3], 222u);
  EXPECT_EQ(m.cpu.regs[4], 111u);
}

TEST(Exec, LoadStoreByteAndWord) {
  auto code = assemble([](Encoder& e) {
    e.mov_ri(1, 0x8000);
    e.mov_ri(2, 0x1122334455667788ULL);
    e.store(1, 0, 2);
    e.load(3, 1, 0);
    e.loadb(4, 1, 1);  // second byte = 0x77
    e.mov_ri(5, 0xfe);
    e.storeb(1, 0, 5);
    e.loadb(6, 1, 0);
    e.syscall();
  });
  Machine m(code);
  m.run();
  EXPECT_EQ(m.cpu.regs[3], 0x1122334455667788ULL);
  EXPECT_EQ(m.cpu.regs[4], 0x77u);
  EXPECT_EQ(m.cpu.regs[6], 0xfeu);
}

TEST(Exec, LeaComputesIpRelative) {
  auto code = assemble([](Encoder& e) {
    e.lea(1, 10);  // r1 = 0x1000 + 6 + 10
    e.syscall();
  });
  Machine m(code);
  m.run();
  EXPECT_EQ(m.cpu.regs[1], 0x1000u + 6 + 10);
}

TEST(Exec, IndirectCallAndJump) {
  auto code = assemble([](Encoder& e) {
    e.mov_ri(1, 0x1000 + 10 + 2 + 1 + 5);  // address of callee
    e.callr(1);
    e.syscall();
    e.nop();
    e.nop();
    e.nop();
    e.nop();
    e.nop();
    // callee at 0x1000+18:
    e.mov_ri(4, 5);
    e.ret();
  });
  Machine m(code);
  StepResult r = m.run();
  EXPECT_EQ(r.kind, StepKind::kSyscall);
  EXPECT_EQ(m.cpu.regs[4], 5u);
}

TEST(Exec, TrapReportsAddressWithoutAdvancing) {
  auto code = assemble([](Encoder& e) {
    e.nop();
    e.trap();
  });
  Machine m(code);
  StepResult r = m.run();
  EXPECT_EQ(r.kind, StepKind::kTrap);
  EXPECT_EQ(r.fault_addr, 0x1001u);
  EXPECT_EQ(m.cpu.ip, 0x1001u);  // ip parked on the 0xCC byte
}

TEST(Exec, DivideByZeroFaults) {
  auto code = assemble([](Encoder& e) {
    e.mov_ri(1, 5);
    e.mov_ri(2, 0);
    e.div_rr(1, 2);
  });
  Machine m(code);
  StepResult r = m.run();
  EXPECT_EQ(r.kind, StepKind::kFault);
  EXPECT_EQ(r.fault, FaultType::kFpe);
}

TEST(Exec, InvalidOpcodeFaultsIll) {
  std::vector<uint8_t> code{0x00};
  Machine m(code);
  StepResult r = m.run();
  EXPECT_EQ(r.kind, StepKind::kFault);
  EXPECT_EQ(r.fault, FaultType::kIll);
  EXPECT_EQ(r.fault_addr, 0x1000u);
}

TEST(Exec, ExecuteNonExecutableFaults) {
  auto code = assemble([](Encoder& e) {
    e.mov_ri(1, 0x8000);
    e.jmpr(1);  // jump into the RW stack region
  });
  Machine m(code);
  StepResult r = m.run();
  EXPECT_EQ(r.kind, StepKind::kFault);
  EXPECT_EQ(r.fault, FaultType::kSegv);
  EXPECT_EQ(r.fault_addr, 0x8000u);
}

TEST(Exec, LoadFromUnmappedFaults) {
  auto code = assemble([](Encoder& e) {
    e.mov_ri(1, 0x500000);
    e.load(2, 1, 0);
  });
  Machine m(code);
  StepResult r = m.run();
  EXPECT_EQ(r.kind, StepKind::kFault);
  EXPECT_EQ(r.fault, FaultType::kSegv);
  EXPECT_EQ(r.fault_addr, 0x500000u);
}

TEST(Exec, BlockEndFlagOnTerminators) {
  auto code = assemble([](Encoder& e) {
    e.nop();
    e.branch(Op::kJmp, 0);
    e.syscall();
  });
  Machine m(code);
  StepResult r1 = step(m.mem, m.cpu);
  EXPECT_FALSE(r1.block_end);  // nop
  StepResult r2 = step(m.mem, m.cpu);
  EXPECT_TRUE(r2.block_end);  // jmp
}

TEST(Exec, BlockAtMeasuresBasicBlock) {
  auto code = assemble([](Encoder& e) {
    e.mov_ri(1, 1);   // 10 bytes
    e.add_ri(1, 2);   // 6 bytes
    e.branch(Op::kJmp, 0);  // 5 bytes, terminator
    e.nop();
  });
  Machine m(code);
  BlockInfo info = block_at(m.mem, 0x1000);
  EXPECT_EQ(info.size, 21u);
  EXPECT_EQ(info.instr_count, 3u);
  EXPECT_TRUE(info.terminated);
}

TEST(Exec, BlockAtOnTrapIsOneByte) {
  std::vector<uint8_t> code{0xCC};
  Machine m(code);
  BlockInfo info = block_at(m.mem, 0x1000);
  EXPECT_EQ(info.size, 1u);
  EXPECT_EQ(info.instr_count, 1u);
  EXPECT_TRUE(info.terminated);
}

TEST(Exec, BlockAtOnInvalidByteIsEmpty) {
  std::vector<uint8_t> code{0x00};
  Machine m(code);
  BlockInfo info = block_at(m.mem, 0x1000);
  EXPECT_EQ(info.size, 0u);
  EXPECT_EQ(info.instr_count, 0u);
  EXPECT_FALSE(info.terminated);
}

TEST(Exec, BlockAtReportsTermination) {
  // A scan capped by max_bytes is a partial prefix, not a block: consumers
  // like the superblock builder must be able to tell the two apart.
  auto code = assemble([](Encoder& e) {
    for (int i = 0; i < 8; ++i) e.nop();
    e.trap();
  });
  Machine m(code);
  BlockInfo full = block_at(m.mem, 0x1000);
  EXPECT_TRUE(full.terminated);
  EXPECT_EQ(full.instr_count, 9u);
  BlockInfo capped = block_at(m.mem, 0x1000, 4);
  EXPECT_FALSE(capped.terminated);
  EXPECT_EQ(capped.instr_count, 4u);
  EXPECT_EQ(capped.size, 4u);
}


// ---------------------------------------------------------------------------
// Page generations + decode cache
// ---------------------------------------------------------------------------

TEST(PageGeneration, ExecWritesBumpDataWritesDont) {
  AddressSpace as;
  as.map(0x1000, 0x1000, kProtRead | kProtWrite | kProtExec, "wx");
  as.map(0x8000, 0x1000, kProtRead | kProtWrite, "data");
  uint64_t g0 = as.page_generation(0x1000);

  uint8_t b = 0x90;
  ASSERT_TRUE(as.write(0x1010, &b, 1, kProtWrite).ok);
  EXPECT_GT(as.page_generation(0x1000), g0);

  uint64_t gd = as.page_generation(0x8000);
  ASSERT_TRUE(as.write(0x8010, &b, 1, kProtWrite).ok);
  EXPECT_EQ(as.page_generation(0x8000), gd);  // data page: no bump
}

TEST(PageGeneration, MapProtectUnmapBump) {
  AddressSpace as;
  uint64_t g0 = as.page_generation(0x1000);
  as.map(0x1000, 0x2000, kProtRead | kProtExec, "code");
  uint64_t g1 = as.page_generation(0x1000);
  EXPECT_GT(g1, g0);
  as.protect(0x1000, 0x1000, kProtRead);
  uint64_t g2 = as.page_generation(0x1000);
  EXPECT_GT(g2, g1);
  EXPECT_EQ(as.page_generation(0x2000), g1 - g0 + as.page_generation(0x3000));
  as.unmap(0x1000, 0x2000);
  EXPECT_GT(as.page_generation(0x1000), g2);
}

TEST(PageGeneration, SlotPointerTracksLiveCounter) {
  AddressSpace as;
  as.map(0x1000, 0x1000, kProtRead | kProtWrite | kProtExec, "wx");
  const uint64_t* slot = as.page_generation_slot(0x1000);
  uint64_t before = *slot;
  uint8_t b = 0x90;
  ASSERT_TRUE(as.write(0x1000, &b, 1, kProtWrite).ok);
  EXPECT_EQ(*slot, before + 1);
}

TEST(DecodeCache, CachedExecutionMatchesUncached) {
  auto code = assemble([](Encoder& e) {
    e.mov_ri(1, 3);
    e.mov_ri(2, 4);
    size_t top = e.offset();
    e.add_rr(1, 2);
    e.mul_rr(2, 1);
    e.add_ri(0, 1);
    e.cmp_ri(0, 5);
    size_t j = e.branch(Op::kJlt, 0);
    e.patch_rel32(j, static_cast<int32_t>(top - (j + 5)));
    e.trap();
  });
  Machine plain(code);
  StepResult rp = plain.run();

  Machine cached(code);
  DecodeCache cache;
  StepResult rc;
  for (int i = 0; i < 10000; ++i) {
    rc = step(cached.mem, cached.cpu, &cache);
    if (rc.kind != StepKind::kOk) break;
  }
  EXPECT_EQ(rc.kind, rp.kind);
  EXPECT_EQ(cached.cpu.ip, plain.cpu.ip);
  EXPECT_EQ(cached.cpu.regs, plain.cpu.regs);
  EXPECT_GT(cache.hits(), 0u);  // the loop re-executed cached decodes
}

TEST(DecodeCache, PokedTrapObservedOnVeryNextStep) {
  auto code = assemble([](Encoder& e) {
    size_t top = e.offset();
    e.add_ri(0, 1);
    e.nop();
    size_t j = e.branch(Op::kJmp, 0);
    e.patch_rel32(j, static_cast<int32_t>(top - (j + 5)));
  });
  Machine m(code);
  DecodeCache cache;
  // Warm the cache through several loop iterations.
  for (int i = 0; i < 30; ++i) {
    ASSERT_EQ(step(m.mem, m.cpu, &cache).kind, StepKind::kOk);
  }
  ASSERT_GT(cache.hits(), 0u);

  // Patch the instruction the cpu is about to execute (host poke, like the
  // rewriter applying an int3 block). The very next step must trap — a
  // stale cached decode here would execute the dead instruction.
  uint8_t trap = 0xCC;
  m.mem.poke(m.cpu.ip, &trap, 1);
  StepResult r = step(m.mem, m.cpu, &cache);
  EXPECT_EQ(r.kind, StepKind::kTrap);
  EXPECT_EQ(r.fault_addr, m.cpu.ip);
}

TEST(DecodeCache, GuestSelfModifyObservedMidBlock) {
  // The guest stores a TRAP byte over a later instruction of its own
  // straight-line block; run_block must take the trap, not the stale decode.
  std::vector<uint8_t> code;
  Encoder e(code);
  e.mov_ri(1, 0);        // r1 = store target (fixed up below)
  e.mov_ri(2, 0xCC);     // r2 = TRAP byte
  e.storeb(1, 0, 2);     // mem8[r1] = 0xCC  — patches `nop` below
  e.nop();               // decoded before the store lands
  size_t victim = e.offset();
  e.nop();               // the store targets this byte
  e.nop();
  e.trap();
  // Fix the store target now that the layout is known.
  std::vector<uint8_t> fixed;
  Encoder e2(fixed);
  e2.mov_ri(1, 0x1000 + victim);
  e2.mov_ri(2, 0xCC);
  e2.storeb(1, 0, 2);
  e2.nop();
  e2.nop();
  e2.nop();
  e2.trap();

  Machine m(fixed);
  // Code page must be writable for the guest store.
  m.mem.protect(0x1000, 0x1000, kProtRead | kProtWrite | kProtExec);
  DecodeCache cache;
  uint64_t retired = 0;
  StepResult r = run_block(m.mem, m.cpu, &cache, nullptr, 10000, retired);
  EXPECT_EQ(r.kind, StepKind::kTrap);
  EXPECT_EQ(r.fault_addr, 0x1000u + victim);
  EXPECT_EQ(retired, 5u);  // movri, movri, storeb, nop, trap-attempt
}

TEST(DecodeCache, RunBlockStopsAtTerminatorAndBudget) {
  auto code = assemble([](Encoder& e) {
    e.mov_ri(1, 1);
    e.add_rr(1, 1);
    size_t j = e.branch(Op::kJmp, 0);
    e.patch_rel32(j, 0);  // fall through to next instruction
    e.nop();
    e.trap();
  });
  Machine m(code);
  DecodeCache cache;
  uint64_t retired = 0;
  StepResult r = run_block(m.mem, m.cpu, &cache, nullptr, 10000, retired);
  EXPECT_EQ(r.kind, StepKind::kOk);
  EXPECT_TRUE(r.block_end);  // stopped at the jmp terminator
  EXPECT_EQ(retired, 3u);

  // Budget smaller than the block: stops mid-block with exact accounting.
  Machine m2(code);
  DecodeCache cache2;
  retired = 0;
  r = run_block(m2.mem, m2.cpu, &cache2, nullptr, 2, retired);
  EXPECT_EQ(r.kind, StepKind::kOk);
  EXPECT_FALSE(r.block_end);
  EXPECT_EQ(retired, 2u);
}

TEST(DecodeCache, InstructionStraddlingPageBoundary) {
  // Place a 10-byte mov_ri so it crosses the 0x1000/0x2000 page edge; the
  // cache must execute it correctly via the uncached path.
  std::vector<uint8_t> prefix;
  Encoder e(prefix);
  while (prefix.size() < kPageSize - 5) e.nop();
  size_t mov_at = e.offset();
  e.mov_ri(7, 0x1122334455667788ull);  // bytes [kPageSize-5, kPageSize+5)
  e.trap();

  AddressSpace mem;
  mem.map(0x1000, page_ceil(prefix.size()), kProtRead | kProtExec, "code");
  mem.poke(0x1000, prefix.data(), prefix.size());
  Cpu cpu;
  cpu.ip = 0x1000;
  DecodeCache cache;
  uint64_t retired = 0;
  StepResult r = run_block(mem, cpu, &cache, nullptr, 2 * kPageSize, retired);
  ASSERT_EQ(r.kind, StepKind::kTrap);
  EXPECT_EQ(cpu.regs[7], 0x1122334455667788ull);
  EXPECT_EQ(r.fault_addr, 0x1000 + mov_at + 10);
}

TEST(DecodeCache, CopyAssignedAddressSpaceInvalidatesByAsid) {
  auto code = assemble([](Encoder& e) {
    e.add_ri(0, 1);
    e.trap();
  });
  Machine m(code);
  DecodeCache cache;
  ASSERT_EQ(step(m.mem, m.cpu, &cache).kind, StepKind::kOk);
  ASSERT_GT(cache.cached_pages(), 0u);

  // Rebuild the address space via copy-assign (what checkpoint restore
  // does): the fresh asid must force the cache to drop everything.
  AddressSpace rebuilt;
  rebuilt.map(0x1000, 0x1000, kProtRead | kProtExec, "code2");
  uint8_t trap = 0xCC;
  rebuilt.poke(0x1000, &trap, 1);
  m.mem = rebuilt;
  m.cpu.ip = 0x1000;
  StepResult r = step(m.mem, m.cpu, &cache);
  EXPECT_EQ(r.kind, StepKind::kTrap);
}

TEST(DecodeCache, StatsInvariantAcrossFaultMatrix) {
  // Every cache-served fetch attempt must count exactly one hit or miss —
  // hits() + misses() == attempted instructions. The fast path used to
  // double-count a miss when its slot fill failed (non-executable fetch):
  // the no-progress fallback re-entered DecodeCache::fetch, which counted
  // the same attempt again.
  {
    // Warm loop, then a jump into the non-executable stack: the faulting
    // fetch at 0x8000 is one attempt and must be exactly one miss.
    auto code = assemble([](Encoder& e) {
      size_t top = e.offset();
      e.add_ri(0, 1);
      e.cmp_ri(0, 20);
      size_t j = e.branch(Op::kJlt, 0);
      e.patch_rel32(j,
                    static_cast<int32_t>(top) - static_cast<int32_t>(j + 5));
      e.mov_ri(1, 0x8000);
      e.jmpr(1);
    });
    Machine m(code);
    DecodeCache cache;
    uint64_t attempts = 0;
    StepResult r{};
    for (int i = 0; i < 1000 && r.kind == StepKind::kOk; ++i) {
      uint64_t n = 0;
      r = run_block(m.mem, m.cpu, &cache, nullptr, 10000, n);
      attempts += n;
    }
    EXPECT_EQ(r.kind, StepKind::kFault);
    EXPECT_EQ(r.fault_addr, 0x8000u);
    EXPECT_EQ(cache.hits() + cache.misses(), attempts);
  }
  {
    // Undecodable byte: the first attempt fills a kBad slot (one miss);
    // repeated attempts are cache-served SIGILLs (hits).
    std::vector<uint8_t> code{0x00};
    Machine m(code);
    DecodeCache cache;
    uint64_t attempts = 0;
    for (int i = 0; i < 3; ++i) {
      uint64_t n = 0;
      StepResult r = run_block(m.mem, m.cpu, &cache, nullptr, 10, n);
      EXPECT_EQ(r.kind, StepKind::kFault);
      EXPECT_EQ(r.fault, FaultType::kIll);
      attempts += n;
    }
    EXPECT_EQ(attempts, 3u);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits() + cache.misses(), attempts);
  }
  {
    // Page-straddling instruction: never cached, one miss per attempt.
    std::vector<uint8_t> code;
    Encoder e(code);
    while (code.size() < kPageSize - 5) e.nop();
    e.mov_ri(7, 1);  // straddles the page edge
    e.trap();
    AddressSpace mem;
    mem.map(0x1000, page_ceil(code.size()), kProtRead | kProtExec, "code");
    mem.poke(0x1000, code.data(), code.size());
    Cpu cpu;
    cpu.ip = 0x1000;
    DecodeCache cache;
    uint64_t attempts = 0;
    StepResult r{};
    while (r.kind == StepKind::kOk) {
      uint64_t n = 0;
      r = run_block(mem, cpu, &cache, nullptr, 100000, n);
      attempts += n;
    }
    EXPECT_EQ(r.kind, StepKind::kTrap);
    EXPECT_EQ(cpu.regs[7], 1u);
    EXPECT_EQ(cache.hits() + cache.misses(), attempts);
  }
}

TEST(DecodeCache, RunBlockObservesPokeAtBlockEntry) {
  // A generation bump between run_block rounds invalidates the cached page
  // even though the slot array still holds the stale decode: the fast path
  // re-checks the live generation and must take the trap with exactly one
  // attempted instruction.
  auto code = assemble([](Encoder& e) {
    size_t top = e.offset();
    e.add_ri(0, 1);
    e.nop();
    size_t j = e.branch(Op::kJmp, 0);
    e.patch_rel32(j, static_cast<int32_t>(top) - static_cast<int32_t>(j + 5));
  });
  Machine m(code);
  DecodeCache cache;
  for (int i = 0; i < 10; ++i) {
    uint64_t n = 0;
    ASSERT_EQ(run_block(m.mem, m.cpu, &cache, nullptr, 3, n).kind,
              StepKind::kOk);
  }
  ASSERT_GT(cache.hits(), 0u);
  uint8_t trap = 0xCC;
  m.mem.poke(m.cpu.ip, &trap, 1);
  uint64_t n = 0;
  StepResult r = run_block(m.mem, m.cpu, &cache, nullptr, 100, n);
  EXPECT_EQ(r.kind, StepKind::kTrap);
  EXPECT_EQ(r.fault_addr, m.cpu.ip);
  EXPECT_EQ(n, 1u);
}

TEST(DecodeCache, EveryOffsetOfAPageDecodes) {
  // A page of seeded random bytes, entered at every offset: decodes overlap
  // (jumps into immediates), some are undecodable (cached as SIGILL), and
  // every offset up to the straddle edge ends up holding a cached slot.
  // The cached machine runs in lockstep with an uncached one and must match
  // it after every call; each cacheable offset misses once and then hits.
  std::mt19937 rng(4242);
  std::vector<uint8_t> code(kPageSize);
  for (auto& b : code) b = static_cast<uint8_t>(rng());
  constexpr uint64_t kCacheable = kPageSize - isa::kMaxInstrLength + 1;
  constexpr uint64_t kEdge = kPageSize - kCacheable;

  Machine plain(code);
  Machine cached(code);
  DecodeCache cache;
  const auto same_state = [&] {
    return cached.cpu.ip == plain.cpu.ip && cached.cpu.regs == plain.cpu.regs &&
           cached.cpu.pack_flags() == plain.cpu.pack_flags();
  };
  const auto step_both = [&](uint64_t off) {
    plain.cpu.ip = cached.cpu.ip = 0x1000 + off;
    const StepResult rp = step(plain.mem, plain.cpu);
    const StepResult rc = step(cached.mem, cached.cpu, &cache);
    EXPECT_EQ(rc.kind, rp.kind) << off;
    EXPECT_EQ(rc.fault, rp.fault) << off;
    EXPECT_EQ(rc.fault_addr, rp.fault_addr) << off;
    EXPECT_EQ(rc.block_end, rp.block_end) << off;
    EXPECT_TRUE(same_state()) << off;
  };
  for (uint64_t off = 0; off < kPageSize; ++off) step_both(off);
  EXPECT_EQ(cache.misses(), kPageSize);
  EXPECT_EQ(cache.hits(), 0u);
  for (uint64_t off = kPageSize; off-- > 0;) step_both(off);
  EXPECT_EQ(cache.misses(), kPageSize + kEdge);  // straddlers never cache
  EXPECT_EQ(cache.hits(), kCacheable);

  // run_block from every offset with a small budget: attempts inside the
  // cacheable span are hits, every other attempt (straddlers, other pages,
  // the stack) is a miss. The uncached machine predicts which is which.
  uint64_t want_hits = cache.hits();
  uint64_t want_misses = cache.misses();
  for (uint64_t off = 0; off < kPageSize; ++off) {
    plain.cpu.ip = cached.cpu.ip = 0x1000 + off;
    StepResult rp{};
    uint64_t np = 0;
    while (np < 16) {
      const uint64_t at = plain.cpu.ip;
      (at >= 0x1000 && at < 0x1000 + kCacheable ? want_hits : want_misses)++;
      rp = step(plain.mem, plain.cpu);
      ++np;
      if (rp.kind != StepKind::kOk || rp.block_end) break;
    }
    uint64_t nc = 0;
    const StepResult rc =
        run_block(cached.mem, cached.cpu, &cache, nullptr, 16, nc);
    EXPECT_EQ(nc, np) << off;
    EXPECT_EQ(rc.kind, rp.kind) << off;
    EXPECT_EQ(rc.fault_addr, rp.fault_addr) << off;
    EXPECT_TRUE(same_state()) << off;
  }
  EXPECT_EQ(cache.hits(), want_hits);
  EXPECT_EQ(cache.misses(), want_misses);
  EXPECT_EQ(cache.invalidations(), 0u);
}

// ---------------------------------------------------------------------------
// Superblock cache
// ---------------------------------------------------------------------------

/// Drives the superblock-aware run_block the way the scheduler does: one
/// call per quantum until a non-kOk result or `limit` total attempts.
StepResult run_sb(Machine& m, DecodeCache& dc, SuperblockCache& sbc,
                  uint64_t quantum, uint64_t limit, uint64_t& attempts) {
  StepResult r{};
  attempts = 0;
  while (attempts < limit) {
    uint64_t budget = std::min(quantum, limit - attempts);
    uint64_t n = 0;
    r = run_block(m.mem, m.cpu, &dc, &sbc, budget, n);
    attempts += n;
    if (r.kind != StepKind::kOk) return r;
    if (n == 0) break;
  }
  return r;
}

TEST(Superblock, MatchesInterpreterOnServingLoop) {
  auto code = assemble([](Encoder& e) {
    size_t top = e.offset();
    e.add_ri(1, 1);
    e.add_rr(2, 1);
    e.cmp_ri(1, 500);
    size_t j = e.branch(Op::kJlt, 0);
    e.patch_rel32(j, static_cast<int32_t>(top) - static_cast<int32_t>(j + 5));
    e.trap();
  });
  Machine plain(code);
  StepResult rp = plain.run(100000);

  Machine fused(code);
  DecodeCache dc;
  SuperblockCache sbc;
  uint64_t attempts = 0;
  StepResult rf = run_sb(fused, dc, sbc, 256, 100000, attempts);
  EXPECT_EQ(rf.kind, rp.kind);
  EXPECT_EQ(rf.kind, StepKind::kTrap);
  EXPECT_EQ(fused.cpu.ip, plain.cpu.ip);
  EXPECT_EQ(fused.cpu.regs, plain.cpu.regs);
  EXPECT_EQ(attempts, 2001u);  // 500 iterations x 4 + the trap attempt
  EXPECT_GT(sbc.builds(), 0u);
  EXPECT_GT(sbc.sb_instrs(), 0u);
}

TEST(Superblock, MatchesInterpreterAcrossCallRet) {
  std::vector<uint8_t> code;
  Encoder e(code);
  e.mov_ri(1, 0);
  size_t top = e.offset();
  size_t c = e.branch(Op::kCall, 0);
  e.add_ri(1, 1);
  e.cmp_ri(1, 50);
  size_t j = e.branch(Op::kJlt, 0);
  e.patch_rel32(j, static_cast<int32_t>(top) - static_cast<int32_t>(j + 5));
  e.syscall();
  size_t callee = e.offset();
  e.add_ri(2, 3);
  e.ret();
  e.patch_rel32(c, static_cast<int32_t>(callee) - static_cast<int32_t>(c + 5));

  Machine plain(code);
  StepResult rp = plain.run(100000);
  Machine fused(code);
  DecodeCache dc;
  SuperblockCache sbc;
  uint64_t attempts = 0;
  StepResult rf = run_sb(fused, dc, sbc, 256, 100000, attempts);
  EXPECT_EQ(rf.kind, StepKind::kSyscall);
  EXPECT_EQ(rf.kind, rp.kind);
  EXPECT_EQ(fused.cpu.ip, plain.cpu.ip);
  EXPECT_EQ(fused.cpu.regs, plain.cpu.regs);
  EXPECT_EQ(fused.cpu.sp(), plain.cpu.sp());
}

TEST(Superblock, BuildsAfterThreshold) {
  auto code = assemble([](Encoder& e) {
    e.add_ri(1, 1);
    e.nop();
    e.trap();
  });
  Machine m(code);
  DecodeCache dc;
  SuperblockCache sbc;
  for (uint32_t i = 0; i < SuperblockCache::kHotThreshold + 2; ++i) {
    m.cpu.ip = 0x1000;
    uint64_t n = 0;
    StepResult r = run_block(m.mem, m.cpu, &dc, &sbc, 256, n);
    ASSERT_EQ(r.kind, StepKind::kTrap);
    ASSERT_EQ(n, 3u);
    if (i + 1 < SuperblockCache::kHotThreshold) {
      EXPECT_EQ(sbc.builds(), 0u);  // still warming
    }
  }
  EXPECT_EQ(sbc.builds(), 1u);
  EXPECT_EQ(sbc.superblocks(), 1u);
  EXPECT_GT(sbc.entries(), 0u);
}

TEST(Superblock, TrapChargedOncePerAttemptOnBudgetBoundary) {
  // Six nops then a trap. With budget 6 the trap is NOT attempted (kOk, ip
  // parked on it, six charged); re-entry charges the trap exactly once.
  // Must hold identically on the interpreter and superblock paths.
  auto code = assemble([](Encoder& e) {
    for (int i = 0; i < 6; ++i) e.nop();
    e.trap();
  });
  {
    Machine m(code);
    DecodeCache dc;
    uint64_t n = 0;
    StepResult r = run_block(m.mem, m.cpu, &dc, nullptr, 6, n);
    EXPECT_EQ(r.kind, StepKind::kOk);
    EXPECT_EQ(n, 6u);
    EXPECT_EQ(m.cpu.ip, 0x1006u);
    r = run_block(m.mem, m.cpu, &dc, nullptr, 100, n);
    EXPECT_EQ(r.kind, StepKind::kTrap);
    EXPECT_EQ(r.fault_addr, 0x1006u);
    EXPECT_EQ(n, 1u);
  }
  {
    Machine m(code);
    DecodeCache dc;
    SuperblockCache sbc;
    for (uint32_t i = 0; i < SuperblockCache::kHotThreshold + 1; ++i) {
      m.cpu.ip = 0x1000;
      uint64_t n = 0;
      ASSERT_EQ(run_block(m.mem, m.cpu, &dc, &sbc, 256, n).kind,
                StepKind::kTrap);
    }
    ASSERT_GT(sbc.superblocks(), 0u);
    m.cpu.ip = 0x1000;
    uint64_t n = 0;
    StepResult r = run_block(m.mem, m.cpu, &dc, &sbc, 6, n);
    EXPECT_EQ(r.kind, StepKind::kOk);
    EXPECT_EQ(n, 6u);
    EXPECT_EQ(m.cpu.ip, 0x1006u);  // budget exit mid-trace
    r = run_block(m.mem, m.cpu, &dc, &sbc, 100, n);  // re-enters mid-trace
    EXPECT_EQ(r.kind, StepKind::kTrap);
    EXPECT_EQ(r.fault_addr, 0x1006u);
    EXPECT_EQ(n, 1u);
  }
}

TEST(Superblock, PatchRetiresTraceBeforeNextInstruction) {
  // The acceptance contract: patch a page a hot trace spans (the rewriter's
  // int3 poke) and the patch must be visible on the very next executed
  // instruction — the stale trace retires instead of running.
  auto code = assemble([](Encoder& e) {
    size_t top = e.offset();
    e.add_ri(1, 1);
    e.cmp_ri(1, 1000000);
    size_t j = e.branch(Op::kJlt, 0);
    e.patch_rel32(j, static_cast<int32_t>(top) - static_cast<int32_t>(j + 5));
    e.trap();
  });
  Machine m(code);
  DecodeCache dc;
  SuperblockCache sbc;
  for (int q = 0; q < 20; ++q) {
    uint64_t n = 0;
    ASSERT_EQ(run_block(m.mem, m.cpu, &dc, &sbc, 256, n).kind, StepKind::kOk);
  }
  ASSERT_GT(sbc.builds(), 0u);
  ASSERT_GT(sbc.sb_instrs(), 0u);

  uint64_t retires_before = sbc.retires();
  uint8_t trap = 0xCC;
  uint64_t target = m.cpu.ip;  // mid-loop, inside the trace
  m.mem.poke(target, &trap, 1);
  uint64_t n = 0;
  StepResult r = run_block(m.mem, m.cpu, &dc, &sbc, 256, n);
  EXPECT_EQ(r.kind, StepKind::kTrap);
  EXPECT_EQ(r.fault_addr, target);
  EXPECT_EQ(n, 1u);  // nothing retired from the stale trace
  EXPECT_EQ(sbc.retires(), retires_before + 1);
}

TEST(Superblock, SelfModifyingStoreDeoptsMidTrace) {
  // The guest patches an instruction of its own hot loop; the store retires
  // inside the trace, then dispatch must deoptimize so the interpreter
  // refetches the patched byte as the very next instruction.
  constexpr uint64_t kPatchIter = SuperblockCache::kHotThreshold + 2;
  std::vector<uint8_t> probe;
  Encoder pe(probe);
  pe.mov_ri(2, 0);
  pe.mov_ri(3, 0xCC);
  size_t top = pe.offset();
  pe.add_ri(1, 1);
  pe.cmp_ri(1, kPatchIter);
  size_t skip = pe.branch(Op::kJne, 0);
  pe.storeb(2, 0, 3);  // patches the nop below on iteration kPatchIter
  size_t victim = pe.offset();
  pe.patch_rel32(skip,
                 static_cast<int32_t>(victim) - static_cast<int32_t>(skip + 5));
  pe.nop();
  pe.cmp_ri(1, 1000000);
  size_t back = pe.branch(Op::kJlt, 0);
  pe.patch_rel32(back,
                 static_cast<int32_t>(top) - static_cast<int32_t>(back + 5));
  pe.trap();
  // Second pass with the store target resolved.
  std::vector<uint8_t> code;
  Encoder e(code);
  e.mov_ri(2, 0x1000 + victim);
  e.mov_ri(3, 0xCC);
  e.add_ri(1, 1);
  e.cmp_ri(1, kPatchIter);
  size_t skip2 = e.branch(Op::kJne, 0);
  e.storeb(2, 0, 3);
  e.patch_rel32(skip2,
                static_cast<int32_t>(victim) - static_cast<int32_t>(skip2 + 5));
  e.nop();
  e.cmp_ri(1, 1000000);
  size_t back2 = e.branch(Op::kJlt, 0);
  e.patch_rel32(back2,
                static_cast<int32_t>(top) - static_cast<int32_t>(back2 + 5));
  e.trap();

  Machine m(code);
  m.mem.protect(0x1000, 0x1000, kProtRead | kProtWrite | kProtExec);
  DecodeCache dc;
  SuperblockCache sbc;
  uint64_t attempts = 0;
  StepResult r = run_sb(m, dc, sbc, 256, 1000000, attempts);
  EXPECT_EQ(r.kind, StepKind::kTrap);
  EXPECT_EQ(r.fault_addr, 0x1000 + victim);
  EXPECT_EQ(m.cpu.regs[1], kPatchIter);  // stopped on the patching iteration
  EXPECT_GT(sbc.builds(), 0u);
  EXPECT_EQ(sbc.deopts(), 1u);
}

TEST(Superblock, TraceSpansPageStraddlingInstruction) {
  // A hot loop whose body straddles the page boundary: the builder fuses
  // across the straddling instruction (the decode cache never serves it)
  // and the trace depends on BOTH spanned pages' generations.
  std::vector<uint8_t> code;
  Encoder e(code);
  size_t j0 = e.branch(Op::kJmp, 0);
  while (code.size() < kPageSize - 20) e.nop();
  size_t top = e.offset();
  e.patch_rel32(j0, static_cast<int32_t>(top) - static_cast<int32_t>(j0 + 5));
  e.add_ri(1, 1);                       // [P-20, P-14)
  e.cmp_ri(1, 40);                      // [P-14, P-8)
  e.mov_ri(7, 0x1122334455667788ull);   // [P-8, P+2): straddles the edge
  size_t j = e.branch(Op::kJlt, 0);
  e.patch_rel32(j, static_cast<int32_t>(top) - static_cast<int32_t>(j + 5));
  size_t trap_at = e.offset();
  e.trap();

  Machine m(code);
  DecodeCache dc;
  SuperblockCache sbc;
  uint64_t attempts = 0;
  StepResult r = run_sb(m, dc, sbc, 256, 100000, attempts);
  EXPECT_EQ(r.kind, StepKind::kTrap);
  EXPECT_EQ(m.cpu.regs[1], 40u);
  EXPECT_EQ(m.cpu.regs[7], 0x1122334455667788ull);
  ASSERT_EQ(sbc.superblocks(), 1u);

  // A write to the SECOND page alone must invalidate the trace.
  uint64_t retires_before = sbc.retires();
  uint8_t trap = 0xCC;
  m.mem.poke(0x1000 + trap_at, &trap, 1);  // page 2; same byte, still a write
  m.cpu.ip = 0x1000 + top;
  m.cpu.regs[1] = 0;
  r = run_sb(m, dc, sbc, 256, 100000, attempts);
  EXPECT_EQ(r.kind, StepKind::kTrap);
  EXPECT_EQ(m.cpu.regs[1], 40u);
  EXPECT_EQ(sbc.retires(), retires_before + 1);
}

TEST(Superblock, RefusesUnterminatedEntry) {
  // A page of nops with no terminator: the block scan comes back
  // unterminated and the builder must refuse to fuse the partial prefix.
  std::vector<uint8_t> code(kPageSize, 0x90);
  Machine m(code);
  DecodeCache dc;
  SuperblockCache sbc;
  for (int i = 0; i < 20; ++i) {
    m.cpu.ip = 0x1000;
    uint64_t n = 0;
    StepResult r = run_block(m.mem, m.cpu, &dc, &sbc, 100000, n);
    ASSERT_EQ(r.kind, StepKind::kFault);  // ran off the mapping
  }
  EXPECT_EQ(sbc.builds(), 0u);
  EXPECT_EQ(sbc.superblocks(), 0u);
}

TEST(Superblock, AddressSpaceRebuildDropsTraces) {
  auto code = assemble([](Encoder& e) {
    size_t top = e.offset();
    e.add_ri(1, 1);
    e.cmp_ri(1, 1000000);
    size_t j = e.branch(Op::kJlt, 0);
    e.patch_rel32(j, static_cast<int32_t>(top) - static_cast<int32_t>(j + 5));
    e.trap();
  });
  Machine m(code);
  DecodeCache dc;
  SuperblockCache sbc;
  for (int q = 0; q < 20; ++q) {
    uint64_t n = 0;
    ASSERT_EQ(run_block(m.mem, m.cpu, &dc, &sbc, 256, n).kind, StepKind::kOk);
  }
  ASSERT_GT(sbc.superblocks(), 0u);

  // Rebuild the address space via copy-assign (checkpoint restore): the
  // fresh asid must drop every trace before anything dereferences stale
  // generation-slot pointers.
  AddressSpace rebuilt;
  rebuilt.map(0x1000, 0x1000, kProtRead | kProtExec, "code2");
  uint8_t trap = 0xCC;
  rebuilt.poke(0x1000, &trap, 1);
  m.mem = rebuilt;
  m.cpu.ip = 0x1000;
  uint64_t n = 0;
  StepResult r = run_block(m.mem, m.cpu, &dc, &sbc, 256, n);
  EXPECT_EQ(r.kind, StepKind::kTrap);
  EXPECT_EQ(sbc.superblocks(), 0u);
}

TEST(Superblock, RetireKeepsCollidingEntriesReachable) {
  // Hundreds of two-op traces (add; trap) spread over several pages fill the
  // entry table with colliding ips. Poking every other page retires half of
  // them lazily, interleaved with lookups of the rest: every surviving entry
  // must stay reachable (dispatch without a rebuild) and every retired one
  // must rebuild exactly once.
  constexpr size_t kPages = 6;
  constexpr size_t kPerPage = 64;
  constexpr size_t kStride = 16;
  std::vector<uint8_t> code;
  Encoder e(code);
  std::vector<uint64_t> entries;
  for (size_t p = 0; p < kPages; ++p) {
    for (size_t t = 0; t < kPerPage; ++t) {
      while (code.size() < p * kPageSize + t * kStride) e.nop();
      entries.push_back(0x1000 + code.size());
      e.add_ri(1, 1);
      e.trap();
    }
    while (code.size() < (p + 1) * kPageSize) e.nop();
  }
  Machine m(code);
  DecodeCache dc;
  SuperblockCache sbc;
  const auto enter = [&](uint64_t at) {
    m.cpu.ip = at;
    uint64_t n = 0;
    const StepResult r = run_block(m.mem, m.cpu, &dc, &sbc, 256, n);
    EXPECT_EQ(r.kind, StepKind::kTrap) << std::hex << at;
    EXPECT_EQ(r.fault_addr, at + 6) << std::hex << at;
    EXPECT_EQ(n, 2u) << std::hex << at;
  };
  const auto on_poked_page = [](uint64_t at) {
    return ((at - 0x1000) / kPageSize) % 2 == 1;
  };
  for (uint64_t at : entries) {
    for (uint32_t i = 0; i < SuperblockCache::kHotThreshold; ++i) enter(at);
  }
  const uint64_t traces = entries.size();
  ASSERT_EQ(sbc.builds(), traces);
  ASSERT_EQ(sbc.superblocks(), traces);

  for (size_t p = 1; p < kPages; p += 2) {
    const uint8_t nop = 0x90;  // same byte: the write alone bumps the page
    m.mem.poke(0x1000 + (p + 1) * kPageSize - 1, &nop, 1);
  }
  const uint64_t retired = traces / 2;
  const uint64_t builds = sbc.builds();
  const uint64_t retires = sbc.retires();
  const uint64_t dispatches = sbc.entries();
  for (uint64_t at : entries) enter(at);
  EXPECT_EQ(sbc.builds(), builds);  // no survivor lost its entry
  EXPECT_EQ(sbc.retires(), retires + retired);
  EXPECT_EQ(sbc.entries(), dispatches + (traces - retired));
  EXPECT_EQ(sbc.superblocks(), traces - retired);

  for (uint64_t at : entries) {
    if (!on_poked_page(at)) continue;
    for (uint32_t i = 0; i < SuperblockCache::kHotThreshold; ++i) enter(at);
  }
  EXPECT_EQ(sbc.builds(), builds + retired);  // each retired trace once
  EXPECT_EQ(sbc.superblocks(), traces);
  const uint64_t rebuilt = sbc.builds();
  const uint64_t before = sbc.entries();
  for (uint64_t at : entries) enter(at);
  EXPECT_EQ(sbc.builds(), rebuilt);
  EXPECT_EQ(sbc.entries(), before + traces);
  EXPECT_EQ(sbc.retires(), retires + retired);
}

// ---------------------------------------------------------------------------
// Differential tier test
// ---------------------------------------------------------------------------
//
// Seeded random VX64 programs run on every execution tier: uncached step,
// decode-cache step, decode-cache run_block and superblock run_block. One
// deterministic host drives them all (syscall, trap and fault handling, and
// at fixed retired counts exec-page pokes, protection flips of the data page
// and of a code page, and unmap/remap of the data page), so every tier must
// retire the
// same architectural state: the same event sequence (retired count, kind,
// fault type and address, ip, registers and flags at each event), and the
// same final registers, flags, ip, memory digest and total retired count.

constexpr uint64_t kDiffCode = 0x10000;
constexpr uint64_t kDiffCodeSize = 3 * kPageSize;  // R+W+X: guest SMC works
constexpr uint64_t kDiffData = 0x40000;            // R+W
constexpr uint64_t kDiffRoData = 0x41000;          // R only: stores fault
constexpr uint64_t kDiffStack = 0x80000;           // R+W
constexpr uint64_t kDiffStackTop = kDiffStack + kPageSize;
constexpr uint64_t kDiffMaxAttempts = 60000;

// Register roles: r0..r11 take random operands, r12 counts loop
// iterations, r13 holds the fault-recovery address (each segment points it
// at its own end), r14 is the data base and r15 the stack pointer.
constexpr int kLoopReg = 12;
constexpr int kRecoverReg = 13;
constexpr int kDataReg = 14;

// Host syscalls of the differential guests (r0 = number).
constexpr uint64_t kSysExit = 0;
constexpr uint64_t kSysPoke = 1;  ///< poke byte r2 at code address r1

/// A host edit at a fixed retired count.
struct DiffEdit {
  enum Kind : uint8_t {
    kPoke,       ///< poke `byte` at code address `addr`
    kDataRo,     ///< protect the data page read-only
    kDataRw,     ///< protect the data page read-write
    kCodeRx,     ///< protect the code page at `addr` read+exec
    kCodeRwx,    ///< protect the code page at `addr` read+write+exec
    kUnmapData,  ///< unmap the data page (its bytes are discarded)
    kRemapData,  ///< map a zero read-write data page again
    kKinds
  };
  uint64_t at;  ///< retired count at which the host edits
  Kind kind = kPoke;
  uint64_t addr = 0;
  uint8_t byte = 0;
};

struct DiffProgram {
  std::vector<uint8_t> code;    ///< exactly kDiffCodeSize bytes
  std::vector<DiffEdit> edits;  ///< ascending `at`
  uint64_t quantum = 256;       ///< run_block budget per call
};

/// Builds one bounded program out of random segments: straight-line
/// ALU/memory work, hot loops (more than kHotThreshold iterations, so
/// traces build), calls through three leaf functions, stack ops, branches,
/// traps, syscalls, invalid bytes, guest self-modifying stores, host pokes
/// and every kind of fault the executor can raise.
class DiffGen {
 public:
  explicit DiffGen(uint64_t seed) : rng_(seed), e_(prog_.code) {}

  DiffProgram generate() {
    e_.mov_ri(kDataReg, kDiffData);
    while (prog_.code.size() < kDiffCodeSize - 1200) segment();
    e_.mov_ri(0, kSysExit);
    e_.syscall();
    size_t fn_at[kFns];
    for (size_t& at : fn_at) {
      at = e_.offset();
      for (uint64_t i = 1 + pick(4); i > 0; --i) pick(3) ? alu() : mem();
      if (pick(2)) stack_pair();
      e_.ret();
    }
    for (const auto& [site, fn] : calls_) link(site, fn_at[fn]);
    EXPECT_LT(prog_.code.size(), kDiffCodeSize - 1);
    prog_.code.resize(kDiffCodeSize, 0x00);  // 0x00 is not an opcode
    // A kMovRI opcode whose operand bytes lie past the mapping's end.
    prog_.code.back() = static_cast<uint8_t>(Op::kMovRI);

    for (uint64_t i = pick(4); i > 0; --i) {
      static constexpr uint8_t kBytes[] = {0xCC, 0x90, 0x00, 0x14};
      uint8_t b = pick(3) ? kBytes[pick(4)] : static_cast<uint8_t>(rng_());
      prog_.edits.push_back({1 + pick(20000), DiffEdit::kPoke,
                             kDiffCode + pick(used_), b});
    }
    static constexpr uint64_t kQuanta[] = {1, 5, 64, 256, 4096};
    prog_.quantum = kQuanta[pick(5)];
    for (uint64_t i = 1 + pick(6); i > 0; --i) {
      const auto kind = static_cast<DiffEdit::Kind>(
          1 + pick(DiffEdit::kKinds - 1));
      prog_.edits.push_back(
          {1 + pick(20000), kind, kDiffCode + kPageSize * pick(3), 0});
    }
    std::stable_sort(
        prog_.edits.begin(), prog_.edits.end(),
        [](const DiffEdit& a, const DiffEdit& b) { return a.at < b.at; });
    return std::move(prog_);
  }

 private:
  static constexpr size_t kFns = 3;

  uint64_t pick(uint64_t n) { return rng_() % n; }
  int reg() { return static_cast<int>(pick(12)); }
  int32_t imm32() { return static_cast<int32_t>(rng_()); }

  /// Points the rel32 field of the branch/call/lea at `at` to `target`.
  void link(size_t at, size_t target) {
    int64_t end = static_cast<int64_t>(at + isa::instr_length(prog_.code[at]));
    e_.patch_rel32(at,
                   static_cast<int32_t>(static_cast<int64_t>(target) - end));
  }
  void raw(uint8_t b) { prog_.code.push_back(b); }

  void alu() {
    const int d = reg();
    const int s = reg();
    switch (pick(17)) {
      case 0: e_.mov_ri(d, rng_() >> pick(64)); break;
      case 1: e_.mov_rr(d, s); break;
      case 2: e_.add_rr(d, s); break;
      case 3: e_.add_ri(d, imm32()); break;
      case 4: e_.sub_rr(d, s); break;
      case 5: e_.sub_ri(d, imm32()); break;
      case 6: e_.mul_rr(d, s); break;
      case 7:
        if (pick(3) == 0) e_.mov_ri(s, 0);  // divide by zero: SIGFPE
        e_.div_rr(d, s);
        break;
      case 8: e_.and_rr(d, s); break;
      case 9: e_.or_rr(d, s); break;
      case 10: e_.xor_rr(d, s); break;
      case 11: e_.shl_ri(d, static_cast<uint8_t>(pick(80))); break;
      case 12: e_.shr_ri(d, static_cast<uint8_t>(pick(80))); break;
      case 13: e_.cmp_rr(d, s); break;
      case 14: e_.cmp_ri(d, imm32()); break;
      case 15: e_.lea(d, static_cast<int32_t>(pick(4096)) - 2048); break;
      default: e_.nop(); break;
    }
  }

  /// Loads and stores off the data base; some hit the read-only page or
  /// unmapped memory, some use a random base register.
  void mem() {
    const int d = reg();
    const int s = reg();
    int base = kDataReg;
    int32_t disp = static_cast<int32_t>(pick(kPageSize - 8));
    switch (pick(8)) {
      case 0: base = reg(); break;
      case 1:
        disp = static_cast<int32_t>(kPageSize + pick(kPageSize - 8));
        break;
      case 2: disp = -1 - static_cast<int32_t>(pick(64)); break;
      default: break;
    }
    switch (pick(4)) {
      case 0: e_.load(d, base, disp); break;
      case 1: e_.store(base, disp, s); break;
      case 2: e_.loadb(d, base, disp); break;
      default: e_.storeb(base, disp, s); break;
    }
  }

  /// A forward conditional (or unconditional) branch over one item.
  void cond_skip() {
    static constexpr Op kBranches[] = {Op::kJmp, Op::kJe,  Op::kJne,
                                       Op::kJlt, Op::kJle, Op::kJgt,
                                       Op::kJge, Op::kJb,  Op::kJae};
    pick(2) ? e_.cmp_rr(reg(), reg()) : e_.cmp_ri(reg(), imm32() >> pick(31));
    const size_t j = e_.branch(kBranches[pick(9)], 0);
    pick(4) ? alu() : raw(0xFF);  // an invalid byte that is jumped over
    link(j, e_.offset());
  }

  void call() {
    const size_t fn = pick(kFns);
    if (pick(2)) {
      calls_.push_back({e_.branch(Op::kCall, 0), fn});
    } else {
      const int r = reg();
      calls_.push_back({e_.lea(r, 0), fn});
      e_.callr(r);
    }
  }

  void stack_pair() {
    e_.push(reg());
    alu();
    e_.pop(reg());
  }

  /// Points sp somewhere it cannot push (unmapped or read-only) for one
  /// stack instruction, then restores it through r11.
  void bad_stack() {
    e_.mov_rr(11, 15);
    e_.mov_ri(15, pick(2) ? 0x5000 : kDiffRoData + 8 * (1 + pick(8)));
    switch (pick(4)) {
      case 0: e_.push(reg()); break;
      case 1: e_.pop(reg() % 11); break;
      case 2: call(); break;
      default: e_.ret(); break;  // pops a zero: fetch from address 0 faults
    }
    e_.mov_rr(15, 11);
  }

  /// One push through an sp pointing back into recently emitted code: a
  /// guest store onto an executable page.
  void code_stack_push() {
    e_.mov_rr(11, 15);
    const size_t back = 8 + pick(std::min<size_t>(64, e_.offset() - 8));
    link(e_.lea(15, 0), e_.offset() - back);
    e_.push(reg());
    e_.mov_rr(15, 11);
  }

  /// Guest self-modifying store onto an immediate emitted earlier in the
  /// current loop body (executed again on the next iteration).
  void smc_store() {
    if (imm_sites_.empty()) return alu();
    const size_t site = imm_sites_[pick(imm_sites_.size())];
    link(e_.lea(1, 0), site);
    pick(2) ? e_.storeb(1, 0, reg()) : e_.store(1, 0, reg());
  }

  /// Asks the host to poke a code byte (an earlier immediate of the loop
  /// body, or any earlier byte) through the kSysPoke syscall.
  void host_poke() {
    const size_t site = imm_sites_.empty() || pick(3) == 0
                            ? pick(e_.offset())
                            : imm_sites_[pick(imm_sites_.size())];
    link(e_.lea(1, 0), site);
    pick(2) ? e_.mov_rr(2, kLoopReg) : e_.mov_ri(2, pick(2) ? 0xCC : 0x90);
    e_.mov_ri(0, kSysPoke);
    e_.syscall();
  }

  void item() {
    switch (pick(24)) {
      case 0: case 1: case 2: case 3: case 4: alu(); break;
      case 5: case 6: case 7: mem(); break;
      case 8: case 9: cond_skip(); break;
      case 10: call(); break;
      case 11: stack_pair(); break;
      case 12: imm_sites_.push_back(e_.add_ri(reg(), imm32()) + 2); break;
      case 13: imm_sites_.push_back(e_.mov_ri(reg(), rng_()) + 2); break;
      case 14: smc_store(); break;
      case 15: host_poke(); break;
      case 16: e_.trap(); break;
      case 17:
        e_.mov_ri(0, 2 + pick(6));
        e_.syscall();
        break;
      case 18:  // an invalid opcode byte
        raw(static_cast<uint8_t>(pick(2) ? 0xFF : 0x25 + pick(0x60)));
        break;
      case 19: bad_stack(); break;
      case 20: code_stack_push(); break;
      case 21: {  // jmpr over an invalid byte, or into unmapped memory
        const int r = reg();
        if (pick(3)) {
          const size_t l = e_.lea(r, 0);
          e_.jmpr(r);
          raw(0xFF);
          link(l, e_.offset());
        } else {
          e_.mov_ri(r, 0x7000 + pick(0x100));
          e_.jmpr(r);
        }
        break;
      }
      case 22: {  // fetch of an instruction truncated by the mapping end
        const int r = reg();
        link(e_.lea(r, 0), kDiffCodeSize - 1);
        e_.jmpr(r);
        break;
      }
      default: e_.nop(); break;
    }
  }

  void loop() {
    imm_sites_.clear();
    e_.mov_ri(kLoopReg, SuperblockCache::kHotThreshold + 4 + pick(40));
    const size_t top = e_.offset();
    for (uint64_t i = 2 + pick(7); i > 0; --i) item();
    pick(2) ? e_.sub_ri(kLoopReg, 1) : e_.add_ri(kLoopReg, -1);
    e_.cmp_ri(kLoopReg, 0);
    link(e_.branch(pick(2) ? Op::kJne : Op::kJgt, 0), top);
    imm_sites_.clear();
  }

  void segment() {
    const size_t recover = e_.lea(kRecoverReg, 0);
    if (pick(2)) {
      loop();
    } else {
      for (uint64_t i = 1 + pick(6); i > 0; --i) item();
    }
    link(recover, e_.offset());
    used_ = e_.offset();
  }

  std::mt19937_64 rng_;
  DiffProgram prog_;
  Encoder e_;
  std::vector<std::pair<size_t, size_t>> calls_;  ///< (site, function)
  std::vector<size_t> imm_sites_;                 ///< in the current loop
  size_t used_ = 1;
};

struct DiffEvent {
  uint64_t retired = 0;
  StepKind kind = StepKind::kOk;
  FaultType fault = FaultType::kNone;
  uint64_t addr = 0;
  bool block_end = false;
  uint64_t ip = 0;
  uint64_t state = 0;  ///< digest of registers and flags
  bool operator==(const DiffEvent&) const = default;
};

struct DiffOutcome {
  std::vector<DiffEvent> events;
  std::array<uint64_t, isa::kNumRegs> regs{};
  uint64_t ip = 0;
  uint64_t flags = 0;
  uint64_t mem_digest = 0;
  uint64_t retired = 0;
};

struct DiffStats {
  /// Opcode bytes the uncached tier executed without SIGILL (a listed
  /// opcode whose semantics case is missing raises SIGILL).
  std::set<uint8_t> executed_ops;
  std::set<FaultType> faults;
  uint64_t traps = 0;
  uint64_t syscalls = 0;
  uint64_t sb_builds = 0;
  uint64_t sb_retires = 0;
  uint64_t sb_deopts = 0;
  uint64_t sb_instrs = 0;
  uint64_t dc_invalidations = 0;
  std::set<DiffEdit::Kind> edits;  ///< kinds the host really applied
};

uint64_t fnv(uint64_t h, const void* p, size_t n) {
  const auto* b = static_cast<const uint8_t*>(p);
  for (size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 0x100000001b3ull;
  return h;
}

uint64_t cpu_digest(const Cpu& cpu) {
  uint64_t h = fnv(0xcbf29ce484222325ull, cpu.regs.data(),
                   sizeof(uint64_t) * cpu.regs.size());
  const uint64_t f = cpu.pack_flags();
  return fnv(h, &f, sizeof f);
}

enum class Tier { kStep, kCachedStep, kDecodeCache, kSuperblock };

const char* tier_name(Tier t) {
  switch (t) {
    case Tier::kStep: return "step";
    case Tier::kCachedStep: return "cached step";
    case Tier::kDecodeCache: return "decode-cache run_block";
    case Tier::kSuperblock: return "superblock run_block";
  }
  return "?";
}

/// The host side shared by every tier. Returns false when the guest exits.
bool diff_host_event(AddressSpace& mem, Cpu& cpu, const StepResult& r) {
  switch (r.kind) {
    case StepKind::kSyscall: {
      const uint64_t nr = cpu.regs[0];
      if (nr == kSysExit) return false;
      const uint64_t addr = cpu.regs[1];
      if (nr == kSysPoke && addr >= kDiffCode &&
          addr < kDiffCode + kDiffCodeSize) {
        const uint8_t b = static_cast<uint8_t>(cpu.regs[2]);
        mem.poke(addr, &b, 1);
      }
      cpu.regs[0] = nr * 3 + 1;
      return true;
    }
    case StepKind::kTrap:
      cpu.ip += 1;  // skip the trap byte, as a SIGTRAP handler would
      return true;
    case StepKind::kFault:
      cpu.ip = cpu.regs[kRecoverReg];
      cpu.sp() = kDiffStackTop;
      return true;
    case StepKind::kOk:
      break;
  }
  return true;
}

/// Applies one host edit. A protect or unmap of an unmapped data page, and a
/// remap of a mapped one, are no-ops; returns whether the edit applied.
bool diff_host_edit(AddressSpace& mem, const DiffEdit& e) {
  const bool data = mem.vma_at(kDiffData) != nullptr;
  switch (e.kind) {
    case DiffEdit::kPoke:
      mem.poke(e.addr, &e.byte, 1);
      return true;
    case DiffEdit::kDataRo:
    case DiffEdit::kDataRw:
      if (data) {
        mem.protect(kDiffData, kPageSize,
                    kProtRead | (e.kind == DiffEdit::kDataRw ? kProtWrite : 0));
      }
      return data;
    case DiffEdit::kCodeRx:
    case DiffEdit::kCodeRwx:
      mem.protect(e.addr, kPageSize,
                  kProtRead | kProtExec |
                      (e.kind == DiffEdit::kCodeRwx ? kProtWrite : 0));
      return true;
    case DiffEdit::kUnmapData:
      if (data) mem.unmap(kDiffData, kPageSize);
      return data;
    case DiffEdit::kRemapData:
      if (!data) mem.map(kDiffData, kPageSize, kProtRead | kProtWrite, "data");
      return !data;
    case DiffEdit::kKinds:
      break;
  }
  return false;
}

DiffOutcome run_tier(const DiffProgram& p, Tier tier, DiffStats& stats) {
  AddressSpace mem;
  mem.map(kDiffCode, kDiffCodeSize, kProtRead | kProtWrite | kProtExec,
          "code");
  mem.poke(kDiffCode, p.code.data(), p.code.size());
  mem.map(kDiffData, kPageSize, kProtRead | kProtWrite, "data");
  mem.map(kDiffRoData, kPageSize, kProtRead, "rodata");
  std::vector<uint8_t> ro(kPageSize);
  for (size_t i = 0; i < ro.size(); ++i) ro[i] = static_cast<uint8_t>(i * 13);
  mem.poke(kDiffRoData, ro.data(), ro.size());
  mem.map(kDiffStack, kPageSize, kProtRead | kProtWrite, "stack");
  Cpu cpu;
  cpu.ip = kDiffCode;
  cpu.sp() = kDiffStackTop;
  DecodeCache dc;
  SuperblockCache sbc;

  DiffOutcome out;
  uint64_t retired = 0;
  size_t next_edit = 0;
  while (retired < kDiffMaxAttempts) {
    uint64_t limit = kDiffMaxAttempts;
    if (next_edit < p.edits.size()) {
      const DiffEdit& e = p.edits[next_edit];
      if (retired >= e.at) {
        if (diff_host_edit(mem, e) && tier == Tier::kStep) {
          stats.edits.insert(e.kind);
        }
        ++next_edit;
        continue;
      }
      limit = std::min(limit, e.at);
    }
    const uint64_t budget = std::min(p.quantum, limit - retired);
    uint64_t n = 1;
    StepResult r;
    switch (tier) {
      case Tier::kStep: {
        uint8_t b = 0;
        const bool valid =
            mem.read(cpu.ip, &b, 1, kProtExec).ok && isa::valid_opcode(b);
        r = step(mem, cpu);
        if (valid && r.fault != FaultType::kIll) stats.executed_ops.insert(b);
        break;
      }
      case Tier::kCachedStep:
        r = step(mem, cpu, &dc);
        break;
      case Tier::kDecodeCache:
        r = run_block(mem, cpu, &dc, nullptr, budget, n);
        break;
      case Tier::kSuperblock:
        r = run_block(mem, cpu, &dc, &sbc, budget, n);
        break;
    }
    if (n == 0 || n > budget) {
      ADD_FAILURE() << tier_name(tier) << " retired " << n << " of budget "
                    << budget;
      break;
    }
    retired += n;
    if (r.kind == StepKind::kOk) continue;
    out.events.push_back({retired, r.kind, r.fault, r.fault_addr, r.block_end,
                          cpu.ip, cpu_digest(cpu)});
    if (tier == Tier::kStep) {
      if (r.kind == StepKind::kFault) stats.faults.insert(r.fault);
      stats.traps += r.kind == StepKind::kTrap;
      stats.syscalls += r.kind == StepKind::kSyscall;
    }
    if (!diff_host_event(mem, cpu, r)) break;
  }

  out.regs = cpu.regs;
  out.ip = cpu.ip;
  out.flags = cpu.pack_flags();
  out.retired = retired;
  // Every page of the four regions, with its protection; an unmapped page
  // mixes in a marker.
  uint64_t h = 0xcbf29ce484222325ull;
  for (uint64_t page : {kDiffCode, kDiffCode + kPageSize,
                        kDiffCode + 2 * kPageSize, kDiffData, kDiffRoData,
                        kDiffStack}) {
    const Vma* v = mem.vma_at(page);
    const uint32_t prot = v == nullptr ? ~0u : v->prot;
    h = fnv(h, &prot, sizeof prot);
    if (v != nullptr) {
      auto bytes = mem.peek_bytes(page, kPageSize);
      h = fnv(h, bytes.data(), bytes.size());
    }
  }
  out.mem_digest = h;
  stats.sb_builds += sbc.builds();
  stats.sb_retires += sbc.retires();
  stats.sb_deopts += sbc.deopts();
  stats.sb_instrs += sbc.sb_instrs();
  stats.dc_invalidations += dc.invalidations();
  return out;
}

void expect_same(const DiffOutcome& ref, const DiffOutcome& got, Tier tier) {
  SCOPED_TRACE(tier_name(tier));
  const size_t common = std::min(ref.events.size(), got.events.size());
  for (size_t i = 0; i < common; ++i) {
    const DiffEvent& a = ref.events[i];
    const DiffEvent& b = got.events[i];
    if (a == b) continue;
    ADD_FAILURE() << "event " << i << " diverges: step retired=" << a.retired
                  << " kind=" << int(a.kind) << " fault=" << int(a.fault)
                  << " addr=0x" << std::hex << a.addr << " ip=0x" << a.ip
                  << " state=" << a.state << std::dec << " block_end="
                  << a.block_end << "; got retired=" << b.retired
                  << " kind=" << int(b.kind) << " fault=" << int(b.fault)
                  << " addr=0x" << std::hex << b.addr << " ip=0x" << b.ip
                  << " state=" << b.state << std::dec
                  << " block_end=" << b.block_end;
    return;
  }
  EXPECT_EQ(got.events.size(), ref.events.size());
  EXPECT_EQ(got.regs, ref.regs);
  EXPECT_EQ(got.ip, ref.ip);
  EXPECT_EQ(got.flags, ref.flags);
  EXPECT_EQ(got.mem_digest, ref.mem_digest);
  EXPECT_EQ(got.retired, ref.retired);
}

TEST(TierDifferential, RandomProgramsRetireIdenticalStateOnEveryTier) {
  DiffStats stats;
  for (uint64_t seed = 1; seed <= 48; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const DiffProgram p = DiffGen(seed).generate();
    const DiffOutcome ref = run_tier(p, Tier::kStep, stats);
    EXPECT_GT(ref.events.size(), 10u);
    for (Tier t : {Tier::kCachedStep, Tier::kDecodeCache, Tier::kSuperblock}) {
      expect_same(ref, run_tier(p, t, stats), t);
    }
  }
  // The seed list must keep exercising what the test is for: every opcode,
  // every fault type, and traces that build, deoptimize and retire.
  for (int b = 0; b < 256; ++b) {
    if (isa::valid_opcode(static_cast<uint8_t>(b))) {
      EXPECT_EQ(stats.executed_ops.count(static_cast<uint8_t>(b)), 1u)
          << "opcode 0x" << std::hex << b << " never executed";
    }
  }
  EXPECT_EQ(stats.faults.count(FaultType::kSegv), 1u);
  EXPECT_EQ(stats.faults.count(FaultType::kIll), 1u);
  EXPECT_EQ(stats.faults.count(FaultType::kFpe), 1u);
  EXPECT_GT(stats.traps, 0u);
  EXPECT_GT(stats.syscalls, 0u);
  EXPECT_GT(stats.sb_builds, 0u);
  EXPECT_GT(stats.sb_deopts, 0u);
  EXPECT_GT(stats.sb_retires, stats.sb_deopts);
  EXPECT_GT(stats.sb_instrs, 0u);
  EXPECT_GT(stats.dc_invalidations, 0u);
  for (int k = 0; k < DiffEdit::kKinds; ++k) {
    EXPECT_EQ(stats.edits.count(static_cast<DiffEdit::Kind>(k)), 1u)
        << "host edit kind " << k << " never applied";
  }
}

}  // namespace
}  // namespace dynacut::vm
