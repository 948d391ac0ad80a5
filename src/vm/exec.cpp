#include "vm/exec.hpp"

#include "vm/semantics.hpp"
#include "vm/superblock.hpp"

namespace dynacut::vm {

StepResult fetch(const AddressSpace& mem, uint64_t ip, isa::Instr& out) {
  // Fast path: speculatively read a maximal instruction in one go — almost
  // always hits the cached page.
  uint8_t buf[isa::kMaxInstrLength];
  uint8_t len = sizeof buf;
  if (!mem.read(ip, buf, len, kProtExec).ok) {
    const Access a = mem.read(ip, buf, 1, kProtExec);
    if (!a.ok) return {StepKind::kFault, FaultType::kSegv, a.fault_addr, false};
    len = isa::instr_length(buf[0]);
    if (len == 0) return {StepKind::kFault, FaultType::kIll, ip, false};
    if (len > 1) {
      const Access rest = mem.read(ip + 1, buf + 1, len - 1, kProtExec);
      if (!rest.ok) {
        return {StepKind::kFault, FaultType::kSegv, rest.fault_addr, false};
      }
    }
  }
  auto ins = isa::try_decode({buf, len});
  if (!ins) return {StepKind::kFault, FaultType::kIll, ip, false};
  out = *ins;
  return {};
}

namespace {

/// Executes one already-decoded instruction at cpu.ip on the interpreter
/// path: the shared semantics plus the interpreter's ip bookkeeping.
/// Force-inlined into the step/run loops: the call overhead is measurable
/// at the instructions-per-second scale even in unoptimized builds.
DYNACUT_ALWAYS_INLINE inline StepResult interpret(AddressSpace& mem,
                                                  Cpu& cpu,
                                                  const isa::Instr& ins) {
  const Outcome out = with_op(ins.op, [&](auto op) DYNACUT_ALWAYS_INLINE {
    return execute<decltype(op)::value>(mem, cpu, ins, cpu.ip);
  });
  switch (out.flow) {
    case Outcome::kNext:
      cpu.ip += ins.length;
      return {StepKind::kOk, FaultType::kNone, 0,
              isa::is_terminator(ins.op)};
    case Outcome::kJump:
    case Outcome::kIndirect:
      cpu.ip = out.addr;
      return {StepKind::kOk, FaultType::kNone, 0, true};
    case Outcome::kSyscall:
      cpu.ip += ins.length;
      return {StepKind::kSyscall, FaultType::kNone, 0, true};
    case Outcome::kTrap:
      // ip intentionally NOT advanced: the signal frame records the trap
      // address so a handler can patch/redirect and re-execute.
      return {StepKind::kTrap, FaultType::kNone, cpu.ip, true};
    case Outcome::kFault:
      break;
  }
  return {StepKind::kFault, out.fault, out.addr, false};
}

/// The uncached interpreter tier of run_block: single steps until a
/// terminator retires, an event surfaces or the budget is spent.
StepResult step_block(AddressSpace& mem, Cpu& cpu, uint64_t max_instr,
                      uint64_t& retired) {
  StepResult r{};
  for (retired = 0; retired < max_instr;) {
    r = step(mem, cpu);
    ++retired;
    if (r.kind != StepKind::kOk || r.block_end) break;
  }
  return r;
}

}  // namespace

// ---------------------------------------------------------------------------
// DecodeCache
// ---------------------------------------------------------------------------

void DecodeCache::clear() {
  pages_.clear();
  last_page_ = ~0ull;
  last_entry_ = nullptr;
}

void DecodeCache::sync(const AddressSpace& mem) {
  if (asid_ != mem.asid()) {
    clear();
    asid_ = mem.asid();
  }
}

DecodeCache::PageEntry* DecodeCache::entry_for(const AddressSpace& mem,
                                               uint64_t page_addr) {
  PageEntry* e;
  if (page_addr == last_page_) {
    e = last_entry_;
  } else {
    auto [it, inserted] = pages_.try_emplace(page_addr);
    e = &it->second;
    if (inserted) {
      e->live_gen = mem.page_generation_slot(page_addr);
      e->gen = *e->live_gen;
    }
    last_page_ = page_addr;
    last_entry_ = e;
  }
  if (*e->live_gen != e->gen) {
    // The page (or its mapping) changed since the slots were decoded: drop
    // them and adopt the new generation. Slots refill lazily against the
    // new bytes.
    for (const Slot& s : e->slots) e->index[s.off] = 0;
    e->slots.clear();
    e->gen = *e->live_gen;
    ++invalidations_;
  }
  return e;
}

StepResult DecodeCache::fill_slot(const AddressSpace& mem, uint64_t ip,
                                  PageEntry& e, uint64_t off) {
  Slot s;
  s.off = static_cast<uint16_t>(off);
  const StepResult f = vm::fetch(mem, ip, s.ins);
  if (f.kind == StepKind::kOk) {
    s.state = kValid;
  } else if (f.fault == FaultType::kIll) {
    s.state = kBad;
  } else {
    return f;
  }
  e.slots.push_back(s);
  e.index[off] = static_cast<uint16_t>(e.slots.size());
  return f;
}

StepResult DecodeCache::fetch(AddressSpace& mem, uint64_t ip,
                              isa::Instr& out) {
  sync(mem);
  const uint64_t page = page_floor(ip);
  const uint64_t off = ip - page;
  if (off >= kCacheable) {
    // Possible page-straddler: serve uncached.
    ++misses_;
    return vm::fetch(mem, ip, out);
  }
  PageEntry& e = *entry_for(mem, page);
  const Slot* s = e.find(off);
  if (s == nullptr) {
    ++misses_;
    const StepResult f = fill_slot(mem, ip, e, off);
    if (f.kind != StepKind::kOk) return f;
    s = &e.slots.back();
  } else {
    ++hits_;
    if (s->state == kBad) return {StepKind::kFault, FaultType::kIll, ip, false};
  }
  out = s->ins;
  return {};
}

StepResult DecodeCache::run(AddressSpace& mem, Cpu& cpu, uint64_t max_instr,
                            uint64_t& retired) {
  sync(mem);
  StepResult r{};
  uint64_t n = 0;     // local retired counter (flushed on every exit)
  uint64_t hits = 0;  // local stats accumulator — off the per-instr path
  bool stop = false;
  while (!stop && n < max_instr) {
    const uint64_t page = page_floor(cpu.ip);
    uint64_t off = cpu.ip - page;
    if (off >= kCacheable) {
      // Possible page-straddler, never cached: the generic single step.
      r = step(mem, cpu, this);
      ++n;
      if (r.kind != StepKind::kOk || r.block_end) break;
      continue;
    }
    // Straight-line fast path: stay on this page's decoded slots. One
    // generation dereference per instruction keeps self-modifying stores
    // (e.g. the verifier handler healing its own page) precise. Slots fill
    // in decode order, so a fallthrough is usually the next dense slot; the
    // offset index is consulted only when it is not.
    PageEntry& e = *entry_for(mem, page);
    const uint64_t* live_gen = e.live_gen;
    const uint64_t gen = e.gen;
    const Slot* s = e.find(off);
    const Slot* end = e.slots.data() + e.slots.size();
    while (n < max_instr && *live_gen == gen) {
      if (s == nullptr) {
        ++misses_;
        r = fill_slot(mem, cpu.ip, e, off);
        if (r.kind != StepKind::kOk) {
          ++n;
          stop = true;
          break;
        }
        s = &e.slots.back();
        end = s + 1;
      } else {
        ++hits;  // a known-bad slot is still a cache-served fetch
        if (s->state == kBad) {
          r = {StepKind::kFault, FaultType::kIll, cpu.ip, false};
          ++n;
          stop = true;
          break;
        }
      }
      r = interpret(mem, cpu, s->ins);
      ++n;
      if (r.kind != StepKind::kOk || r.block_end) {
        stop = true;
        break;
      }
      off = cpu.ip - page;
      if (off >= kCacheable) break;  // page edge
      s = s + 1 != end && s[1].off == off ? s + 1 : e.find(off);
    }
  }
  hits_ += hits;
  retired = n;
  return r;
}

// ---------------------------------------------------------------------------
// Stepping
// ---------------------------------------------------------------------------

StepResult step(AddressSpace& mem, Cpu& cpu, DecodeCache* cache) {
  isa::Instr ins;
  const StepResult f = cache != nullptr ? cache->fetch(mem, cpu.ip, ins)
                                        : fetch(mem, cpu.ip, ins);
  if (f.kind != StepKind::kOk) return f;
  return interpret(mem, cpu, ins);
}

StepResult run_block(AddressSpace& mem, Cpu& cpu, DecodeCache* cache,
                     SuperblockCache* sbc, uint64_t max_instr,
                     uint64_t& retired) {
  StepResult r{};
  uint64_t n = 0;
  while (n < max_instr) {
    SuperblockCache::Ref ref =
        sbc != nullptr ? sbc->lookup(mem, cpu.ip) : SuperblockCache::Ref{};
    if (ref.sb != nullptr) {
      SbExit why = SbExit::kBranch;
      r = sbc->dispatch(mem, cpu, ref, max_instr - n, n, why);
      // kEvent / kBranch surface exactly like the interpreter path would.
      // kDeopt: the trace went stale mid-dispatch. cpu.ip is at the next
      // unstarted instruction; finish the round on the interpreter path,
      // which re-fetches (and so re-validates) precisely.
      if (why != SbExit::kDeopt || n >= max_instr) break;
    }
    uint64_t sub = 0;
    r = cache != nullptr ? cache->run(mem, cpu, max_instr - n, sub)
                         : step_block(mem, cpu, max_instr - n, sub);
    n += sub;
    // kOk without block_end: the round spent the remaining budget.
    if (r.kind != StepKind::kOk || r.block_end) break;
  }
  retired = n;
  return r;
}

BlockInfo block_at(const AddressSpace& mem, uint64_t addr,
                   uint64_t max_bytes) {
  BlockInfo info;
  for (uint64_t cur = addr; cur - addr < max_bytes;) {
    isa::Instr ins;
    if (fetch(mem, cur, ins).kind != StepKind::kOk) break;
    info.size = cur + ins.length - addr;
    info.instr_count += 1;
    if (isa::is_terminator(ins.op)) {
      info.terminated = true;
      break;
    }
    cur += ins.length;
  }
  return info;
}

}  // namespace dynacut::vm
