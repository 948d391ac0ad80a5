#include "vm/superblock.hpp"

#include <algorithm>
#include <bit>
#include <set>

#include "vm/semantics.hpp"

namespace dynacut::vm {

using isa::Op;

// ---------------------------------------------------------------------------
// Cache maintenance
// ---------------------------------------------------------------------------

void SuperblockCache::clear() {
  std::fill(entry_points_.begin(), entry_points_.end(), Entry{});
  entry_count_ = 0;
  blocks_.clear();
  heat_.clear();
}

void SuperblockCache::sync(const AddressSpace& mem) {
  if (asid_ != mem.asid()) {
    clear();
    asid_ = mem.asid();
  }
}

void SuperblockCache::push_event(SbEvent::Kind kind, uint64_t entry,
                                 uint64_t detail) {
  // Bounded: callers that never drain (raw vm benches) must not leak.
  if (events_.size() < 4096) events_.push_back({kind, entry, detail});
}

size_t SuperblockCache::probe(uint64_t ip) const {
  const size_t mask = entry_points_.size() - 1;
  size_t i = home(ip);
  while (entry_points_[i].ref.sb != nullptr && entry_points_[i].ip != ip) {
    i = (i + 1) & mask;
  }
  return i;
}

void SuperblockCache::claim(uint64_t ip, Ref ref) {
  if (2 * (entry_count_ + 1) > entry_points_.size()) {
    std::vector<Entry> old(std::max<size_t>(64, 2 * entry_points_.size()));
    old.swap(entry_points_);
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(entry_points_.size()));
    for (const Entry& en : old) {
      if (en.ref.sb != nullptr) entry_points_[probe(en.ip)] = en;
    }
  }
  Entry& en = entry_points_[probe(ip)];
  if (en.ref.sb != nullptr) return;  // first trace wins
  en = {ip, ref};
  ++entry_count_;
}

void SuperblockCache::unclaim(uint64_t ip, const Superblock* sb) {
  size_t h = probe(ip);
  if (entry_points_[h].ref.sb != sb) return;
  // Backward-shift deletion: walk the rest of the probe run and move back
  // every entry whose home does not lie between the hole and its slot, so
  // each remaining entry stays reachable from its home without a gap.
  const size_t mask = entry_points_.size() - 1;
  for (size_t j = (h + 1) & mask; entry_points_[j].ref.sb != nullptr;
       j = (j + 1) & mask) {
    if (((j - home(entry_points_[j].ip)) & mask) >= ((j - h) & mask)) {
      entry_points_[h] = entry_points_[j];
      h = j;
    }
  }
  entry_points_[h] = Entry{};
  --entry_count_;
}

void SuperblockCache::retire(Superblock* sb, bool deopt, uint64_t resume_ip) {
  for (const auto& o : sb->ops_) unclaim(o.ip, sb);
  ++retires_;
  push_event(SbEvent::kRetire, sb->entry_, sb->instr_count());
  if (deopt) {
    ++deopts_;
    push_event(SbEvent::kDeopt, sb->entry_, resume_ip);
  }
  blocks_.erase(sb);
}

// ---------------------------------------------------------------------------
// Trace selection + threading
// ---------------------------------------------------------------------------

SuperblockCache::Ref SuperblockCache::lookup(const AddressSpace& mem,
                                             uint64_t ip) {
  sync(mem);
  const Ref ref = entry_count_ != 0 ? entry_points_[probe(ip)].ref : Ref{};
  if (ref.sb != nullptr) {
    if (!ref.sb->pages_valid()) {
      // A spanned page changed (int3 patch, wipe, unmap, heal) since the
      // trace last ran: retire before anything executes from it. The
      // interpreter path re-fetches and sees the new bytes immediately.
      retire(ref.sb, /*deopt=*/false, 0);
      return {};
    }
    return ref;
  }
  if (blocks_.size() >= kMaxSuperblocks) return {};
  if (heat_.size() > (1u << 16)) heat_.clear();  // runaway-workload bound
  if (++heat_[ip] < kHotThreshold) return {};
  heat_.erase(ip);
  Superblock* sb = build(mem, ip);
  if (sb == nullptr) return {};
  return {sb, 0};
}

Superblock* SuperblockCache::build(const AddressSpace& mem, uint64_t entry) {
  auto owned = std::make_unique<Superblock>();
  Superblock* sb = owned.get();
  sb->entry_ = entry;
  std::unordered_map<uint64_t, int32_t> index_of;
  std::set<uint64_t> pages;

  // Walk whole basic blocks across fallthrough and direct-branch edges.
  // Only complete, terminated blocks are appended: a scan that ran into an
  // undecodable byte or the byte limit without reaching a terminator
  // (BlockInfo::terminated == false) is never fused — a trace must know
  // where every one of its paths exits.
  uint64_t ip = entry;
  while (true) {
    BlockInfo bi = block_at(mem, ip, kMaxBlockBytes);
    if (!bi.terminated) break;
    if (sb->ops_.size() + bi.instr_count > kMaxOps) break;

    std::set<uint64_t> block_pages;
    for (uint64_t page = page_floor(ip); page < ip + bi.size;
         page += kPageSize) {
      if (pages.count(page) == 0) block_pages.insert(page);
    }
    if (pages.size() + block_pages.size() > kMaxPages) break;

    uint64_t cur = ip;
    for (uint32_t i = 0; i < bi.instr_count; ++i) {
      // A fetch that disagrees with the block scan cannot happen
      // single-threaded, but a half-threaded block must never be registered.
      isa::Instr ins;
      if (fetch(mem, cur, ins).kind != StepKind::kOk) return nullptr;
      Superblock::ThreadedOp op;
      op.op = ins.op;
      op.r1 = ins.r1;
      op.r2 = ins.r2;
      op.length = ins.length;
      op.hidx = isa::op_index(ins.op);
      op.imm = ins.imm;
      op.ip = cur;
      index_of.emplace(cur, static_cast<int32_t>(sb->ops_.size()));
      sb->ops_.push_back(op);
      cur += ins.length;
    }
    pages.insert(block_pages.begin(), block_pages.end());

    const Superblock::ThreadedOp& last = sb->ops_.back();
    uint64_t next_ip;
    if (last.op == Op::kJmp || last.op == Op::kCall) {
      next_ip = last.target();  // fuse through the direct transfer
    } else if (isa::is_cond_branch(last.op)) {
      next_ip = last.ip + last.length;  // fuse along the fallthrough
    } else {
      break;  // ret/callr/jmpr/syscall/trap: trace ends here
    }
    if (index_of.count(next_ip) != 0) break;  // loop closed inside the trace
    ip = next_ip;
  }
  if (sb->ops_.empty()) return nullptr;

  // Thread the ops: successors become trace indices where the target is
  // inside the trace, kExit where it leaves.
  auto index_or_exit = [&](uint64_t at) {
    auto f = index_of.find(at);
    return f == index_of.end() ? Superblock::kExit : f->second;
  };
  for (size_t i = 0; i < sb->ops_.size(); ++i) {
    Superblock::ThreadedOp& o = sb->ops_[i];
    if (!isa::is_terminator(o.op)) {
      o.next = static_cast<int32_t>(i + 1);  // same block, always present
    } else if (o.op == Op::kJmp || o.op == Op::kCall) {
      o.taken = index_or_exit(o.target());
    } else if (isa::is_cond_branch(o.op)) {
      o.taken = index_or_exit(o.target());
      o.next = index_or_exit(o.ip + o.length);
    }
    // ret/callr/jmpr/syscall/trap: both successors stay kExit.
  }

  for (uint64_t page : pages) {
    sb->pages_.emplace_back(mem.page_generation_slot(page),
                            mem.page_generation(page));
  }

  for (size_t i = 0; i < sb->ops_.size(); ++i) {
    // First trace wins: an ip already claimed by a live superblock (or by an
    // earlier op of this one) keeps its mapping; the overlap executes
    // identically either way.
    claim(sb->ops_[i].ip, {sb, static_cast<int32_t>(i)});
  }
  blocks_.emplace(sb, std::move(owned));
  ++builds_;
  push_event(SbEvent::kBuild, entry, sb->instr_count());
  return sb;
}

// ---------------------------------------------------------------------------
// Threaded-code dispatch
// ---------------------------------------------------------------------------
//
// With GNU extensions (GCC/Clang) the dispatch is direct-threaded: one
// handler per VX64_OPS row, each expanding the shared semantics
// (vm/semantics.hpp) with its own constant opcode and ending in its own
// computed goto through the jump table, so the branch predictor sees one
// indirect-jump site per handler instead of a single shared switch site.
// The current op is a pointer into the trace, and straight-line successors
// are a pointer increment (build invariant: next == idx + 1 for every
// non-terminator) rather than a loaded index — no pointer chase on the
// critical path. Elsewhere the same handlers run as a plain switch loop.

#if defined(__GNUC__) || defined(__clang__)
#define DYNACUT_DIRECT_THREADING 1
#endif

StepResult SuperblockCache::dispatch(AddressSpace& mem, Cpu& cpu,
                                     const Ref& ref, uint64_t max_instr,
                                     uint64_t& attempted, SbExit& why) {
  Superblock* sb = ref.sb;
  const Superblock::ThreadedOp* const code = sb->ops_.data();
  const Superblock::ThreadedOp* pc = code + ref.idx;
  uint64_t n = 0;
  StepResult res{};
  ++entries_;

  // Re-validation after a guest store: a write that landed on a spanned
  // executable page (self-modifying code, verifier heal) makes the rest of
  // the trace stale. The store itself retired; execution resumes at the
  // next architectural instruction on the interpreter path.
  const auto deopt = [&](uint64_t resume_ip) {
    if (sb->pages_valid()) return false;
    cpu.ip = resume_ip;
    retire(sb, /*deopt=*/true, resume_ip);
    why = SbExit::kDeopt;
    res = StepResult{};
    return true;
  };
  // Leaves the trace for `to` after a retired transfer.
  const auto branch_exit = [&](uint64_t to) {
    cpu.ip = to;
    res.block_end = true;
    why = SbExit::kBranch;
    return false;
  };
  // The trace's bookkeeping for a retired (or faulting) *pc beyond the
  // straight-line case: a store's deopt check, branch successors, and the
  // exits. Moves pc to the in-trace successor and returns true, or leaves
  // cpu at the exact state the interpreter would (transfers on their
  // target, faults/traps on the instruction, syscalls after it) and returns
  // false.
  const auto follow = [&](Op op, const Outcome& out) DYNACUT_ALWAYS_INLINE {
    const Superblock::ThreadedOp& o = *pc;
    int32_t nx;
    uint64_t to;
    switch (out.flow) {
      case Outcome::kNext:
        if (!isa::is_terminator(op)) {  // a store: next == idx + 1
          if (out.wrote && deopt(o.ip + o.length)) return false;
          ++pc;
          return true;
        }
        nx = o.next;  // untaken conditional branch
        to = o.ip + o.length;
        break;
      case Outcome::kJump:
        nx = o.taken;
        to = out.addr;
        break;
      case Outcome::kIndirect:
        return branch_exit(out.addr);
      case Outcome::kSyscall:
        cpu.ip = o.ip + o.length;
        res = {StepKind::kSyscall, FaultType::kNone, 0, true};
        why = SbExit::kEvent;
        return false;
      case Outcome::kTrap:
        cpu.ip = o.ip;
        res = {StepKind::kTrap, FaultType::kNone, o.ip, true};
        why = SbExit::kEvent;
        return false;
      case Outcome::kFault:
      default:
        cpu.ip = o.ip;
        res = {StepKind::kFault, out.fault, out.addr, false};
        why = SbExit::kEvent;
        return false;
    }
    if (nx == Superblock::kExit) return branch_exit(to);
    // A call's return-address push may have hit a spanned W+X page.
    if (out.wrote && deopt(to)) return false;
    pc = code + nx;  // resolved to a trace index: the loop stays hot
    return true;
  };

#if DYNACUT_DIRECT_THREADING
#define VX_OP(name) h_##name:
  // The budget is re-checked before entering the next handler; replicating
  // the check keeps it a predictable not-taken branch at every site. The
  // empty asm names the handler so the compiler cannot merge the identical
  // tails of handlers that end alike (add_rr and add_ri, say) into one
  // indirect jump (cross-jumping): each handler keeps its own dispatch site.
#define VX_DISPATCH(name)                 \
  do {                                    \
    if (n >= max_instr) goto budget_exit; \
    asm volatile("# " #name);             \
    goto* jt[pc->hidx];                   \
  } while (0)
#else
#define VX_OP(name) case Op::name:
#define VX_DISPATCH(name) goto loop_top
#endif
  // One handler per opcode: the shared semantics, then the trace's
  // bookkeeping. A straight-line op that wrote no memory moves to the next
  // slot; everything else goes through follow(). Every attempt counts
  // once, faults and traps included.
#define VX_HANDLER(name, byte, format, mnemonic, control)              \
  VX_OP(name) {                                                         \
    constexpr bool kStraight = !isa::is_terminator(Op::name);           \
    const Outcome out = execute<Op::name>(mem, cpu, *pc, pc->ip);       \
    ++n;                                                                \
    if (kStraight && out.flow == Outcome::kNext && !out.wrote) {        \
      ++pc;                                                             \
    } else if (!follow(Op::name, out)) {                                \
      goto exit;                                                        \
    }                                                                   \
    VX_DISPATCH(name);                                                  \
  }

#if DYNACUT_DIRECT_THREADING
#define VX_LABEL(name, byte, format, mnemonic, control) &&h_##name,
  // Indexed by isa::op_index: the rows of VX64_OPS in order.
  static const void* const jt[] = {VX64_OPS(VX_LABEL)};
#undef VX_LABEL
  VX_DISPATCH(entry);
#else
loop_top:
  if (n >= max_instr) goto budget_exit;
  switch (pc->op) {
#endif
  VX64_OPS(VX_HANDLER)
#if !DYNACUT_DIRECT_THREADING
  }
  goto exit;  // unreachable: every listed opcode has a handler
#endif
#undef VX_HANDLER
#undef VX_DISPATCH
#undef VX_OP

budget_exit:
  cpu.ip = pc->ip;
  why = SbExit::kBudget;
exit:
  sb_instrs_ += n;
  attempted += n;
  return res;
}

}  // namespace dynacut::vm
