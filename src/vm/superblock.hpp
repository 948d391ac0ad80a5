// Superblock translation cache: JIT-style threaded-code execution for hot
// VX64 paths (DESIGN.md §12).
//
// The decode cache (exec.hpp) removed fetch+decode from the hot loop but
// still dispatches one instruction at a time, paying a page lookup, a slot
// consult and a generation dereference per instruction. This layer goes one
// step further, the way DBI engines (DynamoRIO, Pin) do: once a block entry
// gets hot, the straight-line chain reachable from it across fallthrough
// and *direct* branches is fused into a superblock — a trace of pre-resolved
// "threaded code" ops (opcode + register indices + immediate + successor
// trace indices) executed by a tight dispatch loop. Branches whose target
// lies inside the trace re-enter it by index, so a serving loop runs
// entirely inside one superblock with no per-iteration cache traffic.
//
// Correctness contract (same invariant currency as the decode cache):
//   * a superblock records the `(generation-slot, generation)` pair of every
//     page it spans; it is validated against all of them at dispatch entry
//     and re-validated after every instruction that writes guest memory.
//     Any mismatch retires the superblock and *deoptimizes*: dispatch stops
//     at a consistent architectural state (every instruction either fully
//     retired or not started) and the caller resumes on the interpreter
//     path, which re-fetches precisely. int3 patches, verifier byte-heals,
//     wipes and unmaps therefore take effect on the very next fetched
//     instruction, exactly as they do under the decode cache.
//   * traps, faults and syscalls inside a trace surface as ordinary
//     StepResults with the interpreter's ip semantics (trap/fault: ip on
//     the instruction; syscall: ip after it).
//   * the whole cache drops on an asid change (address space rebuilt).
//   * indirect transfers (ret / callr / jmpr) and syscalls end traces;
//     unterminated block scans (BlockInfo::terminated == false) are never
//     fused.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "isa/isa.hpp"
#include "vm/addrspace.hpp"
#include "vm/cpu.hpp"
#include "vm/exec.hpp"

namespace dynacut::vm {

/// Why a superblock dispatch returned to run_block.
enum class SbExit : uint8_t {
  kEvent,   ///< trap/syscall/fault surfaced; see the StepResult
  kBranch,  ///< a terminator retired with a target outside the trace
  kBudget,  ///< instruction budget exhausted; cpu.ip at the next instruction
  kDeopt,   ///< a spanned page's generation bumped mid-trace; superblock
            ///< retired, caller resumes on the interpreter path
};

/// One fused trace in threaded-code form. Built and owned by
/// SuperblockCache; immutable after construction.
class Superblock {
 public:
  /// Index value meaning "successor is outside the trace".
  static constexpr int32_t kExit = -1;

  /// A pre-resolved instruction: everything the dispatch loop needs, with
  /// no decode, no operand resolution and no successor lookup at run time.
  struct ThreadedOp {
    isa::Op op = isa::Op::kNop;
    uint8_t r1 = 0;
    uint8_t r2 = 0;
    uint8_t length = 1;  ///< encoded size (ip advance / syscall resume)
    uint8_t hidx = 0;    ///< isa::op_index(op): the dispatch-table slot
    int32_t taken = kExit;  ///< trace index of the taken successor
    int32_t next = kExit;   ///< trace index of the fallthrough successor
    int64_t imm = 0;        ///< immediate / displacement / shift amount
    uint64_t ip = 0;        ///< architectural address of this instruction

    /// Static transfer / lea target (ip-relative).
    uint64_t target() const {
      return ip + length + static_cast<uint64_t>(imm);
    }
  };

  uint64_t entry() const { return entry_; }
  uint32_t instr_count() const { return static_cast<uint32_t>(ops_.size()); }
  uint32_t page_count() const { return static_cast<uint32_t>(pages_.size()); }

 private:
  friend class SuperblockCache;

  /// True while every spanned page still has the generation the trace was
  /// decoded against.
  bool pages_valid() const {
    for (const auto& [slot, gen] : pages_) {
      if (*slot != gen) return false;
    }
    return true;
  }

  uint64_t entry_ = 0;
  std::vector<ThreadedOp> ops_;
  /// (live generation-slot pointer, generation at build time) per page the
  /// trace's instruction bytes span. Slot pointers are stable for the
  /// address space's lifetime (AddressSpace::page_generation_slot).
  std::vector<std::pair<const uint64_t*, uint64_t>> pages_;
};

/// Per-process superblock cache. One per guest CPU, owned next to the
/// DecodeCache (os::Process); pass it to run_block. Non-copyable for the
/// same reason the decode cache is: traces hold generation-slot pointers
/// into one specific AddressSpace.
class SuperblockCache {
 public:
  /// Dispatch entries into a trace before it is built. Low enough that a
  /// serving loop compiles within its first scheduler quantum, high enough
  /// that straight-through init code is never traced.
  static constexpr uint32_t kHotThreshold = 8;
  /// Trace limits: whole blocks are appended until one of these trips.
  static constexpr size_t kMaxOps = 512;
  static constexpr size_t kMaxPages = 8;
  static constexpr uint64_t kMaxBlockBytes = 4096;
  static constexpr size_t kMaxSuperblocks = 4096;

  SuperblockCache() = default;
  SuperblockCache(const SuperblockCache&) = delete;
  SuperblockCache& operator=(const SuperblockCache&) = delete;

  /// Drops every trace and heat counter (stats are kept). Called by
  /// checkpoint restore; also self-triggers on an asid change.
  void clear();

  // --- stats -------------------------------------------------------------
  uint64_t builds() const { return builds_; }
  uint64_t retires() const { return retires_; }
  uint64_t deopts() const { return deopts_; }
  /// Number of dispatch entries (trace activations).
  uint64_t entries() const { return entries_; }
  /// Instructions retired inside superblock dispatch.
  uint64_t sb_instrs() const { return sb_instrs_; }
  size_t superblocks() const { return blocks_.size(); }

  // --- lifecycle events for the observability layer ----------------------
  // The vm layer must not depend on obs, so build/retire/deopt are queued
  // here as plain records; os::run_quantum drains them onto the event bus
  // (sb.build / sb.retire / sb.deopt) after every run_block call.
  struct SbEvent {
    enum Kind : uint8_t { kBuild, kRetire, kDeopt } kind;
    uint64_t entry = 0;   ///< trace entry address
    uint64_t detail = 0;  ///< build/retire: instr count; deopt: resume ip
  };
  bool events_pending() const { return !events_.empty(); }
  std::vector<SbEvent> take_events() { return std::move(events_); }

  // --- execution interface (used by run_block) ---------------------------
  /// A dispatchable position inside a trace (sb == nullptr: no trace).
  struct Ref {
    Superblock* sb = nullptr;
    int32_t idx = 0;
  };

  /// Returns a validated trace position covering `ip`, or counts heat and
  /// (at kHotThreshold) builds one. A trace whose pages went stale is
  /// retired here — before anything executes from it.
  Ref lookup(const AddressSpace& mem, uint64_t ip);

  /// Executes the trace from `ref` until an exit (see SbExit). Appends the
  /// number of attempted instructions to `attempted`; cpu is left at a
  /// consistent architectural state for every exit kind.
  StepResult dispatch(AddressSpace& mem, Cpu& cpu, const Ref& ref,
                      uint64_t max_instr, uint64_t& attempted, SbExit& why);

 private:
  /// Resets the cache if `mem` is not the address space it was built from.
  void sync(const AddressSpace& mem);

  /// Traces and threads a superblock starting at `entry`. Returns nullptr
  /// if nothing fusable starts there (unterminated scan, undecodable entry,
  /// cache full).
  Superblock* build(const AddressSpace& mem, uint64_t entry);

  /// Unregisters and frees one trace. `deopt` marks a mid-dispatch exit
  /// (counted separately; entry-check retirements are plain retires).
  void retire(Superblock* sb, bool deopt, uint64_t resume_ip);

  void push_event(SbEvent::Kind kind, uint64_t entry, uint64_t detail);

  /// The entry table: every traced ip, open-addressed with linear probing
  /// in a power-of-two array kept at most half full (DESIGN.md §12).
  struct Entry {
    uint64_t ip = 0;
    Ref ref;  ///< ref.sb == nullptr: free slot
  };
  size_t home(uint64_t ip) const {
    return static_cast<size_t>((ip * 0x9E3779B97F4A7C15ull) >> shift_);
  }
  /// Index of the slot holding `ip`, or of the free slot ending its probe
  /// run.
  size_t probe(uint64_t ip) const;
  /// Maps `ip` unless a live trace already claims it (first trace wins).
  void claim(uint64_t ip, Ref ref);
  /// Removes `ip` if `sb` claims it, shifting later entries of its probe
  /// run back so no probe run is ever broken by a hole.
  void unclaim(uint64_t ip, const Superblock* sb);

  std::vector<Entry> entry_points_;
  size_t entry_count_ = 0;
  unsigned shift_ = 64;  ///< 64 - log2(entry_points_.size())
  std::unordered_map<Superblock*, std::unique_ptr<Superblock>> blocks_;
  std::unordered_map<uint64_t, uint32_t> heat_;
  std::vector<SbEvent> events_;
  uint64_t asid_ = 0;

  uint64_t builds_ = 0;
  uint64_t retires_ = 0;
  uint64_t deopts_ = 0;
  uint64_t entries_ = 0;
  uint64_t sb_instrs_ = 0;
};

}  // namespace dynacut::vm
