// The VX64 executor: single-steps a CPU over an address space.
//
// The executor is policy-free: syscalls, traps and faults are reported to
// the caller (the OS simulator), which implements kernel behaviour.
//
// Hot-loop execution goes through a DecodeCache: per-page arrays of decoded
// instructions keyed by (page address, page generation). AddressSpace bumps
// a page's generation on every byte write to executable memory and on every
// map/protect/unmap over it, so live rewrites — int3 patches, trap-handler
// byte heals, block wipes, unmaps — take effect on the very next fetched
// instruction; there is no window where a stale decode can execute.
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "isa/isa.hpp"
#include "vm/addrspace.hpp"
#include "vm/cpu.hpp"

namespace dynacut::vm {

enum class StepKind : uint8_t {
  kOk,       ///< instruction retired normally
  kSyscall,  ///< SYSCALL executed; ip already advanced past it
  kTrap,     ///< TRAP (0xCC) reached; ip still points at the trap byte
  kFault,    ///< SIGSEGV/SIGILL/SIGFPE condition; ip unchanged
};

struct StepResult {
  StepKind kind = StepKind::kOk;
  FaultType fault = FaultType::kNone;
  uint64_t fault_addr = 0;
  bool block_end = false;  ///< the retired instruction was a BB terminator
};

class DecodeCache;
class SuperblockCache;

/// Executes exactly one instruction. Never throws on guest misbehaviour —
/// all guest errors surface as kFault/kTrap results. With a cache, the
/// fetch+decode is served from (and fills) the cache; without one it reads
/// raw page bytes every time.
StepResult step(AddressSpace& mem, Cpu& cpu, DecodeCache* cache = nullptr);

/// Executes instructions until a basic-block terminator retires, a syscall/
/// trap/fault surfaces, or `max_instr` instructions have been attempted.
/// `retired` returns the number of attempts (faulting/trapping instructions
/// count once, matching the per-step accounting of the OS scheduler).
/// With a decode cache, straight-line spans inside one cached page run off
/// the decoded array with a single generation check per instruction — no
/// fetch, no decode. With a superblock cache (`sbc` may be null), hot
/// entries execute as fused threaded-code traces (vm/superblock.hpp) and
/// may retire *many* basic blocks before returning — internal direct
/// branches re-enter the trace without surfacing; the call then returns on
/// the first terminator that leaves every trace. A mid-trace
/// deoptimization (page generation bump) transparently resumes on the
/// interpreter path within the same call.
StepResult run_block(AddressSpace& mem, Cpu& cpu, DecodeCache* cache,
                     SuperblockCache* sbc, uint64_t max_instr,
                     uint64_t& retired);

/// Per-page decoded-instruction cache. One per guest CPU/process; pass it
/// to step()/run_block(). Correctness contract:
///   * an entry is valid only while AddressSpace::page_generation(page)
///     equals the generation recorded at fill time (checked per fetch);
///   * the whole cache resets when it observes a different asid — the
///     process memory was rebuilt, e.g. by checkpoint restore;
///   * instructions that could straddle a page boundary (offset within
///     kMaxInstrLength of the page end) are never cached.
class DecodeCache {
 public:
  DecodeCache() = default;
  // Non-copyable: entries hold generation-slot pointers into a specific
  // AddressSpace and are meaningless for any other process image.
  DecodeCache(const DecodeCache&) = delete;
  DecodeCache& operator=(const DecodeCache&) = delete;

  /// Drops every cached page (stats are kept). Called by checkpoint restore;
  /// also self-triggers on an asid change.
  void clear();

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t invalidations() const { return invalidations_; }
  size_t cached_pages() const { return pages_.size(); }

 private:
  friend StepResult step(AddressSpace&, Cpu&, DecodeCache*);
  friend StepResult run_block(AddressSpace&, Cpu&, DecodeCache*,
                              SuperblockCache*, uint64_t, uint64_t&);

  /// Offsets whose instruction cannot straddle into the next page; only
  /// these are cached (a straddler's decode would also depend on the next
  /// page's generation).
  static constexpr uint64_t kCacheable = kPageSize - isa::kMaxInstrLength + 1;

  struct Slot {
    isa::Instr ins;
    uint16_t off = 0;   ///< page offset the slot decodes
    uint8_t state = 0;  ///< kValid / kBad
  };
  static constexpr uint8_t kValid = 1;  ///< ins holds the decode
  static constexpr uint8_t kBad = 2;    ///< undecodable: fetch is SIGILL

  /// One cached page: a 16-bit index per cacheable offset (0: not decoded,
  /// else 1 + position) into a dense array of only the decoded slots.
  struct PageEntry {
    const uint64_t* live_gen = nullptr;  ///< the page's generation counter
    uint64_t gen = 0;                    ///< generation the slots decode
    std::vector<Slot> slots;             ///< in decode order
    std::array<uint16_t, kCacheable> index{};

    const Slot* find(uint64_t off) const {
      return index[off] != 0 ? &slots[index[off] - 1] : nullptr;
    }
  };

  /// Resets the cache if `mem` is not the address space it was filled from.
  void sync(const AddressSpace& mem);

  /// Returns the (validated, possibly freshly wiped) entry for a page.
  PageEntry* entry_for(const AddressSpace& mem, uint64_t page_addr);

  /// Decodes the instruction at `ip` (offset `off` of `e`'s page) into a
  /// new slot at the back of `e.slots` and returns the fetch result. Bytes
  /// that are not readable as code (kSegv) add no slot: only decodes and
  /// invalid encodings are cached.
  StepResult fill_slot(const AddressSpace& mem, uint64_t ip, PageEntry& e,
                       uint64_t off);

  /// Cache-served fetch+decode of the instruction at `ip`.
  StepResult fetch(AddressSpace& mem, uint64_t ip, isa::Instr& out);

  /// The decode-cache tier of run_block: one basic block, event or budget
  /// per call, straight-line spans served off the page's decoded array.
  StepResult run(AddressSpace& mem, Cpu& cpu, uint64_t max_instr,
                 uint64_t& retired);

  std::unordered_map<uint64_t, PageEntry> pages_;
  uint64_t asid_ = 0;  ///< address space the entries were filled from
  uint64_t last_page_ = ~0ull;      // one-entry lookup memo for hot pages
  PageEntry* last_entry_ = nullptr;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t invalidations_ = 0;
};

/// Decodes the basic block starting at `addr`: its byte size (distance to
/// the end of its terminator) and instruction count. Walks at most
/// `max_bytes`. Returns 0 size if the first instruction is undecodable.
/// `terminated` distinguishes a complete block (the walk retired a real
/// terminator) from a scan that stopped at `max_bytes`, an undecodable
/// byte, or unreadable memory — a partial prefix that consumers like the
/// superblock builder must refuse to treat as a block.
struct BlockInfo {
  uint64_t size = 0;
  uint32_t instr_count = 0;
  bool terminated = false;
};
BlockInfo block_at(const AddressSpace& mem, uint64_t addr,
                   uint64_t max_bytes = 4096);

}  // namespace dynacut::vm
