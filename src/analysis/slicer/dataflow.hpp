// Static dataflow over the recovered VX64 CFG (DESIGN.md §11).
//
// Two analyses, both conservative:
//
//  * Module-level constant/offset propagation (analyze_module): a forward
//    block-level fixpoint tracking, per register, whether its value is a
//    known constant, a known module-relative offset (formed by kLea or a
//    kMovRI carrying a kAbs64 relocation), such an offset plus a
//    statically-unknown delta (table base + index), or a value loaded from
//    a GOT slot (a resolved import). This is exactly the strength needed to
//    resolve PLT-stub and jump-table indirect transfers, and to attribute
//    loads/stores to the data symbols they touch.
//
//  * Per-function stack depth (stack_depth_in): SP-relative tracking of
//    kPush/kPop/kAddRI/kSubRI on r15 from the function entry, computed on
//    demand for the one function cutcheck's redirect rules (CC010, CC013)
//    ask about.
//
// Function entries always join an implicit all-unknown state (callers may
// be invisible to static recovery), so nothing proved here depends on
// having seen every call site.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "analysis/cfg.hpp"
#include "melf/binary.hpp"

namespace dynacut::analysis::slicer {

/// Abstract register value for constant/offset propagation.
struct AbsVal {
  enum class Kind : uint8_t {
    kUnknown,    ///< anything (lattice top)
    kConst,      ///< known integer constant `value`
    kModOff,     ///< load_base + `value` (exact module-relative offset)
    kModOffVar,  ///< load_base + `value` + statically-unknown delta
    kImport,     ///< loaded from GOT slot #`value` (resolved import address)
    kTableVal,   ///< loaded from a pointer table based at offset `value`
  };
  Kind kind = Kind::kUnknown;
  uint64_t value = 0;

  static AbsVal unknown() { return {}; }
  static AbsVal konst(uint64_t v) { return {Kind::kConst, v}; }
  static AbsVal mod_off(uint64_t off) { return {Kind::kModOff, off}; }
  static AbsVal mod_off_var(uint64_t base) { return {Kind::kModOffVar, base}; }
  static AbsVal import(uint64_t slot) { return {Kind::kImport, slot}; }
  static AbsVal table_val(uint64_t base) { return {Kind::kTableVal, base}; }

  bool operator==(const AbsVal&) const = default;
};

/// Lattice join; unequal offsets degrade to kModOffVar over the lower base,
/// everything else incomparable joins to kUnknown.
AbsVal join(const AbsVal& a, const AbsVal& b);

using RegState = std::array<AbsVal, isa::kNumRegs>;

/// A memory access whose address resolved to a module-relative offset.
struct MemRef {
  uint64_t instr = 0;   ///< module-relative offset of the load/store
  uint64_t block = 0;   ///< enclosing block start
  uint64_t target = 0;  ///< resolved data offset (symbol base when !exact)
  bool is_store = false;
  bool exact = false;  ///< target is the exact byte, not just an area base
};

/// Whole-module forward constant/offset propagation at block granularity.
struct ModuleDataflow {
  /// Value of the transfer register at each kCallR/kJmpR terminator,
  /// keyed by the block start.
  std::map<uint64_t, AbsVal> indirect_reg;
  /// Symbol-resolvable loads and stores, in block order.
  std::vector<MemRef> mem_refs;
};

ModuleDataflow analyze_module(const melf::Binary& bin, const StaticCfg& cfg);

/// Sentinel for an unknown stack depth.
inline constexpr int64_t kUnknownDepth = INT64_MIN;

/// Stack depth after `ins` given the depth before it: kPush/kPop and
/// kAddRI/kSubRI on SP move it, any other write to SP (pop r15 included)
/// makes it kUnknownDepth, which stays unknown. Calls are balanced by their
/// matching ret.
int64_t stack_after(int64_t depth, const isa::Instr& ins);

/// Stack depth at entry of each block of `f` reachable from its entry,
/// relative to the function entry (0 there); kUnknownDepth where paths
/// disagree or SP escapes tracking.
std::map<uint64_t, int64_t> stack_depth_in(const StaticCfg& cfg,
                                           const FuncCfg& f);

}  // namespace dynacut::analysis::slicer
