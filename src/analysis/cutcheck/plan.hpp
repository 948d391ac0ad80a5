// The cut-plan model shared by the DynaCut facade and the cutcheck static
// verifier: which blocks of which module are removed, how (removal policy),
// and what happens when removed code is reached (trap policy).
//
// The Removal/Trap enumerators are the paper's §3.2.1/§3.2.2 policies; the
// core facade aliases them (core::RemovalPolicy / core::TrapPolicy) so the
// verifier and the rewriter reason about the exact same vocabulary. A
// CutPlan is one module's slice of a customization — rw::extract_plans
// splits a FeatureSpec into per-module plans before any image byte moves.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/coverage.hpp"
#include "melf/binary.hpp"

namespace dynacut::analysis::slicer {
struct SliceModel;
}  // namespace dynacut::analysis::slicer

namespace dynacut::analysis::cutcheck {

/// How undesired code is removed (paper §3.2.1).
enum class Removal {
  kBlockFirstByte,  ///< int3 on each block's first byte (cheap, reversible)
  kWipeBlocks,      ///< fill whole blocks with int3 (anti code-reuse)
  kUnmapPages,      ///< drop fully-covered pages; wipe partial remainders
};

/// What happens when blocked code is reached (paper §3.2.2).
enum class Trap {
  kTerminate,  ///< no handler: default SIGTRAP disposition kills the process
  kRedirect,   ///< injected handler redirects to the app's error path
  kVerify,     ///< injected verifier heals the byte and logs the address
};

/// How disabled code is *reached-and-denied* (ROADMAP item 3). kTrap is the
/// paper's mechanism: every entry into cut code raises SIGTRAP and pays a
/// signal round-trip. kStub retargets PLT slots and direct call/jmp callsites
/// at wholly-cut functions to a tiny injected error stub (one branch, no
/// signal), keeping int3 as the safety net for non-callsite reachability.
/// kAuto picks per entry point: stub where the slicer proves every inbound
/// edge is a direct callsite, trap where the entry is address-taken or an
/// indirect-transfer target.
enum class Mechanism {
  kTrap,  ///< int3 + signal round-trip on every entry (paper §3.2)
  kStub,  ///< callsite/PLT redirection to an injected deny stub
  kAuto,  ///< stub where provably callsite-only, trap elsewhere
};

const char* removal_name(Removal r);
const char* trap_name(Trap t);
const char* mechanism_name(Mechanism m);

/// A proposed cut of one module: the feature's basic blocks that fall inside
/// it plus the policies they will be applied with.
struct CutPlan {
  std::string feature;
  std::string module;
  /// The loaded module's binary; the checker recovers CFG/call graph from
  /// it. Must be non-null for check_plan.
  std::shared_ptr<const melf::Binary> binary;
  /// The analysis of `binary` (CFG, function index, dataflow, dominators,
  /// call graph), shared by every consumer of the plan: filled in by
  /// slicer::synthesize_plan/expand_plan and by DynaCut, reused
  /// by check_plan and plan_stubs while `model->bin == binary.get()` and
  /// rebuilt by them otherwise. Null means "not analysed yet".
  std::shared_ptr<const slicer::SliceModel> model;
  /// Module-relative blocks (the CovBlock::module field is not consulted).
  std::vector<CovBlock> blocks;
  Removal removal = Removal::kBlockFirstByte;
  Trap trap = Trap::kTerminate;
  /// True when this module hosts the redirect target (Trap::kRedirect).
  bool has_redirect = false;
  uint64_t redirect_offset = 0;
  /// Entry-denial mechanism (kStub/kAuto add callsite redirection; the
  /// removal policy above still applies to non-callsite reachability).
  Mechanism mechanism = Mechanism::kTrap;
  /// Module-relative offsets of the function entries to stub. Empty means
  /// "derive from the plan": slicer::plan_stubs picks the wholly-cut
  /// function-entry symbols. Non-empty pins the set explicitly (checker and
  /// test surface — lets CC013/CC014 examine entries the deriver would have
  /// excluded).
  std::vector<uint64_t> stub_entries;

  /// (offset, size) ranges sorted by offset; a zero block size counts as one
  /// byte, mirroring DynaCut::remove_blocks.
  std::vector<std::pair<uint64_t, uint64_t>> ranges() const;
  uint64_t total_bytes() const;
};

/// A merged, disjoint set of byte intervals — the exact bytes a plan kills.
/// Used to contrast true coverage with the rewriter's per-range page
/// accounting (which double-counts overlapping blocks).
class ByteSet {
 public:
  /// Inserts [begin, end), merging with neighbours.
  void add(uint64_t begin, uint64_t end);
  bool contains(uint64_t off) const;
  /// True when [begin, end) is fully covered.
  bool covers(uint64_t begin, uint64_t end) const;
  /// The sub-intervals of [begin, end) NOT covered, in order.
  std::vector<std::pair<uint64_t, uint64_t>> gaps(uint64_t begin,
                                                  uint64_t end) const;
  bool empty() const { return iv_.empty(); }

 private:
  std::map<uint64_t, uint64_t> iv_;  ///< begin -> end, disjoint, sorted
};

/// The pages Removal::kUnmapPages would drop for this plan — the same
/// per-range accounting DynaCut::remove_blocks performs, overlap
/// double-counting included, so the checker predicts exactly what the
/// rewriter will do (CC005 exists precisely because this arithmetic can
/// claim a page is "fully covered" when its bytes are not).
std::vector<uint64_t> accounted_full_pages(const CutPlan& plan);

}  // namespace dynacut::analysis::cutcheck
