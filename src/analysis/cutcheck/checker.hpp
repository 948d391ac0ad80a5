// cutcheck: a static cut-plan verifier that lints customizations before the
// image is rewritten.
//
// DynaCut's rewriter applies whatever plan it is handed; a malformed plan
// (a patch landing mid-instruction, an unmapped page that still holds live
// code, a redirect across a call frame) produces a process that faults in
// ways the trap handler cannot recover. check_plan runs fourteen rules over
// the plan and the module's slice model (recovered CFG and what the slicer
// derives from it) and reports findings with stable IDs, so the facade can
// reject provably unsafe cuts up front (CheckMode::kEnforce) instead of
// debugging a corrupted guest later. The rules take no options: each runs
// on every plan at its fixed severity.
//
// Rules:
//   CC001-boundary         block boundaries vs. decoded instruction starts
//   CC002-stray-edge       live control flow into wiped interiors/dropped
//                          pages
//   CC003-redirect         redirect-target validity (same-function
//                          restriction)
//   CC004-reach-amp        dominator/call-graph reachability amplification
//   CC005-page-safety      per-range page accounting vs. true byte coverage,
//                          PLT stubs and GOT slots on dropped pages
//   CC006-gadget-delta     simulated ROP-gadget-start change of the rewrite
//   CC007-indirect-escape  resolved indirect transfers landing in removed
//                          code; unresolved ones next to any cut
//   CC008-partial-slice    the plan cuts a strict subset of its static
//                          feature slice (dead-but-reachable code remains)
//   CC009-data-reach       data-section pointers into removed code survive
//   CC010-stack-imbalance  redirect entry/target stack depths disagree
//   CC011-dead-store       live writes whose every reader is cut
//   CC012-stub-reach       redirect error stubs must stay live, reachable
//                          and recoverable (no redirect over unmap)
//   CC013-stub-reachability  (Mechanism::kStub/kAuto) every stubbed entry is
//                          a wholly-cut function entry, pointer-reachable
//                          entries keep the int3 net, redirect-mode stubs
//                          land at a matching stack depth
//   CC014-stub-reversibility (Mechanism::kStub/kAuto) stub patches must not
//                          overlap removal-rewritten bytes — overlapping
//                          edits have order-dependent pre-images, so a
//                          mechanism flip could not undo bit-identically
//
// CC007–CC014 lean on the interprocedural slicer (src/analysis/slicer) for
// indirect-target resolution, dominators, resolved memory references, stub
// planning and (CC010, CC013) the redirect function's stack depths.
#pragma once

#include <vector>

#include "analysis/cutcheck/diagnostics.hpp"
#include "analysis/cutcheck/plan.hpp"

namespace dynacut::analysis::cutcheck {

inline constexpr char kRuleBoundary[] = "CC001-boundary";
inline constexpr char kRuleStrayEdge[] = "CC002-stray-edge";
inline constexpr char kRuleRedirect[] = "CC003-redirect";
inline constexpr char kRuleReachAmp[] = "CC004-reach-amp";
inline constexpr char kRulePageSafety[] = "CC005-page-safety";
inline constexpr char kRuleGadget[] = "CC006-gadget-delta";
inline constexpr char kRuleIndirect[] = "CC007-indirect-escape";
inline constexpr char kRulePartialSlice[] = "CC008-partial-slice";
inline constexpr char kRuleDataReach[] = "CC009-data-reach";
inline constexpr char kRuleStackImbalance[] = "CC010-stack-imbalance";
inline constexpr char kRuleDeadStore[] = "CC011-dead-store";
inline constexpr char kRuleStubReach[] = "CC012-stub-reach";
inline constexpr char kRuleStubReachability[] = "CC013-stub-reachability";
inline constexpr char kRuleStubReversibility[] = "CC014-stub-reversibility";

/// Verifies one module's cut plan. Never mutates anything; safe to call on
/// a live system at any time.
CheckReport check_plan(const CutPlan& plan);

/// Verifies every per-module plan of a feature and merges the reports.
CheckReport check_plans(const std::vector<CutPlan>& plans);

}  // namespace dynacut::analysis::cutcheck
