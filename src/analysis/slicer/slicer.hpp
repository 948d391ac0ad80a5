// The interprocedural feature slicer (DESIGN.md §11).
//
// Built on the dataflow pass (slicer/dataflow.hpp), this module gives the
// cut pipeline the three static capabilities the paper's coverage-driven
// selection lacks:
//
//  * resolve_indirect / SliceModel.indirect — classifies every kCallR/kJmpR
//    terminator: PLT-stub tail jumps resolve to their import, loads from
//    in-module pointer tables enumerate the table's relocated targets, and
//    exact offsets resolve to a single target. Anything else is marked
//    unresolved, which conservatively pins the whole module against slice
//    expansion (an invisible edge could reach anything).
//
//  * a dependence graph — control dependences from per-function dominator
//    trees, a callee-indexed caller map merging the direct call graph with
//    resolved indirect transfers, and the set of address-taken functions.
//
//  * feature_slice(seeds) — the closure turning observed coverage into the
//    full removable slice: blocks dominated by slice members can only
//    execute after a trapped block, and functions whose every caller is in
//    the slice (not address-taken, not exported, not the module entry)
//    join wholesale. Every inclusion carries a Witness naming the rule and
//    the block/function that justified it.
//
// synthesize_plan / expand_plan put the closure to work: a coverage-seeded
// CutPlan grows into a slice-closed plan that removes the unexecuted
// remainder of the feature's call tree, with cutcheck (CC007–CC012)
// verifying the result.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "analysis/cutcheck/plan.hpp"
#include "analysis/slicer/dataflow.hpp"

namespace dynacut::analysis::slicer {

/// One kCallR/kJmpR terminator and what the dataflow proved about it.
struct IndirectSite {
  enum class Kind : uint8_t {
    kPltImport,   ///< PLT stub tail jump through a GOT slot
    kTable,       ///< load from an in-module pointer table
    kDirect,      ///< register holds one exact module offset
    kUnresolved,  ///< value escapes the abstraction
  };
  uint64_t block = 0;  ///< block whose terminator this is
  uint64_t instr = 0;  ///< module-relative offset of the kCallR/kJmpR
  bool is_call = false;
  Kind kind = Kind::kUnresolved;
  std::string import_name;        ///< kPltImport only
  std::vector<uint64_t> targets;  ///< module-relative, sorted (kTable/kDirect)
};

/// The module's dependence structure, block- and function-indexed.
struct DepGraph {
  /// Immediate dominators, merged across every function subgraph (block
  /// offsets are module-unique, so one map suffices).
  std::map<uint64_t, uint64_t> idom;
  /// Function entry -> the blocks that call or tail-jump into it, direct
  /// transfers and resolved indirect ones alike.
  std::map<uint64_t, std::vector<uint64_t>> callers;
  /// The direct call graph alone (analysis::call_sites): `callers` without
  /// the resolved indirect transfers — CC004's call-graph view.
  std::map<uint64_t, std::vector<uint64_t>> direct_callers;
  /// Function entries whose address is taken by any kAbs64 relocation —
  /// reachable through pointers the CFG cannot see.
  std::set<uint64_t> address_taken;
};

/// Everything the slicer and cutcheck know about one binary, computed once
/// (DESIGN.md §11): plans carry it (CutPlan::model), DynaCut keeps one per
/// loaded module for its lifetime.
struct SliceModel {
  const melf::Binary* bin = nullptr;  ///< non-owning; caller keeps it alive
  /// Function-symbol lookups for every consumer of the model.
  FunctionIndex functions;
  StaticCfg cfg;
  ModuleDataflow mdf;
  std::map<uint64_t, FuncCfg> funcs;
  std::vector<IndirectSite> indirect;  ///< sorted by block offset
  DepGraph deps;
  /// True when every indirect site resolved (kind != kUnresolved); slice
  /// expansion refuses to grow otherwise.
  bool all_indirect_resolved = true;
  /// Functions containing a resolved indirect target that is not a function
  /// entry (computed-goto style); their internal control flow has edges the
  /// recovered CFG lacks, so dominator reasoning is suspended there.
  std::set<uint64_t> pinned_functions;

  const IndirectSite* site_at_block(uint64_t block) const;
  /// The function symbol owning `off` (first match in symbol order), or
  /// nullptr.
  const melf::Symbol* symbol_containing(uint64_t off) const {
    return functions.symbol_containing(off);
  }
  /// Entry of the function symbol owning `off`, or nullopt.
  std::optional<uint64_t> function_of(uint64_t off) const;
};

SliceModel analyze(const melf::Binary& bin);

/// The model of `plan.binary`: the plan's attached model when it was built
/// from that binary, otherwise a fresh analysis. Nullptr without a binary.
/// Assign it to `plan.model` to share it with every later consumer.
std::shared_ptr<const SliceModel> plan_model(const cutcheck::CutPlan& plan);

/// Why a block is in the slice.
struct Witness {
  enum class Kind : uint8_t {
    kSeed,         ///< named by the caller
    kDominated,    ///< idom chain passes through a slice block
    kCallClosure,  ///< function's every caller is in the slice
  };
  uint64_t block = 0;
  Kind kind = Kind::kSeed;
  uint64_t via = 0;    ///< dominating block / function entry (non-seed)
  std::string detail;  ///< human-readable justification
};

const char* witness_kind_name(Witness::Kind k);

struct SliceOptions {
  /// Blocks never added by expansion (e.g. the redirect error stub).
  std::set<uint64_t> keep_blocks;
  /// Function symbol names never pulled in by call closure.
  std::set<std::string> keep_functions;
};

struct FeatureSlice {
  std::set<uint64_t> blocks;
  std::vector<Witness> witnesses;  ///< one per block, in insertion order
  size_t seed_count = 0;
};

/// Expands `seeds` (block starts) to the fixpoint of the dominated and
/// call-closure rules. Seeds that are not block starts are dropped. With
/// unresolved indirect sites in the module the result is the seeds alone.
FeatureSlice feature_slice(const SliceModel& m, const std::set<uint64_t>& seeds,
                           const SliceOptions& opts = {});

/// What expanding one plan did.
struct PlanExpansion {
  size_t seed_blocks = 0;   ///< blocks the plan named
  size_t slice_blocks = 0;  ///< blocks after expansion
  size_t witnesses = 0;     ///< non-seed inclusions
};

/// Grows `plan.blocks` in place to the feature slice seeded by them. The
/// redirect target's block (when the plan hosts one) is kept out of the
/// slice automatically. Attaches the model it slices over; no-op on plans
/// without a binary.
PlanExpansion expand_plan(cutcheck::CutPlan& plan,
                          const SliceOptions& opts = {});

/// One direct kCall/kJmp whose static target is a stubbed function entry —
/// a rewriter patch point for Mechanism::kStub/kAuto.
struct StubSite {
  uint64_t instr = 0;   ///< module-relative offset of the kCall/kJmp
  uint64_t block = 0;   ///< block whose terminator it is
  uint64_t entry = 0;   ///< stubbed function entry it targets
  bool is_call = false; ///< kCall (vs tail kJmp)
  /// The callsite's own block is inside the cut and *starts* at the callsite
  /// (kCall/kJmp are terminators, so such blocks are single-instruction).
  /// The block is left out of the removal pass — the redirect is the denial;
  /// an int3 on its first byte would overwrite the branch opcode.
  bool skip_trap = false;
};

/// Everything the stub mechanism will do to one module, derived from the
/// slice model so cutcheck (CC013/CC014) and the rewriter agree byte for
/// byte on what gets patched.
struct StubPlan {
  /// Function entries redirected to the deny stub, sorted.
  std::vector<uint64_t> entries;
  /// Entries kAuto demoted to the trap mechanism (address-taken or targeted
  /// by a resolved indirect transfer — a callsite patch cannot cover them).
  std::vector<uint64_t> trap_only;
  /// Direct callsite patches, sorted by instr offset.
  std::vector<StubSite> sites;
  /// Callsites at stubbed entries that are NOT patched: they sit mid-block
  /// inside the cut, so the block's int3 denies them first (derived plans
  /// only — explicit entry lists move these into `sites` for CC014).
  std::vector<StubSite> int3_covered;
  /// Cut blocks the removal pass must skip (see StubSite::skip_trap).
  std::set<uint64_t> skip_trap_blocks;
  /// (symbol name, entry) of stubbed entries that are exported globals —
  /// other modules' GOT slots importing them get redirected too.
  std::vector<std::pair<std::string, uint64_t>> exports;
};

/// Plans the callsite/PLT redirection for `plan` (Mechanism::kStub/kAuto)
/// over plan_model(plan).
/// Entries come from plan.stub_entries when non-empty, otherwise they are
/// derived: function-entry symbols whose every CFG block is in the cut.
/// Under kAuto, address-taken entries and resolved-indirect targets are
/// demoted to trap_only. Callsites inside the cut that do not start their
/// block are excluded when deriving (the int3 net keeps them) but kept for
/// explicit entry lists so CC014 can examine them. Returns an empty plan for
/// Mechanism::kTrap.
StubPlan plan_stubs(const cutcheck::CutPlan& plan);

/// Builds a slice-closed CutPlan from observed coverage: blocks of
/// `observed` belonging to `module` seed the closure over `bin`'s CFG. The
/// returned plan carries the model (CutPlan::model).
cutcheck::CutPlan synthesize_plan(std::shared_ptr<const melf::Binary> bin,
                                  const std::string& module,
                                  const std::string& feature,
                                  const std::vector<CovBlock>& observed,
                                  cutcheck::Removal removal,
                                  cutcheck::Trap trap,
                                  const SliceOptions& opts = {});

}  // namespace dynacut::analysis::slicer
