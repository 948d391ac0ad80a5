// The DynaCut facade: dynamic code customization of running processes.
//
// A DynaCut instance manages one application (a process group rooted at a
// pid). Each customization follows the paper's pipeline:
//
//   checkpoint (freeze + dump to the in-memory image store)
//     -> rewrite the static image (block/wipe/unmap undesired blocks,
//        inject/extend the fault-handler library, set SIGTRAP sigaction)
//     -> restore (install rewritten state, thaw)
//
// and charges the virtual clock for the rewrite window via the CostModel —
// that charge is the paper's "service interruption time". All code edits
// keep undo records, so features can be re-enabled at any time
// (bidirectional customization).
//
// Every customization is transactional across the whole process group
// (core/txn.hpp): the group is frozen, every image checkpointed and
// rewritten (stage), and only then are the rewritten images restored
// (commit). A failure at any point rolls the group back to its pristine
// images and throws CustomizeError — no process is ever left running a
// partially customized group.
//
// Customizations are described by a CutRequest (feature + policies + obs
// labelling) and observed through the obs layer (DESIGN.md §9): attach an
// obs::EventBus/obs::Registry via set_observer() and every customization
// produces a bracketed event trace (txn.stage ... txn.commit, or
// txn.abort + txn.rollback with the staged events retracted) plus metric
// charges on success.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/coverage.hpp"
#include "analysis/cutcheck/checker.hpp"
#include "core/cost_model.hpp"
#include "core/txn.hpp"
#include "image/checkpoint.hpp"
#include "image/image.hpp"
#include "obs/bus.hpp"
#include "obs/registry.hpp"
#include "os/os.hpp"
#include "rewriter/rewriter.hpp"

namespace dynacut::core {

/// How undesired code is removed (paper §3.2.1). The enumerators live in
/// analysis::cutcheck so the static verifier and the facade share one
/// vocabulary; the historical core:: names remain the public spelling.
using RemovalPolicy = analysis::cutcheck::Removal;

/// What happens when blocked code is reached (paper §3.2.2).
using TrapPolicy = analysis::cutcheck::Trap;

/// How disabled code is reached-and-denied (ROADMAP item 3): kTrap pays a
/// SIGTRAP round-trip per entry, kStub retargets direct callsites and GOT
/// slots to an injected deny stub (one branch, no signal; int3 stays as the
/// safety net for non-callsite paths), kAuto stubs only entries the slicer
/// proves callsite-only.
using CutMechanism = analysis::cutcheck::Mechanism;

/// What DynaCut does with cutcheck findings before rewriting an image.
enum class CheckMode {
  kEnforce,  ///< reject plans with kError findings (StateError); default
  kWarn,     ///< log findings, apply anyway
  kOff,      ///< skip the verifier entirely
};

/// A feature to disable: its unique basic blocks (usually from
/// analysis::feature_diff) plus, for kRedirect, the error-handler location.
struct FeatureSpec {
  std::string name;
  std::vector<analysis::CovBlock> blocks;
  /// Redirect target (module + module-relative offset of the error path).
  /// Only blocks inside the same function as the target get redirect
  /// entries; other blocks fall through to terminate — the paper's
  /// same-function restriction.
  std::string redirect_module;
  uint64_t redirect_offset = 0;
};

/// One customization request — the single options struct consumed by
/// disable_feature() and preflight(). Designed for designated initializers:
///
///   dc.disable_feature({.feature = spec,
///                       .removal = RemovalPolicy::kUnmapPages,
///                       .trap = TrapPolicy::kRedirect,
///                       .label = "cve-2021-xxxx"});
///
struct CutRequest {
  FeatureSpec feature;
  RemovalPolicy removal = RemovalPolicy::kBlockFirstByte;
  TrapPolicy trap = TrapPolicy::kTerminate;
  /// Per-request override of the instance-wide CheckMode; unset uses
  /// DynaCut::check_mode().
  std::optional<CheckMode> check;
  /// Grow the feature's blocks to their static slice before planning
  /// (analysis::slicer::feature_slice): blocks dominated by the cut and
  /// functions only the cut calls join the plan, so the cut removes the
  /// feature's whole call tree instead of just the traced blocks. The
  /// slicer's cost is charged to TimingBreakdown::analysis_ns (offline,
  /// not service interruption) and a `slice.expand` event reports the
  /// growth. Expansion is skipped for modules with unresolved indirect
  /// transfers — the plan then applies as observed.
  bool expand_to_slice = false;
  /// Entry-denial mechanism. kStub/kAuto redirect direct callsites at
  /// wholly-cut functions (and GOT slots importing them) into a tiny
  /// injected error stub, so a disabled-feature probe costs one branch
  /// instead of a signal round-trip; residual reachability keeps the int3
  /// net with the trap policy above. Incompatible with kUnmapPages (the
  /// net needs mapped code).
  CutMechanism mechanism = CutMechanism::kTrap;
  /// Deny return value baked into mode-0 stub slots (the HTTP-403 analogue
  /// for callers that check the callee's result).
  uint64_t stub_result = 403;
  /// Label carried by this customization's obs transaction events; empty
  /// defaults to feature.name.
  std::string label;
  /// Extra string attributes attached to the txn.commit event.
  std::vector<std::pair<std::string, std::string>> tags;

  /// The effective obs label (explicit label or the feature name).
  const std::string& obs_label() const {
    return label.empty() ? feature.name : label;
  }
};

/// What a customization edited, summed across the process group.
struct EditStats {
  size_t processes = 0;       ///< processes customized
  size_t blocks_patched = 0;  ///< blocks patched (blocked/wiped/restored)
  size_t pages_unmapped = 0;  ///< whole pages unmapped (or re-mapped)
  size_t bytes_patched = 0;   ///< code bytes actually written
  uint64_t image_pages = 0;   ///< total pages in the images (logical size)
  uint64_t pages_dumped = 0;  ///< pages actually captured at checkpoint
  uint64_t pages_shared = 0;  ///< pages shared from baselines in O(1)
  uint64_t pages_restored = 0;  ///< pages actually written back at restore
  uint64_t pages_touched = 0;   ///< distinct pages the rewriter edited
  size_t callsites_stubbed = 0;  ///< direct call/jmp rel32 redirects
  size_t got_slots_stubbed = 0;  ///< GOT slots pointed at the deny stub
};

/// Checkpoint strategy for customizations (see image/checkpoint.hpp).
enum class CkptMode {
  kIncremental,  ///< dirty-only dumps + in-place delta restores; default
  kFull,         ///< always full dump + full rebuild (bench/property baseline)
};

/// The customization's footprint on the observability layer.
struct ObsSummary {
  std::string label;  ///< obs label the trace was emitted under
  uint64_t txn = 0;   ///< bus transaction id (0 = no bus attached)
  size_t events = 0;  ///< events committed inside the transaction
};

struct CustomizeReport {
  TimingBreakdown timing;  ///< virtual-time cost (service interruption)
  EditStats edits;
  ObsSummary obs;
};

class DynaCut {
 public:
  /// Manages the process group rooted at `root_pid` inside `os`. Every
  /// customization is pre-flighted by the cutcheck verifier according to
  /// `check` (kEnforce rejects provably unsafe plans before any checkpoint).
  DynaCut(os::Os& os, int root_pid, CostModel model = {},
          CheckMode check = CheckMode::kEnforce);
  ~DynaCut();
  DynaCut(const DynaCut&) = delete;
  DynaCut& operator=(const DynaCut&) = delete;

  void set_check_mode(CheckMode mode) { check_mode_ = mode; }
  CheckMode check_mode() const { return check_mode_; }

  /// Selects the checkpoint/restore strategy. kIncremental (default) keeps
  /// a per-pid Baseline after every commit so the next toggle dumps only
  /// dirty pages and restores only changed ones; kFull forces the original
  /// full-dump/full-rebuild path (and drops the kept baselines) — the two
  /// are observably equivalent, which tests/ckpt_delta_test.cpp asserts.
  void set_ckpt_mode(CkptMode mode) {
    ckpt_mode_ = mode;
    if (mode == CkptMode::kFull) baselines_.clear();
  }
  CkptMode ckpt_mode() const { return ckpt_mode_; }

  /// Attaches the observability layer (both optional, non-owning; nullptr
  /// detaches). Every subsequent customization emits its bracketed event
  /// trace on `bus` and, on success, charges `metrics`. DynaCut installs
  /// itself as the bus annotator so raw OS `trap.hit` events gain
  /// feature/policy attributes; if the bus has no clock yet it is wired to
  /// this OS's virtual clock.
  void set_observer(obs::EventBus* bus, obs::Registry* metrics = nullptr);
  obs::EventBus* event_bus() const { return bus_; }
  obs::Registry* metrics() const { return metrics_; }

  /// Installs a deterministic fault-injection plan (non-owning; pass
  /// nullptr to clear). Every subsequent customization threads it through
  /// checkpoint, image rewriting, library injection and restore — the hook
  /// tests/txn_test.cpp uses to prove group-atomicity under every failure
  /// point.
  void set_fault_plan(FaultPlan* plan) { faults_ = plan; }
  FaultPlan* fault_plan() const { return faults_; }

  /// Runs the cutcheck verifier on a request without touching any process —
  /// the same plans and rules disable_feature() uses, exposed for tooling
  /// and benches. Emits one `cutcheck.finding` event per diagnostic when a
  /// bus is attached.
  analysis::cutcheck::CheckReport preflight(const CutRequest& req) const;

  /// Disables a feature across every process of the group, atomically:
  /// either every process ends up customized or (on any failure) every
  /// process is rolled back untouched and CustomizeError is thrown naming
  /// the failing pid and stage. Throws StateError on policy violations
  /// before any process is touched (e.g. kRedirect with no block in the
  /// error handler's function, kVerify without kBlockFirstByte).
  CustomizeReport disable_feature(const CutRequest& req);

  /// Re-enables a previously disabled feature (restores bytes, re-maps
  /// unmapped ranges from the original binary). Transactional like
  /// disable_feature: an aborted restore leaves the feature fully disabled
  /// and every process untouched.
  CustomizeReport restore_feature(const std::string& name);

  /// Drops initialization-only code (from analysis::init_only). Removed
  /// blocks trap-terminate if ever reached, like the paper's default.
  CustomizeReport remove_init_code(const analysis::CoverageGraph& init_blocks,
                                   RemovalPolicy removal);

  bool feature_disabled(const std::string& name) const;

  /// The set of currently disabled features, sorted.
  std::vector<std::string> disabled_features() const;

  /// The current feature-set tag: the sorted '+'-joined disabled-feature
  /// set ("" = pristine). Every commit files its images in store() under
  /// image::ImageKey{pid, the tag as of that commit}, so a fleet
  /// orchestrator can fetch "the image of pid with exactly these cuts" and
  /// image::spawn_from_image it.
  std::string feature_set_tag() const;

  /// The store key of `pid`'s most recently committed image under the
  /// current feature set.
  image::ImageKey image_key(int pid) const {
    return image::ImageKey{pid, feature_set_tag()};
  }

  /// Addresses healed by the verifier library in `pid` (reads the injected
  /// library's log from live guest memory). Newly seen entries are emitted
  /// as `verifier.heal` events; a guest-scribbled out-of-range log count is
  /// clamped and surfaced as an `obs.warning` event instead of driving an
  /// over-read of guest memory.
  std::vector<uint64_t> verifier_log(int pid) const;

  /// Polls every stub-customized process's injected deny-stub library and
  /// emits one `stub.hit` event per slot with new hits since the last poll
  /// (attrs: addr = stubbed entry, hits = delta, total). The stub path
  /// never enters the host — hits are harvested from guest memory like the
  /// verifier log. The annotator enriches the events with feature/policy
  /// exactly as it does trap.hit, and charges the `cut.stub_hits` counter.
  /// Returns the total new hits observed.
  uint64_t poll_stub_hits();

  /// The tmpfs-like store holding the most recent image of each process.
  image::ImageStore& store() { return store_; }
  const CostModel& cost_model() const { return model_; }

 private:
  struct AppliedEdit {
    rw::PatchRecord patch;          // byte-level undo
    bool unmapped = false;          // range was unmapped instead of patched
    bool stub = false;              // callsite/GOT redirect, not a trap site
    uint32_t vma_prot = 0;          // original VMA protection (unmap undo)
    std::string vma_name;
  };

  using PerPidEdits = std::map<int, std::vector<AppliedEdit>>;

  /// What the annotator attaches to a trap at a known customized address.
  struct TrapSite {
    std::string feature;
    const char* policy;  // cutcheck trap_name() string
  };

  CustomizeReport apply(const CutRequest& req);

  /// feature_set_tag() of the prospective set: the current disabled set
  /// with `add` added and `remove` removed (either may be empty) — what
  /// the set will be once the in-flight commit lands.
  std::string tag_with(const std::string& add,
                       const std::string& remove) const;

  /// Live (non-exited) pids of the managed group, restricted to `subset`
  /// keys when given (restore_feature only touches recorded pids).
  std::vector<int> live_pids(const PerPidEdits* subset = nullptr) const;

  /// Wraps a staging loop: runs `body` per pid, converting any failure into
  /// CustomizeError(feature, stage, pid) after aborting `txn`. `body` must
  /// update `stage` as it crosses stage boundaries.
  void stage_or_rollback(GroupTxn& txn, const std::string& feature,
                         const std::vector<int>& pids, FaultStage& stage,
                         const std::function<void(int)>& body);

  /// The cutcheck gate at the top of apply(): extracts per-module plans
  /// from the root process's loaded modules, runs the verifier and acts on
  /// the request's effective check mode. Throws StateError in kEnforce mode
  /// on kError findings.
  void preflight_or_throw(const CutRequest& req) const;

  /// The request's per-module cut plans over the root process's loaded
  /// modules (rw::extract_plans), each carrying its module's slice model
  /// from models_ — the one place run_check, expanded_request and
  /// plan_stub_redirection get their plans and analyses from.
  std::vector<analysis::cutcheck::CutPlan> module_plans(
      const CutRequest& req) const;

  analysis::cutcheck::CheckReport run_check(const CutRequest& req) const;

  /// Resolves CutRequest.expand_to_slice: returns the request with its
  /// feature blocks grown to the slice closure (and the flag cleared), or
  /// the request unchanged when expansion is off. `stats`, when given,
  /// receives the aggregate expansion counters.
  CutRequest expanded_request(const CutRequest& req,
                              rw::SliceExpansion* stats = nullptr) const;

  /// Module name -> the stub redirection planned for it (slicer::plan_stubs
  /// over the root process's modules) — computed once per apply(), before
  /// the group freezes.
  using StubPlans = std::map<std::string, analysis::slicer::StubPlan>;
  StubPlans plan_stub_redirection(const CutRequest& req) const;

  /// Removal-policy application; fills `edits` and the redirect/original
  /// tables' raw entries. Blocks whose (module, offset) appears in `skip`
  /// are left untouched — their callsite redirect IS the denial
  /// (StubSite::skip_trap).
  void remove_blocks(rw::ImageRewriter& rw, const image::ProcessImage& img,
                     const std::vector<analysis::CovBlock>& blocks,
                     RemovalPolicy removal, std::vector<AppliedEdit>& edits,
                     std::vector<std::pair<uint64_t, uint8_t>>& originals,
                     CustomizeReport& report,
                     const std::map<std::string, std::set<uint64_t>>* skip =
                         nullptr);

  /// One allocated deny-stub slot in one process's injected stub library.
  struct StubSlotMeta {
    std::string feature;
    uint64_t entry_addr = 0;  ///< absolute address of the stubbed entry
    uint64_t seen_hits = 0;   ///< hits already surfaced as stub.hit events
  };

  /// Injects the deny-stub library (once per image, near the app so rel32
  /// reaches it), allocates slots, patches callsites and GOT slots.
  /// `slots` receives the (slot index, absolute entry) pairs allocated for
  /// this pid.
  void install_stubs(rw::ImageRewriter& rw, image::ProcessImage& img,
                     const StubPlans& plans, const CutRequest& req,
                     std::vector<AppliedEdit>& edits,
                     std::vector<std::pair<uint64_t, uint64_t>>& slots,
                     CustomizeReport& report);

  void install_redirects(
      rw::ImageRewriter& rw, image::ProcessImage& img,
      const std::vector<analysis::CovBlock>& blocks,
      const std::string& redirect_module, uint64_t redirect_offset,
      CustomizeReport& report);

  void install_verifier(
      rw::ImageRewriter& rw, image::ProcessImage& img,
      const std::vector<std::pair<uint64_t, uint8_t>>& originals,
      CustomizeReport& report);

  /// Closes the bus transaction with the final edit statistics (filling
  /// report.obs) and charges the registry — success paths only.
  void finalize_obs(CustomizeReport& report, const std::string& label,
                    const std::string& action,
                    const std::vector<std::pair<std::string, std::string>>&
                        tags = {});

  /// Bus annotator: enriches `trap.hit` and `stub.hit` events with the
  /// feature/policy that planted the site and charges the hit counters —
  /// fig8/fig10 timelines stay mechanism-agnostic.
  void annotate(obs::Event& e);

  os::Os& os_;
  int root_pid_;
  CostModel model_;
  CheckMode check_mode_ = CheckMode::kEnforce;
  CkptMode ckpt_mode_ = CkptMode::kIncremental;
  /// Per-pid dump baselines maintained across customizations (incremental
  /// mode): refreshed by every commit, erased by rollbacks.
  image::BaselineMap baselines_;
  FaultPlan* faults_ = nullptr;
  obs::EventBus* bus_ = nullptr;
  obs::Registry* metrics_ = nullptr;
  image::ImageStore store_;
  std::map<std::string, PerPidEdits> applied_;
  /// (pid, trap addr) -> planted-by info, for trap.hit annotation.
  std::map<std::pair<int, uint64_t>, TrapSite> trap_sites_;
  /// (pid, stubbed entry addr) -> planted-by info, for stub.hit annotation.
  std::map<std::pair<int, uint64_t>, TrapSite> stub_sites_;
  /// (pid, slot index) -> slot bookkeeping for poll_stub_hits.
  std::map<std::pair<int, uint64_t>, StubSlotMeta> stub_slots_;
  /// Per-pid count of verifier-log entries already surfaced as events.
  mutable std::map<int, uint64_t> heals_seen_;
  /// Module binary -> its slice model (CFG, function index, dataflow, call
  /// graph), built on the first plan that needs it and kept for this
  /// instance's lifetime, so repeated toggles analyse each module once. Each
  /// build charges the `analysis.models_built` counter. Keyed by the shared
  /// binary, which the key keeps alive for the model's non-owning pointer.
  mutable std::map<std::shared_ptr<const melf::Binary>,
                   std::shared_ptr<const analysis::slicer::SliceModel>>
      models_;
};

}  // namespace dynacut::core
