// perfbench: the repository benchmark program.
//
// One process, one host thread. Runs one workload repeatedly ("reps") for
// --seconds of host wall-clock time and prints every metric by name with its
// unit, then one JSON result line. Every timing is host time
// (std::chrono::steady_clock) taken around calls into public functions of the
// library; nothing inside the library is instrumented. Virtual-clock figures
// charged by core::CostModel are printed only under the `modelled` label.
//
// Workloads (all driven by --seed):
//   kv_serve      the fig8 set-up: one minikv server and the guest kvbench
//                 GET loop on 1 virtual core, 20 us syscall base cost; SET is
//                 disabled once (cold toggle) and re-enabled once (warm
//                 toggle) at seed-chosen virtual seconds.
//   fleet_toggle  112 minikv servers (64 KB heap) on 4 virtual cores, one
//                 closed-loop host connection each keeping a PING in flight;
//                 a rolling disable+restore of SET walks the fleet in a
//                 seed-chosen order.
//   spec_plan     offline planning: every SPEC-synth guest plus minikv,
//                 miniweb and minihttpd is run traced and split at the nudge
//                 (or listener-ready) point; init_only (or feature_diff over
//                 request sets for servers) feeds slicer::synthesize_plan and
//                 cutcheck::check_plan. Each server's verified plan is then
//                 applied to the live traced server and restored, four times.
//
// Every rep of one seed is the same scenario: its digest (obs events, retired
// instructions, replies) must repeat exactly, across reps and across runs.
//
// The host is shared, and its speed drifts by tens of percent within and
// between runs. A fixed host-only reference kernel is timed before each rep
// and between its windows, and every host time of the rep is scaled by
// nominal/median probe time: the metrics are host times at a fixed reference
// speed, so the drift cancels while a change to the program still shows in
// full.
//
// With --trace 1 reps alternate untraced/traced. Traced reps record a span
// (name, start, end, parent, request id) around each public call; spans are
// kept in memory and written to --spans when the run ends. Per-layer metrics
// are self times and counters from the traced reps; the wall-time difference
// between traced and untraced reps is the tracing overhead.
//
// Exit code 0 only when every correctness check passed.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <memory_resource>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/coverage.hpp"
#include "analysis/cutcheck/checker.hpp"
#include "analysis/slicer/slicer.hpp"
#include "apps/libc.hpp"
#include "apps/minihttpd.hpp"
#include "apps/minikv.hpp"
#include "apps/miniweb.hpp"
#include "apps/specgen.hpp"
#include "common/rng.hpp"
#include "core/dynacut.hpp"
#include "image/block_store.hpp"
#include "obs/bus.hpp"
#include "os/os.hpp"
#include "trace/trace.hpp"

namespace {

using namespace dynacut;
namespace cutcheck = analysis::cutcheck;
namespace slicer = analysis::slicer;
using Clock = std::chrono::steady_clock;

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --------------------------------------------------------------------------
// Spans
// --------------------------------------------------------------------------

struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;  ///< index into SpanLog::spans, -1 for a root
  uint64_t req;    ///< request id shared by the spans of one operation
};

/// In-memory span recorder. Disabled (every Scope a no-op) in untraced reps.
struct SpanLog {
  bool enabled = false;
  uint64_t req = 0;
  int32_t open = -1;
  Clock::time_point origin = Clock::now();
  std::vector<Span> spans;

  int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin)
        .count();
  }
};

SpanLog g_spans;

class Scope {
 public:
  explicit Scope(const char* name) {
    if (!g_spans.enabled) return;
    idx_ = static_cast<int32_t>(g_spans.spans.size());
    g_spans.spans.push_back(
        {name, g_spans.now_ns(), 0, g_spans.open, g_spans.req});
    g_spans.open = idx_;
  }
  ~Scope() {
    if (idx_ < 0) return;
    g_spans.spans[idx_].end_ns = g_spans.now_ns();
    g_spans.open = g_spans.spans[idx_].parent;
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int32_t idx_ = -1;
};

/// Self time (ms) and call count per span name over spans[from, to).
std::map<std::string, std::pair<double, uint64_t>> self_times(size_t from,
                                                              size_t to) {
  std::vector<int64_t> child_ns(to - from, 0);
  for (size_t i = from; i < to; ++i) {
    const Span& s = g_spans.spans[i];
    if (s.parent >= 0 && static_cast<size_t>(s.parent) >= from) {
      child_ns[s.parent - from] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, std::pair<double, uint64_t>> out;
  for (size_t i = from; i < to; ++i) {
    const Span& s = g_spans.spans[i];
    auto& slot = out[s.name];
    slot.first += static_cast<double>(s.end_ns - s.start_ns - child_ns[i - from]) / 1e6;
    slot.second += 1;
  }
  return out;
}

// --------------------------------------------------------------------------
// Checks, digest, counters
// --------------------------------------------------------------------------

/// Counts correctness checks; every failure is one failed operation.
struct Checker {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failed <= 20) std::printf("FAIL: %s\n", what.c_str());
    }
    return ok;
  }
  bool expect_reply(const std::string& got, const std::string& want,
                    const std::string& what) {
    if (got == want) return expect(true, what);
    return expect(false, what + ": expected '" + want + "', got '" + got + "'");
  }
};

Checker g_check;

/// FNV-1a over every delivered obs event (type, pid, vclock, seq, attrs)
/// plus whatever the workload mixes in. Same seed, same digest.
class DigestSink : public obs::Sink {
 public:
  void on_event(const obs::Event& e) override {
    mix_str(e.type);
    mix(static_cast<uint64_t>(e.pid));
    mix(e.vclock);
    mix(e.seq);
    for (const auto& a : e.attrs) {
      mix_str(a.key);
      if (a.is_num) {
        mix(a.num);
      } else {
        mix_str(a.str);
      }
    }
    ++events_;
  }
  void mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (i * 8)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void mix_str(const std::string& s) {
    for (char ch : s) {
      h_ ^= static_cast<uint8_t>(ch);
      h_ *= 0x100000001b3ULL;
    }
  }
  uint64_t digest() const { return h_; }
  uint64_t events() const { return events_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
  uint64_t events_ = 0;
};

/// Per-rep layer counters, read from public accessors.
struct Counters {
  uint64_t retired = 0, steals = 0, sigtraps = 0;
  uint64_t dc_hits = 0, dc_misses = 0, dc_invalidations = 0;
  uint64_t sb_instrs = 0, sb_builds = 0, sb_retires = 0, sb_deopts = 0;
  uint64_t pages_dumped = 0, pages_shared = 0, pages_restored = 0;
  uint64_t blocks_patched = 0, bytes_patched = 0;
  uint64_t events = 0;

  /// Machine-wide and per-process counters of one Os at the end of its use.
  void add_os(const os::Os& vos) {
    retired += vos.total_retired();
    sigtraps += vos.total_sigtraps();
    for (size_t c = 0; c < vos.num_cores(); ++c) {
      steals += vos.core_stats(c).steals;
    }
    for (int pid : vos.pids()) {
      const os::Process* p = vos.process(pid);
      dc_hits += p->dcache.hits();
      dc_misses += p->dcache.misses();
      dc_invalidations += p->dcache.invalidations();
      sb_instrs += p->sbcache.sb_instrs();
      sb_builds += p->sbcache.builds();
      sb_retires += p->sbcache.retires();
      sb_deopts += p->sbcache.deopts();
    }
  }
  void add_edits(const core::EditStats& e) {
    pages_dumped += e.pages_dumped;
    pages_shared += e.pages_shared;
    pages_restored += e.pages_restored;
    blocks_patched += e.blocks_patched;
    bytes_patched += e.bytes_patched;
  }
};

/// Virtual-clock figures (CostModel / osim ticks). Printed, never metrics.
struct Modelled {
  double vkreq_per_s = 0;  ///< replies per virtual second of serving
  std::vector<double> freeze_ms;  ///< charged rewrite window per toggle
  std::vector<double> latency_us;  ///< per-request virtual latency
};

/// One stretch of measured work: a virtual second (kv_serve), a walk step
/// (fleet_toggle) or one guest's plan (spec_plan). Host-time jitter on a
/// shared machine is fast, so metrics are medians over these windows.
struct Window {
  double wall_s = 0;
  uint64_t replies = 0;
  uint64_t retired = 0;
};

struct RepResult {
  bool traced = false;
  double wall_s = 0;     ///< the whole rep
  double setup_s = 0;    ///< binaries, boot, feature discovery
  std::vector<double> plan_s;  ///< traces to a verified plan (kv, fleet)
  uint64_t replies = 0;  ///< guest replies in the measured phase
  uint64_t retired = 0;  ///< guest instructions in the measured phase
  std::vector<double> disable_ms, restore_ms;
  std::vector<Window> windows;
  double scale = 1;  ///< nominal / measured reference time before the rep
  Counters layer;
  uint64_t dedup_lookups = 0, dedup_hits = 0;
  uint64_t digest = 0;
  Modelled modelled;
  size_t span_from = 0, span_to = 0;
};

// --------------------------------------------------------------------------
// Reference speed
// --------------------------------------------------------------------------

/// Host times are reported as if every reference probe had taken this long
/// (about the probe's median on a quiet 4-vCPU Xeon VM).
constexpr double kProbeNominalS = 0.001;
/// Probes before each rep; more are taken between the rep's windows.
constexpr int kProbesBeforeRep = 5;
volatile uint64_t g_probe_result;  // keeps the kernel's work observable

/// The reference kernel, all in `arena`: an ordered map and a hash map built
/// and searched, page-sized buffers copied, and short request-like strings
/// formatted through a queue. On the shared host this pointer-, cache- and
/// copy-bound work slows down and speeds up with the library, while tight
/// ALU-bound loops barely move. The map and page part alone moves less than
/// kv_serve's serving, the string part alone more than the disables;
/// together they track both. It uses nothing from the library.
/// Returns its host time in seconds.
double probe_kernel_s(std::pmr::memory_resource* arena) {
  const auto t0 = Clock::now();
  uint64_t state = 0;
  auto next = [&state] {  // splitmix64
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  uint64_t acc = 0;
  std::pmr::map<uint64_t, uint64_t> tree(arena);
  for (int i = 0; i < 3000; ++i) tree[next() & 0xfffff] += i;
  acc += tree.size();
  std::pmr::unordered_map<uint64_t, uint64_t> hash(arena);
  for (int i = 0; i < 3000; ++i) hash[next() & 0xfffff] += i;
  for (int i = 0; i < 3000; ++i) {
    auto it = hash.find(next() & 0xfffff);
    if (it != hash.end()) acc += it->second;
  }
  std::pmr::vector<std::pmr::vector<uint8_t>> pages(arena);
  pages.reserve(64);
  for (int i = 0; i < 64; ++i) {
    pages.emplace_back(4096, uint8_t{3});
    pages.back()[i] ^= 1;
    acc += pages.back()[4095 - i];
  }
  std::pmr::deque<std::pmr::string> queue(arena);
  for (int i = 0; i < 6000; ++i) {
    queue.emplace_back("GET key" + std::to_string(i) + "\r\n");
    if (queue.size() > 64) {
      acc += queue.front().size();
      queue.pop_front();
    }
  }
  g_probe_result = acc;
  return secs_since(t0);
}

/// One probe: the kernel runs once to warm its memory, then once timed. Its
/// memory is a fixed buffer of its own, so neither the program's heap nor
/// what the program left in the caches moves the probe; no change to the
/// program can.
double probe_s() {
  alignas(64) static std::byte buffer[4 << 20];
  double t = 0;
  for (int pass = 0; pass < 2; ++pass) {
    std::pmr::monotonic_buffer_resource arena(buffer, sizeof buffer,
                                              std::pmr::null_memory_resource());
    t = probe_kernel_s(&arena);
  }
  return t;
}

/// Probe times of the rep in progress.
std::vector<double> g_probes;

/// Times the reference kernel once. Called before each rep and between the
/// windows of a rep, never inside a timed region: the rep's speed is the
/// median probe, so it follows the host through the whole rep.
void probe_speed() { g_probes.push_back(probe_s()); }

// --------------------------------------------------------------------------
// Guest driving helpers
// --------------------------------------------------------------------------

/// Budgeted Os::run loop until `done` holds (boot, traced profiling).
template <typename Pred>
bool run_until(os::Os& vos, Pred done, int rounds = 300,
               uint64_t instr_per_round = 200'000) {
  for (int i = 0; i < rounds && !done(); ++i) {
    Scope s("os.run");
    vos.run(instr_per_round);
  }
  return done();
}

/// One request on `conn`: send, advance virtual time in 1 ms slices until a
/// full line is back (a frozen server answers after its charged window).
std::string ask(os::Os& vos, os::HostConn& conn, const std::string& line) {
  {
    Scope s("os.hostconn");
    conn.send(line);
  }
  for (int i = 0; i < 2000; ++i) {
    {
      Scope s("os.run");
      vos.run_ticks(1'000'000);
    }
    Scope s("os.hostconn");
    std::string reply = conn.recv_line();
    if (!reply.empty()) return reply;
  }
  return "<no reply>";
}

/// The bytes of `module`'s text sections as mapped in `pid`.
std::vector<uint8_t> text_bytes(const os::Os& vos, int pid, const std::string& module) {
  const os::Process* p = vos.process(pid);
  const os::LoadedModule* m = p->module_named(module);
  std::vector<uint8_t> out;
  for (const auto& sec : m->binary->sections) {
    if (sec.kind != melf::SectionKind::kText) continue;
    std::vector<uint8_t> bytes = p->mem.peek_bytes(m->base + sec.offset, sec.size);
    out.insert(out.end(), bytes.begin(), bytes.end());
  }
  return out;
}

/// One feature cut on one managed group, disabled and later restored. Both
/// halves are timed and checked: the disable patches blocks and changes the
/// module's code, the restore reverts exactly those blocks and brings the
/// code back bit for bit.
struct Cut {
  os::Os& vos;
  core::DynaCut& dc;
  int pid;
  core::CutRequest req;
  std::string module;
  std::vector<uint8_t> pristine;
  size_t patched = 0;
};

void disable(Cut& c, obs::EventBus* bus, RepResult& r) {
  c.pristine = text_bytes(c.vos, c.pid, c.module);
  if (g_spans.enabled) {
    // Same request, same verifier as the disable runs. Preflight reports its
    // findings on an attached bus, so it runs detached: a traced rep must
    // emit exactly the events of an untraced one.
    c.dc.set_observer(nullptr);
    Scope s("core.preflight");
    c.dc.preflight(c.req);
  }
  c.dc.set_observer(bus);
  core::CustomizeReport rep;
  const auto t0 = Clock::now();
  {
    Scope s("core.disable");
    rep = c.dc.disable_feature(c.req);
  }
  r.disable_ms.push_back(secs_since(t0) * 1e3);
  r.layer.add_edits(rep.edits);
  r.modelled.freeze_ms.push_back(static_cast<double>(rep.timing.total_ns()) / 1e6);
  c.patched = rep.edits.blocks_patched;
  g_check.expect(c.patched > 0, c.req.feature.name + " disable patched no blocks");
  g_check.expect(text_bytes(c.vos, c.pid, c.module) != c.pristine,
                 c.req.feature.name + " disable left the code unchanged");
}

void restore(Cut& c, RepResult& r) {
  core::CustomizeReport rep;
  const auto t0 = Clock::now();
  {
    Scope s("core.restore");
    rep = c.dc.restore_feature(c.req.feature.name);
  }
  r.restore_ms.push_back(secs_since(t0) * 1e3);
  r.layer.add_edits(rep.edits);
  r.modelled.freeze_ms.push_back(static_cast<double>(rep.timing.total_ns()) / 1e6);
  g_check.expect(rep.edits.blocks_patched == c.patched,
                 c.req.feature.name + " restore reverted " +
                     std::to_string(rep.edits.blocks_patched) + " of " +
                     std::to_string(c.patched) + " blocks");
  g_check.expect(text_bytes(c.vos, c.pid, c.module) == c.pristine,
                 c.req.feature.name + " restore did not revert the code");
}

// --------------------------------------------------------------------------
// Feature discovery (traced profiling)
// --------------------------------------------------------------------------

struct Exchange {
  std::string request;
  std::string reply;  ///< expected reply line
};

/// A traced server run: boot, nudge at listener-ready, serve `reqs`
/// (checking every reply), keep the busiest group member's serving log.
/// The server stays up, so a plan can be applied to it.
struct Profiled {
  std::unique_ptr<obs::EventBus> bus;  // outlives the Os and any DynaCut on it
  std::unique_ptr<os::Os> vos;
  std::unique_ptr<trace::Tracer> tracer;
  int pid = 0;
  os::HostConn conn;
  trace::TraceLog serving;
};

Profiled profile_server(std::shared_ptr<const melf::Binary> bin, uint16_t port,
                        const std::vector<Exchange>& reqs, uint64_t seed,
                        DigestSink& sink, RepResult& r) {
  Scope s("trace.profile");
  Profiled out;
  out.bus = std::make_unique<obs::EventBus>();
  out.bus->add_sink(&sink);
  out.vos = std::make_unique<os::Os>();
  out.vos->set_seed(seed);
  out.vos->set_event_bus(out.bus.get());
  out.tracer = std::make_unique<trace::Tracer>(*out.vos);
  out.pid = out.vos->spawn(bin, {apps::build_libc()});
  os::Os& vos = *out.vos;
  g_check.expect(run_until(vos, [&] { return vos.has_listener(port); }),
                 bin->name + " did not reach its listener");
  out.tracer->dump_and_reset(out.pid);  // the nudge
  out.conn = vos.connect(port);
  for (const auto& ex : reqs) {
    g_check.expect_reply(ask(vos, out.conn, ex.request), ex.reply,
                         bin->name + " " + ex.request.substr(0, ex.request.size() - 1));
    ++r.replies;
  }
  out.serving = out.tracer->dump(out.pid);
  for (int gp : vos.process_group(out.pid)) {
    trace::TraceLog log = out.tracer->dump(gp);
    if (log.blocks.size() > out.serving.blocks.size()) out.serving = std::move(log);
  }
  return out;
}

void finish_os(Profiled& p, RepResult& r) {
  r.layer.add_os(*p.vos);
  r.layer.events += p.bus->events_delivered();
}

// minikv SET: the undesired run sets a key; the wanted run reaches the
// GET-hit path through SETRANGE, so tracediff keeps the shared lookup code.
const std::vector<Exchange> kKvUndesired = {
    {"SET k v\n", "+OK\n"}, {"GET k\n", "$v\n"}, {"PING\n", "+PONG\n"}};
const std::vector<Exchange> kKvWanted = {{"SETRANGE k 0 hello\n", ":5\n"},
                                         {"GET k\n", "$hello\n"},
                                         {"GET miss\n", "$-1\n"},
                                         {"PING\n", "+PONG\n"},
                                         {"DEL k\n", ":1\n"}};
const char kKvDenied[] = "-ERR unknown or disabled command\n";

/// Traces minikv under both request sets and returns the SET FeatureSpec,
/// checked by cutcheck as DynaCut will apply it (redirect to dispatch_err).
core::FeatureSpec discover_set(std::shared_ptr<const melf::Binary> kv,
                               uint16_t port, uint64_t seed, DigestSink& sink,
                               RepResult& r) {
  RepResult discarded;  // profiling replies are set-up, not measured serving
  Profiled undesired = profile_server(kv, port, kKvUndesired, seed, sink, discarded);
  Profiled wanted = profile_server(kv, port, kKvWanted, seed, sink, discarded);
  finish_os(undesired, r);
  finish_os(wanted, r);
  core::FeatureSpec spec;
  spec.name = "SET";
  {
    Scope s("analysis.diff");
    spec.blocks = analysis::feature_diff({undesired.serving}, {wanted.serving},
                                         "minikv")
                      .blocks();
  }
  spec.redirect_module = "minikv";
  spec.redirect_offset = kv->find_symbol("dispatch_err")->value;
  cutcheck::CutPlan plan;
  plan.feature = spec.name;
  plan.module = "minikv";
  plan.binary = kv;
  plan.blocks = spec.blocks;
  plan.trap = cutcheck::Trap::kRedirect;
  plan.has_redirect = true;
  plan.redirect_offset = spec.redirect_offset;
  cutcheck::CheckReport rep;
  {
    Scope s("analysis.cutcheck");
    rep = cutcheck::check_plan(plan);
  }
  g_check.expect(rep.ok(), "minikv SET plan: " + rep.format());
  g_check.expect(!spec.blocks.empty(), "minikv SET plan is empty");
  return spec;
}

/// SET discoveries timed per rep after set-up (kv_serve, fleet_toggle): the
/// one in set-up alone would give plan_s a single short sample per rep.
constexpr int kExtraDiscoveries = 4;

/// Times kExtraDiscoveries more SET discoveries into r.plan_s. They feed a
/// scratch sink and scratch counters with spans off, so the rep's digest and
/// per-layer figures stay those of the discovery in set-up.
void time_discoveries(std::shared_ptr<const melf::Binary> kv, uint16_t port,
                      uint64_t seed, RepResult& r) {
  const bool spans = g_spans.enabled;
  g_spans.enabled = false;
  for (int i = 0; i < kExtraDiscoveries; ++i) {
    DigestSink scratch_sink;
    RepResult scratch;
    const auto t0 = Clock::now();
    discover_set(kv, port, seed, scratch_sink, scratch);
    r.plan_s.push_back(secs_since(t0));
  }
  g_spans.enabled = spans;
}

core::CutRequest redirect_request(const core::FeatureSpec& spec) {
  return {.feature = spec,
          .removal = core::RemovalPolicy::kBlockFirstByte,
          .trap = core::TrapPolicy::kRedirect};
}

// --------------------------------------------------------------------------
// kv_serve
// --------------------------------------------------------------------------

constexpr int kKvSeconds = 24;  // virtual seconds of serving per rep
constexpr uint64_t kVirtualSecond = 1'000'000'000;

/// Reads `n` bytes at kvbench's symbol `sym` (its bss "ops" and "buf").
void peek_kvbench(const os::Os& vos, int client, const char* sym, void* out,
                  uint64_t n) {
  const os::Process* c = vos.process(client);
  const os::LoadedModule* m = c->module_named("kvbench");
  c->mem.peek(m->base + m->binary->find_symbol(sym)->value, out, n);
}

/// The kvbench guest overwrites "buf" with every reply and exits on a failed
/// read, so a live client holding "$hello" has been answered correctly.
bool kvbench_healthy(const os::Os& vos, int client) {
  char buf[7] = {};
  peek_kvbench(vos, client, "buf", buf, sizeof buf);
  return vos.process(client)->state != os::Process::State::kExited &&
         std::string(buf, sizeof buf) == "$hello\n";
}

RepResult kv_serve(uint64_t seed) {
  RepResult r;
  DigestSink sink;
  Rng rng(seed);
  const int disable_at = static_cast<int>(rng.range(2, kKvSeconds / 2 - 1));
  const int restore_at = static_cast<int>(rng.range(disable_at + 3, kKvSeconds - 3));

  obs::EventBus bus;  // outlives the DynaCut observing it
  bus.add_sink(&sink);
  const auto t0 = Clock::now();
  os::Os vos;
  vos.set_seed(seed);
  vos.costs().base = 20'000;  // 20 us per syscall, as in fig8
  auto libc = apps::build_libc();
  auto kv = apps::build_minikv();
  const int server = vos.spawn(kv, {libc});
  g_check.expect(run_until(vos, [&] { return vos.has_listener(apps::kMinikvPort); }),
                 "minikv did not boot");
  const int client = vos.spawn(apps::build_kvbench(), {libc});
  const auto tp = Clock::now();
  core::CutRequest req = redirect_request(discover_set(kv, apps::kMinikvPort, seed, sink, r));
  r.plan_s.push_back(secs_since(tp));
  core::DynaCut dc(vos, server);
  Cut cut{vos, dc, server, std::move(req), "minikv"};
  vos.set_event_bus(&bus);
  r.setup_s = secs_since(t0);
  time_discoveries(kv, apps::kMinikvPort, seed, r);

  const uint64_t retired0 = vos.total_retired();
  const uint64_t start = vos.now();
  uint64_t ops = 0;
  for (int t = 0; t < kKvSeconds; ++t) {
    g_spans.req = static_cast<uint64_t>(t);
    probe_speed();
    const auto tw = Clock::now();
    const uint64_t retired_w = vos.total_retired();
    // minikv serves one connection at a time, so the guest client is the
    // only one; the denied/restored replies are checked in spec_plan.
    if (t == disable_at) disable(cut, &bus, r);  // cold: full dump
    if (t == restore_at) restore(cut, r);        // warm: dirty pages only
    // Absolute schedule: a toggle's charged window eats into its second.
    const uint64_t deadline = start + static_cast<uint64_t>(t + 1) * kVirtualSecond;
    if (deadline > vos.now()) {
      Scope s("os.run");
      vos.run_ticks(deadline - vos.now());
    }
    uint64_t now_ops = 0;
    peek_kvbench(vos, client, "ops", &now_ops, sizeof now_ops);
    g_check.expect(now_ops > ops && kvbench_healthy(vos, client),
                   "kvbench reply in second " + std::to_string(t));
    r.windows.push_back({secs_since(tw), now_ops - ops, vos.total_retired() - retired_w});
    ops = now_ops;
  }
  r.replies = ops;
  r.retired = vos.total_retired() - retired0;
  r.modelled.vkreq_per_s =
      static_cast<double>(ops) / 1e3 / (static_cast<double>(vos.now() - start) / 1e9);
  r.layer.add_os(vos);
  r.layer.events += bus.events_delivered();
  sink.mix(r.replies);
  sink.mix(r.retired);
  r.digest = sink.digest();
  return r;
}

// --------------------------------------------------------------------------
// fleet_toggle
// --------------------------------------------------------------------------

constexpr uint16_t kFleetBasePort = 7100;
constexpr int kFleetSize = 112;
constexpr uint32_t kFleetHeapKb = 64;
constexpr uint64_t kSlice = 500'000;  // poll quantum, virtual ticks
constexpr int kSteadySlices = 8;
constexpr int kDrainSlices = 8;

/// fleet_bench's cost model for 64 KB instances: the per-page and per-block
/// terms of the CRIU-calibrated model with small fixed costs.
core::CostModel fleet_cost_model() {
  core::CostModel m;
  m.checkpoint_base_ns = 200'000;
  m.restore_base_ns = 200'000;
  m.checkpoint_delta_base_ns = 50'000;
  m.restore_delta_base_ns = 50'000;
  m.checkpoint_per_page_ns = 2'000;
  m.restore_per_page_ns = 2'000;
  m.patch_per_block_ns = 20'000;
  m.inject_base_ns = 500'000;
  m.inject_per_reloc_ns = 5'000;
  return m;
}

struct FleetConn {
  os::HostConn conn;
  uint64_t sent_at = 0;
  bool in_flight = false;
};

/// Keeps one PING outstanding on every connection, advances one slice and
/// collects (and checks) the replies that arrived.
void drive_slice(os::Os& vos, std::vector<FleetConn>& conns, RepResult& r) {
  {
    Scope s("os.hostconn");
    for (auto& fc : conns) {
      if (fc.in_flight) continue;
      fc.conn.send("PING\n");
      fc.sent_at = vos.now();
      fc.in_flight = true;
    }
  }
  {
    Scope s("os.run");
    vos.run_ticks(kSlice);
  }
  Scope s("os.hostconn");
  for (auto& fc : conns) {
    if (!fc.in_flight) continue;
    std::string line = fc.conn.recv_line();
    if (line.empty()) continue;
    fc.in_flight = false;
    ++r.replies;
    g_check.expect_reply(line, "+PONG\n", "fleet PING");
    r.modelled.latency_us.push_back(static_cast<double>(vos.now() - fc.sent_at) / 1e3);
  }
}

RepResult fleet_toggle(uint64_t seed) {
  RepResult r;
  DigestSink sink;
  obs::EventBus bus;
  bus.add_sink(&sink);
  const auto t0 = Clock::now();
  os::Os vos;
  vos.set_seed(seed);
  vos.set_cores(4);
  vos.set_event_bus(&bus);
  auto libc = apps::build_libc();
  std::vector<int> servers;
  for (int i = 0; i < kFleetSize; ++i) {
    const auto port = static_cast<uint16_t>(kFleetBasePort + i);
    servers.push_back(vos.spawn(apps::build_minikv(port, kFleetHeapKb), {libc}));
  }
  g_check.expect(run_until(vos, [&] {
                   for (int i = 0; i < kFleetSize; ++i) {
                     if (!vos.has_listener(static_cast<uint16_t>(kFleetBasePort + i))) {
                       return false;
                     }
                   }
                   return true;
                 }),
                 "fleet did not boot");
  std::vector<FleetConn> conns(kFleetSize);
  for (int i = 0; i < kFleetSize; ++i) {
    conns[i].conn = vos.connect(static_cast<uint16_t>(kFleetBasePort + i));
  }
  // Every fleet binary shares the block layout (only the port immediate
  // differs), so one prototype instance is planned offline.
  const auto tp = Clock::now();
  auto proto = apps::build_minikv(kFleetBasePort, kFleetHeapKb);
  const core::CutRequest req =
      redirect_request(discover_set(proto, kFleetBasePort, seed, sink, r));
  r.plan_s.push_back(secs_since(tp));
  std::vector<int> order(kFleetSize);
  for (int i = 0; i < kFleetSize; ++i) order[i] = i;
  Rng rng(seed);
  for (int i = kFleetSize - 1; i > 0; --i) {
    std::swap(order[i], order[rng.below(static_cast<uint64_t>(i) + 1)]);
  }
  r.setup_s = secs_since(t0);
  time_discoveries(proto, kFleetBasePort, seed, r);

  const uint64_t retired0 = vos.total_retired();
  const uint64_t vstart = vos.now();
  for (int s = 0; s < kSteadySlices; ++s) drive_slice(vos, conns, r);
  for (int step = 0; step < kFleetSize; ++step) {
    g_spans.req = static_cast<uint64_t>(step);
    probe_speed();
    const auto tw = Clock::now();
    const uint64_t replies_w = r.replies, retired_w = vos.total_retired();
    const int victim = servers[order[step]];
    core::DynaCut dc(vos, victim, fleet_cost_model());
    Cut cut{vos, dc, victim, req, "minikv"};
    disable(cut, &bus, r);
    drive_slice(vos, conns, r);
    restore(cut, r);
    drive_slice(vos, conns, r);
    r.windows.push_back(
        {secs_since(tw), r.replies - replies_w, vos.total_retired() - retired_w});
  }
  // Drain: the last victims' parked replies land after their windows.
  for (int s = 0; s < kDrainSlices; ++s) drive_slice(vos, conns, r);
  for (const auto& fc : conns) {
    g_check.expect(!fc.in_flight, "fleet connection left without a reply");
  }
  r.retired = vos.total_retired() - retired0;
  r.modelled.vkreq_per_s = static_cast<double>(r.replies) / 1e3 /
                           (static_cast<double>(vos.now() - vstart) / 1e9);
  r.layer.add_os(vos);
  r.layer.events += bus.events_delivered();
  sink.mix(r.replies);
  sink.mix(r.retired);
  r.digest = sink.digest();
  return r;
}

// --------------------------------------------------------------------------
// spec_plan
// --------------------------------------------------------------------------

constexpr int kServerToggles = 4;

/// A server guest and the request sets that separate one feature.
struct ServerCase {
  std::string feature;
  std::shared_ptr<const melf::Binary> bin;
  uint16_t port;
  std::string module;
  std::string redirect_symbol;
  std::vector<Exchange> undesired, wanted;
  Exchange denied;    ///< a feature request while cut: the app's error reply
  Exchange restored;  ///< the same kind of request after the restore
};

std::vector<ServerCase> server_cases() {
  const std::vector<Exchange> dav_undesired = {{"GET /index\n", "200 welcome\n"},
                                               {"PUT /a x\n", "201 created\n"},
                                               {"DELETE /a\n", "204 deleted\n"}};
  const std::vector<Exchange> dav_wanted = {{"GET /index\n", "200 welcome\n"},
                                            {"HEAD /index\n", "200\n"}};
  return {
      {"SET", apps::build_minikv(), apps::kMinikvPort, "minikv", "dispatch_err",
       kKvUndesired, kKvWanted, {"SET k w\n", kKvDenied}, {"SET k w\n", "+OK\n"}},
      {"DAV", apps::build_miniweb(), apps::kMiniwebPort, "miniweb", "dav_403",
       dav_undesired, dav_wanted, {"PUT /b y\n", "403 Forbidden\n"},
       {"PUT /b y\n", "201 created\n"}},
      {"DAV", apps::build_minihttpd(), apps::kMinihttpdPort, "minihttpd", "http_403",
       dav_undesired, dav_wanted, {"PUT /b y\n", "403 Forbidden\n"},
       {"PUT /b y\n", "201 created\n"}},
  };
}

/// Plans one slice-closed cut from `observed` and verifies it.
cutcheck::CutPlan plan_and_check(std::shared_ptr<const melf::Binary> bin,
                                 const std::string& module,
                                 const std::string& feature,
                                 const std::vector<analysis::CovBlock>& observed,
                                 cutcheck::Trap trap, std::optional<uint64_t> redirect) {
  cutcheck::CutPlan plan;
  {
    Scope s("analysis.slice");
    slicer::SliceOptions opts;
    if (redirect) opts.keep_blocks.insert(*redirect);
    plan = slicer::synthesize_plan(bin, module, feature, observed,
                                   cutcheck::Removal::kBlockFirstByte, trap, opts);
  }
  if (redirect) {
    plan.has_redirect = true;
    plan.redirect_offset = *redirect;
  }
  cutcheck::CheckReport rep;
  {
    Scope s("analysis.cutcheck");
    rep = cutcheck::check_plan(plan);
  }
  g_check.expect(!plan.blocks.empty(), module + " " + feature + " plan is empty");
  g_check.expect(rep.ok(), module + " " + feature + " plan: " + rep.format());
  return plan;
}

/// Traced run of one SPEC-synth guest split at its nudge, then the
/// init-only plan.
void plan_spec(std::shared_ptr<const melf::Binary> bin,
               std::shared_ptr<const melf::Binary> libc, uint64_t seed,
               DigestSink& sink, RepResult& r) {
  trace::TraceLog init_log, serving_log;
  obs::EventBus bus;
  bus.add_sink(&sink);
  {
    os::Os vos;
    vos.set_seed(seed);
    vos.set_event_bus(&bus);
    Scope s("trace.profile");
    trace::Tracer tracer(vos);
    const int pid = vos.spawn(bin, {libc});
    vos.set_nudge_hook([&](const os::Process& p, uint64_t) {
      init_log = tracer.dump_and_reset(p.pid);
    });
    run_until(vos, [&] { return vos.all_exited(); }, 5000);
    const os::Process* p = vos.process(pid);
    g_check.expect(p->state == os::Process::State::kExited && p->exit_code == 0 &&
                       !init_log.blocks.empty(),
                   bin->name + " traced run did not nudge and exit cleanly");
    serving_log = tracer.dump(pid);
    r.layer.add_os(vos);
  }
  r.layer.events += bus.events_delivered();
  std::vector<analysis::CovBlock> init_blocks;
  {
    Scope s("analysis.diff");
    init_blocks = analysis::init_only(init_log, serving_log, bin->name).blocks();
  }
  plan_and_check(bin, bin->name, "init", init_blocks, cutcheck::Trap::kTerminate,
                 std::nullopt);
}

/// Traced runs of one server under both request sets, the feature plan,
/// then the plan applied to the live server and restored.
void plan_server(const ServerCase& sc, uint64_t seed, DigestSink& sink, RepResult& r) {
  Profiled undesired = profile_server(sc.bin, sc.port, sc.undesired, seed, sink, r);
  Profiled wanted = profile_server(sc.bin, sc.port, sc.wanted, seed, sink, r);
  std::vector<analysis::CovBlock> observed;
  {
    Scope s("analysis.diff");
    observed = analysis::feature_diff({undesired.serving}, {wanted.serving}, sc.module)
                   .blocks();
  }
  const uint64_t redirect = sc.bin->find_symbol(sc.redirect_symbol)->value;
  cutcheck::CutPlan plan = plan_and_check(sc.bin, sc.module, sc.feature, observed,
                                          cutcheck::Trap::kRedirect, redirect);
  core::FeatureSpec spec;
  spec.name = sc.feature;
  spec.blocks = plan.blocks;
  spec.redirect_module = sc.module;
  spec.redirect_offset = redirect;
  os::Os& vos = *wanted.vos;
  core::DynaCut dc(vos, wanted.pid);
  Cut cut{vos, dc, wanted.pid, redirect_request(spec), sc.module};
  // The first toggle is cold (full dump), the rest ride the baseline.
  for (int i = 0; i < kServerToggles; ++i) {
    disable(cut, wanted.bus.get(), r);
    g_check.expect_reply(ask(vos, wanted.conn, sc.denied.request), sc.denied.reply,
                         sc.module + " request while cut");
    restore(cut, r);
    g_check.expect_reply(ask(vos, wanted.conn, sc.restored.request), sc.restored.reply,
                         sc.module + " request after restore");
    r.replies += 2;
  }
  finish_os(undesired, r);
  finish_os(wanted, r);
}

/// spec_plan builds its binaries this many times per rep: a rep is long and
/// the build is short, so one build per rep would give few set-up samples.
constexpr int kSpecBuilds = 5;

RepResult spec_plan(uint64_t seed) {
  RepResult r;
  DigestSink sink;
  std::shared_ptr<const melf::Binary> libc;
  std::vector<std::shared_ptr<const melf::Binary>> spec;
  std::vector<ServerCase> servers;
  std::vector<double> builds;
  for (int i = 0; i < kSpecBuilds; ++i) {
    const auto t0 = Clock::now();
    libc = apps::build_libc();
    spec.clear();
    for (const auto& sb : apps::spec_suite()) spec.push_back(apps::build_spec(sb));
    servers = server_cases();
    builds.push_back(secs_since(t0));
  }
  std::sort(builds.begin(), builds.end());
  r.setup_s = builds[kSpecBuilds / 2];

  uint64_t req = 0;
  auto window = [&](const std::function<void()>& plan) {
    g_spans.req = req++;
    probe_speed();
    const auto tw = Clock::now();
    const uint64_t replies_w = r.replies, retired_w = r.layer.retired;
    plan();
    r.windows.push_back({secs_since(tw), r.replies - replies_w, r.layer.retired - retired_w});
  };
  for (const auto& bin : spec) window([&] { plan_spec(bin, libc, seed, sink, r); });
  for (const auto& sc : servers) window([&] { plan_server(sc, seed, sink, r); });
  r.retired = r.layer.retired;
  sink.mix(r.replies);
  sink.mix(r.retired);
  r.digest = sink.digest();
  return r;
}

/// Binaries whose plans a workload verifies: their recovered CFG size and
/// indirect-site resolution are checked once per run, outside the timing.
std::vector<std::shared_ptr<const melf::Binary>> planned_binaries(
    const std::string& workload) {
  std::vector<std::shared_ptr<const melf::Binary>> out;
  if (workload == "spec_plan") {
    for (const auto& sb : apps::spec_suite()) out.push_back(apps::build_spec(sb));
    for (const auto& sc : server_cases()) out.push_back(sc.bin);
  } else if (workload == "fleet_toggle") {
    out.push_back(apps::build_minikv(kFleetBasePort, kFleetHeapKb));
  } else {
    out.push_back(apps::build_minikv());
  }
  return out;
}

// --------------------------------------------------------------------------
// Reporting
// --------------------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

template <typename F>
double median_of(const std::vector<const RepResult*>& reps, F f) {
  std::vector<double> v;
  for (const RepResult* r : reps) v.push_back(f(*r));
  return median(v);
}

/// Every rep of a seed runs the same operations in the same order, so the
/// k-th sample of `field` in each rep times the same operation. Returns each
/// operation's median over the reps, scaled to the reference speed: the
/// host's transient stalls drop out, and percentiles over the result show
/// how the cost varies between operations, not how often the host stalled.
std::vector<double> op_medians(const std::vector<const RepResult*>& reps,
                               std::vector<double> RepResult::*field) {
  size_t ops = reps.empty() ? 0 : (reps.front()->*field).size();
  for (const RepResult* r : reps) ops = std::min(ops, (r->*field).size());
  std::vector<double> out;
  for (size_t k = 0; k < ops; ++k) {
    out.push_back(median_of(reps, [&](const RepResult& r) { return (r.*field)[k] * r.scale; }));
  }
  return out;
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  char buf[64];
  for (size_t i = 0; i < ms.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", ms[i].value);
    out += (i == 0 ? "\"" : ", \"") + ms[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return out + "}";
}

void write_spans(const std::string& path, const std::string& workload, uint64_t seed) {
  std::ofstream out(path);
  out << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
      << ", \"fields\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"req\"],"
      << " \"spans\": [\n";
  for (size_t i = 0; i < g_spans.spans.size(); ++i) {
    const Span& s = g_spans.spans[i];
    out << (i == 0 ? "" : ",\n") << "[\"" << s.name << "\", " << s.start_ns << ", "
        << s.end_ns << ", " << s.parent << ", " << s.req << "]";
  }
  out << "\n]}\n";
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload kv_serve|fleet_toggle|spec_plan "
               "--seed N --seconds S --trace 0|1 [--spans PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, spans_path;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  if (argc % 2 == 0) return usage();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    if (key == "--workload") workload = val;
    else if (key == "--seed") seed = std::stoull(val);
    else if (key == "--seconds") seconds = std::stod(val);
    else if (key == "--trace") trace = val == "1";
    else if (key == "--spans") spans_path = val;
    else return usage();
  }
  RepResult (*run)(uint64_t) = nullptr;
  if (workload == "kv_serve") run = kv_serve;
  else if (workload == "fleet_toggle") run = fleet_toggle;
  else if (workload == "spec_plan") run = spec_plan;
  else return usage();

  // Reps repeat the seed's scenario until the time is spent; a traced run
  // alternates untraced and traced reps so both have at least kMinReps.
  constexpr size_t kMinReps = 3;
  std::vector<RepResult> reps;
  size_t n_untraced = 0, n_traced = 0;
  std::vector<double> probes;  // every probe of the run, for the report
  const auto t0 = Clock::now();
  while (secs_since(t0) < seconds || n_untraced < kMinReps ||
         (trace && n_traced < kMinReps)) {
    const bool traced = trace && reps.size() % 2 == 1;
    image::BlockStore::global().reset_stats();
    g_spans.enabled = traced;
    const size_t from = g_spans.spans.size();
    g_probes.clear();
    for (int i = 0; i < kProbesBeforeRep; ++i) probe_speed();
    const auto tr = Clock::now();
    RepResult r;
    try {
      r = run(seed);
    } catch (const std::exception& e) {
      g_spans.enabled = false;
      g_check.expect(false, std::string("rep threw: ") + e.what());
      break;
    }
    // The rep's wall time leaves out the probes taken between its windows.
    r.wall_s = secs_since(tr);
    for (size_t i = kProbesBeforeRep; i < g_probes.size(); ++i) r.wall_s -= g_probes[i];
    r.scale = kProbeNominalS / median(g_probes);
    probes.insert(probes.end(), g_probes.begin(), g_probes.end());
    g_spans.enabled = false;
    r.traced = traced;
    r.span_from = from;
    r.span_to = g_spans.spans.size();
    r.dedup_lookups = image::BlockStore::global().stats().lookups;
    r.dedup_hits = image::BlockStore::global().stats().dedup_hits;
    if (!reps.empty()) {
      g_check.expect(r.digest == reps.front().digest,
                     "rep " + std::to_string(reps.size()) + " digest differs");
    }
    reps.push_back(std::move(r));
    ++(traced ? n_traced : n_untraced);
  }

  // Static facts of the planned binaries, outside every timing.
  uint64_t cfg_blocks = 0;
  for (const auto& bin : planned_binaries(workload)) {
    slicer::SliceModel m = slicer::analyze(*bin);
    cfg_blocks += m.cfg.block_count();
    size_t unresolved = 0;
    for (const auto& site : m.indirect) {
      if (site.kind == slicer::IndirectSite::Kind::kUnresolved) ++unresolved;
    }
    g_check.expect(unresolved == 0, bin->name + ": " + std::to_string(unresolved) +
                                        " unresolved indirect sites");
  }

  std::vector<const RepResult*> plain, traced;
  for (const auto& r : reps) (r.traced ? traced : plain).push_back(&r);
  // Every timing is a median over many samples, each scaled by its rep's
  // reference factor. On spec_plan the windows are the guests: the suite
  // time is the sum of each guest's median, and the rates are per suite.
  // The disable and restore percentiles are over operations, each timed by
  // its median over the reps.
  const std::vector<double> dis = op_medians(plain, &RepResult::disable_ms);
  const std::vector<double> res = op_medians(plain, &RepResult::restore_ms);
  std::vector<double> plans;
  for (const RepResult* r : plain) {
    for (double t : r->plan_s) plans.push_back(t * r->scale);
  }
  const double disable_p50 = percentile(dis, 0.5);
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  double kreq_per_s = 0, minstr_per_s = 0, plan_s = 0;
  if (workload == "spec_plan" && !plain.empty()) {
    for (size_t g = 0; g < plain.front()->windows.size(); ++g) {
      plan_s += median_of(plain, [&](const RepResult& r) { return r.windows[g].wall_s * r.scale; });
    }
    kreq_per_s = ratio(static_cast<double>(plain.front()->replies) / 1e3, plan_s);
    minstr_per_s = ratio(static_cast<double>(plain.front()->retired) / 1e6, plan_s);
  } else {
    std::vector<double> kreq, minstr;
    for (const RepResult* r : plain) {
      for (const Window& w : r->windows) {
        kreq.push_back(ratio(static_cast<double>(w.replies) / 1e3, w.wall_s * r->scale));
        minstr.push_back(ratio(static_cast<double>(w.retired) / 1e6, w.wall_s * r->scale));
      }
    }
    kreq_per_s = median(kreq);
    minstr_per_s = median(minstr);
    plan_s = median(plans);
  }

  std::printf("perfbench %s seed %" PRIu64 ": %zu untraced + %zu traced reps\n",
              workload.c_str(), seed, plain.size(), traced.size());
  std::printf("reference probe: median %.3f ms over %zu probes; host times below "
              "are scaled to %.3f ms\n",
              median(probes) * 1e3, probes.size(), kProbeNominalS * 1e3);
  std::vector<Metric> metrics;
  if (!plain.empty()) {
    metrics = {
        {"setup_s", median_of(plain, [](const RepResult& r) { return r.setup_s * r.scale; }),
         "s"},
        {"kreq_per_s", kreq_per_s, "kreq/s"},
        {"minstr_per_s", minstr_per_s, "Minstr/s"},
        {"disable_ms.p50", disable_p50, "ms"},
        {"disable_ms.p90", percentile(dis, 0.9), "ms"},
        {"restore_ms.p50", percentile(res, 0.5), "ms"},
        {"restore_ms.p90", percentile(res, 0.9), "ms"},
        {"plan_s", plan_s, "s"},
        {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"},
    };
    std::printf("end-to-end (%zu untraced reps; disable ops=%zu, restore ops=%zu):\n",
                plain.size(), dis.size(), res.size());
    for (const auto& m : metrics) {
      std::printf("  %-16s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }

    const RepResult& r0 = *plain.front();
    const std::vector<double>& freeze = r0.modelled.freeze_ms;
    std::printf(
        "modelled {\"kreq_per_s\": %.3f, \"freeze_ms\": {\"n\": %zu, \"p50\": %.3f, "
        "\"max\": %.3f}, \"latency_us\": {\"n\": %zu, \"p50\": %.1f, \"p99\": %.1f}}\n",
        r0.modelled.vkreq_per_s, freeze.size(), percentile(freeze, 0.5),
        percentile(freeze, 1.0), r0.modelled.latency_us.size(),
        percentile(r0.modelled.latency_us, 0.5), percentile(r0.modelled.latency_us, 0.99));
    std::printf("digest {\"digest\": \"%016" PRIx64 "\", \"retired\": %" PRIu64
                ", \"replies\": %" PRIu64 ", \"obs_events\": %" PRIu64 "}\n",
                r0.digest, r0.retired, r0.replies, r0.layer.events);
  }

  if (trace && !traced.empty() && !plain.empty()) {
    std::vector<std::map<std::string, std::pair<double, uint64_t>>> selfs;
    for (const RepResult* r : traced) {
      selfs.push_back(self_times(r->span_from, r->span_to));
      for (auto& [name, slot] : selfs.back()) slot.first *= r->scale;
    }
    auto span_ms = [&](const char* name) {
      std::vector<double> v;
      for (const auto& s : selfs) {
        auto it = s.find(name);
        v.push_back(it == s.end() ? 0.0 : it->second.first);
      }
      return median(v);
    };
    auto count = [&](auto f) {
      return median_of(traced, [&](const RepResult& r) { return static_cast<double>(f(r.layer)); });
    };
    std::vector<double> preflight_per_call;
    for (const auto& s : selfs) {
      auto it = s.find("core.preflight");
      if (it != s.end()) preflight_per_call.push_back(it->second.first / it->second.second);
    }
    // Traced reps add one preflight call per disable; that work is measured,
    // not overhead, so its span time is taken out of the traced wall time.
    std::vector<double> traced_wall;
    for (size_t i = 0; i < traced.size(); ++i) {
      auto it = selfs[i].find("core.preflight");
      traced_wall.push_back(traced[i]->wall_s * traced[i]->scale -
                            (it == selfs[i].end() ? 0.0 : it->second.first / 1e3));
    }
    const double plain_wall =
        median_of(plain, [](const RepResult& r) { return r.wall_s * r.scale; });
    const double overhead = ratio(median(traced_wall) - plain_wall, plain_wall);
    metrics = {
        {"os.run.ms", span_ms("os.run"), "ms"},
        {"os.hostconn.ms", span_ms("os.hostconn"), "ms"},
        {"os.retired", count([](const Counters& c) { return c.retired; }), "count"},
        {"os.steals", count([](const Counters& c) { return c.steals; }), "count"},
        {"os.sigtraps", count([](const Counters& c) { return c.sigtraps; }), "count"},
        {"vm.dcache.hit_ratio",
         median_of(traced, [](const RepResult& r) {
           return ratio(static_cast<double>(r.layer.dc_hits),
                        static_cast<double>(r.layer.dc_hits + r.layer.dc_misses));
         }),
         "ratio"},
        {"vm.dcache.invalidations", count([](const Counters& c) { return c.dc_invalidations; }),
         "count"},
        {"vm.sb.instr_share",
         median_of(traced, [](const RepResult& r) {
           return ratio(static_cast<double>(r.layer.sb_instrs),
                        static_cast<double>(r.layer.retired));
         }),
         "ratio"},
        {"vm.sb.builds", count([](const Counters& c) { return c.sb_builds; }), "count"},
        {"vm.sb.retires", count([](const Counters& c) { return c.sb_retires; }), "count"},
        {"vm.sb.deopts", count([](const Counters& c) { return c.sb_deopts; }), "count"},
        {"core.disable.ms", span_ms("core.disable"), "ms"},
        {"core.restore.ms", span_ms("core.restore"), "ms"},
        {"core.preflight.ms", span_ms("core.preflight"), "ms"},
        {"core.preflight_share", ratio(median(preflight_per_call), disable_p50), "ratio"},
        {"image.pages_dumped", count([](const Counters& c) { return c.pages_dumped; }), "count"},
        {"image.pages_shared", count([](const Counters& c) { return c.pages_shared; }), "count"},
        {"image.pages_restored", count([](const Counters& c) { return c.pages_restored; }),
         "count"},
        {"image.dedup_ratio",
         median_of(traced, [](const RepResult& r) {
           return ratio(static_cast<double>(r.dedup_hits), static_cast<double>(r.dedup_lookups));
         }),
         "ratio"},
        {"rewriter.blocks_patched", count([](const Counters& c) { return c.blocks_patched; }),
         "count"},
        {"rewriter.bytes_patched", count([](const Counters& c) { return c.bytes_patched; }),
         "count"},
        {"trace.profile.ms", span_ms("trace.profile"), "ms"},
        {"analysis.diff.ms", span_ms("analysis.diff"), "ms"},
        {"analysis.slice.ms", span_ms("analysis.slice"), "ms"},
        {"analysis.cutcheck.ms", span_ms("analysis.cutcheck"), "ms"},
        {"analysis.cfg_blocks", static_cast<double>(cfg_blocks), "count"},
        {"obs.events", count([](const Counters& c) { return c.events; }), "count"},
        {"bench.trace_overhead", overhead, "ratio"},
    };
    std::printf("per-layer (traced reps, per rep; *.ms are span self times):\n");
    for (const auto& m : metrics) {
      std::printf("  %-24s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("spans per traced rep: %zu\n",
                traced.front()->span_to - traced.front()->span_from);
    if (!spans_path.empty()) write_spans(spans_path, workload, seed);
  }

  std::printf("failed_frac %.6f (%" PRIu64 " of %" PRIu64 " checks)\n",
              ratio(static_cast<double>(g_check.failed), static_cast<double>(g_check.attempted)),
              g_check.failed, g_check.attempted);
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": %s}\n",
              g_check.failed == 0 ? "true" : "false", g_check.attempted, g_check.failed,
              metrics_json(metrics).c_str());
  return g_check.failed == 0 ? 0 : 1;
}
