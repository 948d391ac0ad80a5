#include "os/os.hpp"

#include <algorithm>
#include <cassert>

#include "common/error.hpp"
#include "common/hex.hpp"
#include "common/log.hpp"
#include "obs/bus.hpp"
#include "vm/exec.hpp"

namespace dynacut::os {

namespace {
constexpr uint64_t kNoDeadline = ~0ull;
}  // namespace

void Os::set_event_bus(obs::EventBus* bus) {
  bus_ = bus;
  if (bus_ != nullptr && !bus_->has_clock()) {
    bus_->set_clock([this] { return now(); });
  }
}

// ---------------------------------------------------------------------------
// Process lifecycle
// ---------------------------------------------------------------------------

int Os::spawn(std::shared_ptr<const melf::Binary> app,
              std::vector<std::shared_ptr<const melf::Binary>> libs,
              const std::string& name) {
  if (app->entry == melf::Binary::kNoEntry) {
    throw GuestError("cannot spawn module without entry point: " + app->name);
  }
  auto p = std::make_unique<Process>();
  p->pid = next_pid_++;
  p->name = name.empty() ? app->name : name;
  p->core = assign_core();

  uint64_t lib_base = kLibcBase;
  for (auto& lib : libs) {
    load_module(*p, lib, lib_base);
    lib_base = page_ceil(lib_base + lib->image_size()) + kPageSize;
  }
  load_module(*p, app, kAppBase);

  p->mem.map(kStackTop - kStackSize, kStackSize, kProtRead | kProtWrite,
             "[stack]");
  p->cpu.sp() = kStackTop - 64;
  p->cpu.ip = kAppBase + app->entry;
  p->fds[1] = FileDesc{FileDesc::Kind::kConsole, nullptr};

  int pid = p->pid;
  procs_[pid] = std::move(p);
  log_debug("spawned pid " + std::to_string(pid) + " (" + app->name + ")");
  return pid;
}

Process* Os::process(int pid) {
  auto it = procs_.find(pid);
  return it == procs_.end() ? nullptr : it->second.get();
}

const Process* Os::process(int pid) const {
  auto it = procs_.find(pid);
  return it == procs_.end() ? nullptr : it->second.get();
}

std::vector<int> Os::pids() const {
  std::vector<int> out;
  for (const auto& [pid, p] : procs_) out.push_back(pid);
  return out;
}

std::vector<int> Os::process_group(int root) const {
  std::vector<int> out;
  if (procs_.count(root) == 0) return out;
  out.push_back(root);
  // Processes are pid-ordered and children have larger pids than parents,
  // so one forward pass collects the whole tree.
  for (const auto& [pid, p] : procs_) {
    if (pid == root || p->state == Process::State::kExited) continue;
    if (std::find(out.begin(), out.end(), p->ppid) != out.end()) {
      out.push_back(pid);
    }
  }
  return out;
}

void Os::kill(int pid) {
  if (Process* p = process(pid)) {
    p->state = Process::State::kExited;
    p->term_signal = 9;
  }
}

void Os::freeze(int pid) {
  Process* p = process(pid);
  if (p == nullptr || p->state == Process::State::kExited) {
    throw StateError("freeze: no live process " + std::to_string(pid));
  }
  if (p->state == Process::State::kFrozen) {
    throw StateError("freeze: already frozen " + std::to_string(pid));
  }
  // block_kind is preserved so thaw() can return a blocked process to
  // kBlocked and let it re-check its wait condition.
  p->state = Process::State::kFrozen;
}

void Os::thaw(int pid) {
  Process* p = process(pid);
  if (p == nullptr || p->state != Process::State::kFrozen) {
    throw StateError("thaw: process not frozen " + std::to_string(pid));
  }
  p->state = p->block_kind == Process::BlockKind::kNone
                 ? Process::State::kRunnable
                 : Process::State::kBlocked;
}

vm::MemEpoch Os::mem_epoch(int pid) {
  Process* p = process(pid);
  if (p == nullptr || p->state == Process::State::kExited) {
    throw StateError("mem_epoch: no live process " + std::to_string(pid));
  }
  return p->mem.snapshot_epoch();
}

std::optional<std::vector<uint64_t>> Os::dirty_pages_since(
    int pid, const vm::MemEpoch& since) const {
  const Process* p = process(pid);
  if (p == nullptr || p->state == Process::State::kExited) {
    throw StateError("dirty_pages_since: no live process " +
                     std::to_string(pid));
  }
  return p->mem.dirty_pages_since(since);
}

void Os::freeze_group(const std::vector<int>& pids) {
  size_t frozen = 0;
  try {
    for (; frozen < pids.size(); ++frozen) freeze(pids[frozen]);
  } catch (...) {
    for (size_t i = 0; i < frozen; ++i) thaw(pids[i]);
    throw;
  }
}

void Os::thaw_group(const std::vector<int>& pids) {
  for (int pid : pids) {
    Process* p = process(pid);
    if (p != nullptr && p->state == Process::State::kFrozen) thaw(pid);
  }
}

bool Os::all_exited() const {
  for (const auto& [pid, p] : procs_) {
    if (p->state != Process::State::kExited) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Virtual cores
// ---------------------------------------------------------------------------

void Os::set_cores(size_t n) {
  if (n == 0) throw StateError("set_cores: need at least one core");
  const uint64_t t = now();
  cores_.assign(n, Core{});
  for (auto& c : cores_) c.clock = t;
  // Re-shard live processes round-robin in pid order — deterministic and
  // independent of their previous placement.
  assign_next_ = 0;
  for (auto& [pid, p] : procs_) {
    p->queued = false;  // the old queues are gone
    if (p->state == Process::State::kExited) continue;
    p->core = assign_core();
  }
}

size_t Os::assign_core() { return assign_next_++ % cores_.size(); }

Os::CoreStats Os::core_stats(size_t core) const {
  if (core >= cores_.size()) {
    throw StateError("core_stats: no core " + std::to_string(core));
  }
  const Core& c = cores_[core];
  return CoreStats{c.clock, c.retired, c.steals};
}

int Os::core_of(int pid) const {
  const Process* p = process(pid);
  return p == nullptr ? -1 : static_cast<int>(p->core);
}

void Os::pin(int pid, size_t core) {
  if (core >= cores_.size()) {
    throw StateError("pin: no core " + std::to_string(core));
  }
  Process* p = process(pid);
  if (p == nullptr) throw StateError("pin: no process " + std::to_string(pid));
  if (p->queued && p->core != core) {
    auto& dq = cores_[p->core].ready;
    dq.erase(std::remove(dq.begin(), dq.end(), pid), dq.end());
    p->queued = false;
  }
  p->core = core;
}

uint64_t Os::total_retired() const {
  uint64_t sum = 0;
  for (const auto& c : cores_) sum += c.retired;
  return sum;
}

uint64_t Os::total_sigtraps() const {
  uint64_t sum = 0;
  for (const auto& [pid, p] : procs_) sum += p->sigtraps;
  return sum;
}

uint64_t Os::now() const {
  if (running_core_ >= 0) return cores_[static_cast<size_t>(running_core_)].clock;
  uint64_t mx = 0;
  for (const auto& c : cores_) mx = std::max(mx, c.clock);
  return mx;
}

uint64_t Os::min_core_clock() const {
  uint64_t mn = ~0ull;
  for (const auto& c : cores_) mn = std::min(mn, c.clock);
  return mn;
}

void Os::advance_clock(uint64_t ticks) {
  for (auto& c : cores_) c.clock += ticks;
}

void Os::charge_downtime(const std::vector<int>& pids, uint64_t ticks) {
  if (cores_.size() == 1) {
    // The lone core is the one doing the rewrite: the whole machine stalls.
    // This is the historical single-core fig8 semantics.
    cores_[0].clock += ticks;
    return;
  }
  const uint64_t until = now() + ticks;
  for (int pid : pids) {
    if (Process* p = process(pid)) {
      p->not_before = std::max(p->not_before, until);
    }
  }
}

// ---------------------------------------------------------------------------
// Host networking
// ---------------------------------------------------------------------------

bool Os::has_listener(uint16_t port) const {
  const auto& shard = listeners_[port % kNetShards];
  auto it = shard.find(port);
  return it != shard.end() && !it->second.expired();
}

HostConn Os::connect(uint16_t port) {
  auto& shard = listeners_[port % kNetShards];
  auto it = shard.find(port);
  std::shared_ptr<Socket> listener =
      it == shard.end() ? nullptr : it->second.lock();
  if (listener == nullptr || listener->kind != Socket::Kind::kListen) {
    throw StateError("connect: no listener on port " + std::to_string(port));
  }
  auto conn = std::make_shared<Conn>();
  listener->backlog.push_back(SockEnd{conn, /*side_a=*/false});
  return HostConn(SockEnd{conn, /*side_a=*/true});
}

void Os::register_listener(const std::shared_ptr<Socket>& sock) {
  if (sock == nullptr || sock->kind != Socket::Kind::kListen) {
    throw StateError("register_listener: not a listening socket");
  }
  listeners_[sock->port % kNetShards][sock->port] = sock;
}

int Os::adopt(std::unique_ptr<Process> p) {
  p->pid = next_pid_++;
  p->core = assign_core();
  p->queued = false;
  int pid = p->pid;
  procs_[pid] = std::move(p);
  return pid;
}

uint64_t Os::resident_pages_bytes(std::set<const void*>* seen) const {
  std::set<const void*> local;
  std::set<const void*>& s = seen != nullptr ? *seen : local;
  uint64_t total = 0;
  for (const auto& [pid, p] : procs_) total += p->mem.resident_bytes(&s);
  return total;
}

// ---------------------------------------------------------------------------
// Scheduler
//
// N virtual cores, each with a rotating ready deque and its own clock.
// Execution proceeds in bounded-skew rounds:
//
//   1. scan: unblock waiters whose condition cleared, enqueue every
//      eligible runnable pid on its core (a pid is in at most one deque;
//      entries are removed only by popping, so Process::queued is exact).
//   2. steal: a core with an empty deque takes one pid from the back of
//      the most-loaded deque (>= 2 entries); victim ties are broken by the
//      seeded RNG — the only non-structural scheduling decision.
//   3. frontier: the minimum clock among cores with work. Cores with no
//      work fast-forward to it (idle time passes for them too).
//   4. execute: each core pops and runs quanta until its clock passes
//      frontier + kSkewWindow, rotating finished processes to the back.
//
// The skew window keeps per-core clocks comparable (cross-core latency
// differences are bounded by kSkewWindow + one quantum), which is what
// makes "the furthest clock" a meaningful machine-wide time. With one core
// this specializes to strict round-robin with a persistent rotation point.
// ---------------------------------------------------------------------------

bool Os::try_unblock(Process& p) {
  switch (p.block_kind) {
    case Process::BlockKind::kNone:
      return true;
    case Process::BlockKind::kRecv: {
      auto it = p.fds.find(p.block_fd);
      if (it == p.fds.end() || it->second.sock == nullptr) return true;
      Socket& s = *it->second.sock;
      if (s.kind != Socket::Kind::kStream) return true;
      if (!s.end.rx().empty() || !s.end.peer_open()) {
        p.block_kind = Process::BlockKind::kNone;
        return true;
      }
      return false;
    }
    case Process::BlockKind::kAccept: {
      auto it = p.fds.find(p.block_fd);
      if (it == p.fds.end() || it->second.sock == nullptr) return true;
      Socket& s = *it->second.sock;
      if (!s.backlog.empty()) {
        p.block_kind = Process::BlockKind::kNone;
        return true;
      }
      return false;
    }
    case Process::BlockKind::kSleep:
      if (cores_[p.core].clock >= p.wake_at) {
        p.block_kind = Process::BlockKind::kNone;
        return true;
      }
      return false;
  }
  return true;
}

void Os::steal_work() {
  if (cores_.size() < 2) return;
  for (size_t thief = 0; thief < cores_.size(); ++thief) {
    if (!cores_[thief].ready.empty()) continue;
    // Victim: the most-loaded core with at least two queued pids; ties
    // broken by reservoir sampling on the seeded RNG so the choice is
    // deterministic per seed but not structurally biased to low cores.
    size_t victim = thief;
    size_t victim_size = 1;
    uint64_t ties = 0;
    for (size_t vi = 0; vi < cores_.size(); ++vi) {
      if (vi == thief) continue;
      size_t sz = cores_[vi].ready.size();
      if (sz < 2) continue;
      if (sz > victim_size) {
        victim = vi;
        victim_size = sz;
        ties = 1;
      } else if (sz == victim_size) {
        ++ties;
        if (rng_.below(ties) == 0) victim = vi;
      }
    }
    if (victim == thief) continue;
    int pid = cores_[victim].ready.back();
    cores_[victim].ready.pop_back();
    cores_[thief].ready.push_back(pid);
    cores_[thief].steals++;
    if (Process* p = process(pid)) p->core = thief;
    if (bus_ != nullptr) {
      bus_->emit(obs::Event(obs::ev::kSchedSteal, pid)
                     .with("from", static_cast<uint64_t>(victim))
                     .with("to", static_cast<uint64_t>(thief)));
    }
  }
}

uint64_t Os::run(uint64_t max_instr) {
  return run_bounded(max_instr, kNoDeadline);
}

uint64_t Os::run_bounded(uint64_t max_instr, uint64_t tick_deadline) {
  uint64_t retired = 0;
  while (retired < max_instr) {
    // --- 1. scan: unblock + enqueue --------------------------------------
    uint64_t earliest_wake = kNoDeadline;
    for (auto& [pid, p] : procs_) {
      if (p->state == Process::State::kBlocked) {
        if (try_unblock(*p)) {
          p->state = Process::State::kRunnable;
        } else if (p->block_kind == Process::BlockKind::kSleep) {
          earliest_wake = std::min(earliest_wake, p->wake_at);
        }
      }
      if (p->state != Process::State::kRunnable) continue;
      Core& c = cores_[p->core];
      if (c.clock < p->not_before) {
        // Downtime-charged: acts like a sleeper until its core clock
        // catches up with the charge.
        earliest_wake = std::min(earliest_wake, p->not_before);
      } else if (!p->queued) {
        c.ready.push_back(pid);
        p->queued = true;
      }
    }

    // --- 2. steal ---------------------------------------------------------
    steal_work();

    // --- 3. frontier ------------------------------------------------------
    uint64_t frontier = kNoDeadline;
    for (const auto& c : cores_) {
      if (!c.ready.empty() && c.clock < tick_deadline) {
        frontier = std::min(frontier, c.clock);
      }
    }

    if (frontier == kNoDeadline) {
      // No core has schedulable work under the deadline.
      bool work_past_deadline = false;
      for (const auto& c : cores_) work_past_deadline |= !c.ready.empty();
      if (work_past_deadline) break;  // run_ticks: deadline reached
      if (earliest_wake == kNoDeadline) break;  // deadlock / external input
      // Fully idle: jump to the next timer, clamped to the deadline so a
      // distant sleeper cannot drag run_ticks past its window.
      const uint64_t target = std::min(earliest_wake, tick_deadline);
      for (auto& c : cores_) c.clock = std::max(c.clock, target);
      if (target == earliest_wake) continue;  // the sleeper is now due
      break;                                  // deadline reached first
    }

    // Idle cores experience the passage of time too: pull them up to the
    // frontier so stolen or newly woken work starts at a coherent clock.
    for (auto& c : cores_) {
      if (c.ready.empty() && c.clock < frontier) c.clock = frontier;
    }

    // --- 4. execute one bounded-skew window per core -----------------------
    const uint64_t window_end = frontier > kNoDeadline - kSkewWindow
                                    ? kNoDeadline
                                    : frontier + kSkewWindow;
    for (size_t ci = 0; ci < cores_.size() && retired < max_instr; ++ci) {
      Core& c = cores_[ci];
      running_core_ = static_cast<int>(ci);
      while (!c.ready.empty() && c.clock < window_end &&
             c.clock < tick_deadline && retired < max_instr) {
        int pid = c.ready.front();
        c.ready.pop_front();
        auto it = procs_.find(pid);
        if (it == procs_.end()) continue;
        Process& p = *it->second;
        if (!p.queued || p.core != ci) continue;  // stale entry
        p.queued = false;
        if (p.state != Process::State::kRunnable) continue;
        if (c.clock < p.not_before) continue;  // re-enqueued once eligible
        run_quantum(p, max_instr - retired, retired, tick_deadline);
        if (p.state == Process::State::kRunnable) {
          c.ready.push_back(pid);  // rotate to the back
          p.queued = true;
        }
      }
      running_core_ = -1;
    }
  }
  return retired;
}

void Os::run_ticks(uint64_t ticks) {
  const uint64_t deadline = now() + ticks;
  while (min_core_clock() < deadline) {
    const uint64_t before = min_core_clock();
    const uint64_t retired = run_bounded(~0ull, deadline);
    if (retired == 0 && min_core_clock() == before) break;
  }
  // Cores that went idle before the deadline simply experience it passing.
  for (auto& c : cores_) c.clock = std::max(c.clock, deadline);
  // The deadline is enforced per operation inside run_quantum: a core stops
  // issuing once its clock reaches it, so pure compute lands exactly on the
  // deadline and the only possible overshoot is the cost of one syscall
  // that *started* before it.
  assert(min_core_clock() >= deadline);
}

void Os::run_quantum(Process& p, uint64_t budget, uint64_t& retired,
                     uint64_t tick_deadline) {
  Core& c = cores_[p.core];
  uint64_t quota = std::min<uint64_t>(kQuantum, budget);
  yielded_ = false;
  uint64_t done = 0;
  while (done < quota) {
    if (p.state != Process::State::kRunnable) break;
    if (c.clock >= tick_deadline) break;
    if (p.at_block_start && sink_ != nullptr) {
      sink_->on_block(p, p.cpu.ip);
    }
    p.at_block_start = false;

    // Execute through the decode cache — and, on hot paths, the superblock
    // cache, where one call can retire a multi-block fused trace. `n`
    // counts every attempted instruction — including one that trapped or
    // faulted — matching the per-step accounting this loop used to do:
    // both engines charge per attempt, so instructions_retired is
    // identical with superblocks on or off. Superblocks are bypassed while
    // a sink is attached (coverage needs an event per basic block).
    vm::SuperblockCache* sbc =
        (superblocks_ && sink_ == nullptr) ? &p.sbcache : nullptr;
    // Each instruction costs >= 1 tick, so clamping the attempt budget to
    // the remaining ticks makes compute land exactly on a run_ticks
    // deadline instead of overshooting by the rest of the quantum.
    uint64_t chunk = quota - done;
    if (tick_deadline != kNoDeadline) {
      chunk = std::min(chunk, tick_deadline - c.clock);
    }
    uint64_t n = 0;
    vm::StepResult r =
        vm::run_block(p.mem, p.cpu, &p.dcache, sbc, chunk, n);
    done += n;
    retired += n;
    c.clock += n;
    c.retired += n;
    p.instructions_retired += n;
    if (p.sbcache.events_pending()) drain_sb_events(p);
    if (n == 0) break;  // defensive: run_block always attempts >= 1

    switch (r.kind) {
      case vm::StepKind::kOk:
        if (r.block_end) p.at_block_start = true;
        break;
      case vm::StepKind::kSyscall:
        do_syscall(p);
        p.at_block_start = true;
        break;
      case vm::StepKind::kTrap:
        deliver_signal(p, sig::kSigTrap, r.fault_addr);
        break;
      case vm::StepKind::kFault: {
        int signo = r.fault == vm::FaultType::kSegv  ? sig::kSigSegv
                    : r.fault == vm::FaultType::kIll ? sig::kSigIll
                                                     : sig::kSigFpe;
        deliver_signal(p, signo, r.fault_addr);
        break;
      }
    }
    if (yielded_) break;
  }
}

void Os::drain_sb_events(Process& p) {
  // The vm layer queues superblock lifecycle records (it must not depend on
  // obs); the kernel drains them onto the bus after each run_block call.
  auto events = p.sbcache.take_events();
  if (bus_ == nullptr) return;
  for (const auto& e : events) {
    switch (e.kind) {
      case vm::SuperblockCache::SbEvent::kBuild:
        bus_->emit(obs::Event(obs::ev::kSbBuild, p.pid)
                       .with("entry", e.entry)
                       .with("instrs", e.detail));
        break;
      case vm::SuperblockCache::SbEvent::kRetire:
        bus_->emit(obs::Event(obs::ev::kSbRetire, p.pid)
                       .with("entry", e.entry)
                       .with("instrs", e.detail));
        break;
      case vm::SuperblockCache::SbEvent::kDeopt:
        bus_->emit(obs::Event(obs::ev::kSbDeopt, p.pid)
                       .with("entry", e.entry)
                       .with("resume_ip", e.detail));
        break;
    }
  }
}

// ---------------------------------------------------------------------------
// Signals
// ---------------------------------------------------------------------------

void Os::deliver_signal(Process& p, int signo, uint64_t fault_addr) {
  const SigAction& act = p.sigactions[signo];
  if (signo == sig::kSigTrap) ++p.sigtraps;
  if (signo == sig::kSigTrap && bus_ != nullptr) {
    // The DynaCut annotator (if installed) enriches this raw event with the
    // owning feature and its trap policy; here the kernel-side view only
    // knows the address and what the dispatch will do.
    bus_->emit(obs::Event(obs::ev::kTrapHit, p.pid)
                   .with("addr", fault_addr)
                   .with("ip", p.cpu.ip)
                   .with("core", static_cast<uint64_t>(p.core))
                   .with("action", act.handler == 0 ? std::string("kill")
                                                    : std::string("handler")));
  }
  if (act.handler == 0) {
    p.state = Process::State::kExited;
    p.term_signal = signo;
    log_debug("pid " + std::to_string(p.pid) + " killed by signal " +
              std::to_string(signo) + " at " + hex_addr(p.cpu.ip));
    return;
  }

  const uint64_t frame = (p.cpu.sp() - sig::frame::kSize) & ~7ull;
  try {
    p.mem.poke(frame + sig::frame::kSavedIp, &p.cpu.ip, 8);
    uint64_t flags = p.cpu.pack_flags();
    p.mem.poke(frame + sig::frame::kFlags, &flags, 8);
    p.mem.poke(frame + sig::frame::kRegs, p.cpu.regs.data(), 16 * 8);
    uint64_t s = static_cast<uint64_t>(signo);
    p.mem.poke(frame + sig::frame::kSigNo, &s, 8);
    p.mem.poke(frame + sig::frame::kFaultAddr, &fault_addr, 8);
    // Return address for the handler's `ret`: the registered restorer stub.
    uint64_t ra_slot = frame - 8;
    p.mem.poke(ra_slot, &act.restorer, 8);
    p.cpu.sp() = ra_slot;
  } catch (const StateError&) {
    // Unwritable stack: no way to deliver; kill (kernel does the same).
    p.state = Process::State::kExited;
    p.term_signal = signo;
    return;
  }

  p.signal_frames.push_back(frame);
  p.cpu.regs[1] = frame;
  p.cpu.regs[2] = static_cast<uint64_t>(signo);
  p.cpu.regs[3] = fault_addr;
  p.cpu.ip = act.handler;
  p.at_block_start = true;
}

void Os::do_sigreturn(Process& p) {
  if (p.signal_frames.empty()) {
    p.state = Process::State::kExited;
    p.term_signal = sig::kSigSegv;
    return;
  }
  uint64_t frame = p.signal_frames.back();
  p.signal_frames.pop_back();
  try {
    // Read the (possibly handler-modified) frame back — this is where a
    // redirected saved_ip takes effect.
    uint64_t ip, flags;
    p.mem.peek(frame + sig::frame::kSavedIp, &ip, 8);
    p.mem.peek(frame + sig::frame::kFlags, &flags, 8);
    p.mem.peek(frame + sig::frame::kRegs, p.cpu.regs.data(), 16 * 8);
    p.cpu.ip = ip;
    p.cpu.unpack_flags(flags);
  } catch (const StateError&) {
    p.state = Process::State::kExited;
    p.term_signal = sig::kSigSegv;
    return;
  }
  p.at_block_start = true;
}

// ---------------------------------------------------------------------------
// Syscalls
// ---------------------------------------------------------------------------

void Os::block_on_fd(Process& p, Process::BlockKind kind, int fd) {
  // Rewind onto the SYSCALL instruction (1 byte) so it re-executes when the
  // condition clears; r0 still holds the syscall number.
  p.cpu.ip -= 1;
  p.state = Process::State::kBlocked;
  p.block_kind = kind;
  p.block_fd = fd;
}

uint64_t Os::do_fork(Process& parent) {
  auto child = std::make_unique<Process>();
  child->pid = next_pid_++;
  child->ppid = parent.pid;
  child->name = parent.name;
  child->mem = parent.mem;  // deep copy: VMAs + populated pages
  child->cpu = parent.cpu;
  child->fds = parent.fds;  // shares Socket objects (dup semantics)
  child->next_fd = parent.next_fd;
  child->sigactions = parent.sigactions;
  child->signal_frames = parent.signal_frames;
  child->modules = parent.modules;
  child->core = assign_core();
  child->cpu.regs[0] = 0;  // child's fork() return value
  child->at_block_start = true;
  int pid = child->pid;
  procs_[pid] = std::move(child);
  cores_[parent.core].clock += costs_.fork_extra;
  return static_cast<uint64_t>(pid);
}

void Os::do_syscall(Process& p) {
  auto& r = p.cpu.regs;
  const uint64_t num = r[0];
  if (syscall_hook_) syscall_hook_(p, num);
  const uint64_t a1 = r[1], a2 = r[2], a3 = r[3];
  Core& core = cores_[p.core];
  core.clock += costs_.base;

  auto ret = [&](uint64_t v) { r[0] = v; };
  // A rare oversized transfer must not pin its staging buffer for good.
  if (io_buf_.capacity() > kIoBufKeep) io_buf_ = {};

  switch (num) {
    case sys::kExit:
      p.state = Process::State::kExited;
      p.exit_code = static_cast<int>(a1);
      return;

    case sys::kWrite:
    case sys::kSend: {
      auto it = p.fds.find(static_cast<int>(a1));
      if (it == p.fds.end()) return ret(sys::kErr);
      // A length past kIoBufKeep sizes the staging buffer only once its
      // range is known readable, so a huge one fails like any bad range;
      // shorter ones are bounded, and the read below checks them.
      if (a3 > kIoBufKeep && !p.mem.check_range(a2, a3, kProtRead).ok) {
        return ret(sys::kErr);
      }
      std::vector<uint8_t>& buf = io_buf_;
      buf.resize(a3);
      if (!p.mem.read(a2, buf.data(), a3, kProtRead).ok) {
        return ret(sys::kErr);
      }
      core.clock += a3 / costs_.per_io_byte_div;
      if (it->second.kind == FileDesc::Kind::kConsole) {
        p.stdout_buf.append(buf.begin(), buf.end());
        return ret(a3);
      }
      Socket& s = *it->second.sock;
      if (s.kind != Socket::Kind::kStream || !s.end.peer_open()) {
        return ret(sys::kErr);
      }
      auto& q = s.end.tx();
      q.insert(q.end(), buf.begin(), buf.end());
      return ret(a3);
    }

    case sys::kRead:
    case sys::kRecv: {
      auto it = p.fds.find(static_cast<int>(a1));
      if (it == p.fds.end()) return ret(sys::kErr);
      if (it->second.kind == FileDesc::Kind::kConsole) return ret(0);
      Socket& s = *it->second.sock;
      if (s.kind != Socket::Kind::kStream) return ret(sys::kErr);
      auto& q = s.end.rx();
      if (q.empty()) {
        if (!s.end.peer_open()) return ret(0);  // EOF
        return block_on_fd(p, Process::BlockKind::kRecv,
                           static_cast<int>(a1));
      }
      uint64_t n = std::min<uint64_t>(a3, q.size());
      io_buf_.assign(q.begin(), q.begin() + static_cast<long>(n));
      if (!p.mem.write(a2, io_buf_.data(), n, kProtWrite).ok) {
        return ret(sys::kErr);
      }
      q.erase(q.begin(), q.begin() + static_cast<long>(n));
      core.clock += n / costs_.per_io_byte_div;
      return ret(n);
    }

    case sys::kSocket: {
      int fd = p.next_fd++;
      auto sock = std::make_shared<Socket>();
      p.fds[fd] = FileDesc{FileDesc::Kind::kSocket, sock};
      return ret(static_cast<uint64_t>(fd));
    }

    case sys::kBind: {
      auto it = p.fds.find(static_cast<int>(a1));
      if (it == p.fds.end() || it->second.sock == nullptr) {
        return ret(sys::kErr);
      }
      it->second.sock->port = static_cast<uint16_t>(a2);
      return ret(0);
    }

    case sys::kListen: {
      auto it = p.fds.find(static_cast<int>(a1));
      if (it == p.fds.end() || it->second.sock == nullptr) {
        return ret(sys::kErr);
      }
      auto& sock = it->second.sock;
      sock->kind = Socket::Kind::kListen;
      listeners_[sock->port % kNetShards][sock->port] = sock;
      return ret(0);
    }

    case sys::kAccept: {
      auto it = p.fds.find(static_cast<int>(a1));
      if (it == p.fds.end() || it->second.sock == nullptr ||
          it->second.sock->kind != Socket::Kind::kListen) {
        return ret(sys::kErr);
      }
      Socket& listener = *it->second.sock;
      if (listener.backlog.empty()) {
        return block_on_fd(p, Process::BlockKind::kAccept,
                           static_cast<int>(a1));
      }
      auto conn_sock = std::make_shared<Socket>();
      conn_sock->kind = Socket::Kind::kStream;
      conn_sock->end = listener.backlog.front();
      listener.backlog.pop_front();
      int fd = p.next_fd++;
      p.fds[fd] = FileDesc{FileDesc::Kind::kSocket, conn_sock};
      core.clock += costs_.accept_extra;
      return ret(static_cast<uint64_t>(fd));
    }

    case sys::kConnect: {
      auto it = p.fds.find(static_cast<int>(a1));
      if (it == p.fds.end() || it->second.sock == nullptr) {
        return ret(sys::kErr);
      }
      auto& shard = listeners_[static_cast<uint16_t>(a2) % kNetShards];
      auto lit = shard.find(static_cast<uint16_t>(a2));
      std::shared_ptr<Socket> listener =
          lit == shard.end() ? nullptr : lit->second.lock();
      if (listener == nullptr) return ret(sys::kErr);
      auto conn = std::make_shared<Conn>();
      listener->backlog.push_back(SockEnd{conn, /*side_a=*/false});
      it->second.sock->kind = Socket::Kind::kStream;
      it->second.sock->end = SockEnd{conn, /*side_a=*/true};
      return ret(0);
    }

    case sys::kClose: {
      auto it = p.fds.find(static_cast<int>(a1));
      if (it == p.fds.end()) return ret(sys::kErr);
      if (it->second.sock && it->second.sock->kind == Socket::Kind::kStream) {
        it->second.sock->end.close();
      }
      p.fds.erase(it);
      return ret(0);
    }

    case sys::kFork:
      return ret(do_fork(p));

    case sys::kSigaction: {
      if (a1 >= sig::kNumSignals) return ret(sys::kErr);
      p.sigactions[a1] = SigAction{a2, a3};
      return ret(0);
    }

    case sys::kSigreturn:
      do_sigreturn(p);
      return;

    case sys::kNanosleep:
      p.state = Process::State::kBlocked;
      p.block_kind = Process::BlockKind::kSleep;
      p.wake_at = core.clock + a1;
      return ret(0);

    case sys::kMmap: {
      uint64_t hint = a1 == 0 ? kHeapBase : a1;
      uint64_t size = page_ceil(a2);
      if (size == 0) return ret(sys::kErr);
      uint64_t addr = p.mem.find_free(size, hint);
      p.mem.map(addr, size, static_cast<uint32_t>(a3), "[anon]");
      return ret(addr);
    }

    case sys::kMunmap:
      try {
        p.mem.unmap(page_floor(a1), page_ceil(a2));
        return ret(0);
      } catch (const StateError&) {
        return ret(sys::kErr);
      }

    case sys::kMprotect:
      try {
        p.mem.protect(page_floor(a1), page_ceil(a2),
                      static_cast<uint32_t>(a3));
        return ret(0);
      } catch (const StateError&) {
        return ret(sys::kErr);
      }

    case sys::kGetpid:
      return ret(static_cast<uint64_t>(p.pid));

    case sys::kNudge:
      nudges_.emplace_back(p.pid, a1);
      if (nudge_hook_) nudge_hook_(p, a1);
      return ret(0);

    case sys::kYield:
      yielded_ = true;
      return ret(0);

    case sys::kClock:
      return ret(core.clock);

    default:
      // Unknown syscall: SIGSYS-like default — kill the process.
      p.state = Process::State::kExited;
      p.term_signal = 31;
      return;
  }
}

}  // namespace dynacut::os
