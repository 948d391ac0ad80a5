#include "vm/addrspace.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "common/hex.hpp"

namespace dynacut::vm {

uint64_t AddressSpace::next_asid() {
  static std::atomic<uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

namespace {
std::atomic<uint64_t> g_share_epoch{1};

/// Whether [addr, addr+n) is non-empty and lies in the page at `page`
/// (overflow-free for any n).
bool one_page(uint64_t addr, uint64_t n, uint64_t page) {
  return n - 1 < kPageSize - (addr - page);
}
}  // namespace

uint64_t share_epoch() {
  return g_share_epoch.load(std::memory_order_relaxed);
}

void bump_share_epoch() {
  g_share_epoch.fetch_add(1, std::memory_order_relaxed);
}

uint64_t AddressSpace::page_generation(uint64_t page_addr) const {
  auto it = page_gens_.find(page_floor(page_addr));
  return it == page_gens_.end() ? 0 : it->second;
}

const uint64_t* AddressSpace::page_generation_slot(uint64_t page_addr) const {
  return &page_gens_[page_floor(page_addr)];
}

void AddressSpace::bump_generations(uint64_t start, uint64_t end) {
  for (uint64_t p = page_floor(start); p < end; p += kPageSize) {
    ++page_gens_[p];
  }
}

void AddressSpace::bump_exec_generations(uint64_t addr, uint64_t n) {
  uint64_t end = addr + n;
  uint64_t cur = addr;
  while (cur < end) {
    const Vma* v = vma_at(cur);
    // vma_at never misses here: callers bump only after a checked write.
    uint64_t vma_end = v == nullptr ? end : v->end;
    if (v != nullptr && (v->prot & kProtExec) != 0) {
      bump_generations(cur, std::min(end, vma_end));
    }
    cur = std::max(cur + 1, std::min(end, vma_end));
  }
}

MemEpoch AddressSpace::snapshot_epoch() {
  // The write fast path stamps a page only when it arms a TLB entry;
  // crossing an epoch boundary must force a fresh stamp.
  invalidate_caches();
  return MemEpoch{asid_, epoch_++};
}

std::optional<std::vector<uint64_t>> AddressSpace::dirty_pages_since(
    const MemEpoch& since) const {
  if (!since.valid() || since.asid != asid_ || since.epoch >= epoch_) {
    return std::nullopt;
  }
  std::vector<uint64_t> out;
  for (const auto& [page, stamp] : page_stamps_) {
    if (stamp > since.epoch) out.push_back(page);
  }
  return out;
}

void AddressSpace::map(uint64_t start, uint64_t size, uint32_t prot,
                       const std::string& name) {
  DYNACUT_ASSERT(start == page_floor(start));
  size = page_ceil(size);
  if (size == 0) throw StateError("map of empty region");
  uint64_t end = start + size;
  // Overlap check against neighbours.
  auto it = vmas_.upper_bound(start);
  if (it != vmas_.begin()) {
    auto prev = std::prev(it);
    if (prev->second.end > start) {
      throw StateError("map overlaps existing VMA " + prev->second.name +
                       " at " + hex_addr(start));
    }
  }
  if (it != vmas_.end() && it->second.start < end) {
    throw StateError("map overlaps existing VMA " + it->second.name + " at " +
                     hex_addr(it->second.start));
  }
  vmas_[start] = Vma{start, end, prot, name};
  bump_generations(start, end);
  invalidate_caches();
}

void AddressSpace::unmap(uint64_t start, uint64_t size) {
  invalidate_caches();
  bump_generations(start, start + page_ceil(size));
  DYNACUT_ASSERT(start == page_floor(start));
  size = page_ceil(size);
  uint64_t end = start + size;
  bool touched = false;

  // Collect affected VMAs, then rewrite them.
  std::vector<Vma> affected;
  for (auto it = vmas_.begin(); it != vmas_.end();) {
    const Vma& v = it->second;
    if (v.end <= start || v.start >= end) {
      ++it;
      continue;
    }
    affected.push_back(v);
    it = vmas_.erase(it);
    touched = true;
  }
  if (!touched) {
    throw StateError("unmap of unmapped range at " + hex_addr(start));
  }
  for (const Vma& v : affected) {
    if (v.start < start) {
      vmas_[v.start] = Vma{v.start, start, v.prot, v.name};
    }
    if (v.end > end) {
      vmas_[end] = Vma{end, v.end, v.prot, v.name};
    }
  }
  // Discard pages in the unmapped range; the discard is a content change
  // the next delta dump must see.
  for (uint64_t p = start; p < end; p += kPageSize) {
    if (pages_.erase(p) != 0) page_stamps_[p] = epoch_;
  }
}

void AddressSpace::protect(uint64_t start, uint64_t size, uint32_t prot) {
  invalidate_caches();
  DYNACUT_ASSERT(start == page_floor(start));
  size = page_ceil(size);
  uint64_t end = start + size;
  bump_generations(start, end);

  std::vector<Vma> affected;
  for (auto it = vmas_.begin(); it != vmas_.end();) {
    const Vma& v = it->second;
    if (v.end <= start || v.start >= end) {
      ++it;
      continue;
    }
    affected.push_back(v);
    it = vmas_.erase(it);
  }
  if (affected.empty()) {
    throw StateError("protect of unmapped range at " + hex_addr(start));
  }
  for (const Vma& v : affected) {
    if (v.start < start) vmas_[v.start] = Vma{v.start, start, v.prot, v.name};
    uint64_t mid_start = std::max(v.start, start);
    uint64_t mid_end = std::min(v.end, end);
    vmas_[mid_start] = Vma{mid_start, mid_end, prot, v.name};
    if (v.end > end) vmas_[end] = Vma{end, v.end, v.prot, v.name};
  }
}

const Vma* AddressSpace::vma_at(uint64_t addr) const {
  if (cached_vma_ != nullptr && cached_vma_->contains(addr)) {
    return cached_vma_;
  }
  auto it = vmas_.upper_bound(addr);
  if (it == vmas_.begin()) return nullptr;
  --it;
  if (!it->second.contains(addr)) return nullptr;
  cached_vma_ = &it->second;
  return cached_vma_;
}

uint64_t AddressSpace::find_free(uint64_t size, uint64_t hint) const {
  size = page_ceil(size);
  uint64_t candidate = page_floor(hint);
  for (const auto& [start, v] : vmas_) {
    if (start >= candidate + size) break;  // gap before this VMA fits
    if (v.end > candidate) candidate = v.end;
  }
  return candidate;
}

AddressSpace::Page& AddressSpace::writable_page(uint64_t page_addr) {
  auto it = pages_.find(page_addr);
  if (it == pages_.end() || it->second.use_count() > 1) {
    // A new page, or copy-on-write: the block is visible through a
    // checkpoint image (or a copied address space) — clone before
    // mutating. A TLB entry for the page points at the old block; drop it.
    if (TlbEntry& e = tlb_entry(page_addr); e.page == page_addr) e = {};
    if (it == pages_.end()) {
      it = pages_.emplace(page_addr, std::make_shared<Page>(kPageSize, 0))
               .first;
    } else {
      it->second = std::make_shared<Page>(*it->second);
    }
  }
  page_stamps_[page_addr] = epoch_;
  return *it->second;
}

const AddressSpace::Page* AddressSpace::find_page(uint64_t page_addr) const {
  auto it = pages_.find(page_addr);
  return it == pages_.end() ? nullptr : it->second.get();
}

Access AddressSpace::check_range(uint64_t addr, uint64_t n,
                                 uint32_t need_prot) const {
  uint64_t cur = addr;
  while (cur - addr < n) {  // distance from addr: no wrap past 2^64
    const Vma* v = vma_at(cur);
    if (v == nullptr || (v->prot & need_prot) != need_prot) {
      return {false, cur};
    }
    cur = v->end;
  }
  return {true, 0};
}

void AddressSpace::tlb_fill(uint64_t page, uint8_t* data,
                            bool writable) const {
  const uint32_t prot = vma_at(page)->prot;
  uint64_t* gen = writable && (prot & kProtExec) != 0 ? &page_gens_[page]
                                                      : nullptr;
  tlb_entry(page) = {page, data, gen, prot, writable};
}

Access AddressSpace::read(uint64_t addr, void* out, uint64_t n,
                          uint32_t need_prot) const {
  // Fast path: the access lies in one page that the TLB holds.
  const uint64_t first = page_floor(addr);
  const TlbEntry& e = tlb_entry(first);
  if (e.page == first && one_page(addr, n, first) &&
      (e.prot & need_prot) == need_prot) {
    std::memcpy(out, e.data + (addr - first), n);
    return {true, 0};
  }

  ++slow_accesses_;
  Access a = check_range(addr, n, need_prot);
  if (!a.ok) return a;
  auto* dst = static_cast<uint8_t*>(out);
  uint64_t cur = addr;
  uint64_t left = n;
  while (left > 0) {
    uint64_t page = page_floor(cur);
    uint64_t off = cur - page;
    uint64_t chunk = std::min<uint64_t>(left, kPageSize - off);
    if (auto it = pages_.find(page); it != pages_.end()) {
      std::memcpy(dst, it->second->data() + off, chunk);
      // One-page access: arm a read-only entry (the block may be shared).
      if (chunk == n) tlb_fill(page, it->second->data(), false);
    } else {
      std::memset(dst, 0, chunk);
    }
    dst += chunk;
    cur += chunk;
    left -= chunk;
  }
  return {true, 0};
}

Access AddressSpace::write(uint64_t addr, const void* src, uint64_t n,
                           uint32_t need_prot) {
  // A block may have been shared behind our back (BlockStore dedup, see
  // share_epoch): no armed entry may store through its raw pointer again
  // before writable_page() has re-checked ownership.
  if (tlb_share_epoch_ != share_epoch()) {
    for (TlbEntry& t : tlb_) t.writable = false;
    tlb_share_epoch_ = share_epoch();
  }
  const uint64_t first = page_floor(addr);
  const TlbEntry& e = tlb_entry(first);
  if (e.page == first && e.writable && one_page(addr, n, first) &&
      (e.prot & need_prot) == need_prot) {
    std::memcpy(e.data + (addr - first), src, n);
    if (e.gen != nullptr) ++*e.gen;
    return {true, 0};
  }

  ++slow_accesses_;
  Access a = check_range(addr, n, need_prot);
  if (!a.ok) return a;
  const auto* s = static_cast<const uint8_t*>(src);
  uint64_t cur = addr;
  uint64_t left = n;
  uint8_t* armed = nullptr;
  while (left > 0) {
    uint64_t page = page_floor(cur);
    uint64_t off = cur - page;
    uint64_t chunk = std::min<uint64_t>(left, kPageSize - off);
    uint8_t* data = writable_page(page).data();
    std::memcpy(data + off, s, chunk);
    if (chunk == n) armed = data;
    s += chunk;
    cur += chunk;
    left -= chunk;
  }
  bump_exec_generations(addr, n);
  // One-page access: the block is now uniquely owned and stamped this
  // epoch, so the entry may take fast-path stores.
  if (armed != nullptr) tlb_fill(first, armed, true);
  return {true, 0};
}

void AddressSpace::peek(uint64_t addr, void* out, uint64_t n) const {
  Access a = check_range(addr, n, 0);
  if (!a.ok) {
    throw StateError("peek of unmapped address " + hex_addr(a.fault_addr));
  }
  Access r = read(addr, out, n, 0);
  DYNACUT_ASSERT(r.ok);
}

void AddressSpace::poke(uint64_t addr, const void* src, uint64_t n) {
  Access a = check_range(addr, n, 0);
  if (!a.ok) {
    throw StateError("poke of unmapped address " + hex_addr(a.fault_addr));
  }
  Access w = write(addr, src, n, 0);
  DYNACUT_ASSERT(w.ok);
}

std::vector<uint8_t> AddressSpace::peek_bytes(uint64_t addr,
                                              uint64_t n) const {
  std::vector<uint8_t> out(n);
  peek(addr, out.data(), n);
  return out;
}

void AddressSpace::poke_bytes(uint64_t addr, std::span<const uint8_t> bytes) {
  poke(addr, bytes.data(), bytes.size());
}

std::vector<uint64_t> AddressSpace::populated_pages() const {
  std::vector<uint64_t> out;
  out.reserve(pages_.size());
  for (const auto& [addr, page] : pages_) {
    // A page can linger after its VMA was unmapped and the range remapped;
    // only report pages still inside a VMA.
    if (vma_at(addr) != nullptr) out.push_back(addr);
  }
  return out;
}

uint64_t AddressSpace::resident_bytes(std::set<const void*>* seen) const {
  std::set<const void*> local;
  std::set<const void*>& s = seen != nullptr ? *seen : local;
  uint64_t total = 0;
  for (const auto& [addr, block] : pages_) {
    if (s.insert(block.get()).second) total += block->size();
  }
  return total;
}

std::span<const uint8_t> AddressSpace::page_bytes(uint64_t page_addr) const {
  const Page* p = find_page(page_addr);
  if (p == nullptr) {
    throw StateError("page not populated: " + hex_addr(page_addr));
  }
  return {p->data(), p->size()};
}

void AddressSpace::install_page(uint64_t page_addr,
                                std::span<const uint8_t> bytes) {
  DYNACUT_ASSERT(page_addr == page_floor(page_addr));
  DYNACUT_ASSERT(bytes.size() == kPageSize);
  Page& p = writable_page(page_addr);
  std::copy(bytes.begin(), bytes.end(), p.begin());
  ++page_gens_[page_addr];
}

PageRef AddressSpace::page_block(uint64_t page_addr) const {
  auto it = pages_.find(page_addr);
  if (it == pages_.end()) {
    throw StateError("page not populated: " + hex_addr(page_addr));
  }
  // The block is shared from here on: the write fast path must not keep
  // scribbling into it through its raw pointer.
  if (TlbEntry& e = tlb_entry(page_addr); e.page == page_addr) {
    e.writable = false;
  }
  return it->second;
}

void AddressSpace::install_page_block(uint64_t page_addr, PageRef block) {
  DYNACUT_ASSERT(page_addr == page_floor(page_addr));
  DYNACUT_ASSERT(block != nullptr && block->size() == kPageSize);
  invalidate_caches();
  pages_[page_addr] = std::move(block);
  page_stamps_[page_addr] = epoch_;
  ++page_gens_[page_addr];
}

void AddressSpace::adopt_page_block(uint64_t page_addr, PageRef block) {
  DYNACUT_ASSERT(page_addr == page_floor(page_addr));
  DYNACUT_ASSERT(block != nullptr && block->size() == kPageSize);
  invalidate_caches();
  pages_[page_addr] = std::move(block);
  // No generation bump, no dirty stamp: bytes are unchanged by contract.
}

void AddressSpace::drop_page(uint64_t page_addr) {
  DYNACUT_ASSERT(page_addr == page_floor(page_addr));
  if (pages_.erase(page_addr) == 0) return;
  invalidate_caches();
  page_stamps_[page_addr] = epoch_;
  ++page_gens_[page_addr];
}

}  // namespace dynacut::vm
