#include "image/image.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <set>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/hex.hpp"

namespace dynacut::image {

const VmaImage* ProcessImage::vma_at(uint64_t addr) const {
  for (const auto& v : vmas) {
    if (addr >= v.start && addr < v.end) return &v;
  }
  return nullptr;
}

bool ProcessImage::mapped(uint64_t addr, uint64_t n) const {
  uint64_t cur = addr;
  const uint64_t end = addr + n;
  while (cur < end) {
    const VmaImage* v = vma_at(cur);
    if (v == nullptr) return false;
    cur = v->end;
  }
  return true;
}

std::vector<uint8_t> ProcessImage::read_bytes(uint64_t vaddr,
                                              uint64_t n) const {
  if (!mapped(vaddr, n)) {
    throw StateError("image read outside VMAs at " + hex_addr(vaddr));
  }
  std::vector<uint8_t> out(n);
  uint64_t cur = vaddr;
  uint8_t* dst = out.data();
  while (n > 0) {
    uint64_t page = page_floor(cur);
    uint64_t off = cur - page;
    uint64_t chunk = std::min<uint64_t>(n, kPageSize - off);
    auto it = pages.find(page);
    if (it != pages.end()) {
      std::memcpy(dst, it->second->data() + off, chunk);
    } else {
      std::memset(dst, 0, chunk);
    }
    dst += chunk;
    cur += chunk;
    n -= chunk;
  }
  return out;
}

void ProcessImage::write_bytes(uint64_t vaddr,
                               std::span<const uint8_t> bytes) {
  if (!mapped(vaddr, bytes.size())) {
    throw StateError("image write outside VMAs at " + hex_addr(vaddr));
  }
  uint64_t cur = vaddr;
  const uint8_t* src = bytes.data();
  uint64_t n = bytes.size();
  while (n > 0) {
    uint64_t page = page_floor(cur);
    uint64_t off = cur - page;
    uint64_t chunk = std::min<uint64_t>(n, kPageSize - off);
    std::memcpy(pages.writable(page).data() + off, src, chunk);
    src += chunk;
    cur += chunk;
    n -= chunk;
  }
}

uint8_t ProcessImage::read_u8(uint64_t vaddr) const {
  return read_bytes(vaddr, 1)[0];
}

uint64_t ProcessImage::read_u64(uint64_t vaddr) const {
  auto b = read_bytes(vaddr, 8);
  uint64_t v;
  std::memcpy(&v, b.data(), 8);
  return v;
}

void ProcessImage::write_u64(uint64_t vaddr, uint64_t value) {
  uint8_t b[8];
  std::memcpy(b, &value, 8);
  write_bytes(vaddr, b);
}

void ProcessImage::add_vma(uint64_t start, uint64_t size, uint32_t prot,
                           const std::string& name) {
  DYNACUT_ASSERT(start == page_floor(start));
  size = page_ceil(size);
  uint64_t end = start + size;
  for (const auto& v : vmas) {
    if (start < v.end && v.start < end) {
      throw StateError("add_vma overlaps " + v.name);
    }
  }
  vmas.push_back(VmaImage{start, end, prot, name});
  std::sort(vmas.begin(), vmas.end(),
            [](const VmaImage& a, const VmaImage& b) {
              return a.start < b.start;
            });
}

void ProcessImage::drop_range(uint64_t start, uint64_t size) {
  size = page_ceil(size);
  const uint64_t end = start + size;
  std::vector<VmaImage> next;
  bool touched = false;
  for (const auto& v : vmas) {
    if (v.end <= start || v.start >= end) {
      next.push_back(v);
      continue;
    }
    touched = true;
    if (v.start < start) next.push_back({v.start, start, v.prot, v.name});
    if (v.end > end) next.push_back({end, v.end, v.prot, v.name});
  }
  if (!touched) {
    throw StateError("drop_range of unmapped range at " + hex_addr(start));
  }
  vmas = std::move(next);
  for (uint64_t p = page_floor(start); p < end; p += kPageSize) {
    pages.erase(p);
  }
}

void ProcessImage::grow_vma(uint64_t start, uint64_t extra) {
  for (auto& v : vmas) {
    if (v.start == start) {
      uint64_t new_end = v.end + page_ceil(extra);
      for (const auto& o : vmas) {
        if (&o != &v && v.end <= o.start && o.start < new_end) {
          throw StateError("grow_vma collides with " + o.name);
        }
      }
      v.end = new_end;
      return;
    }
  }
  throw StateError("grow_vma: no VMA starting at " + hex_addr(start));
}

uint64_t ProcessImage::find_free(uint64_t size, uint64_t hint) const {
  size = page_ceil(size);
  uint64_t candidate = page_floor(hint);
  // vmas kept sorted by add_vma; checkpoint also emits them sorted.
  for (const auto& v : vmas) {
    if (v.start >= candidate + size) break;
    if (v.end > candidate) candidate = v.end;
  }
  return candidate;
}

const ModuleImage* ProcessImage::module_named(const std::string& name) const {
  for (const auto& m : modules) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

const ModuleImage* ProcessImage::module_at(uint64_t addr) const {
  for (const auto& m : modules) {
    if (addr >= m.base && addr < m.base + m.size) return &m;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

std::vector<uint8_t> ProcessImage::encode() const {
  ByteWriter w;
  w.str("CRSIMIMG");

  // core
  w.str(core.proc_name);
  w.i32(core.pid);
  w.i32(core.ppid);
  for (uint64_t r : core.cpu.regs) w.u64(r);
  w.u64(core.cpu.ip);
  w.u64(core.cpu.pack_flags());
  for (const auto& sa : core.sigactions) {
    w.u64(sa.handler);
    w.u64(sa.restorer);
  }
  w.u32(static_cast<uint32_t>(core.signal_frames.size()));
  for (uint64_t f : core.signal_frames) w.u64(f);

  // mm
  w.u32(static_cast<uint32_t>(vmas.size()));
  for (const auto& v : vmas) {
    w.u64(v.start);
    w.u64(v.end);
    w.u32(v.prot);
    w.str(v.name);
  }

  // pagemap + pages
  w.u32(static_cast<uint32_t>(pages.size()));
  for (const auto& [addr, block] : pages) {
    w.u64(addr);
    w.raw(block->data(), block->size());
  }

  // files
  w.u32(static_cast<uint32_t>(fds.size()));
  for (const auto& f : fds) {
    w.i32(f.fd);
    w.u8(static_cast<uint8_t>(f.kind));
    w.u8(f.sock_kind);
    w.u16(f.port);
    w.blob(f.rx_bytes);
    w.blob(f.tx_bytes);
  }

  // modules (MELF payload inline so the image is self-contained)
  w.u32(static_cast<uint32_t>(modules.size()));
  for (const auto& m : modules) {
    w.str(m.name);
    w.u64(m.base);
    w.u64(m.size);
    w.blob(m.binary->encode());
  }
  return w.take();
}

ProcessImage ProcessImage::decode(std::span<const uint8_t> data) {
  ByteReader r(data);
  if (r.str() != "CRSIMIMG") throw DecodeError("bad process image magic");
  ProcessImage img;

  img.core.proc_name = r.str();
  img.core.pid = r.i32();
  img.core.ppid = r.i32();
  for (auto& reg : img.core.cpu.regs) reg = r.u64();
  img.core.cpu.ip = r.u64();
  img.core.cpu.unpack_flags(r.u64());
  for (auto& sa : img.core.sigactions) {
    sa.handler = r.u64();
    sa.restorer = r.u64();
  }
  uint32_t nframes = r.u32();
  for (uint32_t i = 0; i < nframes; ++i) {
    img.core.signal_frames.push_back(r.u64());
  }

  uint32_t nvma = r.u32();
  for (uint32_t i = 0; i < nvma; ++i) {
    VmaImage v;
    v.start = r.u64();
    v.end = r.u64();
    v.prot = r.u32();
    v.name = r.str();
    img.vmas.push_back(std::move(v));
  }

  uint32_t npages = r.u32();
  for (uint32_t i = 0; i < npages; ++i) {
    uint64_t addr = r.u64();
    auto bytes = std::make_shared<std::vector<uint8_t>>(kPageSize);
    r.raw(bytes->data(), bytes->size());
    img.pages.put(addr, std::move(bytes));
  }

  uint32_t nfds = r.u32();
  for (uint32_t i = 0; i < nfds; ++i) {
    FdImage f;
    f.fd = r.i32();
    f.kind = static_cast<os::FileDesc::Kind>(r.u8());
    f.sock_kind = r.u8();
    f.port = r.u16();
    f.rx_bytes = r.blob();
    f.tx_bytes = r.blob();
    img.fds.push_back(std::move(f));
  }

  uint32_t nmods = r.u32();
  for (uint32_t i = 0; i < nmods; ++i) {
    ModuleImage m;
    m.name = r.str();
    m.base = r.u64();
    m.size = r.u64();
    auto payload = r.blob();
    m.binary = std::make_shared<melf::Binary>(melf::Binary::decode(payload));
    img.modules.push_back(std::move(m));
  }

  if (!r.done()) throw DecodeError("trailing bytes in process image");
  return img;
}

// ---------------------------------------------------------------------------
// ImageStore
// ---------------------------------------------------------------------------

std::string ImageKey::str() const {
  std::string s = "pid " + std::to_string(pid);
  if (!feature_set_tag.empty()) s += " [" + feature_set_tag + "]";
  return s;
}

void ImageStore::put(const ImageKey& key, const ProcessImage& img) {
  // A COW copy: page blocks are shared, not serialized. Stripping the live
  // socket handles preserves the semantics of the encode/decode round trip
  // this replaced — a stored image must not keep connections alive.
  ProcessImage stored = img;
  for (auto& f : stored.fds) f.live.reset();
  files_[key] = std::move(stored);
}

ProcessImage ImageStore::get(const ImageKey& key) const {
  auto it = files_.find(key);
  if (it == files_.end()) throw StateError("no image for " + key.str());
  return it->second;  // COW copy: O(metadata), pages shared
}

bool ImageStore::contains(const ImageKey& key) const {
  return files_.find(key) != files_.end();
}

size_t ImageStore::erase(const ImageKey& key) { return files_.erase(key); }

std::vector<ImageKey> ImageStore::list() const {
  std::vector<ImageKey> keys;
  keys.reserve(files_.size());
  for (const auto& [k, img] : files_) keys.push_back(k);
  return keys;
}

size_t ImageStore::bytes_used() const {
  size_t total = 0;
  for (const auto& [k, img] : files_) total += img.pages_bytes();
  return total;
}

size_t ImageStore::resident_bytes(std::set<const void*>* seen) const {
  std::set<const void*> local;
  std::set<const void*>& s = seen != nullptr ? *seen : local;
  size_t total = 0;
  for (const auto& [k, img] : files_) total += img.resident_pages_bytes(&s);
  return total;
}

}  // namespace dynacut::image
