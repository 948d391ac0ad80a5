#include "melf/binary.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace dynacut::melf {

namespace {
constexpr uint32_t kMagic = 0x464c454d;  // "MELF"
constexpr uint32_t kVersion = 1;
}  // namespace

std::string section_name(SectionKind kind) {
  switch (kind) {
    case SectionKind::kText:
      return ".text";
    case SectionKind::kPlt:
      return ".plt";
    case SectionKind::kRodata:
      return ".rodata";
    case SectionKind::kData:
      return ".data";
    case SectionKind::kGot:
      return ".got";
    case SectionKind::kBss:
      return ".bss";
  }
  return "?";
}

uint32_t section_prot(SectionKind kind) {
  switch (kind) {
    case SectionKind::kText:
    case SectionKind::kPlt:
      return kProtRead | kProtExec;
    case SectionKind::kRodata:
      return kProtRead;
    case SectionKind::kData:
    case SectionKind::kGot:
    case SectionKind::kBss:
      return kProtRead | kProtWrite;
  }
  return 0;
}

uint64_t Binary::image_size() const {
  uint64_t end = 0;
  for (const auto& s : sections) end = std::max(end, s.offset + s.size);
  return page_ceil(end);
}

const Section* Binary::section(SectionKind kind) const {
  for (const auto& s : sections) {
    if (s.kind == kind) return &s;
  }
  return nullptr;
}

Section* Binary::section(SectionKind kind) {
  return const_cast<Section*>(std::as_const(*this).section(kind));
}

bool Binary::in_code(uint64_t offset) const {
  for (const auto& s : sections) {
    if (is_code(s.kind) && offset >= s.offset &&
        offset < s.offset + s.bytes.size()) {
      return true;
    }
  }
  return false;
}

const Symbol* Binary::find_symbol(const std::string& sym_name) const {
  for (const auto& s : symbols) {
    if (s.name == sym_name) return &s;
  }
  return nullptr;
}

const Symbol* Binary::symbol_containing(uint64_t offset) const {
  for (const auto& s : symbols) {
    if (s.is_function && offset >= s.value && offset < s.value + s.size) {
      return &s;
    }
  }
  return nullptr;
}

uint64_t Binary::got_slot_offset(size_t import_index) const {
  const Section* got = section(SectionKind::kGot);
  DYNACUT_ASSERT(got != nullptr && import_index < imports.size());
  return got->offset + import_index * 8;
}

std::optional<uint64_t> Binary::plt_stub_offset(
    const std::string& import_name) const {
  const Section* plt = section(SectionKind::kPlt);
  if (plt == nullptr) return std::nullopt;
  for (size_t i = 0; i < imports.size(); ++i) {
    if (imports[i] == import_name) return plt->offset + i * kPltStubSize;
  }
  return std::nullopt;
}

std::vector<uint8_t> Binary::encode() const {
  ByteWriter w;
  w.u32(kMagic);
  w.u32(kVersion);
  w.str(name);
  w.u64(entry);

  w.u32(static_cast<uint32_t>(sections.size()));
  for (const auto& s : sections) {
    w.u8(static_cast<uint8_t>(s.kind));
    w.u64(s.offset);
    w.u64(s.size);
    w.blob(s.bytes);
  }

  w.u32(static_cast<uint32_t>(symbols.size()));
  for (const auto& s : symbols) {
    w.str(s.name);
    w.u8(static_cast<uint8_t>(s.section));
    w.u64(s.value);
    w.u64(s.size);
    w.u8(s.global ? 1 : 0);
    w.u8(s.is_function ? 1 : 0);
  }

  w.u32(static_cast<uint32_t>(relocs.size()));
  for (const auto& r : relocs) {
    w.u8(static_cast<uint8_t>(r.kind));
    w.u64(r.offset);
    w.i64(r.addend);
    w.str(r.symbol);
  }

  w.u32(static_cast<uint32_t>(imports.size()));
  for (const auto& i : imports) w.str(i);

  return w.take();
}

Binary Binary::decode(std::span<const uint8_t> data) {
  ByteReader r(data);
  if (r.u32() != kMagic) throw DecodeError("bad MELF magic");
  if (r.u32() != kVersion) throw DecodeError("unsupported MELF version");

  Binary b;
  b.name = r.str();
  b.entry = r.u64();

  uint32_t nsec = r.u32();
  for (uint32_t i = 0; i < nsec; ++i) {
    Section s;
    s.kind = static_cast<SectionKind>(r.u8());
    s.offset = r.u64();
    s.size = r.u64();
    s.bytes = r.blob();
    if (s.bytes.size() > s.size) throw DecodeError("section bytes > size");
    b.sections.push_back(std::move(s));
  }

  uint32_t nsym = r.u32();
  for (uint32_t i = 0; i < nsym; ++i) {
    Symbol s;
    s.name = r.str();
    s.section = static_cast<SectionKind>(r.u8());
    s.value = r.u64();
    s.size = r.u64();
    s.global = r.u8() != 0;
    s.is_function = r.u8() != 0;
    b.symbols.push_back(std::move(s));
  }

  uint32_t nrel = r.u32();
  for (uint32_t i = 0; i < nrel; ++i) {
    Relocation rel;
    rel.kind = static_cast<RelocKind>(r.u8());
    rel.offset = r.u64();
    rel.addend = r.i64();
    rel.symbol = r.str();
    b.relocs.push_back(std::move(rel));
  }

  uint32_t nimp = r.u32();
  for (uint32_t i = 0; i < nimp; ++i) b.imports.push_back(r.str());

  if (!r.done()) throw DecodeError("trailing bytes after MELF payload");
  return b;
}

}  // namespace dynacut::melf
