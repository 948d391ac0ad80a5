// MELF ("mini-ELF"): the executable/shared-object container for VX64 guests.
//
// A Binary is position independent: all sections are described by
// module-relative offsets and relocations record where the load base (or an
// imported symbol's address) must be written. The loader (src/os/loader) and
// the DynaCut library injector (src/rewriter) both consume this format —
// exactly the split the paper has between ld.so and DynaCut's CRIU-image
// library injection.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/constants.hpp"

namespace dynacut::melf {

enum class SectionKind : uint8_t {
  kText = 0,    ///< program code (R+X)
  kPlt = 1,     ///< import trampolines (R+X)
  kRodata = 2,  ///< read-only data
  kData = 3,    ///< initialized writable data
  kGot = 4,     ///< global offset table, one u64 slot per import (RW)
  kBss = 5,     ///< zero-initialized writable data
};

std::string section_name(SectionKind kind);
uint32_t section_prot(SectionKind kind);

/// True for the sections that hold code: .text and .plt.
constexpr bool is_code(SectionKind kind) {
  return kind == SectionKind::kText || kind == SectionKind::kPlt;
}

struct Section {
  SectionKind kind = SectionKind::kText;
  uint64_t offset = 0;  ///< module-relative virtual offset (page aligned)
  uint64_t size = 0;    ///< virtual size (>= bytes.size(); larger for .bss)
  std::vector<uint8_t> bytes;
};

struct Symbol {
  std::string name;
  SectionKind section = SectionKind::kText;
  uint64_t value = 0;  ///< module-relative offset
  uint64_t size = 0;
  bool global = false;      ///< exported to other modules
  bool is_function = false;
};

enum class RelocKind : uint8_t {
  /// *(u64*)(base + offset) = base + addend. Used for absolute pointers in
  /// code immediates and data (the paper's "global data relocations").
  kAbs64 = 0,
  /// *(u64*)(base + offset) = address of exported `symbol` in some other
  /// loaded module (the paper's "PLT relocations" filling GOT slots).
  kGotEntry = 1,
};

struct Relocation {
  RelocKind kind = RelocKind::kAbs64;
  uint64_t offset = 0;
  int64_t addend = 0;
  std::string symbol;
};

/// A linked VX64 module (application or shared library).
class Binary {
 public:
  /// Sentinel for `entry`: the module is a library, not an executable.
  static constexpr uint64_t kNoEntry = ~0ull;

  std::string name;
  uint64_t entry = kNoEntry;  ///< module-relative entry point
  std::vector<Section> sections;
  std::vector<Symbol> symbols;
  std::vector<Relocation> relocs;
  std::vector<std::string> imports;  ///< order matches GOT slot order

  /// Total virtual size of the module image (page aligned).
  uint64_t image_size() const;

  const Section* section(SectionKind kind) const;
  Section* section(SectionKind kind);

  const Symbol* find_symbol(const std::string& name) const;

  /// True when the module-relative `offset` lies in the bytes of a code
  /// section (is_code).
  bool in_code(uint64_t offset) const;

  /// Symbol whose [value, value+size) contains the module-relative offset;
  /// functions only. Nullptr if none.
  const Symbol* symbol_containing(uint64_t offset) const;

  /// Module-relative offset of the GOT slot for import #i.
  uint64_t got_slot_offset(size_t import_index) const;

  /// Module-relative offset of the PLT stub for `import_name`; nullopt when
  /// the import does not exist.
  std::optional<uint64_t> plt_stub_offset(const std::string& import_name) const;

  /// Size in bytes of one PLT stub (lea + load + jmpr).
  static constexpr uint64_t kPltStubSize = 15;

  // --- MELF file format -----------------------------------------------
  std::vector<uint8_t> encode() const;
  static Binary decode(std::span<const uint8_t> data);
};

}  // namespace dynacut::melf
