#include "melf/dump.hpp"

#include <algorithm>
#include <cstdio>

#include "common/hex.hpp"
#include "isa/disasm.hpp"

namespace dynacut::melf {

std::string dump_headers(const Binary& bin) {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof buf, "MELF module %s, entry %s, image %s\n",
                bin.name.c_str(),
                bin.entry == Binary::kNoEntry ? "(none)"
                                              : hex_addr(bin.entry).c_str(),
                hex_addr(bin.image_size()).c_str());
  out += buf;

  out += "\nSections:\n";
  for (const auto& sec : bin.sections) {
    std::snprintf(buf, sizeof buf, "  %-8s off %-10s size %-10s prot %u%s\n",
                  section_name(sec.kind).c_str(),
                  hex_addr(sec.offset).c_str(), hex_addr(sec.size).c_str(),
                  section_prot(sec.kind),
                  sec.bytes.empty() ? "  (zero-fill)" : "");
    out += buf;
  }

  out += "\nSymbols:\n";
  std::vector<const Symbol*> syms;
  for (const auto& s : bin.symbols) syms.push_back(&s);
  std::sort(syms.begin(), syms.end(), [](const Symbol* a, const Symbol* b) {
    return a->value < b->value;
  });
  for (const Symbol* s : syms) {
    std::snprintf(buf, sizeof buf, "  %-10s %6llu %c%c %s\n",
                  hex_addr(s->value).c_str(),
                  static_cast<unsigned long long>(s->size),
                  s->global ? 'g' : 'l', s->is_function ? 'F' : 'O',
                  s->name.c_str());
    out += buf;
  }

  if (!bin.imports.empty()) {
    out += "\nImports (PLT/GOT):\n";
    for (size_t i = 0; i < bin.imports.size(); ++i) {
      std::snprintf(buf, sizeof buf, "  %-20s plt %-10s got %-10s\n",
                    bin.imports[i].c_str(),
                    hex_addr(*bin.plt_stub_offset(bin.imports[i])).c_str(),
                    hex_addr(bin.got_slot_offset(i)).c_str());
      out += buf;
    }
  }

  if (!bin.relocs.empty()) {
    std::snprintf(buf, sizeof buf, "\nRelocations: %zu (%zu GOT entries)\n",
                  bin.relocs.size(),
                  static_cast<size_t>(std::count_if(
                      bin.relocs.begin(), bin.relocs.end(),
                      [](const Relocation& r) {
                        return r.kind == RelocKind::kGotEntry;
                      })));
    out += buf;
  }
  return out;
}

std::string dump_disasm(const Binary& bin) {
  std::string out;
  for (const auto& sec : bin.sections) {
    if (!is_code(sec.kind)) continue;
    out += "\nDisassembly of " + section_name(sec.kind) + ":\n";
    auto lines = isa::disassemble(sec.bytes, sec.offset);
    for (const auto& line : lines) {
      // Symbol label when a symbol starts here.
      for (const auto& s : bin.symbols) {
        if (s.value == line.addr && (s.is_function || s.size == 0)) {
          out += "\n<" + s.name + ">:\n";
        }
      }
      char buf[96];
      std::snprintf(buf, sizeof buf, "  %8llx:  ",
                    static_cast<unsigned long long>(line.addr));
      out += buf;
      if (line.valid) {
        out += isa::format_instr(line.instr, line.addr);
      } else {
        std::snprintf(buf, sizeof buf, ".byte 0x%02x", line.raw_byte);
        out += buf;
      }
      out += "\n";
    }
  }
  return out;
}

std::string dump_all(const Binary& bin) {
  return dump_headers(bin) + dump_disasm(bin);
}

}  // namespace dynacut::melf
