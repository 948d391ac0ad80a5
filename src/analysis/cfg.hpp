// Static CFG recovery over MELF binaries — the Angr stand-in the paper uses
// to count each binary's total basic blocks (Fig. 9's "total BB #" row).
//
// Recursive traversal from every function symbol: instruction-level
// reachability first, then leaders (function entries, branch targets,
// post-terminator fallthroughs) delimit basic blocks. Register calls
// (kCallR) get a fallthrough successor like direct calls; their outgoing
// edge — and every other indirect target — is left unresolved here and
// recovered, where possible, by the slicer's constant/offset propagation
// (src/analysis/slicer).
//
// Beyond block counting, the recovered graph carries enough structure for
// the cutcheck static verifier (src/analysis/cutcheck): the set of
// instruction starts (boundary checking), per-block terminators, reverse
// edges, per-function subgraphs with dominator trees, and the direct call
// graph.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "isa/isa.hpp"
#include "melf/binary.hpp"

namespace dynacut::analysis {

struct CfgBlock {
  uint64_t offset = 0;  ///< module-relative start
  uint32_t size = 0;
  uint32_t instr_count = 0;
  std::vector<uint64_t> succs;  ///< static successors (module-relative)
  /// Opcode ending the block; kNop when the block ends only because the
  /// next instruction is a leader (straight-line split, pure fallthrough).
  isa::Op term = isa::Op::kNop;
};

struct StaticCfg {
  std::map<uint64_t, CfgBlock> blocks;  ///< keyed by start offset
  /// Every statically reachable instruction start. Supersets the block
  /// starts; overlapping decodings (a jump into an immediate) contribute
  /// every offset the traversal actually decoded at.
  std::set<uint64_t> instr_starts;

  size_t block_count() const { return blocks.size(); }
  uint64_t code_bytes() const {
    uint64_t sum = 0;
    for (const auto& [off, b] : blocks) sum += b.size;
    return sum;
  }

  bool is_instr_start(uint64_t off) const {
    return instr_starts.count(off) != 0;
  }
  /// The block starting exactly at `off`, or nullptr.
  const CfgBlock* block_at(uint64_t off) const;
  /// The block whose [offset, offset+size) covers `off`, or nullptr.
  const CfgBlock* block_containing(uint64_t off) const;
};

/// Recovers the CFG of `bin`'s .text (+ .plt) from its function symbols.
StaticCfg recover_cfg(const melf::Binary& bin);

/// Total static basic-block count (the paper's Angr number).
size_t total_block_count(const melf::Binary& bin);

/// Decodes the instruction at module-relative `off` from whichever
/// executable section covers it. Returns false outside code or on invalid
/// encodings.
bool decode_at(const melf::Binary& bin, uint64_t off, isa::Instr& out);

/// Reverse edges: block start -> starts of the blocks with an edge into it.
/// Only targets that are block starts appear as keys.
std::map<uint64_t, std::vector<uint64_t>> predecessors(const StaticCfg& cfg);

/// Function-symbol lookup by offset: a sorted, flattened interval index that
/// answers exactly what melf::Binary::symbol_containing answers — the first
/// function symbol in vector order whose [value, value+size) holds the
/// offset — in O(log #symbols) instead of a linear scan. Overlapping,
/// nested and duplicate-start symbols are resolved by that first-match rule
/// when the index is built; zero-size and non-function symbols never match.
///
/// The index points into `bin.symbols`: it is valid while that vector is
/// unchanged, so it belongs next to the analysis built from the same binary
/// (slicer::SliceModel owns one), never inside melf::Binary itself.
class FunctionIndex {
 public:
  FunctionIndex() = default;
  explicit FunctionIndex(const melf::Binary& bin);

  /// The function symbol owning `off`, or nullptr.
  const melf::Symbol* symbol_containing(uint64_t off) const;

 private:
  struct Span {
    uint64_t begin = 0;
    uint64_t end = 0;
    const melf::Symbol* sym = nullptr;
  };
  std::vector<Span> spans_;  ///< disjoint, sorted by begin
};

/// Intra-procedural view of one function: the blocks owned by its symbol
/// and the edges staying inside it. Call and tail-jump edges into other
/// functions are dropped; a call's fallthrough edge keeps straight-line
/// continuity.
struct FuncCfg {
  uint64_t entry = 0;
  std::set<uint64_t> blocks;
  std::map<uint64_t, std::vector<uint64_t>> succs;
};

/// Partitions `cfg` into per-function subgraphs keyed by function entry,
/// assigning each block to the function symbol containing it. Blocks outside
/// every function symbol (e.g. PLT stubs) are not part of any subgraph.
std::map<uint64_t, FuncCfg> split_functions(const StaticCfg& cfg,
                                            const FunctionIndex& fns);

/// Immediate dominators of every block reachable from `f.entry`; the entry
/// maps to itself, unreachable blocks are absent. Cooper–Harvey–Kennedy
/// iteration over a reverse-postorder numbering.
std::map<uint64_t, uint64_t> dominator_tree(const FuncCfg& f);

/// Direct call graph, callee-indexed: function entry -> the call-site blocks
/// in *other* functions that transfer into it (calls and tail jumps).
/// Indirect calls are invisible, as everywhere in static recovery.
std::map<uint64_t, std::vector<uint64_t>> call_sites(const StaticCfg& cfg,
                                                     const FunctionIndex& fns);

}  // namespace dynacut::analysis
