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
//
// Every reachable instruction is decoded exactly once, by recover_cfg, into
// the offset-sorted StaticCfg::instrs array; blocks index into it and every
// later pass (dataflow, slicer, cutcheck) reads it instead of re-decoding.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "isa/isa.hpp"
#include "melf/binary.hpp"

namespace dynacut::analysis {

struct CfgBlock {
  uint64_t offset = 0;  ///< module-relative start
  uint32_t size = 0;
  uint32_t instr_count = 0;
  /// Indices of the first and the last instruction in StaticCfg::instrs.
  uint32_t first_instr = 0, last_instr = 0;
  std::vector<uint64_t> succs;  ///< static successors (module-relative)
  /// Opcode ending the block; kNop when the block ends only because the
  /// next instruction is a leader (straight-line split, pure fallthrough).
  isa::Op term = isa::Op::kNop;
};

struct StaticCfg {
  std::map<uint64_t, CfgBlock> blocks;  ///< keyed by start offset
  /// Every statically reachable instruction start, ascending. Supersets the
  /// block starts; overlapping decodings (a jump into an immediate)
  /// contribute every offset the traversal actually decoded at.
  std::vector<uint64_t> instr_starts;
  /// instrs[i] is the instruction decoded at instr_starts[i].
  std::vector<isa::Instr> instrs;

  size_t block_count() const { return blocks.size(); }
  uint64_t code_bytes() const {
    uint64_t sum = 0;
    for (const auto& [off, b] : blocks) sum += b.size;
    return sum;
  }

  bool is_instr_start(uint64_t off) const {
    return std::binary_search(instr_starts.begin(), instr_starts.end(), off);
  }
  /// Index of the reachable instruction whose encoding covers `off` (as its
  /// first byte or an interior byte), if any.
  std::optional<size_t> covering_instr(uint64_t off) const;
  /// Index of the instruction at instrs[i]'s fallthrough offset when that
  /// offset was decoded; otherwise the first index past it.
  size_t next_instr(size_t i) const {
    const uint64_t next = instr_starts[i] + instrs[i].length;
    while (++i < instr_starts.size() && instr_starts[i] < next) {
    }
    return i;
  }
  /// Calls f(offset, instr) for each of `b`'s instructions in order.
  template <class F>
  void for_each_instr(const CfgBlock& b, F&& f) const {
    size_t i = b.first_instr;
    for (uint32_t n = 0; n < b.instr_count; ++n, i = next_instr(i)) {
      f(instr_starts[i], instrs[i]);
    }
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

/// A FuncCfg numbered densely for per-function passes: blocks in ascending
/// offset order, intra-function edges as index lists (CSR) both ways. Edges
/// to blocks outside `f` are dropped (split_functions makes none).
struct DenseFunc {
  explicit DenseFunc(const FuncCfg& f);
  /// Dense index of block `off`, or size() when `f` lacks it.
  uint32_t index_of(uint64_t off) const;
  uint32_t size() const { return static_cast<uint32_t>(blocks.size()); }
  std::span<const uint32_t> succs(uint32_t b) const {
    return {succ.data() + succ_begin[b], succ.data() + succ_begin[b + 1]};
  }
  std::span<const uint32_t> preds(uint32_t b) const {
    return {pred.data() + pred_begin[b], pred.data() + pred_begin[b + 1]};
  }

  std::vector<uint64_t> blocks;
  std::vector<uint32_t> succ_begin, succ;  ///< succs(b) = succ[begin[b]..]
  std::vector<uint32_t> pred_begin, pred;
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
