// Section expressions: the right-hand sides of global-index array
// assignments, e.g. the Thole stencil of §8.1.1:
//
//     P = U(0:N-1,:) + U(1:N,:) + V(:,0:N-1) + V(:,1:N)
//
// A SecExpr is an elementwise expression tree over array sections and
// scalar constants. All section leaves must share one shape — the shape of
// the assignment. The communication the evaluation implies is charged by
// the assignment executor per constant-owner run of each leaf's section
// (leaves() + core/layout_view.hpp), not per element.
//
// Numerics run through the segment-vectorized engine: the tree is compiled
// once per statement into a flat postfix program (SecProgram, cached on the
// expression's root node) whose kernels evaluate whole flat strided
// segments (core/index_domain.hpp) of every operand with tight loops over
// raw canonical-storage spans — constants fold into fused immediate ops,
// unit-dimension leaves splat (stride-0 operands) — so the hot path of a
// warm sweep touches no IndexTuple, no shared_ptr walk, and no
// std::function. Leaf operands of a binary op are read in place by fused
// opcodes (top ∘= leaf, push leaf ∘ leaf) instead of being copied into a
// register first, so the Jacobi right-hand side
// (L + L + L + L) * 0.25 runs as four passes: LL, L, L, MulC. Every pass
// applies exactly the tree's operation to the tree's operands in the tree's
// association order — no reassociation, no FMA contraction — so values are
// bit-identical to eval_serial, the per-element reference oracle the
// differential tests compare against.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/array.hpp"
#include "core/index_domain.hpp"
#include "exec/storage.hpp"

namespace hpfnt {

/// One array-section leaf of a SecExpr, exposed so the executor can build
/// run tables (core/layout_view.hpp) over every operand and charge remote
/// reads per constant-owner segment instead of per element. The pointers
/// borrow from the expression's nodes and stay valid while it lives.
struct SecLeaf {
  ArrayId array = kNoArray;
  Extent bytes = 8;
  const IndexDomain* domain = nullptr;
  const std::vector<Triplet>* section = nullptr;
};

/// A SecExpr compiled to a flat postfix program. Compilation happens once
/// per statement (SecExpr::program() caches the result on the root node, so
/// copies of the expression share it) and precomputes each leaf's flat
/// segment decomposition; evaluation then runs tight strided loops over raw
/// operand spans, one conforming chunk at a time.
class SecProgram {
 public:
  /// One leaf operand of a kernel call: `count` values live at
  /// ptr, ptr+stride, ... A stride of 0 splats a single element (scalar or
  /// all-unit-dimension leaves broadcast over the whole statement).
  struct Operand {
    const double* ptr = nullptr;
    Extent stride = 0;
  };

  /// Leaves in evaluation order — identical content and order to
  /// SecExpr::leaves(), without re-collecting per statement.
  const std::vector<SecLeaf>& leaves() const noexcept { return leaves_; }

  /// Register-stack depth of the postfix program (slot 0 is the output).
  int depth() const noexcept { return depth_; }

  /// The kernel: out[k] = expr(operands[l].ptr[k * operands[l].stride]) for
  /// k in [0, count). `regs` must hold (depth() - 1) * count doubles;
  /// neither `out` nor `regs` may overlap operand storage.
  void eval_segment(const Operand* operands, Extent count, double* out,
                    double* regs) const;

  /// Whole-statement driver: evaluates all `total` conforming positions
  /// into out[0, total), reading canonical storage spans from `state` and
  /// chunking the register file through `arena.regs`. Leaves whose section
  /// holds a single element broadcast; any other size mismatch throws.
  /// `out` must not overlap the operands' canonical storage.
  void eval(const ProgramState& state, ScratchArena& arena, Extent total,
            double* out) const;

 private:
  friend class SecExpr;

  enum class OpCode : std::uint8_t {
    kConst,   // push a splatted constant
    kLeaf,    // push a strided operand load
    kAdd, kSub, kMul, kDiv,      // pop b, pop a, push a∘b
    kAddC, kSubC, kMulC, kDivC,  // top = top ∘ value (folded constant)
    kRSubC, kRDivC,              // top = value ∘ top
    kAddL, kSubL, kMulL, kDivL,  // top = top ∘ leaf (read in place)
    kRSubL, kRDivL,              // top = leaf ∘ top
    kAddLL, kSubLL, kMulLL, kDivLL,  // push leaf ∘ leaf2
  };
  struct Inst {
    OpCode op = OpCode::kConst;
    int leaf = -1;       // kLeaf and the fused leaf ops: index into leaves_
    int leaf2 = -1;      // the right operand of the leaf ∘ leaf ops
    double value = 0.0;  // kConst and the folded-constant ops
  };
  struct LeafPlan {
    std::vector<FlatSegment> segments;  // memoized decomposition, in order
    Extent size = 0;                    // section element count
    Extent bound = 0;                   // 1 + max linear position touched
  };

  std::vector<Inst> code_;
  std::vector<SecLeaf> leaves_;
  std::vector<LeafPlan> plans_;
  int depth_ = 0;
};

class SecExpr {
 public:
  /// A section of an array: SecExpr::section(U, {Triplet(0,N-1), whole}).
  static SecExpr section(const DistArray& array,
                         std::vector<Triplet> section);

  /// The whole array as a section.
  static SecExpr whole(const DistArray& array);

  /// A scalar constant (shapeless; conforms with everything).
  static SecExpr constant(double value);

  /// Shape of the expression with unit dimensions squeezed out (Fortran
  /// conformance: D(:,j) conforms with A(:)). Constants have an empty
  /// shape; mixed expressions take the leaves' common squeezed shape.
  /// Throws ConformanceError if two leaves disagree.
  std::vector<Extent> shape() const;

  /// Number of arithmetic operations evaluated per element.
  Extent flops_per_element() const;

  /// All section leaves, in evaluation order (one entry per occurrence).
  std::vector<SecLeaf> leaves() const;

  /// The compiled postfix program, built on first use and cached on the
  /// root node (copies of the expression share one program; the cached
  /// leaf segment lists stay warm across a whole sweep).
  const SecProgram& program() const;

  /// Evaluates at `pos` — the 1-based *squeezed* position tuple (one entry
  /// per non-unit dimension of the shape) — from canonical storage, with no
  /// communication accounting.
  double eval_serial(const ProgramState& state, const IndexTuple& pos) const;

  friend SecExpr operator+(SecExpr a, SecExpr b);
  friend SecExpr operator-(SecExpr a, SecExpr b);
  friend SecExpr operator*(SecExpr a, SecExpr b);
  friend SecExpr operator/(SecExpr a, SecExpr b);
  friend SecExpr operator*(SecExpr a, double b);
  friend SecExpr operator*(double a, SecExpr b);
  friend SecExpr operator+(SecExpr a, double b);

 private:
  enum class Op { kLeaf, kConst, kAdd, kSub, kMul, kDiv };

  struct Node {
    Op op = Op::kConst;
    double value = 0.0;                   // kConst
    ArrayId array = kNoArray;             // kLeaf
    Extent bytes = 8;                     // kLeaf element size
    IndexDomain domain;                   // kLeaf parent domain
    std::vector<Triplet> section;         // kLeaf
    std::shared_ptr<const Node> lhs;
    std::shared_ptr<const Node> rhs;
    /// Compiled-program cache (program()); mutable like the distribution
    /// payloads' run memos — nodes are immutable once built. Accessed only
    /// through the std::atomic_* shared_ptr free functions so concurrent
    /// sessions can fault the program without a race (one compile wins,
    /// all callers share it).
    mutable std::shared_ptr<const SecProgram> program;
  };

  explicit SecExpr(std::shared_ptr<const Node> node)
      : node_(std::move(node)) {}

  static SecExpr binary(Op op, SecExpr a, SecExpr b);
  static void collect_shape(const Node& n, std::vector<Extent>& shape,
                            bool& seen);
  static void collect_leaves(const Node& n, std::vector<SecLeaf>& out);
  static Extent count_flops(const Node& n);
  static double eval_node(const Node& n, const ProgramState& state,
                          const IndexTuple& pos);
  static void compile_node(const Node& n, SecProgram& prog, int& stack);
  static int compile_leaf(const Node& n, SecProgram& prog);

  std::shared_ptr<const Node> node_;
};

}  // namespace hpfnt
