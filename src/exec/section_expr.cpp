#include "exec/section_expr.hpp"

#include <algorithm>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace hpfnt {

SecExpr SecExpr::section(const DistArray& array,
                         std::vector<Triplet> section) {
  array.domain().validate_section(section);
  auto n = std::make_shared<Node>();
  n->op = Op::kLeaf;
  n->array = array.id();
  n->bytes = elem_bytes(array.type());
  n->domain = array.domain();
  n->section = std::move(section);
  return SecExpr(std::move(n));
}

SecExpr SecExpr::whole(const DistArray& array) {
  return section(array, array.domain().dims());
}

SecExpr SecExpr::constant(double value) {
  auto n = std::make_shared<Node>();
  n->op = Op::kConst;
  n->value = value;
  return SecExpr(std::move(n));
}

SecExpr SecExpr::binary(Op op, SecExpr a, SecExpr b) {
  auto n = std::make_shared<Node>();
  n->op = op;
  n->lhs = a.node_;
  n->rhs = b.node_;
  return SecExpr(std::move(n));
}

void SecExpr::collect_shape(const Node& n, std::vector<Extent>& shape,
                            bool& seen) {
  if (n.op == Op::kLeaf) {
    // Fortran conformance ignores dimensions of extent 1 contributed by
    // scalar subscripts: D(:,j) conforms with A(:). Shapes are therefore
    // compared squeezed (the same rule assign and copy_section apply).
    std::vector<Extent> mine = squeezed_shape(n.section);
    if (!seen) {
      shape = mine;
      seen = true;
    } else if (shape != mine) {
      throw ConformanceError(
          "array sections in one expression do not conform in shape");
    }
    return;
  }
  if (n.lhs) collect_shape(*n.lhs, shape, seen);
  if (n.rhs) collect_shape(*n.rhs, shape, seen);
}

std::vector<Extent> SecExpr::shape() const {
  std::vector<Extent> shape;
  bool seen = false;
  collect_shape(*node_, shape, seen);
  return shape;
}

Extent SecExpr::count_flops(const Node& n) {
  switch (n.op) {
    case Op::kLeaf:
    case Op::kConst:
      return 0;
    default:
      return 1 + count_flops(*n.lhs) + count_flops(*n.rhs);
  }
}

Extent SecExpr::flops_per_element() const { return count_flops(*node_); }

std::vector<SecLeaf> SecExpr::leaves() const {
  std::vector<SecLeaf> out;
  collect_leaves(*node_, out);
  return out;
}

void SecExpr::collect_leaves(const Node& n, std::vector<SecLeaf>& out) {
  if (n.op == Op::kLeaf) {
    out.push_back(SecLeaf{n.array, n.bytes, &n.domain, &n.section});
    return;
  }
  if (n.lhs) collect_leaves(*n.lhs, out);
  if (n.rhs) collect_leaves(*n.rhs, out);
}

double SecExpr::eval_node(const Node& n, const ProgramState& state,
                          const IndexTuple& pos) {
  switch (n.op) {
    case Op::kConst:
      return n.value;
    case Op::kLeaf: {
      // `pos` is the squeezed position (unit dimensions dropped); expand it
      // to this leaf's rank by pinning unit dimensions at position 1.
      IndexTuple full_pos;
      full_pos.resize(n.section.size());
      std::size_t consumed = 0;
      for (std::size_t d = 0; d < n.section.size(); ++d) {
        full_pos[d] = n.section[d].size() == 1 ? 1 : pos[consumed++];
      }
      IndexTuple parent = n.domain.section_parent_index(n.section, full_pos);
      return state.value(n.array, parent);
    }
    case Op::kAdd:
      return eval_node(*n.lhs, state, pos) + eval_node(*n.rhs, state, pos);
    case Op::kSub:
      return eval_node(*n.lhs, state, pos) - eval_node(*n.rhs, state, pos);
    case Op::kMul:
      return eval_node(*n.lhs, state, pos) * eval_node(*n.rhs, state, pos);
    case Op::kDiv:
      return eval_node(*n.lhs, state, pos) / eval_node(*n.rhs, state, pos);
  }
  throw InternalError("unreachable section-expression op");
}

double SecExpr::eval_serial(const ProgramState& state,
                            const IndexTuple& pos) const {
  return eval_node(*node_, state, pos);
}

// --- SecProgram: the segment-vectorized engine ------------------------------

int SecExpr::compile_leaf(const Node& n, SecProgram& prog) {
  const int leaf = static_cast<int>(prog.leaves_.size());
  prog.leaves_.push_back(SecLeaf{n.array, n.bytes, &n.domain, &n.section});
  SecProgram::LeafPlan plan;
  plan.segments = segment_list(n.domain, n.section);
  for (const FlatSegment& s : plan.segments) {
    plan.size += s.count;
    plan.bound = std::max(
        plan.bound, 1 + std::max(s.base, s.base + (s.count - 1) * s.stride));
  }
  prog.plans_.push_back(std::move(plan));
  return leaf;
}

void SecExpr::compile_node(const Node& n, SecProgram& prog, int& stack) {
  using OpCode = SecProgram::OpCode;
  switch (n.op) {
    case Op::kConst:
      prog.code_.push_back({OpCode::kConst, -1, -1, n.value});
      prog.depth_ = std::max(prog.depth_, ++stack);
      return;
    case Op::kLeaf:
      prog.code_.push_back({OpCode::kLeaf, compile_leaf(n, prog), -1, 0.0});
      prog.depth_ = std::max(prog.depth_, ++stack);
      return;
    default:
      break;
  }
  // Binary node. Operands that need no register of their own fold into a
  // fused op: a constant becomes an immediate (x*0.25 is one multiply
  // pass) and a leaf is read in place from canonical storage (a + B is one
  // add pass, B + C one pass that pushes the sum). The non-commutative
  // reversed forms (c - x, c / x, B - x, B / x) get their own opcodes; the
  // commutative ones swap operands, which IEEE addition and multiplication
  // permit exactly. Semantics are exactly eval_node's (no reassociation, no
  // reciprocal tricks, no FMA contraction), which the differential tests
  // assert. Leaves are registered in tree order, so leaves() order holds.
  auto pick = [&](OpCode add, OpCode sub, OpCode mul, OpCode div) {
    switch (n.op) {
      case Op::kAdd: return add;
      case Op::kSub: return sub;
      case Op::kMul: return mul;
      case Op::kDiv: return div;
      default: throw InternalError("unreachable section-expression op");
    }
  };
  const Op lop = n.lhs->op;
  const Op rop = n.rhs->op;
  if (rop == Op::kConst && lop != Op::kConst) {
    compile_node(*n.lhs, prog, stack);
    prog.code_.push_back({pick(OpCode::kAddC, OpCode::kSubC, OpCode::kMulC,
                               OpCode::kDivC),
                          -1, -1, n.rhs->value});
    return;
  }
  if (lop == Op::kConst && rop != Op::kConst) {
    compile_node(*n.rhs, prog, stack);
    prog.code_.push_back({pick(OpCode::kAddC, OpCode::kRSubC, OpCode::kMulC,
                               OpCode::kRDivC),
                          -1, -1, n.lhs->value});
    return;
  }
  if (lop == Op::kLeaf && rop == Op::kLeaf) {
    const int a = compile_leaf(*n.lhs, prog);
    const int b = compile_leaf(*n.rhs, prog);
    prog.code_.push_back({pick(OpCode::kAddLL, OpCode::kSubLL, OpCode::kMulLL,
                               OpCode::kDivLL),
                          a, b, 0.0});
    prog.depth_ = std::max(prog.depth_, ++stack);
    return;
  }
  // Past this point neither operand is a constant unless both are.
  if (rop == Op::kLeaf) {
    compile_node(*n.lhs, prog, stack);
    prog.code_.push_back({pick(OpCode::kAddL, OpCode::kSubL, OpCode::kMulL,
                               OpCode::kDivL),
                          compile_leaf(*n.rhs, prog), -1, 0.0});
    return;
  }
  if (lop == Op::kLeaf) {
    const int a = compile_leaf(*n.lhs, prog);  // before the rhs's leaves
    compile_node(*n.rhs, prog, stack);
    prog.code_.push_back({pick(OpCode::kAddL, OpCode::kRSubL, OpCode::kMulL,
                               OpCode::kRDivL),
                          a, -1, 0.0});
    return;
  }
  compile_node(*n.lhs, prog, stack);
  compile_node(*n.rhs, prog, stack);
  prog.code_.push_back(
      {pick(OpCode::kAdd, OpCode::kSub, OpCode::kMul, OpCode::kDiv), -1, -1,
       0.0});
  --stack;
}

const SecProgram& SecExpr::program() const {
  // Lock-free once-publication (the memo-publication rule of the
  // distribution payload caches): concurrent first calls may each compile
  // a program, but exactly one wins the CAS into the shared root-node slot
  // and every caller returns the winner — so two sessions faulting the
  // same expression's program race benignly. A published program is never
  // replaced (nodes are immutable), so the returned reference stays valid
  // while the expression lives.
  std::shared_ptr<const SecProgram> prog =
      std::atomic_load_explicit(&node_->program, std::memory_order_acquire);
  if (!prog) {
    auto built = std::make_shared<SecProgram>();
    int stack = 0;
    compile_node(*node_, *built, stack);
    std::shared_ptr<const SecProgram> expected;
    prog = std::move(built);
    if (!std::atomic_compare_exchange_strong_explicit(
            &node_->program, &expected, prog, std::memory_order_acq_rel,
            std::memory_order_acquire)) {
      prog = std::move(expected);  // another thread published first
    }
  }
  return *prog;
}

namespace {

// The pass kernels. Each applies one IEEE operation per element; the
// unit-stride forms are the loops the compiler vectorizes, the general
// forms also cover descending (negative) and broadcast (stride-0)
// operands. Destinations are register slots or the caller's output
// buffer, which never overlap operand storage (hence __restrict).

template <class F>
void update_leaf(double* __restrict a, const SecProgram::Operand& o,
                 Extent count, F f) {
  if (o.stride == 1) {
    const double* __restrict b = o.ptr;
    for (Extent k = 0; k < count; ++k) a[k] = f(a[k], b[k]);
  } else if (o.stride == 0) {
    const double b = o.ptr[0];
    for (Extent k = 0; k < count; ++k) a[k] = f(a[k], b);
  } else {
    for (Extent k = 0; k < count; ++k) a[k] = f(a[k], o.ptr[k * o.stride]);
  }
}

template <class F>
void leaf_leaf(double* __restrict d, const SecProgram::Operand& x,
               const SecProgram::Operand& y, Extent count, F f) {
  if (x.stride == 1 && y.stride == 1) {
    const double* __restrict a = x.ptr;
    const double* __restrict b = y.ptr;
    for (Extent k = 0; k < count; ++k) d[k] = f(a[k], b[k]);
  } else {
    for (Extent k = 0; k < count; ++k) {
      d[k] = f(x.ptr[k * x.stride], y.ptr[k * y.stride]);
    }
  }
}

template <class F>
void update_reg(double* __restrict a, const double* __restrict b, Extent count,
                F f) {
  for (Extent k = 0; k < count; ++k) a[k] = f(a[k], b[k]);
}

template <class F>
void update_const(double* a, double c, Extent count, F f) {
  for (Extent k = 0; k < count; ++k) a[k] = f(a[k], c);
}

constexpr auto kPlus = [](double x, double y) { return x + y; };
constexpr auto kMinus = [](double x, double y) { return x - y; };
constexpr auto kTimes = [](double x, double y) { return x * y; };
constexpr auto kOver = [](double x, double y) { return x / y; };
constexpr auto kMinusRev = [](double x, double y) { return y - x; };
constexpr auto kOverRev = [](double x, double y) { return y / x; };

}  // namespace

// The warm statement's hot loop, cache-line aligned so that its speed does
// not depend on the size of unrelated code linked before it.
[[gnu::aligned(64)]]
void SecProgram::eval_segment(const Operand* operands, Extent count,
                              double* out, double* regs) const {
  // Register slot 0 is the output buffer itself, so the final result needs
  // no copy; slots 1.. live in the caller's register file.
  auto slot = [&](int i) { return i == 0 ? out : regs + (i - 1) * count; };
  int top = 0;  // number of live registers
  for (const Inst& inst : code_) {
    switch (inst.op) {
      case OpCode::kConst: {
        double* d = slot(top++);
        for (Extent k = 0; k < count; ++k) d[k] = inst.value;
        break;
      }
      case OpCode::kLeaf: {
        const Operand& o = operands[inst.leaf];
        double* d = slot(top++);
        if (o.stride == 0) {
          const double v = o.ptr[0];
          for (Extent k = 0; k < count; ++k) d[k] = v;
        } else if (o.stride == 1) {
          std::copy_n(o.ptr, static_cast<std::size_t>(count), d);
        } else {
          for (Extent k = 0; k < count; ++k) d[k] = o.ptr[k * o.stride];
        }
        break;
      }
      case OpCode::kAdd:
        --top;
        update_reg(slot(top - 1), slot(top), count, kPlus);
        break;
      case OpCode::kSub:
        --top;
        update_reg(slot(top - 1), slot(top), count, kMinus);
        break;
      case OpCode::kMul:
        --top;
        update_reg(slot(top - 1), slot(top), count, kTimes);
        break;
      case OpCode::kDiv:
        --top;
        update_reg(slot(top - 1), slot(top), count, kOver);
        break;
      case OpCode::kAddC:
        update_const(slot(top - 1), inst.value, count, kPlus);
        break;
      case OpCode::kSubC:
        update_const(slot(top - 1), inst.value, count, kMinus);
        break;
      case OpCode::kMulC:
        update_const(slot(top - 1), inst.value, count, kTimes);
        break;
      case OpCode::kDivC:
        update_const(slot(top - 1), inst.value, count, kOver);
        break;
      case OpCode::kRSubC:
        update_const(slot(top - 1), inst.value, count, kMinusRev);
        break;
      case OpCode::kRDivC:
        update_const(slot(top - 1), inst.value, count, kOverRev);
        break;
      case OpCode::kAddL:
        update_leaf(slot(top - 1), operands[inst.leaf], count, kPlus);
        break;
      case OpCode::kSubL:
        update_leaf(slot(top - 1), operands[inst.leaf], count, kMinus);
        break;
      case OpCode::kMulL:
        update_leaf(slot(top - 1), operands[inst.leaf], count, kTimes);
        break;
      case OpCode::kDivL:
        update_leaf(slot(top - 1), operands[inst.leaf], count, kOver);
        break;
      case OpCode::kRSubL:
        update_leaf(slot(top - 1), operands[inst.leaf], count, kMinusRev);
        break;
      case OpCode::kRDivL:
        update_leaf(slot(top - 1), operands[inst.leaf], count, kOverRev);
        break;
      case OpCode::kAddLL:
        leaf_leaf(slot(top++), operands[inst.leaf], operands[inst.leaf2],
                  count, kPlus);
        break;
      case OpCode::kSubLL:
        leaf_leaf(slot(top++), operands[inst.leaf], operands[inst.leaf2],
                  count, kMinus);
        break;
      case OpCode::kMulLL:
        leaf_leaf(slot(top++), operands[inst.leaf], operands[inst.leaf2],
                  count, kTimes);
        break;
      case OpCode::kDivLL:
        leaf_leaf(slot(top++), operands[inst.leaf], operands[inst.leaf2],
                  count, kOver);
        break;
    }
  }
}

namespace {

/// Chunk size of the whole-statement driver: large enough to amortize the
/// per-chunk cursor work, small enough that depth() registers stay cache
/// resident.
constexpr Extent kEvalChunk = 2048;

struct LeafCursor {
  const double* base = nullptr;
  std::size_t seg = 0;   // index into the plan's segment list
  Extent off = 0;        // elements consumed of the current segment
  bool broadcast = false;
};

}  // namespace

void SecProgram::eval(const ProgramState& state, ScratchArena& arena,
                      Extent total, double* out) const {
  if (total <= 0) return;
  // Inline storage keeps the warm path allocation-free (the ScratchArena
  // contract); expressions rarely have more than a handful of leaves.
  SmallVector<LeafCursor, 8> cursors(leaves_.size(), LeafCursor{});
  for (std::size_t l = 0; l < leaves_.size(); ++l) {
    const LeafPlan& plan = plans_[l];
    LeafCursor& c = cursors[l];
    c.base = state.values_span(leaves_[l].array);
    if (plan.bound > state.values_count(leaves_[l].array)) {
      throw InternalError(
          "section-expression leaf outruns its array's canonical storage");
    }
    c.broadcast = plan.size == 1 && total != 1;
    if (!c.broadcast && plan.size != total) {
      throw InternalError(
          "nonconforming operand segment list in section expression");
    }
  }
  arena.regs.resize(static_cast<std::size_t>(
      std::max(0, depth_ - 1) * kEvalChunk));
  SmallVector<Operand, 8> ops(leaves_.size(), Operand{});
  Extent pos = 0;
  while (pos < total) {
    Extent chunk = std::min(kEvalChunk, total - pos);
    for (std::size_t l = 0; l < leaves_.size(); ++l) {
      LeafCursor& c = cursors[l];
      if (c.broadcast) {
        ops[l] = {c.base + plans_[l].segments.front().base, 0};
        continue;
      }
      const FlatSegment& sg = plans_[l].segments[c.seg];
      ops[l] = {c.base + sg.base + c.off * sg.stride, sg.stride};
      chunk = std::min(chunk, sg.count - c.off);
    }
    eval_segment(ops.data(), chunk, out + pos, arena.regs.data());
    for (std::size_t l = 0; l < leaves_.size(); ++l) {
      LeafCursor& c = cursors[l];
      if (c.broadcast) continue;
      c.off += chunk;
      if (c.off == plans_[l].segments[c.seg].count) {
        ++c.seg;
        c.off = 0;
      }
    }
    pos += chunk;
  }
}

SecExpr operator+(SecExpr a, SecExpr b) {
  return SecExpr::binary(SecExpr::Op::kAdd, std::move(a), std::move(b));
}
SecExpr operator-(SecExpr a, SecExpr b) {
  return SecExpr::binary(SecExpr::Op::kSub, std::move(a), std::move(b));
}
SecExpr operator*(SecExpr a, SecExpr b) {
  return SecExpr::binary(SecExpr::Op::kMul, std::move(a), std::move(b));
}
SecExpr operator/(SecExpr a, SecExpr b) {
  return SecExpr::binary(SecExpr::Op::kDiv, std::move(a), std::move(b));
}
SecExpr operator*(SecExpr a, double b) {
  return std::move(a) * SecExpr::constant(b);
}
SecExpr operator*(double a, SecExpr b) {
  return SecExpr::constant(a) * std::move(b);
}
SecExpr operator+(SecExpr a, double b) {
  return std::move(a) + SecExpr::constant(b);
}

}  // namespace hpfnt
