// Alignment specifications and alignment functions (paper §2.3, §5).
//
// An ALIGN directive
//     ALIGN A(s1,...,sn) WITH B(t1,...,tm)
// has alignee subscripts s_i ∈ {":", "*", align-dummy} and base subscripts
// t_j ∈ {dummyless-expr, dummy-use-expr, subscript-triplet, "*", ":"}.
// Section 5.1 reduces the directive by
//   (1) replacing each ":" in the alignee and its matching base triplet by
//       a fresh dummy J and the expression (J - L_i)*ST + LT,
//   (2) replacing each "*" in the alignee by a fresh dummy used nowhere
//       (collapse), and
//   (3) interpreting "*" in the base as replication over that dimension.
// The result is an alignment function α : I^A → P(I^B) \ {∅}. Expression
// values are clamped into the base dimension's bounds (the paper's
// "ŷ = MIN(Uj, y)" rule, applied symmetrically); a strict policy that
// raises a conformance error instead is available.
//
// AlignSpec is the unreduced directive; AlignmentFunction is the reduced,
// evaluable form stored on alignment-forest edges.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/align_expr.hpp"
#include "core/index_domain.hpp"
#include "core/types.hpp"

namespace hpfnt {

enum class AlignBoundsPolicy { kClamp, kStrict };

/// One subscript of the alignee in an ALIGN directive.
struct AligneeSub {
  enum class Kind { kColon, kStar, kDummy };
  Kind kind = Kind::kColon;
  int dummy_id = -1;         // kDummy: user-chosen id, distinct per dummy
  std::string dummy_name;    // optional, for rendering

  static AligneeSub colon() { return {}; }
  static AligneeSub star() {
    AligneeSub s;
    s.kind = Kind::kStar;
    return s;
  }
  static AligneeSub dummy(int id, std::string name = "") {
    AligneeSub s;
    s.kind = Kind::kDummy;
    s.dummy_id = id;
    s.dummy_name = std::move(name);
    return s;
  }
};

/// One subscript of the alignment base in an ALIGN directive.
struct BaseSub {
  enum class Kind { kExpr, kTriplet, kColon, kStar };
  Kind kind = Kind::kColon;
  AlignExpr expr = AlignExpr::constant(0);  // kExpr (dummy ids = alignee ids)
  Triplet triplet;                          // kTriplet

  static BaseSub of_expr(AlignExpr e) {
    BaseSub s;
    s.kind = Kind::kExpr;
    s.expr = std::move(e);
    return s;
  }
  static BaseSub of_triplet(const Triplet& t) {
    BaseSub s;
    s.kind = Kind::kTriplet;
    s.triplet = t;
    return s;
  }
  static BaseSub colon() { return {}; }
  static BaseSub star() {
    BaseSub s;
    s.kind = Kind::kStar;
    return s;
  }
};

/// The reduced alignment function α : I^A → P(I^B) \ {∅}.
class AlignmentFunction {
 public:
  struct BaseDim {
    enum class Kind { kConst, kExpr, kReplicated };
    Kind kind = Kind::kReplicated;
    Index1 constant = 0;   // kConst
    int alignee_dim = -1;  // kExpr: which alignee dimension's index feeds expr
    AlignExpr expr = AlignExpr::constant(0);
  };

  /// Rejects an alignee dimension feeding two base dimensions (§5.1: each
  /// J_i occurs in at most one y_j), so every mapping it constructs is a
  /// per-dimension product of its base's.
  AlignmentFunction(IndexDomain alignee_domain, IndexDomain base_domain,
                    std::vector<BaseDim> base_dims,
                    AlignBoundsPolicy policy = AlignBoundsPolicy::kClamp);

  const IndexDomain& alignee_domain() const noexcept { return alignee_; }
  const IndexDomain& base_domain() const noexcept { return base_; }
  const std::vector<BaseDim>& base_dims() const noexcept { return dims_; }
  AlignBoundsPolicy policy() const noexcept { return policy_; }

  /// True when some base dimension is replicated ("*" in the base).
  bool replicates() const noexcept;

  /// Number of base indices every alignee index maps to (product of
  /// replicated dimensions' extents; 1 when not replicating).
  Extent image_count() const noexcept;

  /// The unique image when the function does not replicate; the
  /// lexicographically first image otherwise.
  IndexTuple image(const IndexTuple& alignee_index) const;

  /// Calls fn(j) for every j ∈ α(alignee_index).
  void for_each_image(const IndexTuple& alignee_index,
                      const std::function<void(const IndexTuple&)>& fn) const;

  /// True iff the two functions have equal domains, policies, and
  /// structurally equal base-dimension specifications. Structural equality
  /// implies identical images everywhere. Implemented as byte equality of
  /// append_signature, so the comparison and the serialization can never
  /// drift apart.
  bool structurally_equal(const AlignmentFunction& other) const;

  /// Appends a compact, unambiguous structural encoding — both domains'
  /// bounds, the bounds policy that defines the §5.1 clamp regions, and
  /// each base dimension's kind with its constant / expression tree
  /// (AlignExpr::append_signature) — to `out`. Two functions append equal
  /// bytes iff they are structurally equal; used to build plan-cache
  /// signatures for constructed distributions (exec/comm_plan.hpp).
  void append_signature(std::string& out) const;

  /// True iff the function is the identity mapping of the alignee domain
  /// onto an equal base domain (every base dimension reads the matching
  /// alignee dimension through a linear 1*J+0 expression). An identity
  /// alignment constructs exactly the base distribution, so plan signatures
  /// collapse it away (exec/comm_plan.cpp). Decided once, at construction.
  bool is_identity() const noexcept { return identity_; }

  /// Identity alignment between two domains of equal shape.
  static AlignmentFunction identity(const IndexDomain& alignee_domain,
                                    const IndexDomain& base_domain);

  /// An image value of base dimension `base_dim` under the bounds policy:
  /// clamped into the dimension (§5.1's ŷ = MIN(U_j, y), at both ends), or
  /// a ConformanceError when strict and outside.
  Index1 clamp_or_throw(Index1 value, int base_dim) const;

  /// "(J1,J2) -> (2*J1-1, *)" rendering.
  std::string to_string() const;

 private:
  Index1 eval_dim(int base_dim, const IndexTuple& alignee_index) const;

  IndexDomain alignee_;
  IndexDomain base_;
  std::vector<BaseDim> dims_;
  AlignBoundsPolicy policy_;
  bool identity_ = false;
};

/// The unreduced ALIGN directive; `reduce` runs the §5.1 transformations.
class AlignSpec {
 public:
  AlignSpec(std::vector<AligneeSub> alignee_subs,
            std::vector<BaseSub> base_subs);

  /// Identity spec of the given rank: A(:,:,...) WITH B(:,:,...).
  static AlignSpec colons(int rank);

  const std::vector<AligneeSub>& alignee_subs() const noexcept {
    return alignee_subs_;
  }
  const std::vector<BaseSub>& base_subs() const noexcept { return base_subs_; }

  /// Applies the §5.1 transformations against concrete domains, performing
  /// all conformance checks (colon/triplet matching and extent fit,
  /// distinct dummies, each dummy in at most one base subscript, no skew).
  AlignmentFunction reduce(const IndexDomain& alignee_domain,
                           const IndexDomain& base_domain,
                           AlignBoundsPolicy policy =
                               AlignBoundsPolicy::kClamp) const;

  /// Directive-style rendering "(:,*) WITH (I+1,:)" (names used if given).
  std::string to_string() const;

 private:
  std::vector<AligneeSub> alignee_subs_;
  std::vector<BaseSub> base_subs_;
};

}  // namespace hpfnt
