// Index domains (paper §2.1): an index domain I of rank n is an ordered set
// of subscript tuples represented by a subscript-triplet-list of length n.
// A *standard* index domain has stride 1 in every triplet; every declared
// array A is associated with a standard index domain I^A.
//
// The domain provides membership tests, Fortran-order (column-major)
// linearization — the basis for EQUIVALENCE-style processor association
// (§3) and for local storage layout — and element iteration. Because the
// linearization is affine per dimension, any triplet-section of a domain
// decomposes into a handful of maximal flat strided segments
// (SegmentIter / for_each_segment below): the iteration-space analogue of
// the constant-owner runs of core/layout_view.hpp, and the basis of the
// segment-vectorized evaluation engine (exec/section_expr.hpp).
#pragma once

#include <string>
#include <vector>

#include "core/triplet.hpp"
#include "core/types.hpp"

namespace hpfnt {

/// Convenience builder for one dimension of a standard domain: Dim(0, N)
/// reads like the Fortran declaration A(0:N).
struct Dim {
  Index1 lower;
  Index1 upper;
  Dim(Index1 l, Index1 u) : lower(l), upper(u) {}
  /// Fortran default lower bound: Dim(n) == 1:n.
  explicit Dim(Index1 n) : lower(1), upper(n) {}
};

class IndexDomain {
 public:
  /// Rank-0 domain: exactly one (empty) tuple. Scalars are modeled this way
  /// (paper §2.2: "treating them as if they were associated with an index
  /// domain consisting of exactly one element").
  IndexDomain() = default;

  /// Throws ConformanceError when the product of the extents overflows
  /// an Extent.
  explicit IndexDomain(std::vector<Triplet> dims);

  IndexDomain(std::initializer_list<Dim> dims);

  /// Domain [1:e1, 1:e2, ...] from plain extents.
  static IndexDomain of_extents(const std::vector<Extent>& extents);

  int rank() const noexcept { return static_cast<int>(dims_.size()); }

  const Triplet& dim(int d) const { return dims_.at(static_cast<size_t>(d)); }
  const std::vector<Triplet>& dims() const noexcept { return dims_; }

  Index1 lower(int d) const { return dim(d).lower(); }
  Index1 upper(int d) const { return dim(d).upper(); }
  Extent extent(int d) const { return dim(d).size(); }

  /// Total number of indices (product of extents); 1 for rank-0.
  Extent size() const noexcept { return size_; }

  bool empty() const noexcept { return size() == 0; }

  /// True iff every triplet has stride 1 (paper §2.1). Declared arrays and
  /// processor arrangements always have standard domains.
  bool is_standard() const noexcept;

  /// Membership of a subscript tuple; false if rank differs.
  bool contains(const IndexTuple& index) const noexcept;

  /// Column-major (Fortran order) position of `index`, 0-based.
  /// Throws MappingError when the tuple is not in the domain.
  Extent linearize(const IndexTuple& index) const;

  /// Inverse of linearize. Throws MappingError when out of range.
  IndexTuple delinearize(Extent position) const;

  /// Calls `fn` for every index in Fortran order (first dimension varies
  /// fastest). Rank-0 domains invoke `fn` once with the empty tuple.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    walk(fn);
  }

  /// The domain obtained by taking a section (one triplet per dimension,
  /// positions interpreted against this domain's index values, not
  /// positions): section of A(0:9) by [2:8:2] is the domain {2,4,6,8}
  /// rebased? No — the *domain of the section as its own object* is
  /// standard [1:size] per dimension (Fortran 90 dummy-array semantics).
  /// Use `section_parent_index` to map back.
  IndexDomain section_domain(const std::vector<Triplet>& section) const;

  /// Maps an index of the section's standard domain back to the parent
  /// domain's index. `section` must be the same list given to
  /// section_domain.
  IndexTuple section_parent_index(const std::vector<Triplet>& section,
                                  const IndexTuple& section_index) const;

  /// Validates that `section` selects only indices of this domain.
  void validate_section(const std::vector<Triplet>& section) const;

  /// "(0:10, 1:5:2)" rendering; "()" for rank-0.
  std::string to_string() const;

  /// Appends a compact, unambiguous encoding of the dimensions (rank, then
  /// each dimension's lower/upper/stride as fixed-width integers) to
  /// `out`. Two domains append equal bytes iff they are equal; used to
  /// build plan-cache keys and alignment signatures.
  void append_signature(std::string& out) const;

  friend bool operator==(const IndexDomain& a, const IndexDomain& b) {
    return a.dims_ == b.dims_;
  }
  friend bool operator!=(const IndexDomain& a, const IndexDomain& b) {
    return !(a == b);
  }

 private:
  template <typename Fn>
  void walk(Fn& fn) const {
    if (empty()) return;
    IndexTuple current;
    current.resize(static_cast<std::size_t>(rank()));
    for (int d = 0; d < rank(); ++d) {
      current[static_cast<size_t>(d)] = dims_[static_cast<size_t>(d)].lower();
    }
    if (rank() == 0) {
      fn(current);
      return;
    }
    // Odometer walk, first dimension fastest (Fortran order).
    std::vector<Extent> pos(static_cast<std::size_t>(rank()), 0);
    while (true) {
      fn(current);
      int d = 0;
      for (; d < rank(); ++d) {
        const Triplet& t = dims_[static_cast<size_t>(d)];
        if (++pos[static_cast<size_t>(d)] < t.size()) {
          current[static_cast<size_t>(d)] = t.at(pos[static_cast<size_t>(d)]);
          break;
        }
        pos[static_cast<size_t>(d)] = 0;
        current[static_cast<size_t>(d)] = t.lower();
      }
      if (d == rank()) return;
    }
  }

  void init_size();

  std::vector<Triplet> dims_;
  Extent size_ = 1;  // product of the extents, checked at construction
};

/// One maximal flat strided segment of a sectioned domain: `count` section
/// elements whose parent-domain linear positions (0-based, Fortran order)
/// are base, base+stride, base+2*stride, ... The stride may be negative
/// (descending section triplets) but is never zero for count > 1.
struct FlatSegment {
  Extent base = 0;
  Extent count = 0;
  Extent stride = 1;
};

/// Decomposes a triplet-section of a domain into maximal FlatSegments, in
/// the section's Fortran element order (so the segments' counts sum to the
/// section size and concatenating them enumerates exactly the section's
/// linear positions, in order).
///
/// Segments start as the section's dim-0 rows but merge greedily across row
/// boundaries whenever the parent positions continue the same arithmetic
/// sequence — a whole-array section is ONE segment, a column section
/// A(j, :) is one stride-`pitch` segment — the flattening of Hunt et al.'s
/// strided-loop formulation. This is the iteration-space counterpart of
/// LayoutView's constant-owner runs: run tables say WHO owns a segment,
/// FlatSegments say WHERE its canonical values live, and the evaluation
/// engine (exec/section_expr.hpp) iterates the latter with tight strided
/// loops instead of per-element IndexTuple arithmetic.
class SegmentIter {
 public:
  /// Validates `section` against `domain`. Neither is retained.
  SegmentIter(const IndexDomain& domain, const std::vector<Triplet>& section);

  /// Produces the next maximal segment; false when exhausted.
  bool next(FlatSegment& out);

 private:
  bool advance_row();  // steps the outer odometer; false at the end

  Extent row_len_ = 0;   // section[0].size() (1 for rank-0)
  Extent step0_ = 1;     // linear-position step along dimension 0
  Extent row_base_ = 0;  // linear position of the current row's first element
  SmallVector<Extent, kMaxRank> counts_;  // outer dims' section sizes
  SmallVector<Extent, kMaxRank> steps_;   // outer dims' linear-position steps
  SmallVector<Extent, kMaxRank> pos_;     // outer odometer
  bool done_ = false;
};

/// Calls `fn(const FlatSegment&)` for every maximal segment of the section.
/// Templated like IndexDomain::for_each so the segment loop inlines.
template <typename Fn>
void for_each_segment(const IndexDomain& domain,
                      const std::vector<Triplet>& section, Fn&& fn) {
  SegmentIter it(domain, section);
  FlatSegment seg;
  while (it.next(seg)) fn(seg);
}

/// The section's full segment decomposition as a value — the memoizable
/// form (exec/section_expr.hpp caches one list per operand on the compiled
/// program, the way DimMapping::segment_list memoizes owner segments).
std::vector<FlatSegment> segment_list(const IndexDomain& domain,
                                      const std::vector<Triplet>& section);

}  // namespace hpfnt
