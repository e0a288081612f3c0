// Subscript triplets [lower : upper : stride] (Fortran 90 R619; paper §2.1).
//
// A triplet denotes the ordered index sequence lower, lower+stride, ... that
// does not pass upper. Strides may be negative (descending sequences) but
// never zero. Triplets are the building block of index domains, array
// sections, and the section subscripts of distribution targets.
#pragma once

#include <string>
#include <vector>

#include "core/types.hpp"

namespace hpfnt {

class Triplet {
 public:
  /// Degenerate triplet [1:1:1]; useful as a placeholder.
  Triplet() : lower_(1), upper_(1), stride_(1) {}

  /// [lower : upper] with stride 1.
  Triplet(Index1 lower, Index1 upper) : Triplet(lower, upper, 1) {}

  /// [lower : upper : stride]; throws MappingError when stride == 0 or
  /// when the index count overflows an Extent.
  Triplet(Index1 lower, Index1 upper, Index1 stride);

  /// Triplet holding the single index i, i.e. [i:i:1].
  static Triplet single(Index1 i) { return {i, i, 1}; }

  Index1 lower() const noexcept { return lower_; }
  Index1 upper() const noexcept { return upper_; }
  Index1 stride() const noexcept { return stride_; }

  /// Number of indices in the sequence: MAX((upper-lower+stride)/stride, 0),
  /// the Fortran 90 section-size formula the paper reuses in §5.1.
  Extent size() const noexcept;

  bool empty() const noexcept { return size() == 0; }

  /// True when the sequence contains index i.
  bool contains(Index1 i) const noexcept;

  /// k-th element of the sequence, k in [0, size()). Unchecked.
  Index1 at(Extent k) const noexcept { return lower_ + k * stride_; }

  /// Position of index i in the sequence (inverse of at). Requires
  /// contains(i); throws MappingError otherwise.
  Extent position_of(Index1 i) const;

  /// The last index actually reached (lower + (size-1)*stride).
  /// Requires a non-empty triplet.
  Index1 last() const;

  /// True iff stride == 1 ("standard" per paper §2.1).
  bool is_standard() const noexcept { return stride_ == 1; }

  /// Composition: the section `inner` taken of the sequence described by
  /// this triplet. Example: [10:30:2] composed with [2:4] gives [12:16:2]
  /// (elements #2..#4, 1-based positions relative to inner's own indexing
  /// being interpreted as positions 1..size). `inner` positions are 1-based.
  Triplet subsection(const Triplet& inner) const;

  /// "l:u:s" rendering; stride omitted when 1.
  std::string to_string() const;

  /// Appends the three fixed-width fields to a binary signature — the one
  /// triplet encoder behind index-domain signatures, plan-key sections, and
  /// section-view plan signatures, so the encodings cannot drift apart.
  void append_signature(std::string& out) const;

  friend bool operator==(const Triplet& a, const Triplet& b) {
    return a.lower_ == b.lower_ && a.upper_ == b.upper_ &&
           a.stride_ == b.stride_;
  }
  friend bool operator!=(const Triplet& a, const Triplet& b) {
    return !(a == b);
  }

 private:
  Index1 lower_;
  Index1 upper_;
  Index1 stride_;
};

/// The section's extents with unit dimensions dropped — the shape Fortran
/// conformance compares, since scalar subscripts contribute extent-1
/// dimensions (shared by the assignment executor, copy_section, and
/// section expressions).
std::vector<Extent> squeezed_shape(const std::vector<Triplet>& section);

/// "NAME(l:u[:s],...)" — how diagnostics and reports name a section.
std::string render_section(const std::string& name,
                           const std::vector<Triplet>& section);

}  // namespace hpfnt
