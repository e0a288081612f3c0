// Per-dimension distribution formats (paper §4.1) and their bound form.
//
// A DistFormat is the *specification* appearing in a DISTRIBUTE directive:
//   BLOCK                      equal blocks of size ceil(N/NP); trailing
//                              processors may be empty (§4.1.1)
//   VIENNA_BLOCK               the Vienna Fortran block: balanced blocks
//                              whose sizes differ by at most one (the
//                              definition assumed by the §8.1.1 footnote)
//   GENERAL_BLOCK(G)           irregular contiguous blocks; G(i) is the
//                              upper bound of block i for i < NP (§4.1.2)
//   CYCLIC(k), CYCLIC          block-cyclic with segment length k (§4.1.3)
//   ":" (collapsed)            dimension not distributed (§4.1)
//   INDIRECT(map)              extension: per-index owner map (Vienna
//                              Fortran user-defined distributions)
//   USER(f)                    extension: arbitrary index mapping, possibly
//                              replicating (paper §2.2 allows set-valued
//                              distributions; §1 asks that the concept stay
//                              general for future standards)
//
// A DimMapping is a format *bound* to the extent N of an array dimension
// (indices normalized to 1..N) and the extent NP of the matching target
// dimension. It answers ownership and local-addressing queries in O(1)
// (O(log NP) for GENERAL_BLOCK) without allocation.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/triplet.hpp"
#include "core/types.hpp"

namespace hpfnt {

enum class FormatKind {
  kBlock,
  kViennaBlock,
  kGeneralBlock,
  kCyclic,
  kCollapsed,
  kIndirect,
  kUserDefined,
};

/// Owners of one normalized index within one dimension: 1-based positions
/// in the matching target dimension.
using DimOwnerSet = SmallVector<Index1, 4>;

/// Signature of a user-defined per-dimension distribution function:
/// given (i, N, NP) with i in 1..N, return the owning position(s) in 1..NP.
using UserDimFunction =
    std::function<DimOwnerSet(Index1 i, Extent n, Extent np)>;

class DistFormat {
 public:
  static DistFormat block();
  static DistFormat vienna_block();
  /// G holds at least NP-1 nondecreasing upper bounds (extras ignored at
  /// bind time, as the paper's [1:M], M >= NP-1 allows).
  static DistFormat general_block(std::vector<Extent> upper_bounds);
  /// Convenience: build GENERAL_BLOCK from NP block sizes.
  static DistFormat general_block_sizes(const std::vector<Extent>& sizes);
  static DistFormat cyclic(Extent k = 1);
  static DistFormat collapsed();
  /// owner_map[i-1] is the 1-based owning position of normalized index i.
  static DistFormat indirect(std::vector<Extent> owner_map);
  static DistFormat user_defined(std::string name, UserDimFunction fn);

  FormatKind kind() const noexcept { return kind_; }
  bool is_collapsed() const noexcept { return kind_ == FormatKind::kCollapsed; }

  /// CYCLIC segment length; meaningful only for kCyclic.
  Extent cyclic_k() const noexcept { return k_; }

  /// GENERAL_BLOCK bound array; meaningful only for kGeneralBlock.
  const std::vector<Extent>& general_bounds() const noexcept { return data_; }

  /// INDIRECT owner map; meaningful only for kIndirect.
  const std::vector<Extent>& indirect_map() const noexcept { return data_; }

  const std::string& user_name() const noexcept { return user_name_; }
  const UserDimFunction& user_function() const noexcept { return user_fn_; }

  /// Directive-syntax rendering: "BLOCK", "CYCLIC(4)", ":", ...
  std::string to_string() const;

  /// Structural equality of specifications (user-defined formats compare by
  /// name).
  friend bool operator==(const DistFormat& a, const DistFormat& b);
  friend bool operator!=(const DistFormat& a, const DistFormat& b) {
    return !(a == b);
  }

 private:
  DistFormat(FormatKind kind, Extent k) : kind_(kind), k_(k) {}

  FormatKind kind_;
  Extent k_ = 1;                   // cyclic segment length
  std::vector<Extent> data_;       // general-block bounds / indirect map
  std::string user_name_;
  UserDimFunction user_fn_;
};

/// One maximal constant-owner segment of a dimension restricted to a
/// triplet: `count` elements starting at normalized index `lo` and stepping
/// by the triplet's stride, all mapped to the same per-dimension owner
/// positions, `sets[set]` of the segment's list. Segment lists are the
/// per-dimension primitive LayoutView's run builder composes by outer
/// product (core/layout_view.hpp).
struct DimSegment {
  Index1 lo = 0;          ///< normalized index (1..n) of the first element
  Extent count = 0;       ///< elements covered at the triplet's stride
  std::uint32_t set = 0;  ///< id of the owner positions in the list's pool
};

/// A dimension's constant-owner decomposition over one triplet, plus the
/// number of per-element payload probes spent computing it. `sets` pools
/// the list's distinct owner-position sets (as owners(lo) yields them), at
/// most np of them for a single-owner format; adjacent segments never share
/// an id.
struct DimSegmentList {
  std::vector<DimSegment> segments;
  std::vector<DimOwnerSet> sets;
  Extent probes = 0;
};

/// A DistFormat bound to one array dimension (extent n, indices normalized
/// to 1..n) and one target dimension (extent np, positions 1..np).
class DimMapping {
 public:
  /// Binds `format` to extents; validates GENERAL_BLOCK bound arrays and
  /// INDIRECT maps. Collapsed formats bind with np == 1.
  static DimMapping bind(const DistFormat& format, Extent n, Extent np);

  FormatKind kind() const noexcept { return kind_; }
  Extent n() const noexcept { return n_; }
  Extent np() const noexcept { return np_; }

  /// True when some index may have more than one owner (user-defined only).
  bool may_replicate() const noexcept {
    return kind_ == FormatKind::kUserDefined;
  }

  /// Owner position of normalized index i (1..n). For user-defined formats
  /// this returns the canonical (minimum) owner position — owner sets come
  /// back from user functions in arbitrary order, and the minimum is the
  /// replica convention everywhere in the model; use owners() to observe
  /// replication.
  Index1 owner(Index1 i) const;

  /// All owner positions of i (singleton except for user-defined formats).
  DimOwnerSet owners(Index1 i) const;

  /// Local index (1-based) of i within its owner's segment, following the
  /// paper's definitions (§4.1.1: i - (j-1)*q for BLOCK; cyclic packing for
  /// CYCLIC(k); offset within block for GENERAL_BLOCK).
  Index1 local_index(Index1 i) const;

  /// Number of indices owned by position p (1..np).
  Extent local_count(Index1 p) const;

  /// Inverse addressing: the normalized global index of local element
  /// `l` (1..local_count(p)) on position p.
  Index1 global_index(Index1 p, Index1 l) const;

  /// Calls fn(i) for every normalized index owned by p, ascending.
  void for_each_owned(Index1 p, const std::function<void(Index1)>& fn) const;

  /// For contiguous formats (block family, collapsed) the owned range of p
  /// as [first, last] (empty when first > last). Throws InternalError for
  /// non-contiguous formats.
  std::pair<Index1, Index1> block_range(Index1 p) const;

  /// The maximal contiguous index range [first, last] containing i over
  /// which the owner (set) of this dimension does not change: the whole
  /// block for the block family, the CYCLIC(k) segment containing i, the
  /// entire dimension when collapsed, and the run of equal table entries
  /// around i for INDIRECT / user-defined formats. This is the per-dimension
  /// primitive behind LayoutView's run computation (core/layout_view.hpp).
  std::pair<Index1, Index1> segment_range(Index1 i) const;

  /// The constant-owner decomposition of the normalized triplet `t`
  /// (indices 1..n, any stride, descending allowed): maximal segments over
  /// which owners() does not change, adjacent equal-owner segments merged.
  /// Lists are memoized per bound mapping — every copy of one binding (and
  /// hence every section of one distribution payload) shares the memo, so
  /// two sections that agree in this dimension's triplet share the list.
  /// `probes_charged`, when given, receives the per-element probes this
  /// call actually spent (0 on a memo hit).
  std::shared_ptr<const DimSegmentList> segment_list(
      const Triplet& t, Extent* probes_charged = nullptr) const;

  /// Memo-free decomposition (honest construction cost on every call; the
  /// benchmarking counterpart of segment_list).
  DimSegmentList compute_segment_list(const Triplet& t) const;

  /// FNV-1a digest of the bound per-index owner content of a table-backed
  /// dimension (INDIRECT / user-defined): every index's full owner set,
  /// plus the extents. Memoized on the shared table (all copies of one
  /// binding share it; tables are immutable after bind, so the memo is
  /// never invalidated). This is what lets a kFormats payload with opaque
  /// formats carry a *content* plan signature — two bindings digest equal
  /// iff their owner tables are elementwise equal (modulo hash collision).
  /// Throws InternalError for arithmetic formats, which need no digest.
  std::uint64_t content_digest() const;

  bool is_contiguous() const noexcept {
    return kind_ == FormatKind::kBlock || kind_ == FormatKind::kViennaBlock ||
           kind_ == FormatKind::kGeneralBlock ||
           kind_ == FormatKind::kCollapsed;
  }

 private:
  DimMapping() = default;

  void check_index(Index1 i) const;
  void check_position(Index1 p) const;

  FormatKind kind_ = FormatKind::kCollapsed;
  Extent n_ = 0;
  Extent np_ = 1;
  Extent q_ = 1;                    // block size (kBlock) / segment (kCyclic)
  Extent vb_f_ = 0;                 // vienna block: floor(n/np)
  Extent vb_r_ = 0;                 // vienna block: n mod np
  std::vector<Extent> ends_;        // general block: ends_[p] = end of block p
                                    // (1..np), ends_[0] = 0
  // Indirect / user-defined tables (shared so DimMapping copies stay cheap).
  struct IndirectTable {
    std::vector<Extent> owner_of;            // [i-1] -> canonical (min) owner
    std::vector<std::vector<Index1>> globals;  // per owner p-1: owned indices
    std::vector<Extent> local_of;  // [i-1] -> local index on canonical owner
    std::vector<DimOwnerSet> owner_sets;     // only for user-defined replication
    bool replicated = false;
    // Lazily computed content digest (0 = not yet computed; the computed
    // value is forced nonzero). Atomic so concurrent first queries race
    // benignly to the same value.
    mutable std::atomic<std::uint64_t> digest{0};
  };
  std::shared_ptr<const IndirectTable> table_;

  // Per-binding memo of segment lists keyed by triplet (shared by all
  // copies of one binding, i.e. per distribution payload per dimension).
  struct SegmentMemo;
  std::shared_ptr<SegmentMemo> seg_memo_;
};

}  // namespace hpfnt
