// Distributions (paper §2.2): total index mappings δ : I^A → P(I^R) \ {∅}
// from an array's index domain to the index domain of a processor
// arrangement (or section). Every array element is mapped to one or more
// abstract processors — its owners — which store it in local memory.
//
// A Distribution is an immutable value (cheap to copy; payload shared).
// Three payloads realize every mapping the front end can produce:
//
//   kFormats      per-dimension distribution formats over an explicit
//                 target — what a DISTRIBUTE directive specifies (§4.1)
//   kConstructed  CONSTRUCT(α, δ_B): the derived distribution of an array
//                 aligned to B (§2.3/Definition 4). Holds α and δ_B, so a
//                 REDISTRIBUTE of the base is reflected automatically when
//                 the forest re-derives (§4.2)
//   kSectionView  the distribution a dummy argument inherits when an array
//                 *section* is passed (§8.1.2: SUB(A(2:996:2))) — the
//                 parent's mapping restricted to the section, renumbered to
//                 the section's own standard domain
//
// A secondary orphaned by REALIGN or DEALLOCATE (§5.2, §6) keeps its
// current distribution by promoting its kConstructed snapshot, and an
// inherited dummy gets a kSectionView; neither needs a frozen owner table.
//
// Ownership queries never allocate on the single-owner fast path.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/alignment.hpp"
#include "core/dist_format.hpp"
#include "core/index_domain.hpp"
#include "core/processors.hpp"
#include "core/types.hpp"

namespace hpfnt {

/// Composes per-dimension owner positions (one set per non-collapsed
/// dimension, ascending dimension order) into the full owner set of a
/// formats distribution: the union of target.owners_at over the cartesian
/// product of the sets, first set varying fastest, first-seen order, no
/// duplicates. The single implementation behind FormatsPayload::owners and
/// the per-dimension composition (core/pair_counts.hpp) that LayoutView's
/// tables and the pair counts share — sharing it is what keeps them
/// elementwise identical to the per-element query.
OwnerSet compose_dim_owners(
    const ProcessorRef& target,
    const std::array<const DimOwnerSet*, kMaxRank>& sets,
    std::size_t dim_count);

/// Memo of computed run tables (see core/layout_view.hpp), shared by every
/// copy of one distribution payload. Keys are the flattened section
/// triplets; values are type-erased shared_ptr<const RunTable> (erased so
/// this header does not depend on layout_view.hpp). The cache is small and
/// cleared wholesale when full: the sections queried on hot paths are few
/// and recurring (whole domains, stencil shifts, argument sections).
class RunMemo {
 public:
  std::shared_ptr<const void> lookup(const std::vector<Index1>& key) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    return it == entries_.end() ? nullptr : it->second;
  }

  void insert(const std::vector<Index1>& key,
              std::shared_ptr<const void> table, bool whole_domain) {
    std::lock_guard<std::mutex> lock(mu_);
    if (entries_.size() >= kMaxEntries && entries_.count(key) == 0) {
      entries_.clear();
    }
    entries_[key] = table;
    if (whole_domain && !whole_) {
      // Armed at most once, and whole_ is never replaced or cleared, so the
      // published raw pointer stays valid for the payload's lifetime.
      whole_ = std::move(table);
      whole_raw_.store(whole_.get(), std::memory_order_release);
    }
  }

  /// Number of memoized tables.
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }

  /// Lock-free fast path for the owners() compatibility shim: null until a
  /// whole-domain run table has been memoized (it survives cache eviction;
  /// the pointee is a RunTable, kept alive by this memo).
  const void* whole_table() const {
    return whole_raw_.load(std::memory_order_acquire);
  }

 private:
  static constexpr std::size_t kMaxEntries = 16;
  mutable std::mutex mu_;
  std::map<std::vector<Index1>, std::shared_ptr<const void>> entries_;
  std::shared_ptr<const void> whole_;
  std::atomic<const void*> whole_raw_{nullptr};
};

class Distribution {
 public:
  enum class Kind { kFormats, kConstructed, kSectionView };

  Distribution() = default;

  /// DISTRIBUTE array(formats...) TO target. The number of non-":" formats
  /// must equal the target's rank (§4.1); a conceptually scalar target
  /// requires all-":" formats.
  static Distribution formats(const IndexDomain& array_domain,
                              std::vector<DistFormat> format_list,
                              ProcessorRef target);

  /// CONSTRUCT(α, δ_B) — Definition 4. α's base domain must equal the base
  /// distribution's domain.
  static Distribution constructed(AlignmentFunction alpha, Distribution base);

  /// The mapping of `section` of an array distributed by `parent`, as seen
  /// by a dummy argument with its own standard [1:size] domain.
  static Distribution section_view(Distribution parent,
                                   std::vector<Triplet> section);

  bool valid() const noexcept { return payload_ != nullptr; }
  Kind kind() const;

  /// The distributee's index domain I^A.
  const IndexDomain& domain() const;

  /// δ(index): the owning abstract processors. Never empty.
  ///
  /// Per-element compatibility shim over the run-based API: bulk consumers
  /// should build a LayoutView (core/layout_view.hpp) and iterate its
  /// constant-owner runs instead. Once a whole-domain run table has been
  /// memoized this answers from it; otherwise it falls through to the
  /// payload's per-element mapping.
  OwnerSet owners(const IndexTuple& index) const;

  /// Per-element payload query that never consults the run-table memo:
  /// the independent oracle of the layout tests; everything else wants
  /// owners().
  OwnerSet owners_uncached(const IndexTuple& index) const;

  /// The first owner (canonical "computing" replica).
  ApId first_owner(const IndexTuple& index) const;

  bool is_owner(ApId p, const IndexTuple& index) const;

  /// True when some element may have more than one owner.
  bool replicates() const;

  /// Number of elements p owns (counting each owned element once).
  Extent local_count(ApId p) const;

  /// Calls fn for every index owned by p, in Fortran order.
  void for_each_owned(ApId p,
                      const std::function<void(const IndexTuple&)>& fn) const;

  /// Element-wise equality of mappings: same domain and same owner sets
  /// everywhere, decided from the two payloads' per-owner-set-pair counts
  /// (core/pair_counts.hpp), composed per dimension without visiting each
  /// element or building a run table. This is the semantic comparison
  /// behind inheritance matching (§7, mode 3).
  bool same_mapping(const Distribution& other) const;

  /// Fast structural comparison: true for two kFormats distributions with
  /// equal domains, formats, and targets; for two kConstructed
  /// distributions whose alignment functions are structurally equal and
  /// whose bases compare structurally equal in turn; and for two
  /// kSectionView distributions with equal restricting triplets over
  /// structurally equal parents. INDIRECT formats compare their maps and
  /// user-defined formats their bound owner content. (May return false for
  /// mappings that are element-wise equal.)
  bool structurally_equal(const Distribution& other) const;

  /// The payload's content plan signature: a byte string equal for two
  /// distributions exactly when any priced communication schedule over
  /// them is interchangeable — the plan-cache key component
  /// (exec/comm_plan.hpp) that lets two payloads minted at different
  /// addresses (the fresh section-view dummy of every procedure call)
  /// share one plan. Every payload kind has one: formats serialize their
  /// specification (INDIRECT and user-defined formats digest their bound
  /// owner tables), constructed payloads compose α with the base's
  /// signature, and section views compose the restricting triplets with the
  /// parent's signature. Table-backed content enters as a 64-bit FNV-1a
  /// digest, so signatures stay short for large owner tables. Memoized on
  /// the immutable payload (built once, thread-safe; constructed and
  /// section-view payloads compose their children's memos), so a warm key
  /// build costs one append per distribution.
  const std::string& plan_signature() const;

  /// Appends plan_signature() to `out`.
  void append_plan_signature(std::string& out) const;

  /// Accessors for kFormats payloads; throw InternalError otherwise.
  const std::vector<DistFormat>& format_list() const;
  const ProcessorRef& target() const;
  const DimMapping& dim_mapping(int dim) const;

  /// Accessors for kConstructed payloads.
  const AlignmentFunction& alignment() const;
  const Distribution& base() const;

  /// Accessors for kSectionView payloads.
  const Distribution& section_parent() const;
  const std::vector<Triplet>& section_triplets() const;

  /// The payload's run-table memo (valid distributions only). Written by
  /// LayoutView; read by the owners() shim.
  RunMemo& run_memo() const;

  /// Stable identity of the shared payload: equal iff two Distributions
  /// share one payload (the forest's derived-mapping memo checks that its
  /// base is still current this way). Only meaningful while both payloads
  /// live — a freed payload's address can be recycled — so plan keys never
  /// use it; they key by plan_signature(). Null for invalid distributions.
  const void* payload_identity() const noexcept { return payload_.get(); }

  /// Human-readable description, e.g. "(BLOCK, CYCLIC(4)) TO PR".
  std::string to_string() const;

 private:
  struct Payload;
  struct FormatsPayload;
  struct ConstructedPayload;
  struct SectionPayload;

  explicit Distribution(std::shared_ptr<const Payload> payload)
      : payload_(std::move(payload)) {}

  const Payload& payload() const;
  void build_plan_signature(std::string& out) const;

  std::shared_ptr<const Payload> payload_;
};

/// The payload whose owners are `dist`'s element by element when `dist`
/// aligns by the identity: CONSTRUCT(id, δ) = δ (Definition 4), resolved
/// transitively; `dist` itself otherwise. The first step of the normal form
/// every count reduces a payload to (core/pair_counts.hpp), and the mapping
/// the phase rules compare (exec/overlap.hpp). Allocates nothing.
const Distribution& resolve_identity(const Distribution& dist);

}  // namespace hpfnt
