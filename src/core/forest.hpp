// The alignment forest (paper §2.4) and its dynamic transitions.
//
// The data space 𝒜 of created, accessible arrays is represented as a forest
// of alignment trees of height <= 1:
//   * a PRIMARY array is a tree root; it is the only kind of array with a
//     directly specified (or implicit) distribution;
//   * a SECONDARY array is aligned to exactly one primary via an alignment
//     function α, and its distribution is always δ_A = CONSTRUCT(α, δ_B).
// The §2.4 constraints — an alignment base is never itself aligned, and an
// alignee has exactly one base — are enforced on every mutation, as are the
// transition rules of REDISTRIBUTE (§4.2), REALIGN (§5.2) and removal
// (DEALLOCATE, §6).
//
// The forest stores α on edges and a Distribution only on primaries, so a
// redistribution of a base is O(1) and every secondary's mapping follows
// automatically — precisely the invariant the paper requires ("the
// relationship expressed by the alignment function ... is kept invariant").
//
// A secondary's derived distribution CONSTRUCT(α, δ_B) is *cached* on the
// node: repeated distribution_of calls return the same shared payload, so
// the payload's memoized run tables (Distribution::run_memo) and plan
// signature (Distribution::plan_signature) stay warm across queries. Every mutation that can change a mapping — set_distribution,
// redistribute, realign, detachment, orphaning, removal — invalidates the
// affected nodes' cached payloads (for a primary, its whole subtree's), so
// a stale derived mapping can never be observed.
//
// Concurrency: the lazy fill inside distribution_of is guarded by a
// per-forest mutex, so any number of threads may query a const forest
// concurrently (the memo-publication rule every write-once cache in this
// codebase follows). Mutating calls still require exclusive access, like
// every other container.
#pragma once

#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/alignment.hpp"
#include "core/distribution.hpp"
#include "core/types.hpp"

namespace hpfnt {

class AlignmentForest {
 public:
  /// Registers `id` as a degenerate tree (primary, no children) with the
  /// given distribution.
  void add_primary(ArrayId id, Distribution dist);

  /// Registers `id` as a secondary of `base`. `base` must be a primary
  /// already in the forest (§2.4 constraint 1); `id` must not be present.
  void add_secondary(ArrayId id, ArrayId base, AlignmentFunction alpha);

  /// Specification-part ALIGN of an array already in the forest: converts a
  /// primary *without children* into a secondary of `base`. Aligning an
  /// array that other arrays are aligned to would build a tree of height 2
  /// (§2.4 limits heights to 1), so that is a conformance error — unlike
  /// the executable REALIGN, which first orphans the children (§5.2).
  void make_secondary(ArrayId id, ArrayId base, AlignmentFunction alpha);

  bool contains(ArrayId id) const noexcept;
  bool is_primary(ArrayId id) const;

  /// kNoArray for primaries.
  ArrayId parent_of(ArrayId id) const;

  const std::vector<ArrayId>& children_of(ArrayId id) const;

  /// The alignment function linking a secondary to its base.
  const AlignmentFunction& alignment_of(ArrayId id) const;

  /// δ of `id`: the stored distribution for primaries; CONSTRUCT(α, δ_base)
  /// for secondaries, built against the base's *current* distribution and
  /// cached on the node — repeated calls return a handle to one shared
  /// payload until a mutation of the node (or its base) invalidates it.
  /// The reference is valid until the next mutating call on this forest;
  /// copying the returned Distribution is cheap and shares the payload.
  const Distribution& distribution_of(ArrayId id) const;

  /// Replaces a primary's distribution directly (static DISTRIBUTE during
  /// specification processing). Throws for secondaries: an alignee's
  /// distribution is never specified directly.
  void set_distribution(ArrayId id, Distribution dist);

  /// REDISTRIBUTE semantics (§4.2). If `id` is secondary it is disconnected
  /// from its base and becomes the primary of a new degenerate tree with
  /// the new distribution; if primary, the distribution is replaced and all
  /// secondaries follow via their alignment functions.
  void redistribute(ArrayId id, Distribution dist);

  /// REALIGN semantics (§5.2):
  ///  1. if `id` is a primary with secondaries, they are disconnected and
  ///     become primaries of degenerate trees with their current
  ///     distributions; if `id` is secondary it is disconnected;
  ///  2. `id` becomes a secondary of `base`;
  ///  3. δ_id = CONSTRUCT(α, δ_base) from then on.
  /// `base` must be a primary and distinct from `id` (after step 1, which
  /// may itself have turned `base` into a primary).
  void realign(ArrayId id, ArrayId base, AlignmentFunction alpha);

  /// Removes `id` (DEALLOCATE §6, or scope exit): every secondary aligned
  /// to it becomes the primary of a new tree with its current distribution.
  void remove(ArrayId id);

  /// Number of arrays in the forest.
  std::size_t size() const noexcept { return nodes_.size(); }

  /// All ids, unordered.
  std::vector<ArrayId> ids() const;

  /// Verifies every §2.4 invariant (height <= 1, consistent parent/child
  /// links, primaries have distributions). Throws InternalError on failure;
  /// intended for tests and debug assertions.
  void check_invariants() const;

 private:
  struct Node {
    bool secondary = false;
    ArrayId parent = kNoArray;
    AlignmentFunction alpha = AlignmentFunction(
        IndexDomain(), IndexDomain(), {});  // valid only when secondary
    Distribution dist;                      // valid only when primary
    // Memo of CONSTRUCT(alpha, parent's dist), filled lazily by
    // distribution_of; invalid when the node is primary or the cache has
    // been invalidated by a mutation. Mutable: caching is not an observable
    // state change.
    mutable Distribution derived;
    std::vector<ArrayId> children;
  };

  Node& node(ArrayId id);
  const Node& node(ArrayId id) const;
  void detach_from_parent(ArrayId id);
  void orphan_children(ArrayId id);

  // Guards the lazy derived-payload fill in distribution_of, so concurrent
  // const readers publish the memo safely. Held behind a shared_ptr to keep
  // the forest copyable/movable; copies sharing one mutex is harmless (the
  // lock only serializes a cheap cache fill).
  mutable std::shared_ptr<std::mutex> derive_mu_ =
      std::make_shared<std::mutex>();

  /// Drops the cached derived payloads of `n` and (when primary) of every
  /// child, so the next distribution_of re-derives against current state.
  void invalidate_subtree(Node& n);

  std::unordered_map<ArrayId, Node> nodes_;
};

}  // namespace hpfnt
