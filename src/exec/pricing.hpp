// The shared per-statement charge walks — the exec layer's owner-computes
// pricing loops, factored so they have exactly two callers:
//
//   * the EXECUTOR: assign_impl (exec/assign.cpp) and
//     ProgramState::apply_remap (exec/storage.cpp) drive them with a
//     CommEngine inside an open (recording) step;
//   * the STATIC COST MODEL (analysis/cost_model.hpp) drives them with a
//     storage-free StepPricer sink over distributions bound by the static
//     walk's DataEnv (analysis/walk.hpp) — no ProgramState, no data, same
//     charges.
//
// The whole assignment schedule, schedule_assign, has the same two
// callers: assign_impl and CostModel::assign. So does remap_step_label.
//
// Together with the shared plan-key builders (exec/comm_plan.hpp) and the
// shared statistics arithmetic (machine/step_pricer.hpp) this makes the
// cost model's predictions differential BY CONSTRUCTION: the predicted
// charge stream, the predicted plan key, and the predicted StepStats are
// produced by the same code the executor runs, so they cannot drift —
// tests/test_cost_model.cpp checks the byte-exact equality anyway.
//
// The Engine concept: transfer_block(src, dst, elem_bytes, count),
// count_local_reads(n), compute(p, flops), begin_posted(), end_posted().
// CommEngine satisfies it directly.
#pragma once

#include <string>
#include <vector>

#include "core/data_env.hpp"
#include "core/layout_view.hpp"
#include "core/types.hpp"
#include "exec/comm_plan.hpp"
#include "exec/overlap.hpp"
#include "exec/section_expr.hpp"
#include "support/error.hpp"

namespace hpfnt {

/// The owner-computes charge stream of one assignment step (pass 2 of
/// exec/assign.cpp): per common constant-owner segment of the LHS and each
/// operand, the computing (canonical minimum) LHS owner reads locally or
/// receives one block transfer; leaves flagged `posted` charge inside a
/// posted phase (halo exchange overlapped with compute); finally each LHS
/// run charges its compute and broadcasts to replicas beyond the computing
/// owner. `leaf_bytes[l]` is operand l's element size, `elem_bytes` the
/// LHS's, `flops` the per-element cost of the RHS.
template <class Engine>
void charge_assign_step(const LayoutView& lhs_view,
                        const std::vector<LayoutView>& leaf_views,
                        const std::vector<Extent>& leaf_bytes,
                        const std::vector<char>& posted, Extent elem_bytes,
                        Extent flops, Engine& engine) {
  // The computing processor of a segment is the canonical (minimum) LHS
  // owner; operand segments it does not own arrive as one transfer each,
  // carrying the element count.
  auto charge_reads = [&](Extent count, const OwnerSet& lhs_owners,
                          const OwnerSet& leaf_owners, Extent bytes) {
    const ApId p = min_owner(lhs_owners);
    if (owner_set_contains(leaf_owners, p)) {
      engine.count_local_reads(count);
    } else {
      engine.transfer_block(min_owner(leaf_owners), p, bytes, count);
    }
  };
  for (std::size_t l = 0; l < leaf_views.size(); ++l) {
    const LayoutView& leaf_view = leaf_views[l];
    const Extent bytes = leaf_bytes[l];
    if (leaf_view.size() != lhs_view.size()) {
      // Conformance admits an empty squeezed RHS shape: a single-element
      // leaf (all unit dimensions, fixed at position 1) broadcast over
      // the whole LHS section. Every LHS element reads that one element.
      if (leaf_view.size() != 1) {
        throw InternalError("nonconforming operand run table in assignment");
      }
      const OwnerSet& leaf_owners = leaf_view.runs().front().owners;
      for (const OwnerRun& r : lhs_view.runs()) {
        charge_reads(r.count, r.owners, leaf_owners, bytes);
      }
      continue;
    }
    // A covered leaf's remote segments are all halo transfers (the
    // plan==measure property of plan_shift): charge them in the posted
    // phase so they overlap the compute and record as boundary transfers.
    if (posted[l]) engine.begin_posted();
    for_each_common_segment(
        lhs_view.table(), leaf_view.table(),
        [&](Extent, Extent count, const OwnerSet& lhs_owners,
            const OwnerSet& leaf_owners) {
          charge_reads(count, lhs_owners, leaf_owners, bytes);
        });
    if (posted[l]) engine.end_posted();
  }
  for (const OwnerRun& r : lhs_view.runs()) {
    const ApId p = min_owner(r.owners);
    if (flops > 0) engine.compute(p, flops * r.count);
    // Replicas beyond the computing owner receive the run by message.
    for (ApId q : r.owners) {
      if (q != p) engine.transfer_block(p, q, elem_bytes, r.count);
    }
  }
}

/// One operand's mapping as the assignment schedule reads it: its layout
/// and its declared shadow widths.
struct LeafLayout {
  const Distribution* dist;
  const std::vector<ShadowWidth>* shadow;
};

/// The schedule of one assignment step: (1) with `overlap`, leaf l is
/// posted iff classify_operand_comm says kPosted; (2) with `keyed`, the
/// plan key (assign_plan_key); (3) `price(key, charge)`, where
/// `charge(engine)` builds the run tables, runs charge_assign_step into
/// `engine` and returns the tables' ownership queries. The executor looks
/// the key up and charges only on a miss; the cost model always charges.
/// `layout_of(leaf)` gives the leaf's LeafLayout (ProgramState storage in
/// the executor, the walk's DataEnv in the cost model). Returns the phase
/// bits, in SecExpr::leaves() order.
template <class LayoutOf, class Price>
std::vector<char> schedule_assign(const Distribution& lhs_dist,
                                  const std::vector<Triplet>& lhs_section,
                                  const std::vector<SecLeaf>& leaves,
                                  Extent elem_bytes, Extent flops,
                                  bool overlap, bool keyed,
                                  LayoutOf&& layout_of, Price&& price) {
  std::vector<char> posted(leaves.size(), 0);
  if (overlap) {
    for (std::size_t l = 0; l < leaves.size(); ++l) {
      const LeafLayout leaf = layout_of(leaves[l]);
      posted[l] = classify_operand_comm(lhs_dist, lhs_section, *leaf.dist,
                                        *leaves[l].section, *leaf.shadow) ==
                  CommClass::kPosted;
    }
  }

  std::string key;
  if (keyed) {
    std::vector<AssignKeyLeaf> key_leaves;
    key_leaves.reserve(leaves.size());
    for (std::size_t l = 0; l < leaves.size(); ++l) {
      const LeafLayout leaf = layout_of(leaves[l]);
      key_leaves.push_back({leaf.dist, leaves[l].section, leaves[l].bytes,
                            posted[l] != 0, leaf.shadow});
    }
    key = assign_plan_key(lhs_dist, lhs_section, elem_bytes, flops,
                          key_leaves);
  }

  // All sections conform, so one linear position space [0, size) indexes
  // every run table; communication is decided per constant-owner segment.
  auto charge = [&](auto& engine) -> Extent {
    const LayoutView lhs_view(lhs_dist, lhs_section);
    std::vector<LayoutView> leaf_views;
    std::vector<Extent> leaf_bytes;
    leaf_views.reserve(leaves.size());
    leaf_bytes.reserve(leaves.size());
    for (const SecLeaf& leaf : leaves) {
      leaf_views.emplace_back(*layout_of(leaf).dist, *leaf.section);
      leaf_bytes.push_back(leaf.bytes);
    }
    charge_assign_step(lhs_view, leaf_views, leaf_bytes, posted, elem_bytes,
                       flops, engine);
    Extent queries = lhs_view.ownership_queries();
    for (const LayoutView& v : leaf_views) queries += v.ownership_queries();
    return queries;
  };
  price(key, charge);
  return posted;
}

/// The label of a remap step: the event's reason, else "remap <array>".
inline std::string remap_step_label(const RemapEvent& event,
                                    const std::string& array_name) {
  return event.reason.empty() ? ("remap " + array_name) : event.reason;
}

/// The charge stream of one remap step (ProgramState::apply_remap): per
/// common constant-owner segment of the old and new whole-domain layouts,
/// every new owner lacking the value receives it from the canonical
/// (minimum) old owner. `on_replica_delta(p, delta)` reports the replica
/// appearances (+bytes) and disappearances (-bytes) in charge order — the
/// executor folds them per processor (MemoryDeltaFold) into memory
/// accounting and the recorded plan's mem_ops; the cost model passes a
/// no-op (StepStats carries no memory).
template <class Engine, class ReplicaFn>
void charge_remap_step(const Distribution& from, const Distribution& to,
                       Extent elem_bytes, Engine& engine,
                       ReplicaFn&& on_replica_delta) {
  const LayoutView from_view = LayoutView::whole(from);
  const LayoutView to_view = LayoutView::whole(to);
  for_each_common_segment(
      from_view.table(), to_view.table(),
      [&](Extent, Extent count, const OwnerSet& old_owners,
          const OwnerSet& new_owners) {
        // The sending replica is the canonical (minimum) owner, the
        // convention of Distribution::first_owner and the assignment
        // executor; owner sets are not sorted in general.
        const ApId src = min_owner(old_owners);
        for (ApId q : new_owners) {
          if (!owner_set_contains(old_owners, q)) {
            engine.transfer_block(src, q, elem_bytes, count);
          }
        }
        // Memory accounting: replicas appear/disappear with the owner sets.
        for (ApId q : new_owners) {
          if (!owner_set_contains(old_owners, q)) {
            on_replica_delta(q, elem_bytes * count);
          }
        }
        for (ApId o : old_owners) {
          if (!owner_set_contains(new_owners, o)) {
            on_replica_delta(o, -(elem_bytes * count));
          }
        }
      });
}

/// The charge stream of one section-copy step (ProgramState::copy_section,
/// the procedure argument path): per common segment of the two sections'
/// run tables, destination owners that do not already hold the value
/// receive it from the sources' canonical (minimum) replica; owners that
/// do hold it are counted as local reads, keeping the read statistics
/// symmetric with assign.
template <class Engine>
void charge_copy_step(const LayoutView& dst_view, const LayoutView& src_view,
                      Extent elem_bytes, Engine& engine) {
  for_each_common_segment(
      dst_view.table(), src_view.table(),
      [&](Extent, Extent count, const OwnerSet& dst_owners,
          const OwnerSet& src_owners) {
        const ApId sender = min_owner(src_owners);
        for (ApId q : dst_owners) {
          if (owner_set_contains(src_owners, q)) {
            engine.count_local_reads(count);
          } else {
            engine.transfer_block(sender, q, elem_bytes, count);
          }
        }
      });
}

}  // namespace hpfnt
