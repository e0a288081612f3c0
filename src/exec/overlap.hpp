// Overlap (ghost-region) analysis — the compile-time communication planning
// of the Vienna/SUPERB compilation system the paper builds on ([13], §9).
//
// For a one-dimensional bound mapping and a stencil shift k (the reference
// A(i+k) made by the owner of index i), this module computes analytically,
// without touching data:
//   * each processor's overlap area — how many remote elements it must
//     ghost on each side, and
//   * the shift schedule — which (src, dst) messages carry how many
//     elements.
// For the block family (BLOCK, VIENNA_BLOCK, GENERAL_BLOCK) the plan is
// closed-form over the block ranges; CYCLIC and irregular formats fall back
// to an exact enumeration. The tests verify that a plan predicts the
// executor's measured transfers *exactly* — plan(m, k) == measure(m, k) —
// so the analysis can be trusted as a cost model.
// The module is also the shared source of truth for split-phase plan
// recording (exec/assign.cpp, exec/comm_plan.hpp): section_shift detects a
// pure per-dimension shift between the target section and an operand's,
// shadow_covers decides whether declared shadow widths cover that shift on
// a structurally identical mapping (so ALL the operand's remote reads are
// halo transfers landing in ghost cells — boundary, posted), and
// shadow_areas gives the per-processor ghost allocation the storage layer
// materializes for declared widths.
#pragma once

#include <optional>
#include <vector>

#include "core/array.hpp"
#include "core/dist_format.hpp"
#include "core/triplet.hpp"

namespace hpfnt {

class Distribution;

/// One planned message of a shift: `count` elements travelling src -> dst.
struct ShiftMessage {
  Index1 src = 0;  // 1-based positions within the mapping's target
  Index1 dst = 0;
  Extent count = 0;

  friend bool operator==(const ShiftMessage& a, const ShiftMessage& b) {
    return a.src == b.src && a.dst == b.dst && a.count == b.count;
  }
};

struct ShiftPlan {
  Extent shift = 0;
  Extent remote_elements = 0;            // total ghost elements
  std::vector<ShiftMessage> messages;    // sorted by (src, dst)

  /// Ghost elements processor p must receive (its overlap area width for
  /// this shift).
  Extent ghost_of(Index1 p) const;
};

/// Plans the communication of evaluating A(i+shift) on the owner of i, for
/// all i with i+shift inside [1 : m.n()]. Positive shifts read rightward,
/// negative leftward, zero plans nothing.
ShiftPlan plan_shift(const DimMapping& m, Extent shift);

/// The symmetric overlap area of a processor for a set of stencil shifts:
/// the union of ghost requirements (e.g. {-1, +1} for a 3-point stencil).
struct OverlapArea {
  Extent left = 0;   // ghost elements below the local range
  Extent right = 0;  // ghost elements above it
};

/// Overlap areas per processor (index p-1) for the given shifts. Only
/// meaningful for contiguous (block-family) mappings; throws InternalError
/// otherwise.
std::vector<OverlapArea> overlap_areas(const DimMapping& m,
                                       const std::vector<Extent>& shifts);

/// The per-dimension translation taking `from` onto `to`, when `to` is a
/// pure shift of `from`: equal rank, and in every dimension the same
/// extent and stride with both bounds offset by one constant. Returns the
/// constants (zero where the dimensions coincide), or nullopt when the
/// sections are not a pure shift of each other.
std::optional<std::vector<Extent>> section_shift(
    const std::vector<Triplet>& from, const std::vector<Triplet>& to);

/// The split-phase coverage rule: true iff every remote read of an operand
/// that is a `shifts`-translate of the target section is a halo read into
/// `lhs`'s declared ghost cells, so the whole operand's exchange can be
/// POSTED (overlapped with interior compute). Requires both distributions
/// to be kFormats and structurally equal; each shifted dimension must be
/// either collapsed (the dimension is not distributed, so the shift stays
/// local) or contiguous with `shadow` at least as wide as the shift on the
/// shifted side. `shadow` may be empty (no declared widths).
bool shadow_covers(const Distribution& lhs, const Distribution& leaf,
                   const std::vector<Extent>& shifts,
                   const std::vector<ShadowWidth>& shadow);

/// Static communication class of one RHS operand of an owner-computes
/// assignment LHS(section) = ...operand(section)... — decidable from the
/// mappings and sections alone, before any pricing run (the paper's core
/// claim: distribution and alignment are statically known).
enum class CommClass {
  kLocal,   ///< every read is satisfied by the computing owner itself
  kPosted,  ///< pure halo exchange into declared shadow; overlaps compute
  kSync,    ///< at least one remote read outside ghost cells; blocks
};

/// The record-time partition rule of exec/assign.cpp, exposed as a pure
/// predicate so the static analyzer (src/analysis/) and the executor can
/// never disagree — the phase bits of a sealed plan's flows
/// (PairFlow::posted) come from exactly this classification (differential
/// tests pin the equality):
///   * kLocal  — the operand section is the unshifted translate of the LHS
///     section on a structurally identical mapping: the computing owner of
///     every element owns the operand element too;
///   * kPosted — a pure nonzero per-dimension shift (section_shift) whose
///     every shifted dimension is collapsed or contiguous with declared
///     `shadow` at least as wide as the shift (shadow_covers): all remote
///     reads are halo transfers landing in ghost cells;
///   * kSync   — everything else (non-translate sections, broadcasts,
///     mapping mismatches, insufficient shadow).
/// `shadow` is the operand array's declared widths (may be empty).
CommClass classify_operand_comm(const Distribution& lhs,
                                const std::vector<Triplet>& lhs_section,
                                const Distribution& leaf,
                                const std::vector<Triplet>& leaf_section,
                                const std::vector<ShadowWidth>& shadow);

/// Ghost cells each processor (index p-1) materializes in one dimension
/// for declared widths {left, right}: the declared widths clamped to the
/// array bounds around the processor's block — the union of the ghost
/// regions of every shift the shadow can cover. Positions owning no
/// elements allocate no ghosts. Contiguous mappings only (InternalError
/// otherwise, like overlap_areas).
std::vector<OverlapArea> shadow_areas(const DimMapping& m, Extent left,
                                      Extent right);

}  // namespace hpfnt
