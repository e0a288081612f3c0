// CONSTRUCT (paper Definition 4) derives the distribution of an alignee
// from its alignment function and the base array's distribution
// (Distribution::constructed):
//
//     δ_A = CONSTRUCT(α, δ_B),  δ_A(i) = ⋃_{j ∈ α(i)} δ_B(j)
//
// guaranteeing that A(i) and B(j) reside in the same processor for every
// j ∈ α(i), under *any* distribution of B. The verification helper below
// makes that collocation invariant checkable in tests and assertions.
#pragma once

#include "core/alignment.hpp"
#include "core/distribution.hpp"

namespace hpfnt {

/// Checks the §2.3 collocation guarantee on every alignee index: the owners
/// of B(j) are a subset of the owners of A(i) for each j ∈ α(i). Returns
/// the first violating alignee index, or nullopt when the invariant holds.
std::optional<IndexTuple> find_collocation_violation(
    const AlignmentFunction& alpha, const Distribution& base_distribution,
    const Distribution& derived_distribution);

}  // namespace hpfnt
