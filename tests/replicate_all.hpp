// Fully replicated layouts for tests, spelled as formats: a user-defined
// format whose every index is owned by every position 1..NP of its target
// dimension (§2.2's set-valued distributions).
#pragma once

#include <utility>
#include <vector>

#include "core/distribution.hpp"

namespace hpfnt {

/// The per-dimension format: index i of 1..N lives on positions 1..NP.
inline DistFormat replicate_all_format() {
  return DistFormat::user_defined(
      "replicate_all", [](Index1, Extent, Extent np) {
        DimOwnerSet owners;
        for (Index1 p = 1; p <= np; ++p) owners.push_back(p);
        return owners;
      });
}

/// Replicates every element of `domain` over all of `target`, whose rank
/// must equal the domain's.
inline Distribution replicated_over(const IndexDomain& domain,
                                    ProcessorRef target) {
  std::vector<DistFormat> formats(static_cast<std::size_t>(domain.rank()),
                                  replicate_all_format());
  return Distribution::formats(domain, std::move(formats), std::move(target));
}

}  // namespace hpfnt
