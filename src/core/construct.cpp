#include "core/construct.hpp"

namespace hpfnt {

std::optional<IndexTuple> find_collocation_violation(
    const AlignmentFunction& alpha, const Distribution& base_distribution,
    const Distribution& derived_distribution) {
  std::optional<IndexTuple> violation;
  alpha.alignee_domain().for_each([&](const IndexTuple& i) {
    if (violation.has_value()) return;
    OwnerSet derived = derived_distribution.owners(i);
    alpha.for_each_image(i, [&](const IndexTuple& j) {
      if (violation.has_value()) return;
      for (ApId p : base_distribution.owners(j)) {
        bool found = false;
        for (ApId q : derived) {
          if (q == p) {
            found = true;
            break;
          }
        }
        if (!found) {
          violation = i;
          return;
        }
      }
    });
  });
  return violation;
}

}  // namespace hpfnt
