#include "core/triplet.hpp"

#include <limits>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace hpfnt {

Triplet::Triplet(Index1 lower, Index1 upper, Index1 stride)
    : lower_(lower), upper_(upper), stride_(stride) {
  if (stride == 0) {
    throw MappingError("subscript triplet stride must be nonzero");
  }
  // size() divides upper - lower + stride by the stride; reject a triplet
  // whose span (or count) does not fit an Extent rather than let it wrap.
  Index1 span = 0;
  if (__builtin_sub_overflow(upper, lower, &span) ||
      __builtin_add_overflow(span, stride, &span) ||
      (stride == -1 && span == std::numeric_limits<Index1>::min())) {
    throw MappingError(cat("subscript triplet ", to_string(),
                           " has more indices than an extent can hold"));
  }
}

Extent Triplet::size() const noexcept {
  const Index1 span = upper_ - lower_ + stride_;
  const Index1 count = span / stride_;
  return count > 0 ? count : 0;
}

bool Triplet::contains(Index1 i) const noexcept {
  if (stride_ > 0) {
    if (i < lower_ || i > upper_) return false;
  } else {
    if (i > lower_ || i < upper_) return false;
  }
  return (i - lower_) % stride_ == 0;
}

Extent Triplet::position_of(Index1 i) const {
  if (!contains(i)) {
    throw MappingError(cat("index ", i, " is not in triplet ", to_string()));
  }
  return (i - lower_) / stride_;
}

Index1 Triplet::last() const {
  if (empty()) throw MappingError("last() of empty triplet " + to_string());
  return lower_ + (size() - 1) * stride_;
}

Triplet Triplet::subsection(const Triplet& inner) const {
  const Extent n = size();
  if (!inner.empty()) {
    const Extent first = inner.lower() - 1;
    const Extent last = inner.last() - 1;
    if (first < 0 || first >= n || last < 0 || last >= n) {
      throw MappingError(cat("subsection ", inner.to_string(),
                             " exceeds the ", n, " elements of ",
                             to_string()));
    }
  }
  return Triplet(lower_ + (inner.lower() - 1) * stride_,
                 lower_ + (inner.upper() - 1) * stride_,
                 stride_ * inner.stride());
}

std::string Triplet::to_string() const {
  std::string out = cat(lower_, ":", upper_);
  if (stride_ != 1) out += cat(":", stride_);
  return out;
}

void Triplet::append_signature(std::string& out) const {
  append_raw(out, lower_);
  append_raw(out, upper_);
  append_raw(out, stride_);
}

std::vector<Extent> squeezed_shape(const std::vector<Triplet>& section) {
  std::vector<Extent> shape;
  shape.reserve(section.size());
  for (const Triplet& t : section) {
    if (t.size() != 1) shape.push_back(t.size());
  }
  return shape;
}

std::string render_section(const std::string& name,
                           const std::vector<Triplet>& section) {
  std::string out = name + "(";
  for (std::size_t d = 0; d < section.size(); ++d) {
    if (d) out += ",";
    out += section[d].to_string();
  }
  return out + ")";
}

}  // namespace hpfnt
