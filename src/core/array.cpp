#include "core/array.hpp"

#include <algorithm>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace hpfnt {

namespace {

// A halo reaches at most into a neighbour's whole dimension; a wider one
// names elements that do not exist.
void check_shadow_fits(const std::string& name,
                       const std::vector<ShadowWidth>& widths,
                       const IndexDomain& domain) {
  for (std::size_t d = 0; d < widths.size(); ++d) {
    const Extent extent = domain.extent(static_cast<int>(d));
    const Extent width = std::max(widths[d].left, widths[d].right);
    if (width > extent) {
      throw ConformanceError(cat("SHADOW width ", width, " of dimension ",
                                 d + 1, " of '", name, "' exceeds its extent ",
                                 extent));
    }
  }
}

}  // namespace

Extent elem_bytes(ElemType type) {
  switch (type) {
    case ElemType::kReal:
      return 4;
    case ElemType::kDoublePrecision:
      return 8;
    case ElemType::kInteger:
      return 4;
    case ElemType::kLogical:
      return 4;
  }
  return 4;
}

const char* elem_type_name(ElemType type) {
  switch (type) {
    case ElemType::kReal:
      return "REAL";
    case ElemType::kDoublePrecision:
      return "DOUBLE PRECISION";
    case ElemType::kInteger:
      return "INTEGER";
    case ElemType::kLogical:
      return "LOGICAL";
  }
  return "?";
}

DistArray::DistArray(ArrayId id, std::string name, ElemType type,
                     IndexDomain domain, ArrayAttrs attrs)
    : id_(id),
      name_(std::move(name)),
      type_(type),
      rank_(domain.rank()),
      domain_(std::move(domain)),
      attrs_(attrs),
      created_(true) {
  if (attrs_.allocatable) {
    // Allocatables with a full shape use the deferred constructor.
    created_ = false;
    domain_ = IndexDomain();
  }
}

DistArray::DistArray(ArrayId id, std::string name, ElemType type, int rank,
                     ArrayAttrs attrs)
    : id_(id), name_(std::move(name)), type_(type), rank_(rank), attrs_(attrs) {
  attrs_.allocatable = true;
}

const IndexDomain& DistArray::domain() const {
  if (!created_) {
    throw ConformanceError("array '" + name_ +
                           "' is not created (unallocated allocatable)");
  }
  return domain_;
}

void DistArray::create(IndexDomain domain) {
  if (created_) {
    throw ConformanceError("array '" + name_ + "' is already allocated");
  }
  if (domain.rank() != rank_) {
    throw ConformanceError(cat("ALLOCATE shape rank ", domain.rank(),
                               " differs from declared rank ", rank_, " of '",
                               name_, "'"));
  }
  check_shadow_fits(name_, shadow_, domain);
  domain_ = std::move(domain);
  created_ = true;
}

void DistArray::destroy() {
  if (!created_) {
    throw ConformanceError("array '" + name_ + "' is not allocated");
  }
  created_ = false;
  domain_ = IndexDomain();
}

bool DistArray::has_shadow() const noexcept {
  for (const ShadowWidth& w : shadow_) {
    if (w.left != 0 || w.right != 0) return true;
  }
  return false;
}

void DistArray::set_shadow(std::vector<ShadowWidth> widths) {
  if (static_cast<int>(widths.size()) != rank_) {
    throw ConformanceError(cat("SHADOW declares ", widths.size(),
                               " dimension widths for rank-", rank_, " '",
                               name_, "'"));
  }
  for (const ShadowWidth& w : widths) {
    if (w.left < 0 || w.right < 0) {
      throw ConformanceError("SHADOW widths must be nonnegative for '" +
                             name_ + "'");
    }
  }
  // An unallocated allocatable has no extents yet: ALLOCATE checks them.
  if (created_) check_shadow_fits(name_, widths, domain_);
  shadow_ = std::move(widths);
}

std::string DistArray::to_string() const {
  std::string out = cat(elem_type_name(type_), " ", name_);
  if (created_) {
    out += domain_.to_string();
  } else {
    out += cat("(rank ", rank_, ", unallocated)");
  }
  if (attrs_.allocatable) out += " ALLOCATABLE";
  if (attrs_.dynamic) out += " DYNAMIC";
  if (is_dummy_) out += " DUMMY";
  if (has_shadow()) {
    out += " SHADOW(";
    for (std::size_t d = 0; d < shadow_.size(); ++d) {
      if (d) out += ",";
      out += cat(shadow_[d].left, ":", shadow_[d].right);
    }
    out += ")";
  }
  return out;
}

}  // namespace hpfnt
