#include "core/inquiry.hpp"

namespace hpfnt {

const char* dim_kind_name(DimKind kind) {
  switch (kind) {
    case DimKind::kBlock:
      return "BLOCK";
    case DimKind::kViennaBlock:
      return "VIENNA_BLOCK";
    case DimKind::kGeneralBlock:
      return "GENERAL_BLOCK";
    case DimKind::kCyclic:
      return "CYCLIC";
    case DimKind::kCollapsed:
      return "COLLAPSED";
    case DimKind::kIndirect:
      return "INDIRECT";
    case DimKind::kUserDefined:
      return "USER_DEFINED";
    case DimKind::kDerived:
      return "DERIVED";
  }
  return "?";
}

namespace {
DimKind dim_kind_of(FormatKind kind) {
  switch (kind) {
    case FormatKind::kBlock:
      return DimKind::kBlock;
    case FormatKind::kViennaBlock:
      return DimKind::kViennaBlock;
    case FormatKind::kGeneralBlock:
      return DimKind::kGeneralBlock;
    case FormatKind::kCyclic:
      return DimKind::kCyclic;
    case FormatKind::kCollapsed:
      return DimKind::kCollapsed;
    case FormatKind::kIndirect:
      return DimKind::kIndirect;
    case FormatKind::kUserDefined:
      return DimKind::kUserDefined;
  }
  return DimKind::kDerived;
}
}  // namespace

DistributionInfo inquire_distribution(const Distribution& dist) {
  DistributionInfo info;
  info.kind = dist.kind();
  info.rank = dist.domain().rank();
  info.replicated = dist.replicates();
  info.description = dist.to_string();
  if (dist.kind() == Distribution::Kind::kFormats) {
    info.target = dist.target().to_string();
    for (int d = 0; d < info.rank; ++d) {
      const DistFormat& f =
          dist.format_list()[static_cast<std::size_t>(d)];
      info.dim_kinds.push_back(dim_kind_of(f.kind()));
      info.cyclic_k.push_back(f.kind() == FormatKind::kCyclic ? f.cyclic_k()
                                                              : 0);
    }
  } else {
    info.dim_kinds.assign(static_cast<std::size_t>(info.rank),
                          DimKind::kDerived);
    info.cyclic_k.assign(static_cast<std::size_t>(info.rank), 0);
  }
  return info;
}

AlignmentInfo inquire_alignment(const DataEnv& env, const DistArray& array) {
  AlignmentInfo info;
  const DistArray* base = env.aligned_to(array);
  if (base == nullptr) return info;
  info.is_aligned = true;
  info.base_name = base->name();
  const AlignmentFunction& alpha = env.forest().alignment_of(array.id());
  info.function = alpha.to_string();
  info.replicated = alpha.replicates();
  return info;
}

Extent number_of_processors(const ProcessorSpace& space) {
  return space.processor_count();
}

}  // namespace hpfnt
