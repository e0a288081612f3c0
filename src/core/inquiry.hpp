// Inquiry functions (paper §8.1.2/§8.2): "inquiry functions must be used to
// determine the properties of alignments and/or distributions passed into
// the subroutine". These mirror the HPF intrinsics the model relies on —
// a callee that inherited a mapping it cannot name syntactically can still
// observe every aspect of it.
#pragma once

#include <string>
#include <vector>

#include "core/data_env.hpp"
#include "core/distribution.hpp"

namespace hpfnt {

/// HPF DISTRIBUTION_KIND-style description of one dimension's mapping.
enum class DimKind {
  kBlock,
  kViennaBlock,
  kGeneralBlock,
  kCyclic,
  kCollapsed,
  kIndirect,
  kUserDefined,
  kDerived,  // not expressible as a per-dimension format (constructed
             // or section view)
};

const char* dim_kind_name(DimKind kind);

struct DistributionInfo {
  Distribution::Kind kind = Distribution::Kind::kFormats;
  int rank = 0;
  bool replicated = false;
  std::vector<DimKind> dim_kinds;          // per array dimension
  std::vector<Extent> cyclic_k;            // parallel; 0 when meaningless
  std::string target;                      // target name, "" when derived
  std::string description;                 // human-readable rendering
};

/// HPF_DISTRIBUTION: everything observable about a mapping.
DistributionInfo inquire_distribution(const Distribution& dist);

struct AlignmentInfo {
  bool is_aligned = false;      // secondary array?
  std::string base_name;        // alignment base ("" for primaries)
  std::string function;         // rendered alignment function
  bool replicated = false;      // does α replicate?
};

/// HPF_ALIGNMENT: the array's position in the alignment forest.
AlignmentInfo inquire_alignment(const DataEnv& env, const DistArray& array);

/// NUMBER_OF_PROCESSORS().
Extent number_of_processors(const ProcessorSpace& space);

}  // namespace hpfnt
