// Array descriptors. A DistArray is the model-level description of a data
// array (or scalar, as a rank-0 array, §2.2): its name, element type, index
// domain, and the attribute flags that drive mapping semantics — DYNAMIC
// (may be REDISTRIBUTE/REALIGNed, §4.2/§5.2) and ALLOCATABLE (created and
// destroyed by ALLOCATE/DEALLOCATE, §6). Dummy arguments are marked so the
// procedure rules of §7 can restore mappings on exit.
//
// Descriptors carry no data; element storage lives in the simulated
// processor memories (exec/storage).
#pragma once

#include <string>
#include <vector>

#include "core/index_domain.hpp"
#include "core/types.hpp"

namespace hpfnt {

enum class ElemType { kReal, kDoublePrecision, kInteger, kLogical };

/// Declared shadow (ghost-region) widths of one array dimension, per the
/// HPF/JA SHADOW directive: `left` ghost cells below each owner's local
/// range and `right` above it. Zero widths mean no shadow — the default —
/// and every pre-shadow behavior is unchanged.
struct ShadowWidth {
  Extent left = 0;
  Extent right = 0;

  friend bool operator==(const ShadowWidth& a, const ShadowWidth& b) {
    return a.left == b.left && a.right == b.right;
  }
};

/// Storage size in bytes, used by the communication cost model.
Extent elem_bytes(ElemType type);

const char* elem_type_name(ElemType type);

struct ArrayAttrs {
  bool dynamic = false;      // DYNAMIC directive given
  bool allocatable = false;  // ALLOCATABLE attribute
};

class DistArray {
 public:
  DistArray(ArrayId id, std::string name, ElemType type, IndexDomain domain,
            ArrayAttrs attrs);

  /// Allocatable declaration: the shape is deferred until ALLOCATE.
  DistArray(ArrayId id, std::string name, ElemType type, int rank,
            ArrayAttrs attrs);

  ArrayId id() const noexcept { return id_; }
  const std::string& name() const noexcept { return name_; }
  ElemType type() const noexcept { return type_; }
  int rank() const noexcept { return rank_; }
  const ArrayAttrs& attrs() const noexcept { return attrs_; }

  bool is_dynamic() const noexcept { return attrs_.dynamic; }
  bool is_allocatable() const noexcept { return attrs_.allocatable; }

  /// True between creation (declaration, or ALLOCATE for allocatables) and
  /// DEALLOCATE. Only created arrays participate in the alignment forest
  /// (§2.4 considers arrays that "have been created").
  bool is_created() const noexcept { return created_; }

  /// The array's standard index domain I^A. Only valid when created.
  const IndexDomain& domain() const;

  bool is_dummy() const noexcept { return is_dummy_; }

  /// Declared per-dimension shadow widths (SHADOW directive). Empty when
  /// the array has no shadow; otherwise exactly rank() entries.
  const std::vector<ShadowWidth>& shadow() const noexcept { return shadow_; }
  bool has_shadow() const noexcept;

  /// Declares the shadow widths (one per dimension, all >= 0, none wider
  /// than its dimension's extent — checked here for a created array, at
  /// ALLOCATE for an allocatable). Storage layers materialize the ghost
  /// cells when the array's storage is (re)created.
  void set_shadow(std::vector<ShadowWidth> widths);

  Extent size() const { return domain().size(); }
  Extent bytes() const { return size() * elem_bytes(type_); }

  std::string to_string() const;

 private:
  friend class DataEnv;

  void create(IndexDomain domain);
  void destroy();
  void mark_dummy() noexcept { is_dummy_ = true; }
  void mark_dynamic() noexcept { attrs_.dynamic = true; }

  ArrayId id_;
  std::string name_;
  ElemType type_;
  int rank_;
  IndexDomain domain_;
  ArrayAttrs attrs_;
  std::vector<ShadowWidth> shadow_;  // empty, or one entry per dimension
  bool created_ = false;
  bool is_dummy_ = false;
};

}  // namespace hpfnt
