#include "core/distribution.hpp"

#include <algorithm>
#include <array>
#include <memory>

#include "core/layout_view.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace hpfnt {

namespace {

void insert_unique(OwnerSet& set, ApId p) {
  for (ApId q : set) {
    if (q == p) return;
  }
  set.push_back(p);
}

OwnerSet sorted(OwnerSet set) {
  std::sort(set.begin(), set.end());
  return set;
}

}  // namespace

OwnerSet compose_dim_owners(
    const ProcessorRef& target,
    const std::array<const DimOwnerSet*, kMaxRank>& sets,
    std::size_t dim_count) {
  OwnerSet out;
  bool any_multi = false;
  for (std::size_t k = 0; k < dim_count; ++k) {
    if (sets[k]->size() > 1) any_multi = true;
  }
  IndexTuple coords;
  coords.resize(dim_count);
  if (!any_multi) {
    for (std::size_t k = 0; k < dim_count; ++k) coords[k] = sets[k]->front();
    for (ApId p : target.owners_at(coords)) insert_unique(out, p);
    return out;
  }
  // Cartesian product over replicated per-dimension owner sets, first
  // dimension's positions varying fastest.
  SmallVector<Index1, kMaxRank> pos(dim_count, 0);
  while (true) {
    for (std::size_t k = 0; k < dim_count; ++k) {
      coords[k] = (*sets[k])[static_cast<std::size_t>(pos[k])];
    }
    for (ApId p : target.owners_at(coords)) insert_unique(out, p);
    std::size_t k = 0;
    for (; k < dim_count; ++k) {
      if (static_cast<std::size_t>(++pos[k]) < sets[k]->size()) break;
      pos[k] = 0;
    }
    if (k == dim_count) break;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Payload hierarchy (internal).
// ---------------------------------------------------------------------------

struct Distribution::Payload {
  virtual ~Payload() { delete signature.load(std::memory_order_acquire); }

  // Run tables computed by LayoutView, shared by all copies of this payload.
  mutable RunMemo memo;

  // Plan-signature memo (Distribution::plan_signature): built on first
  // use, published once by CAS and never replaced, owned by the payload.
  // Every input to the signature is fixed for the payload's lifetime, so
  // like the run-table memo it needs no invalidation.
  mutable std::atomic<const std::string*> signature{nullptr};

  virtual Kind kind() const = 0;
  virtual const IndexDomain& domain() const = 0;
  virtual OwnerSet owners(const IndexTuple& index) const = 0;
  virtual bool replicates() const = 0;
  virtual std::string to_string() const = 0;

  // Generic element-iteration fallbacks; specialized payloads override.
  virtual Extent local_count(ApId p) const {
    Extent count = 0;
    domain().for_each([&](const IndexTuple& idx) {
      for (ApId q : owners(idx)) {
        if (q == p) {
          ++count;
          break;
        }
      }
    });
    return count;
  }

  virtual void for_each_owned(
      ApId p, const std::function<void(const IndexTuple&)>& fn) const {
    domain().for_each([&](const IndexTuple& idx) {
      for (ApId q : owners(idx)) {
        if (q == p) {
          fn(idx);
          break;
        }
      }
    });
  }
};

// --- kFormats ---------------------------------------------------------------

struct Distribution::FormatsPayload final : Distribution::Payload {
  IndexDomain array_domain;
  std::vector<DistFormat> format_list;
  ProcessorRef target;
  std::vector<DimMapping> mappings;   // one per array dimension
  std::vector<int> target_dim_of;     // -1 for collapsed dimensions

  Kind kind() const override { return Kind::kFormats; }
  const IndexDomain& domain() const override { return array_domain; }

  bool replicates() const override {
    for (const DimMapping& m : mappings) {
      if (m.may_replicate()) return true;
    }
    if (target.arrangement().is_scalar()) {
      // Replication depends on the space's scalar-placement policy; probe.
      return target.owners_at(IndexTuple{}).size() > 1;
    }
    return false;
  }

  OwnerSet owners(const IndexTuple& index) const override {
    if (!array_domain.contains(index)) {
      throw MappingError(cat("index outside distributee domain ",
                             array_domain.to_string()));
    }
    const int n = array_domain.rank();
    // Per-dimension owner positions; usually singletons. A fixed-size array
    // (rank <= kMaxRank, DimOwnerSet inline) keeps the single-owner fast
    // path free of heap allocation.
    std::array<DimOwnerSet, kMaxRank> dim_owners;
    std::array<const DimOwnerSet*, kMaxRank> dim_sets{};
    std::size_t dim_count = 0;
    for (int d = 0; d < n; ++d) {
      const DimMapping& m = mappings[static_cast<std::size_t>(d)];
      if (m.kind() == FormatKind::kCollapsed) continue;
      const Index1 norm =
          index[static_cast<std::size_t>(d)] - array_domain.lower(d) + 1;
      dim_owners[dim_count] = m.owners(norm);
      dim_sets[dim_count] = &dim_owners[dim_count];
      ++dim_count;
    }
    return compose_dim_owners(target, dim_sets, dim_count);
  }

  Extent local_count(ApId p) const override {
    Extent total = 0;
    target.domain().for_each([&](const IndexTuple& coords) {
      OwnerSet procs = target.owners_at(coords);
      bool mine = false;
      for (ApId q : procs) {
        if (q == p) mine = true;
      }
      if (!mine) return;
      Extent product = 1;
      std::size_t c = 0;
      for (std::size_t d = 0; d < mappings.size(); ++d) {
        const DimMapping& m = mappings[d];
        if (m.kind() == FormatKind::kCollapsed) {
          product *= m.n();
        } else {
          product *= m.local_count(coords[c++]);
        }
      }
      total += product;
    });
    return total;
  }

  void for_each_owned(
      ApId p, const std::function<void(const IndexTuple&)>& fn) const override {
    const int n = array_domain.rank();
    target.domain().for_each([&](const IndexTuple& coords) {
      OwnerSet procs = target.owners_at(coords);
      bool mine = false;
      for (ApId q : procs) {
        if (q == p) mine = true;
      }
      if (!mine) return;
      // Enumerate the cartesian product of per-dimension owned index lists
      // in Fortran order (first dimension fastest).
      std::vector<std::vector<Index1>> lists(static_cast<std::size_t>(n));
      std::size_t c = 0;
      for (int d = 0; d < n; ++d) {
        const DimMapping& m = mappings[static_cast<std::size_t>(d)];
        auto& list = lists[static_cast<std::size_t>(d)];
        const Index1 base = array_domain.lower(d) - 1;
        if (m.kind() == FormatKind::kCollapsed) {
          list.reserve(static_cast<std::size_t>(m.n()));
          for (Index1 i = 1; i <= m.n(); ++i) list.push_back(base + i);
        } else {
          m.for_each_owned(coords[c++],
                           [&](Index1 i) { list.push_back(base + i); });
        }
        if (list.empty()) return;  // this coordinate owns nothing
      }
      IndexTuple idx;
      idx.resize(static_cast<std::size_t>(n));
      SmallVector<Index1, kMaxRank> pos(static_cast<std::size_t>(n), 0);
      for (int d = 0; d < n; ++d) {
        idx[static_cast<std::size_t>(d)] =
            lists[static_cast<std::size_t>(d)].front();
      }
      while (true) {
        fn(idx);
        int d = 0;
        for (; d < n; ++d) {
          auto& list = lists[static_cast<std::size_t>(d)];
          if (static_cast<std::size_t>(++pos[static_cast<std::size_t>(d)]) <
              list.size()) {
            idx[static_cast<std::size_t>(d)] =
                list[static_cast<std::size_t>(pos[static_cast<std::size_t>(d)])];
            break;
          }
          pos[static_cast<std::size_t>(d)] = 0;
          idx[static_cast<std::size_t>(d)] = list.front();
        }
        if (d == n) break;
      }
    });
  }

  std::string to_string() const override {
    std::vector<std::string> parts;
    parts.reserve(format_list.size());
    for (const DistFormat& f : format_list) parts.push_back(f.to_string());
    return "(" + join(parts, ", ") + ") TO " + target.to_string();
  }
};

// --- kConstructed ------------------------------------------------------------

struct Distribution::ConstructedPayload final : Distribution::Payload {
  AlignmentFunction alpha;
  Distribution base_dist;

  ConstructedPayload(AlignmentFunction a, Distribution b)
      : alpha(std::move(a)), base_dist(std::move(b)) {}

  Kind kind() const override { return Kind::kConstructed; }
  const IndexDomain& domain() const override {
    return alpha.alignee_domain();
  }

  bool replicates() const override {
    return alpha.replicates() || base_dist.replicates();
  }

  OwnerSet owners(const IndexTuple& index) const override {
    // Definition 4: δ_A(i) = union of δ_B(j) over j in α(i).
    OwnerSet out;
    alpha.for_each_image(index, [&](const IndexTuple& j) {
      for (ApId p : base_dist.owners(j)) insert_unique(out, p);
    });
    return out;
  }

  std::string to_string() const override {
    return "ALIGNED " + alpha.to_string() + " WITH " + base_dist.to_string();
  }
};

// --- kSectionView -------------------------------------------------------------

struct Distribution::SectionPayload final : Distribution::Payload {
  Distribution parent;
  std::vector<Triplet> section;
  IndexDomain view_domain;

  Kind kind() const override { return Kind::kSectionView; }
  const IndexDomain& domain() const override { return view_domain; }
  bool replicates() const override { return parent.replicates(); }

  OwnerSet owners(const IndexTuple& index) const override {
    if (!view_domain.contains(index)) {
      throw MappingError("index outside section-view domain");
    }
    return parent.owners(
        parent.domain().section_parent_index(section, index));
  }

  std::string to_string() const override {
    std::vector<std::string> parts;
    for (const Triplet& t : section) parts.push_back(t.to_string());
    return "SECTION(" + join(parts, ", ") + ") OF " + parent.to_string();
  }
};

// ---------------------------------------------------------------------------
// Distribution (public surface).
// ---------------------------------------------------------------------------

Distribution Distribution::formats(const IndexDomain& array_domain,
                                   std::vector<DistFormat> format_list,
                                   ProcessorRef target) {
  if (!target.valid()) {
    throw ConformanceError("DISTRIBUTE requires a distribution target");
  }
  const int n = array_domain.rank();
  if (n > kMaxRank) {
    throw ConformanceError(cat("distributee rank ", n, " exceeds the Fortran "
                               "90 maximum of ", kMaxRank, " (R512)"));
  }
  if (static_cast<int>(format_list.size()) != n) {
    throw ConformanceError(
        cat("distribution format list has length ", format_list.size(),
            " but the distributee has rank ", n,
            " (§4.1: the length of this list must be n)"));
  }
  int distributed_dims = 0;
  for (const DistFormat& f : format_list) {
    if (!f.is_collapsed()) ++distributed_dims;
  }
  if (distributed_dims != target.rank()) {
    throw ConformanceError(
        cat("distribution target ", target.to_string(), " has rank ",
            target.rank(), " but the format list distributes ",
            distributed_dims,
            " dimensions (§4.1: the rank of R must be n reduced by the "
            "number of colons)"));
  }
  auto payload = std::make_shared<FormatsPayload>();
  payload->array_domain = array_domain;
  payload->target = std::move(target);
  payload->mappings.reserve(static_cast<std::size_t>(n));
  payload->target_dim_of.assign(static_cast<std::size_t>(n), -1);
  int next_target_dim = 0;
  for (int d = 0; d < n; ++d) {
    const DistFormat& f = format_list[static_cast<std::size_t>(d)];
    if (f.is_collapsed()) {
      payload->mappings.push_back(
          DimMapping::bind(f, array_domain.extent(d), 1));
    } else {
      payload->target_dim_of[static_cast<std::size_t>(d)] = next_target_dim;
      payload->mappings.push_back(DimMapping::bind(
          f, array_domain.extent(d), payload->target.extent(next_target_dim)));
      ++next_target_dim;
    }
  }
  payload->format_list = std::move(format_list);
  return Distribution(std::move(payload));
}

Distribution Distribution::constructed(AlignmentFunction alpha,
                                       Distribution base) {
  if (!base.valid()) {
    throw ConformanceError("CONSTRUCT requires a base distribution");
  }
  if (alpha.base_domain() != base.domain()) {
    throw ConformanceError(
        "CONSTRUCT: the alignment's base domain differs from the base "
        "distribution's domain");
  }
  return Distribution(std::make_shared<ConstructedPayload>(std::move(alpha),
                                                           std::move(base)));
}

Distribution Distribution::section_view(Distribution parent,
                                        std::vector<Triplet> section) {
  if (!parent.valid()) {
    throw ConformanceError("section view requires a parent distribution");
  }
  auto payload = std::make_shared<SectionPayload>();
  payload->view_domain = parent.domain().section_domain(section);
  payload->parent = std::move(parent);
  payload->section = std::move(section);
  return Distribution(std::move(payload));
}

const Distribution::Payload& Distribution::payload() const {
  if (!payload_) throw InternalError("empty Distribution dereferenced");
  return *payload_;
}

Distribution::Kind Distribution::kind() const { return payload().kind(); }

const IndexDomain& Distribution::domain() const { return payload().domain(); }

OwnerSet Distribution::owners(const IndexTuple& index) const {
  const Payload& p = payload();
  if (const void* table = p.memo.whole_table()) {
    const RunTable& runs = *static_cast<const RunTable*>(table);
    return owner_set_at(runs, p.domain().linearize(index));
  }
  return p.owners(index);
}

OwnerSet Distribution::owners_uncached(const IndexTuple& index) const {
  return payload().owners(index);
}

ApId Distribution::first_owner(const IndexTuple& index) const {
  OwnerSet set = owners(index);
  ApId best = set.front();
  for (ApId p : set) best = std::min(best, p);
  return best;
}

bool Distribution::is_owner(ApId p, const IndexTuple& index) const {
  for (ApId q : owners(index)) {
    if (q == p) return true;
  }
  return false;
}

bool Distribution::replicates() const { return payload().replicates(); }

Extent Distribution::local_count(ApId p) const {
  return payload().local_count(p);
}

void Distribution::for_each_owned(
    ApId p, const std::function<void(const IndexTuple&)>& fn) const {
  payload().for_each_owned(p, fn);
}

bool Distribution::same_mapping(const Distribution& other) const {
  if (domain() != other.domain()) return false;
  const LayoutView mine = LayoutView::whole(*this);
  const LayoutView theirs = LayoutView::whole(other);
  bool equal = true;
  for_each_common_segment(
      mine.table(), theirs.table(),
      [&](Extent, Extent, const OwnerSet& a, const OwnerSet& b) {
        if (!equal) return;
        if (sorted(a) != sorted(b)) equal = false;
      });
  return equal;
}

bool Distribution::structurally_equal(const Distribution& other) const {
  if (payload_ == other.payload_) return valid();
  if (!valid() || !other.valid() || kind() != other.kind()) return false;
  switch (kind()) {
    case Kind::kConstructed: {
      const auto& a = static_cast<const ConstructedPayload&>(payload());
      const auto& b = static_cast<const ConstructedPayload&>(other.payload());
      return a.alpha.structurally_equal(b.alpha) &&
             a.base_dist.structurally_equal(b.base_dist);
    }
    case Kind::kFormats: {
      const auto& a = static_cast<const FormatsPayload&>(payload());
      const auto& b = static_cast<const FormatsPayload&>(other.payload());
      if (!(a.array_domain == b.array_domain &&
            a.format_list == b.format_list && a.target == b.target)) {
        return false;
      }
      // DistFormat equality compares user-defined formats by *name* only,
      // and two same-named functions can map differently — confirm their
      // bound owner content (the same digests the plan keys use), so
      // structural equality and plan keys can never disagree and a
      // call-site remap is never skipped for a renamed-but-different
      // mapping.
      for (std::size_t d = 0; d < a.format_list.size(); ++d) {
        if (a.format_list[d].kind() == FormatKind::kUserDefined &&
            a.mappings[d].content_digest() != b.mappings[d].content_digest()) {
          return false;
        }
      }
      return true;
    }
    case Kind::kSectionView: {
      const auto& a = static_cast<const SectionPayload&>(payload());
      const auto& b = static_cast<const SectionPayload&>(other.payload());
      return a.section == b.section &&
             a.parent.structurally_equal(b.parent);
    }
  }
  return false;
}

const std::string& Distribution::plan_signature() const {
  // Lock-free once-publication, the rule SecExpr::program() follows:
  // concurrent first calls may each build the bytes, exactly one wins the
  // CAS into the payload's slot, and every caller returns the winner. A
  // published signature is never replaced, so the reference stays valid
  // while the payload lives.
  const Payload& p = payload();
  if (const std::string* sig = p.signature.load(std::memory_order_acquire)) {
    return *sig;
  }
  auto built = std::make_unique<std::string>();
  build_plan_signature(*built);
  const std::string* expected = nullptr;
  if (p.signature.compare_exchange_strong(expected, built.get(),
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
    return *built.release();
  }
  return *expected;  // another thread published first
}

void Distribution::append_plan_signature(std::string& out) const {
  out += plan_signature();
}

void Distribution::build_plan_signature(std::string& out) const {
  // Every input below is fixed for the payload's lifetime: payload fields
  // are set at construction only; children are immutable payloads (their
  // own memos compose in); a ProcessorRef's arrangement shape and offset
  // and its space's size and policies are set only in their constructors;
  // and table digests hash immutable tables.
  switch (kind()) {
    case Kind::kFormats: {
      const auto& p = static_cast<const FormatsPayload&>(payload());
      // Value signature: domain bounds, format list, target. Formats whose
      // specification is an opaque table (INDIRECT) or function
      // (user-defined — DistFormat compares those by *name* only) enter as
      // the digest of their bound owner content, so two same-named user
      // formats with different mappings can never share a plan.
      out += 'F';
      p.array_domain.append_signature(out);
      for (std::size_t d = 0; d < p.format_list.size(); ++d) {
        const DistFormat& f = p.format_list[d];
        out += static_cast<char>('a' + static_cast<int>(f.kind()));
        switch (f.kind()) {
          case FormatKind::kCyclic:
            append_raw(out, f.cyclic_k());
            break;
          case FormatKind::kGeneralBlock:
            append_raw(out, static_cast<Extent>(f.general_bounds().size()));
            for (Extent b : f.general_bounds()) append_raw(out, b);
            break;
          case FormatKind::kIndirect:
          case FormatKind::kUserDefined:
            append_raw(out, p.mappings[d].content_digest());
            break;
          case FormatKind::kBlock:
          case FormatKind::kViennaBlock:
          case FormatKind::kCollapsed:
            break;
        }
      }
      p.target.append_signature(out);
      return;
    }
    case Kind::kConstructed: {
      // CONSTRUCT(α, δ_B) is a pure function of α and δ_B, so its
      // signature is α's serialization composed with the base's. An
      // identity α constructs exactly δ_B; collapsing it to the base's own
      // signature lets an aligned array share plans with — and key
      // identically to — its base, so an ALIGN-ed Jacobi's two sweep
      // directions produce one plan, like two equal-format primaries do.
      const auto& p = static_cast<const ConstructedPayload&>(payload());
      if (p.alpha.is_identity()) {
        p.base_dist.append_plan_signature(out);
        return;
      }
      out += 'C';
      // The α serialization (domains, clamp policy, per-dimension
      // expression trees) is the same bytes AlignmentFunction::
      // structurally_equal compares, so equal-α layouts share keys by
      // construction.
      p.alpha.append_signature(out);
      p.base_dist.append_plan_signature(out);
      return;
    }
    case Kind::kSectionView: {
      // A section view is a pure function of the parent's mapping and the
      // restricting triplets, so — like kConstructed recursing through α —
      // it serializes the triplets composed with the parent's signature.
      // This is what gives the fresh section-view dummy minted at every
      // procedure call (DataEnv::call) a key equal to last call's.
      const auto& p = static_cast<const SectionPayload&>(payload());
      out += 'V';
      append_raw(out, static_cast<Extent>(p.section.size()));
      for (const Triplet& t : p.section) t.append_signature(out);
      p.parent.append_plan_signature(out);
      return;
    }
  }
  throw InternalError("unreachable distribution kind");
}

const std::vector<DistFormat>& Distribution::format_list() const {
  if (kind() != Kind::kFormats) {
    throw InternalError("format_list on a non-format distribution");
  }
  return static_cast<const FormatsPayload&>(payload()).format_list;
}

const ProcessorRef& Distribution::target() const {
  if (kind() != Kind::kFormats) {
    throw InternalError("target on a non-format distribution");
  }
  return static_cast<const FormatsPayload&>(payload()).target;
}

const DimMapping& Distribution::dim_mapping(int dim) const {
  if (kind() != Kind::kFormats) {
    throw InternalError("dim_mapping on a non-format distribution");
  }
  return static_cast<const FormatsPayload&>(payload())
      .mappings.at(static_cast<std::size_t>(dim));
}

const AlignmentFunction& Distribution::alignment() const {
  if (kind() != Kind::kConstructed) {
    throw InternalError("alignment on a non-constructed distribution");
  }
  return static_cast<const ConstructedPayload&>(payload()).alpha;
}

const Distribution& Distribution::base() const {
  if (kind() != Kind::kConstructed) {
    throw InternalError("base on a non-constructed distribution");
  }
  return static_cast<const ConstructedPayload&>(payload()).base_dist;
}

const Distribution& Distribution::section_parent() const {
  if (kind() != Kind::kSectionView) {
    throw InternalError("section_parent on a non-section distribution");
  }
  return static_cast<const SectionPayload&>(payload()).parent;
}

const std::vector<Triplet>& Distribution::section_triplets() const {
  if (kind() != Kind::kSectionView) {
    throw InternalError("section_triplets on a non-section distribution");
  }
  return static_cast<const SectionPayload&>(payload()).section;
}

RunMemo& Distribution::run_memo() const { return payload().memo; }

std::string Distribution::to_string() const {
  return valid() ? payload().to_string() : "<undistributed>";
}

}  // namespace hpfnt
