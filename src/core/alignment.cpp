#include "core/alignment.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <set>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace hpfnt {

AlignmentFunction::AlignmentFunction(IndexDomain alignee_domain,
                                     IndexDomain base_domain,
                                     std::vector<BaseDim> base_dims,
                                     AlignBoundsPolicy policy)
    : alignee_(std::move(alignee_domain)),
      base_(std::move(base_domain)),
      dims_(std::move(base_dims)),
      policy_(policy) {
  if (static_cast<int>(dims_.size()) != base_.rank()) {
    throw ConformanceError(cat("alignment specifies ", dims_.size(),
                               " base subscripts for a base of rank ",
                               base_.rank()));
  }
  std::uint32_t fed = 0;  // alignee dimensions feeding a base subscript
  identity_ = alignee_ == base_;
  for (std::size_t j = 0; j < dims_.size(); ++j) {
    const BaseDim& d = dims_[j];
    identity_ = identity_ && d.kind == BaseDim::Kind::kExpr &&
                d.alignee_dim == static_cast<int>(j);
    if (d.kind != BaseDim::Kind::kExpr) continue;
    if (d.alignee_dim < 0 || d.alignee_dim >= alignee_.rank()) {
      throw InternalError("alignment expression references a bad dimension");
    }
    const std::uint32_t bit = std::uint32_t{1} << d.alignee_dim;
    if ((fed & bit) != 0) {
      throw ConformanceError(
          "an align-dummy occurs in more than one base subscript (§5.1 "
          "allows each J_i in at most one y_j)");
    }
    fed |= bit;
    const std::optional<AlignExpr::Linear> lin = d.expr.linear();
    identity_ = identity_ && lin && lin->a == 1 && lin->b == 0;
  }
}

bool AlignmentFunction::replicates() const noexcept {
  for (const BaseDim& d : dims_) {
    if (d.kind == BaseDim::Kind::kReplicated) return true;
  }
  return false;
}

Extent AlignmentFunction::image_count() const noexcept {
  Extent count = 1;
  for (std::size_t j = 0; j < dims_.size(); ++j) {
    if (dims_[j].kind == BaseDim::Kind::kReplicated) {
      count *= base_.extent(static_cast<int>(j));
    }
  }
  return count;
}

Index1 AlignmentFunction::clamp_or_throw(Index1 value, int base_dim) const {
  const Index1 lo = base_.lower(base_dim);
  const Index1 hi = base_.upper(base_dim);
  if (value >= lo && value <= hi) return value;
  if (policy_ == AlignBoundsPolicy::kClamp) {
    // Paper §5.1: "the value y associated with dimension j is replaced by
    // ŷ = MIN(Uj, y)"; we clamp at both ends.
    return std::clamp(value, lo, hi);
  }
  throw ConformanceError(cat("alignment image ", value,
                             " leaves base dimension ", base_dim + 1, " [",
                             lo, ":", hi, "]"));
}

Index1 AlignmentFunction::eval_dim(int base_dim,
                                   const IndexTuple& alignee_index) const {
  const BaseDim& d = dims_[static_cast<std::size_t>(base_dim)];
  switch (d.kind) {
    case BaseDim::Kind::kConst:
      return clamp_or_throw(d.constant, base_dim);
    case BaseDim::Kind::kExpr:
      return clamp_or_throw(
          d.expr.eval(alignee_index[static_cast<std::size_t>(d.alignee_dim)]),
          base_dim);
    case BaseDim::Kind::kReplicated:
      throw InternalError("eval_dim on a replicated base dimension");
  }
  throw InternalError("unreachable base-dim kind");
}

IndexTuple AlignmentFunction::image(const IndexTuple& alignee_index) const {
  if (!alignee_.contains(alignee_index)) {
    throw MappingError("alignee index outside the alignee's index domain");
  }
  IndexTuple out;
  out.resize(dims_.size());
  for (std::size_t j = 0; j < dims_.size(); ++j) {
    if (dims_[j].kind == BaseDim::Kind::kReplicated) {
      out[j] = base_.lower(static_cast<int>(j));
    } else {
      out[j] = eval_dim(static_cast<int>(j), alignee_index);
    }
  }
  return out;
}

void AlignmentFunction::for_each_image(
    const IndexTuple& alignee_index,
    const std::function<void(const IndexTuple&)>& fn) const {
  IndexTuple current = image(alignee_index);
  // Enumerate the cartesian product over replicated dimensions.
  std::vector<int> rep_dims;
  for (std::size_t j = 0; j < dims_.size(); ++j) {
    if (dims_[j].kind == BaseDim::Kind::kReplicated) {
      rep_dims.push_back(static_cast<int>(j));
    }
  }
  if (rep_dims.empty()) {
    fn(current);
    return;
  }
  std::vector<Extent> pos(rep_dims.size(), 0);
  while (true) {
    fn(current);
    std::size_t k = 0;
    for (; k < rep_dims.size(); ++k) {
      const int j = rep_dims[k];
      const Triplet& t = base_.dim(j);
      if (++pos[k] < t.size()) {
        current[static_cast<std::size_t>(j)] = t.at(pos[k]);
        break;
      }
      pos[k] = 0;
      current[static_cast<std::size_t>(j)] = t.lower();
    }
    if (k == rep_dims.size()) return;
  }
}

void AlignmentFunction::append_signature(std::string& out) const {
  alignee_.append_signature(out);
  base_.append_signature(out);
  out += static_cast<char>('p' + static_cast<int>(policy_));
  for (const BaseDim& d : dims_) {
    switch (d.kind) {
      case BaseDim::Kind::kConst:
        out += 'c';
        append_raw(out, d.constant);
        break;
      case BaseDim::Kind::kExpr:
        out += 'e';
        append_raw(out, static_cast<Index1>(d.alignee_dim));
        d.expr.append_signature(out);
        break;
      case BaseDim::Kind::kReplicated:
        out += '*';
        break;
    }
  }
}

bool AlignmentFunction::structurally_equal(
    const AlignmentFunction& other) const {
  std::string mine, theirs;
  append_signature(mine);
  other.append_signature(theirs);
  return mine == theirs;
}

AlignmentFunction AlignmentFunction::identity(const IndexDomain& alignee_domain,
                                              const IndexDomain& base_domain) {
  return AlignSpec::colons(alignee_domain.rank())
      .reduce(alignee_domain, base_domain);
}

std::string AlignmentFunction::to_string() const {
  std::vector<std::string> parts;
  parts.reserve(dims_.size());
  for (const BaseDim& d : dims_) {
    switch (d.kind) {
      case BaseDim::Kind::kConst:
        parts.push_back(std::to_string(d.constant));
        break;
      case BaseDim::Kind::kExpr:
        parts.push_back(d.expr.to_string(cat("J", d.alignee_dim + 1)));
        break;
      case BaseDim::Kind::kReplicated:
        parts.push_back("*");
        break;
    }
  }
  return "(" + join(parts, ",") + ")";
}

AlignSpec::AlignSpec(std::vector<AligneeSub> alignee_subs,
                     std::vector<BaseSub> base_subs)
    : alignee_subs_(std::move(alignee_subs)), base_subs_(std::move(base_subs)) {}

AlignSpec AlignSpec::colons(int rank) {
  std::vector<AligneeSub> a(static_cast<std::size_t>(rank),
                            AligneeSub::colon());
  std::vector<BaseSub> b(static_cast<std::size_t>(rank), BaseSub::colon());
  return AlignSpec(std::move(a), std::move(b));
}

AlignmentFunction AlignSpec::reduce(const IndexDomain& alignee_domain,
                                    const IndexDomain& base_domain,
                                    AlignBoundsPolicy policy) const {
  if (static_cast<int>(alignee_subs_.size()) != alignee_domain.rank()) {
    throw ConformanceError(
        cat("ALIGN lists ", alignee_subs_.size(),
            " alignee subscripts for an alignee of rank ",
            alignee_domain.rank()));
  }
  if (static_cast<int>(base_subs_.size()) != base_domain.rank()) {
    throw ConformanceError(cat("ALIGN lists ", base_subs_.size(),
                               " base subscripts for a base of rank ",
                               base_domain.rank()));
  }

  // Dummy ids declared in the alignee must be distinct.
  std::set<int> declared;
  for (const AligneeSub& s : alignee_subs_) {
    if (s.kind == AligneeSub::Kind::kDummy) {
      if (!declared.insert(s.dummy_id).second) {
        throw ConformanceError("an align-dummy occurs twice in the alignee");
      }
    }
  }

  // Match ":" subscripts in the alignee to triplet/":" subscripts in the
  // base, in left-to-right order (Fortran array-assignment analogy, §5.1).
  std::vector<int> colon_axes;
  for (int i = 0; i < alignee_domain.rank(); ++i) {
    if (alignee_subs_[static_cast<std::size_t>(i)].kind ==
        AligneeSub::Kind::kColon) {
      colon_axes.push_back(i);
    }
  }
  std::vector<int> triplet_axes;
  for (int j = 0; j < base_domain.rank(); ++j) {
    const BaseSub::Kind k = base_subs_[static_cast<std::size_t>(j)].kind;
    if (k == BaseSub::Kind::kTriplet || k == BaseSub::Kind::kColon) {
      triplet_axes.push_back(j);
    }
  }
  if (colon_axes.size() != triplet_axes.size()) {
    throw ConformanceError(
        cat("ALIGN has ", colon_axes.size(), " \":\" alignee subscripts but ",
            triplet_axes.size(), " subscript-triplets in the base"));
  }

  // Assemble the reduced form. Dummy ids are mapped to alignee dimensions;
  // the constructor checks that each feeds at most one base subscript.
  std::vector<AlignmentFunction::BaseDim> dims(base_subs_.size());

  // Pass 1: explicit expressions (dummyless or one user dummy).
  for (std::size_t j = 0; j < base_subs_.size(); ++j) {
    const BaseSub& t = base_subs_[j];
    switch (t.kind) {
      case BaseSub::Kind::kStar:
        dims[j].kind = AlignmentFunction::BaseDim::Kind::kReplicated;
        break;
      case BaseSub::Kind::kExpr: {
        std::optional<int> used = t.expr.used_dummy();
        if (!used.has_value()) {
          dims[j].kind = AlignmentFunction::BaseDim::Kind::kConst;
          dims[j].constant = t.expr.eval_const();
        } else {
          // Locate the alignee axis declaring this dummy.
          int axis = -1;
          for (std::size_t i = 0; i < alignee_subs_.size(); ++i) {
            const AligneeSub& s = alignee_subs_[i];
            if (s.kind == AligneeSub::Kind::kDummy && s.dummy_id == *used) {
              axis = static_cast<int>(i);
              break;
            }
          }
          if (axis < 0) {
            throw ConformanceError(
                cat("base subscript ", j + 1,
                    " uses an align-dummy not declared in the alignee"));
          }
          dims[j].kind = AlignmentFunction::BaseDim::Kind::kExpr;
          dims[j].alignee_dim = axis;
          dims[j].expr = t.expr;
        }
        break;
      }
      case BaseSub::Kind::kTriplet:
      case BaseSub::Kind::kColon:
        break;  // handled in pass 2
    }
  }

  // Pass 2: the ":"/triplet matching — transformation 1 of §5.1.
  for (std::size_t k = 0; k < colon_axes.size(); ++k) {
    const int i = colon_axes[k];
    const int j = triplet_axes[k];
    const BaseSub& sub = base_subs_[static_cast<std::size_t>(j)];
    const Triplet t = sub.kind == BaseSub::Kind::kColon
                          ? base_domain.dim(j)
                          : sub.triplet;
    if (sub.kind == BaseSub::Kind::kTriplet) {
      if (!t.empty() && (!base_domain.dim(j).contains(t.lower()) ||
                         !base_domain.dim(j).contains(t.last()))) {
        throw ConformanceError(cat("base triplet ", t.to_string(),
                                   " leaves base dimension ", j + 1, " ",
                                   base_domain.dim(j).to_string()));
      }
    }
    const Extent alignee_extent = alignee_domain.extent(i);
    if (alignee_extent > t.size()) {
      throw ConformanceError(
          cat("alignee extent ", alignee_extent, " exceeds the ", t.size(),
              " positions of base triplet ", t.to_string(), " (§5.1 requires "
              "U_i - L_i + 1 <= MAX((UT - LT + ST)/ST, 0))"));
    }
    // s_i := fresh dummy J ranging over [L_i:U_i];
    // t_j := (J - L_i) * ST + LT.
    AlignExpr j_expr = AlignExpr::dummy(-1000 - i);  // fresh, internal id
    AlignExpr mapped =
        (j_expr - alignee_domain.lower(i)) * t.stride() + t.lower();
    dims[static_cast<std::size_t>(j)].kind =
        AlignmentFunction::BaseDim::Kind::kExpr;
    dims[static_cast<std::size_t>(j)].alignee_dim = i;
    dims[static_cast<std::size_t>(j)].expr = mapped;
  }

  // Alignee "*" axes collapse: they feed no base subscript, which the
  // reduced representation expresses by simply not referencing that axis.
  return AlignmentFunction(alignee_domain, base_domain, std::move(dims),
                           policy);
}

std::string AlignSpec::to_string() const {
  std::vector<std::string> lhs;
  int next_dummy = 1;
  std::vector<std::string> dummy_names(alignee_subs_.size());
  for (std::size_t i = 0; i < alignee_subs_.size(); ++i) {
    const AligneeSub& s = alignee_subs_[i];
    switch (s.kind) {
      case AligneeSub::Kind::kColon:
        lhs.push_back(":");
        break;
      case AligneeSub::Kind::kStar:
        lhs.push_back("*");
        break;
      case AligneeSub::Kind::kDummy: {
        std::string name =
            s.dummy_name.empty() ? cat("J", next_dummy++) : s.dummy_name;
        dummy_names[i] = name;
        lhs.push_back(name);
        break;
      }
    }
  }
  std::vector<std::string> rhs;
  for (const BaseSub& t : base_subs_) {
    switch (t.kind) {
      case BaseSub::Kind::kColon:
        rhs.push_back(":");
        break;
      case BaseSub::Kind::kStar:
        rhs.push_back("*");
        break;
      case BaseSub::Kind::kTriplet:
        rhs.push_back(t.triplet.to_string());
        break;
      case BaseSub::Kind::kExpr: {
        std::optional<int> used = t.expr.used_dummy();
        std::string name = "J";
        if (used.has_value()) {
          for (std::size_t i = 0; i < alignee_subs_.size(); ++i) {
            const AligneeSub& s = alignee_subs_[i];
            if (s.kind == AligneeSub::Kind::kDummy && s.dummy_id == *used) {
              name = dummy_names[i].empty() ? cat("J", i + 1) : dummy_names[i];
            }
          }
        }
        rhs.push_back(t.expr.to_string(name));
        break;
      }
    }
  }
  return "(" + join(lhs, ",") + ") WITH (" + join(rhs, ",") + ")";
}

}  // namespace hpfnt
