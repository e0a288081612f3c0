#include "core/index_domain.hpp"

#include "support/error.hpp"
#include "support/strings.hpp"

namespace hpfnt {

IndexDomain::IndexDomain(std::vector<Triplet> dims) : dims_(std::move(dims)) {
  init_size();
}

IndexDomain::IndexDomain(std::initializer_list<Dim> dims) {
  dims_.reserve(dims.size());
  for (const Dim& d : dims) dims_.emplace_back(d.lower, d.upper);
  init_size();
}

void IndexDomain::init_size() {
  size_ = 1;
  for (const Triplet& t : dims_) {
    if (t.empty()) {
      size_ = 0;
      return;
    }
  }
  for (const Triplet& t : dims_) {
    if (__builtin_mul_overflow(size_, t.size(), &size_)) {
      throw ConformanceError(cat("index domain ", to_string(),
                                 " has more elements than an extent can "
                                 "hold"));
    }
  }
}

IndexDomain IndexDomain::of_extents(const std::vector<Extent>& extents) {
  std::vector<Triplet> dims;
  dims.reserve(extents.size());
  for (Extent e : extents) dims.emplace_back(1, e);
  return IndexDomain(std::move(dims));
}

bool IndexDomain::is_standard() const noexcept {
  for (const Triplet& t : dims_) {
    if (!t.is_standard()) return false;
  }
  return true;
}

bool IndexDomain::contains(const IndexTuple& index) const noexcept {
  if (static_cast<int>(index.size()) != rank()) return false;
  for (int d = 0; d < rank(); ++d) {
    if (!dims_[static_cast<size_t>(d)].contains(index[static_cast<size_t>(d)]))
      return false;
  }
  return true;
}

Extent IndexDomain::linearize(const IndexTuple& index) const {
  if (!contains(index)) {
    std::string subs;
    for (std::size_t i = 0; i < index.size(); ++i) {
      if (i) subs += ",";
      subs += std::to_string(index[i]);
    }
    throw MappingError(cat("index (", subs, ") outside domain ", to_string()));
  }
  Extent pos = 0;
  Extent pitch = 1;
  for (int d = 0; d < rank(); ++d) {
    const Triplet& t = dims_[static_cast<size_t>(d)];
    pos += t.position_of(index[static_cast<size_t>(d)]) * pitch;
    pitch *= t.size();
  }
  return pos;
}

IndexTuple IndexDomain::delinearize(Extent position) const {
  if (position < 0 || position >= size()) {
    throw MappingError(cat("linear position ", position,
                           " outside domain of size ", size()));
  }
  IndexTuple out;
  out.resize(static_cast<std::size_t>(rank()));
  for (int d = 0; d < rank(); ++d) {
    const Triplet& t = dims_[static_cast<size_t>(d)];
    out[static_cast<size_t>(d)] = t.at(position % t.size());
    position /= t.size();
  }
  return out;
}

void IndexDomain::validate_section(const std::vector<Triplet>& section) const {
  if (static_cast<int>(section.size()) != rank()) {
    throw MappingError(cat("section rank ", section.size(),
                           " does not match domain rank ", rank()));
  }
  for (int d = 0; d < rank(); ++d) {
    const Triplet& s = section[static_cast<size_t>(d)];
    const Triplet& t = dims_[static_cast<size_t>(d)];
    if (s.empty()) continue;
    if (!t.contains(s.lower()) || !t.contains(s.last())) {
      throw MappingError(cat("section ", s.to_string(), " leaves dimension ",
                             d + 1, " of domain ", to_string()));
    }
  }
}

IndexDomain IndexDomain::section_domain(
    const std::vector<Triplet>& section) const {
  validate_section(section);
  std::vector<Triplet> dims;
  dims.reserve(section.size());
  for (const Triplet& s : section) dims.emplace_back(1, s.size());
  return IndexDomain(std::move(dims));
}

IndexTuple IndexDomain::section_parent_index(
    const std::vector<Triplet>& section, const IndexTuple& section_index) const {
  if (section_index.size() != section.size()) {
    throw MappingError("section index rank mismatch");
  }
  IndexTuple out;
  out.resize(section.size());
  for (std::size_t d = 0; d < section.size(); ++d) {
    const Triplet& s = section[d];
    const Extent k = section_index[d] - 1;  // section domains are [1:size]
    if (k < 0 || k >= s.size()) {
      throw MappingError(cat("section position ", section_index[d],
                             " outside 1:", s.size()));
    }
    out[d] = s.at(k);
  }
  return out;
}

std::string IndexDomain::to_string() const {
  std::vector<std::string> parts;
  parts.reserve(dims_.size());
  for (const Triplet& t : dims_) parts.push_back(t.to_string());
  return "(" + join(parts, ", ") + ")";
}

void IndexDomain::append_signature(std::string& out) const {
  append_raw(out, static_cast<Index1>(rank()));
  for (const Triplet& t : dims_) t.append_signature(out);
}

SegmentIter::SegmentIter(const IndexDomain& domain,
                         const std::vector<Triplet>& section) {
  domain.validate_section(section);
  const int rank = domain.rank();
  if (rank == 0) {
    // Rank-0: the single empty tuple is one 1-element segment.
    row_len_ = 1;
    return;
  }
  for (int d = 0; d < rank; ++d) {
    if (section[static_cast<std::size_t>(d)].empty()) {
      done_ = true;
      return;
    }
  }
  // The linearization is affine per dimension, so the position of the
  // section element (k_0, ..., k_{n-1}) (0-based section positions) is
  //   base + sum_d k_d * step_d,
  // where step_d is the position distance between two consecutive section
  // indices of dimension d times the dimension's pitch. Both are exact
  // integer quantities because every section index lies on the dimension's
  // arithmetic index sequence.
  Extent pitch = 1;
  Extent base = 0;
  for (int d = 0; d < rank; ++d) {
    const Triplet& dom = domain.dim(d);
    const Triplet& sec = section[static_cast<std::size_t>(d)];
    base += dom.position_of(sec.at(0)) * pitch;
    const Extent step =
        sec.size() > 1
            ? (dom.position_of(sec.at(1)) - dom.position_of(sec.at(0))) * pitch
            : 0;
    if (d == 0) {
      row_len_ = sec.size();
      step0_ = sec.size() > 1 ? step : 1;
    } else {
      counts_.push_back(sec.size());
      steps_.push_back(step);
      pos_.push_back(0);
    }
    pitch *= dom.size();
  }
  row_base_ = base;
}

bool SegmentIter::advance_row() {
  for (std::size_t d = 0; d < counts_.size(); ++d) {
    if (++pos_[d] < counts_[d]) {
      row_base_ += steps_[d];
      return true;
    }
    pos_[d] = 0;
    row_base_ -= steps_[d] * (counts_[d] - 1);
  }
  return false;
}

bool SegmentIter::next(FlatSegment& out) {
  if (done_) return false;
  FlatSegment open{row_base_, row_len_, step0_};
  // Greedy cross-row merge: absorb following rows while their elements
  // continue the open segment's arithmetic position sequence. A 1-element
  // open segment has no committed stride yet, so the first continuation
  // defines it (this is what flattens A(j, :) into one pitch-strided
  // segment, and a whole contiguous section into a single segment).
  while (advance_row()) {
    const Extent rb = row_base_;
    if (open.count == 1) {  // row_len_ == 1: stride not committed yet
      open.stride = rb - open.base;
      open.count = 2;
      continue;
    }
    if (rb == open.base + open.count * open.stride &&
        (row_len_ == 1 || step0_ == open.stride)) {
      open.count += row_len_;
      continue;
    }
    out = open;
    return true;  // the pending row (row_base_/pos_) starts the next segment
  }
  done_ = true;
  out = open;
  return true;
}

std::vector<FlatSegment> segment_list(const IndexDomain& domain,
                                      const std::vector<Triplet>& section) {
  std::vector<FlatSegment> out;
  SegmentIter it(domain, section);
  FlatSegment seg;
  while (it.next(seg)) out.push_back(seg);
  return out;
}

}  // namespace hpfnt
