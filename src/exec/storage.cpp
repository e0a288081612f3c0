#include "exec/storage.hpp"

#include <algorithm>
#include <array>

#include "core/layout_view.hpp"
#include "exec/overlap.hpp"
#include "exec/pricing.hpp"
#include "service/plan_service.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace hpfnt {

ProgramState::ProgramState(Machine& machine)
    : machine_(&machine), comm_(machine), memory_(machine.processors()) {}

std::shared_ptr<const CommPlan> ProgramState::lookup_plan(
    const std::string& key) {
  if (!plans_.enabled()) return nullptr;
  // Both levels consult the machine's failure state: after fail_processor,
  // a cached plan referencing the lost processor is dropped at lookup and
  // can never replay (the fault-free machine takes the plain path inside).
  if (std::shared_ptr<const CommPlan> plan = plans_.lookup(key, *machine_)) {
    return plan;
  }
  if (service_) {
    if (std::shared_ptr<const CommPlan> plan =
            service_->lookup(key, *machine_)) {
      // Back-fill the session L1 so this session's next touch of the key
      // replays without a shard lock (the warm path of a hot loop).
      plans_.insert(key, plan);
      return plan;
    }
  }
  return nullptr;
}

void ProgramState::publish_plan(const std::string& key,
                                std::shared_ptr<const CommPlan> plan) {
  if (!plans_.enabled()) return;
  if (service_) service_->insert(key, plan);
  plans_.insert(key, std::move(plan));
}

ProgramState::Store& ProgramState::store(ArrayId id) {
  auto it = stores_.find(id);
  if (it == stores_.end()) {
    throw InternalError("array has no storage in this program state");
  }
  return it->second;
}

const ProgramState::Store& ProgramState::store(ArrayId id) const {
  auto it = stores_.find(id);
  if (it == stores_.end()) {
    throw InternalError("array has no storage in this program state");
  }
  return it->second;
}

void ProgramState::account_allocate(const Store& s) {
  // One pass over the layout's run table counts every replica exactly once
  // per owner, a whole constant-owner segment at a time.
  const LayoutView view = LayoutView::whole(s.dist);
  for (const OwnerRun& r : view.runs()) {
    for (ApId p : view.owners(r)) memory_.allocate(p, s.elem_bytes * r.count);
  }
}

void ProgramState::account_release(const Store& s) {
  const LayoutView view = LayoutView::whole(s.dist);
  for (const OwnerRun& r : view.runs()) {
    for (ApId p : view.owners(r)) memory_.release(p, s.elem_bytes * r.count);
  }
}

void ProgramState::account_shadow(const Store& s, bool allocate) {
  if (s.shadow.empty()) return;
  if (!s.dist.valid() || s.dist.kind() != Distribution::Kind::kFormats) {
    // Derived (aligned/section-view) layouts never post halo
    // exchanges (exec/overlap.hpp shadow_covers), so they materialize no
    // ghost cells either.
    return;
  }
  // Per-dimension geometry: collapsed dimensions contribute their whole
  // extent as a constant factor; distributed dimensions contribute their
  // per-position local counts and (for contiguous mappings with declared
  // widths) the clamped ghost strip widths from shadow_areas. Shadowed
  // non-contiguous dimensions allocate nothing — the coverage rule never
  // posts across them.
  struct DimGeom {
    std::vector<Extent> local;  // per target position (index p-1)
    std::vector<Extent> ghost;  // ghost cells in this dimension, ditto
  };
  Extent collapsed_factor = 1;
  std::vector<DimGeom> dims;  // non-collapsed dims, ascending order
  for (int d = 0; d < s.domain.rank(); ++d) {
    const DimMapping& m = s.dist.dim_mapping(d);
    if (m.kind() == FormatKind::kCollapsed) {
      collapsed_factor *= m.n();
      continue;
    }
    DimGeom g;
    const std::size_t np = static_cast<std::size_t>(m.np());
    g.local.resize(np);
    g.ghost.assign(np, 0);
    for (Index1 p = 1; p <= m.np(); ++p) {
      g.local[static_cast<std::size_t>(p - 1)] = m.local_count(p);
    }
    const ShadowWidth& w = s.shadow[static_cast<std::size_t>(d)];
    if ((w.left != 0 || w.right != 0) && m.is_contiguous()) {
      const std::vector<OverlapArea> areas = shadow_areas(m, w.left, w.right);
      for (std::size_t i = 0; i < np; ++i) {
        g.ghost[i] = areas[i].left + areas[i].right;
      }
    }
    dims.push_back(std::move(g));
  }
  if (dims.empty()) return;  // fully collapsed: nothing is remote, no ghosts

  // Walk the cartesian product of target positions; each position tuple's
  // ghost cells are the per-dimension face strips (no corners):
  //   sum_d ghost_d(p_d) * prod_{e != d} local_e(p_e).
  const ProcessorRef& target = s.dist.target();
  const std::size_t k = dims.size();
  std::array<DimOwnerSet, kMaxRank> pos_sets;
  std::array<const DimOwnerSet*, kMaxRank> set_ptrs{};
  std::vector<std::size_t> pos(k, 0);
  while (true) {
    Extent elems = 0;
    for (std::size_t j = 0; j < k; ++j) {
      Extent term = dims[j].ghost[pos[j]];
      if (term == 0) continue;
      for (std::size_t l = 0; l < k; ++l) {
        if (l != j) term *= dims[l].local[pos[l]];
      }
      elems += term;
    }
    if (elems > 0) {
      for (std::size_t j = 0; j < k; ++j) {
        pos_sets[j].clear();
        pos_sets[j].push_back(static_cast<Index1>(pos[j] + 1));
        set_ptrs[j] = &pos_sets[j];
      }
      const OwnerSet owners = compose_dim_owners(target, set_ptrs, k);
      const Extent bytes = s.elem_bytes * elems * collapsed_factor;
      for (ApId q : owners) {
        if (allocate) {
          memory_.allocate(q, bytes);
        } else {
          memory_.release(q, bytes);
        }
      }
    }
    std::size_t j = 0;
    for (; j < k; ++j) {
      if (++pos[j] < dims[j].local.size()) break;
      pos[j] = 0;
    }
    if (j == k) break;
  }
}

void ProgramState::create(const DataEnv& env, const DistArray& array) {
  create_with(array, env.distribution_of(array));
}

void ProgramState::create_with(const DistArray& array, Distribution layout) {
  if (stores_.count(array.id())) {
    throw InternalError("array '" + array.name() + "' already has storage");
  }
  Store s;
  s.name = array.name();
  s.domain = array.domain();
  s.dist = std::move(layout);
  s.values.assign(static_cast<std::size_t>(s.domain.size()), 0.0);
  s.elem_bytes = elem_bytes(array.type());
  s.shadow = array.shadow();
  account_allocate(s);
  account_shadow(s, /*allocate=*/true);
  stores_.emplace(array.id(), std::move(s));
}

void ProgramState::destroy(const DistArray& array) {
  auto it = stores_.find(array.id());
  if (it == stores_.end()) {
    throw InternalError("destroy of an array without storage");
  }
  account_shadow(it->second, /*allocate=*/false);
  account_release(it->second);
  stores_.erase(it);
}

bool ProgramState::exists(ArrayId id) const noexcept {
  return stores_.count(id) != 0;
}

const Distribution& ProgramState::layout(ArrayId id) const {
  return store(id).dist;
}

const std::vector<ShadowWidth>& ProgramState::shadow_of(ArrayId id) const {
  return store(id).shadow;
}

double ProgramState::value(ArrayId id, const IndexTuple& index) const {
  const Store& s = store(id);
  return s.values[static_cast<std::size_t>(s.domain.linearize(index))];
}

void ProgramState::set_value(ArrayId id, const IndexTuple& index,
                             double value) {
  Store& s = store(id);
  s.values[static_cast<std::size_t>(s.domain.linearize(index))] = value;
}

const double* ProgramState::values_span(ArrayId id) const {
  return store(id).values.data();
}

Extent ProgramState::values_count(ArrayId id) const {
  return static_cast<Extent>(store(id).values.size());
}

void ProgramState::check_segment(const Store& s, const FlatSegment& seg) {
  const Extent last = seg.base + (seg.count - 1) * seg.stride;
  const Extent lo = seg.stride >= 0 ? seg.base : last;
  const Extent hi = seg.stride >= 0 ? last : seg.base;
  if (seg.count <= 0 || lo < 0 ||
      hi >= static_cast<Extent>(s.values.size())) {
    throw InternalError("flat segment leaves the array's canonical storage");
  }
}

void ProgramState::store_segment(ArrayId id, const FlatSegment& seg,
                                 const double* src) {
  Store& s = store(id);
  check_segment(s, seg);
  double* dst = s.values.data() + seg.base;
  if (seg.stride == 1) {
    std::copy_n(src, static_cast<std::size_t>(seg.count), dst);
  } else {
    for (Extent k = 0; k < seg.count; ++k) dst[k * seg.stride] = src[k];
  }
}

void ProgramState::load_segment(ArrayId id, const FlatSegment& seg,
                                double* dst) const {
  const Store& s = store(id);
  check_segment(s, seg);
  const double* src = s.values.data() + seg.base;
  if (seg.stride == 1) {
    std::copy_n(src, static_cast<std::size_t>(seg.count), dst);
  } else {
    for (Extent k = 0; k < seg.count; ++k) dst[k] = src[k * seg.stride];
  }
}

void ProgramState::fill(ArrayId id, const std::vector<Triplet>& section,
                        const std::function<double(const IndexTuple&)>& fn) {
  Store& s = store(id);
  s.domain.validate_section(section);
  const IndexDomain shape = s.domain.section_domain(section);
  // Stage in section order, then write whole flat segments — section order
  // equals the segments' linear order (the assignment pass-3 invariant),
  // and store_segment bounds-checks once per segment, not per element.
  std::vector<double>& staged = scratch_.staged;
  staged.resize(static_cast<std::size_t>(shape.size()));
  Extent at = 0;
  shape.for_each([&](const IndexTuple& pos) {
    staged[static_cast<std::size_t>(at++)] =
        fn(s.domain.section_parent_index(section, pos));
  });
  Extent written = 0;
  for_each_segment(s.domain, section, [&](const FlatSegment& seg) {
    store_segment(id, seg, staged.data() + written);
    written += seg.count;
  });
}

void ProgramState::fill(ArrayId id,
                        const std::function<double(const IndexTuple&)>& fn) {
  fill(id, store(id).domain.dims(), fn);
}

double ProgramState::checksum(ArrayId id,
                              const std::vector<Triplet>& section) const {
  const Store& s = store(id);
  s.domain.validate_section(section);
  double total = 0.0;
  for_each_segment(s.domain, section, [&](const FlatSegment& seg) {
    const double* p = s.values.data() + seg.base;
    for (Extent k = 0; k < seg.count; ++k) total += p[k * seg.stride];
  });
  return total;
}

double ProgramState::checksum(ArrayId id) const {
  // The whole domain decomposes into one contiguous segment, so this sums
  // in storage order exactly as the old flat-vector walk did.
  return checksum(id, store(id).domain.dims());
}

StepStats ProgramState::apply_remap(const RemapEvent& event,
                                    const DistArray& array) {
  Store& s = store(array.id());
  if (!event.from.valid() || !event.to.valid()) {
    throw InternalError("remap event with missing distributions");
  }
  if (event.from.domain() != s.domain || event.to.domain() != s.domain) {
    throw ConformanceError(
        "remap event domains do not match the array's storage");
  }
  const std::string label = remap_step_label(event, array.name());

  // The schedule (and the memory deltas) depend only on the two layouts
  // and the element size: a recurring remap — the flip-flop of an
  // iterative REDISTRIBUTE — replays its plan.
  std::string key;
  const bool cacheable = plans_.enabled();
  if (cacheable) {
    key = remap_plan_key(event.from, event.to, s.elem_bytes);
    if (std::shared_ptr<const CommPlan> plan = lookup_plan(key)) {
      // Replay FIRST: it is the only throwing operation on this path (an
      // exhausted retry budget under fault injection), and nothing has
      // been mutated yet when it throws.
      StepStats step = comm_.replay(*plan, label);
      // Ghost cells follow the layout: release under the old distribution
      // before the move, re-materialize under the new one after. This
      // happens outside the plan in both the warm and cold paths, so the
      // recorded mem_ops stay layout-only.
      account_shadow(s, /*allocate=*/false);
      memory_.apply(plan->mem_ops);
      s.dist = event.to;
      account_shadow(s, /*allocate=*/true);
      return step;
    }
  }

  // Cold path: stage, then commit. The run-table walk and the step pricing
  // can throw (conformance checks, fault exhaustion at end_step), so the
  // replica deltas are only folded during the walk (MemoryDeltaFold: per
  // processor, the net change and the largest prefix rise — all a
  // per-processor gauge can observe) and applied once the step has
  // sealed, after the shadow release: the warm path's sequence, from the
  // same folded rows the plan keeps. An unwind through the guard aborts
  // the half-charged step and leaves layout, memory gauges, and engine
  // totals exactly as before the call.
  MemoryDeltaFold fold;
  comm_.begin_step(label);
  StepGuard guard(comm_);
  auto rec = std::make_shared<CommPlan>();
  if (cacheable) comm_.record_into(rec);
  // Walk the two layouts' run tables in lock step: every common segment has
  // constant owner sets on both sides, so each (mover, destination) pair is
  // priced once per distinct owner-set pair with the summed element count.
  // The walk itself is the shared charge_remap_step (exec/pricing.hpp);
  // only the memory accounting — replicas appearing on new owners,
  // disappearing from old, folded per segment — is the executor's.
  charge_remap_step(event.from, event.to, s.elem_bytes, comm_,
                    [&](ApId p, Extent delta) { fold.add(p, delta); });
  std::vector<MemoryDelta> mem_ops = fold.ops();
  if (cacheable) rec->mem_ops = mem_ops;
  StepStats step = comm_.end_step();
  guard.dismiss();

  account_shadow(s, /*allocate=*/false);
  memory_.apply(mem_ops);
  s.dist = event.to;
  account_shadow(s, /*allocate=*/true);
  if (cacheable) publish_plan(key, std::move(rec));
  return step;
}

StepStats ProgramState::copy_section(const DistArray& dst,
                                     const std::vector<Triplet>& dst_section,
                                     const DistArray& src,
                                     const std::vector<Triplet>& src_section,
                                     const std::string& label) {
  Store& d = store(dst.id());
  Store& s = store(src.id());
  const IndexDomain dshape = d.domain.section_domain(dst_section);
  const IndexDomain sshape = s.domain.section_domain(src_section);
  // Fortran conformance, the same rule assign applies: shapes match after
  // squeezing unit dimensions, so a scalar-subscripted actual (A(:,j))
  // conforms with a rank-1 dummy.
  if (squeezed_shape(dshape.dims()) != squeezed_shape(sshape.dims()) ||
      dshape.size() != sshape.size()) {
    throw ConformanceError(
        "copy_section shapes do not conform (after squeezing unit "
        "dimensions)");
  }

  std::string key;
  const bool cacheable = plans_.enabled();
  if (cacheable) {
    key = copy_plan_key(d.dist, dst_section, s.dist, src_section,
                        d.elem_bytes);
  }

  // RHS snapshot first (Fortran semantics for overlapping sections), one
  // flat strided segment at a time into the reusable staging buffer.
  std::vector<double>& staged = scratch_.staged;
  staged.resize(static_cast<std::size_t>(sshape.size()));
  Extent staged_at = 0;
  for_each_segment(s.domain, src_section, [&](const FlatSegment& seg) {
    load_segment(src.id(), seg, staged.data() + staged_at);
    staged_at += seg.count;
  });

  StepStats step;
  std::shared_ptr<const CommPlan> plan =
      cacheable ? lookup_plan(key) : nullptr;
  if (plan) {
    // A throwing replay (fault exhaustion) lands before the write-back
    // below: the destination is untouched, only the scratch staging moved.
    step = comm_.replay(*plan, label);
  } else {
    comm_.begin_step(label);
    StepGuard guard(comm_);
    auto rec = std::make_shared<CommPlan>();
    if (cacheable) comm_.record_into(rec);
    // Charge per distinct owner-set pair of the two sections' run tables
    // (the shared charge_copy_step, exec/pricing.hpp): destination owners
    // that do not already hold the value receive the pair's summed
    // elements from the sources' canonical (minimum) replica; owners that
    // do hold them read them locally — the statistics assign keeps.
    const LayoutView dst_view(d.dist, dst_section);
    const LayoutView src_view(s.dist, src_section);
    charge_copy_step(dst_view, src_view, d.elem_bytes, comm_);
    step = comm_.end_step();
    guard.dismiss();
    if (cacheable) publish_plan(key, std::move(rec));
  }

  Extent written = 0;
  for_each_segment(d.domain, dst_section, [&](const FlatSegment& seg) {
    store_segment(dst.id(), seg, staged.data() + written);
    written += seg.count;
  });
  return step;
}

namespace {

// The canonical sender of a run on a possibly degraded machine: the
// minimum owner still alive. Falls back to the minimum owner when every
// replica is on a failed processor (the checkpoint gather of an array that
// lost all replicas prices through the dead sender — the data is gone
// either way, and the recovery walk, not the checkpoint, handles that
// case from an earlier snapshot).
ApId min_surviving_owner(const OwnerSet& owners, const FailureSet& failed) {
  ApId best = -1;
  for (ApId p : owners) {
    if (failed.contains(p)) continue;
    if (best < 0 || p < best) best = p;
  }
  return best >= 0 ? best : min_owner(owners);
}

}  // namespace

StepStats ProgramState::checkpoint(Checkpoint& out, const std::string& label) {
  const std::shared_ptr<const FailureSet> failed = machine_->failures();
  const ApId coordinator = machine_->survivors().front();

  // Deterministic order: ascending array id, not unordered_map order.
  std::vector<ArrayId> ids;
  ids.reserve(stores_.size());
  for (const auto& [id, s] : stores_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());

  // Price the gather first: each constant-owner run travels once, from its
  // minimum surviving replica to the coordinator (coordinator-owned runs
  // are free local reads, as always). A fault exhaustion throws out of
  // end_step with nothing snapshotted.
  comm_.begin_step(label);
  StepGuard guard(comm_);
  for (ArrayId id : ids) {
    const Store& s = stores_.at(id);
    const LayoutView view = LayoutView::whole(s.dist);
    for (const OwnerRun& r : view.runs()) {
      comm_.transfer_block(min_surviving_owner(view.owners(r), *failed),
                           coordinator, s.elem_bytes, r.count);
    }
  }
  StepStats step = comm_.end_step();
  guard.dismiss();

  out.entries.clear();
  out.entries.reserve(ids.size());
  for (ArrayId id : ids) {
    const Store& s = stores_.at(id);
    out.entries.push_back(
        {id, s.name, s.domain, s.dist, s.values, s.elem_bytes});
  }
  return step;
}

StepStats ProgramState::restore(const Checkpoint& ckpt,
                                const std::string& label) {
  // Validate every entry before pricing or mutating anything: restore is
  // all-or-nothing.
  for (const CheckpointEntry& e : ckpt.entries) {
    auto it = stores_.find(e.id);
    if (it == stores_.end()) {
      throw ConformanceError("RESTORE: checkpointed array '" + e.name +
                             "' no longer has storage");
    }
    if (it->second.domain != e.domain ||
        it->second.elem_bytes != e.elem_bytes) {
      throw ConformanceError("RESTORE: array '" + e.name +
                             "' changed shape since the checkpoint");
    }
  }

  // The mirror scatter: the coordinator sends each constant-owner run of
  // the array's CURRENT layout to every owner (replicas each receive their
  // copy; coordinator-owned runs are local).
  const ApId coordinator = machine_->survivors().front();
  comm_.begin_step(label);
  StepGuard guard(comm_);
  for (const CheckpointEntry& e : ckpt.entries) {
    const Store& s = stores_.at(e.id);
    const LayoutView view = LayoutView::whole(s.dist);
    for (const OwnerRun& r : view.runs()) {
      for (ApId p : view.owners(r)) {
        comm_.transfer_block(coordinator, p, s.elem_bytes, r.count);
      }
    }
  }
  StepStats step = comm_.end_step();
  guard.dismiss();

  for (const CheckpointEntry& e : ckpt.entries) {
    stores_.at(e.id).values = e.values;
  }
  return step;
}

void ProgramState::rebind_layout(ArrayId id, const Distribution& dist) {
  Store& s = store(id);
  if (!dist.valid() || dist.domain() != s.domain) {
    throw InternalError(
        "rebind_layout with an invalid or shape-changing distribution");
  }
  account_shadow(s, /*allocate=*/false);
  s.dist = dist;
  account_shadow(s, /*allocate=*/true);
}

}  // namespace hpfnt
