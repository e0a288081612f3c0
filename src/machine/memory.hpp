// Per-processor local-memory accounting. Every element an owner stores —
// including replicas — occupies local memory; the replication benchmarks
// (experiment E6) read these gauges.
#pragma once

#include <algorithm>
#include <vector>

#include "core/types.hpp"

namespace hpfnt {

/// One per-processor memory delta in bytes: positive allocates, negative
/// releases.
struct MemoryDelta {
  ApId p = 0;
  Extent delta = 0;
};

class MemoryTracker {
 public:
  explicit MemoryTracker(Extent processors)
      : bytes_(static_cast<std::size_t>(processors), 0),
        peak_(static_cast<std::size_t>(processors), 0) {}

  void allocate(ApId p, Extent bytes) {
    const auto i = static_cast<std::size_t>(p);
    bytes_[i] += bytes;
    if (bytes_[i] > peak_[i]) peak_[i] = bytes_[i];
  }

  void release(ApId p, Extent bytes) {
    bytes_[static_cast<std::size_t>(p)] -= bytes;
  }

  /// Applies deltas in order: allocate for delta >= 0, release otherwise.
  void apply(const std::vector<MemoryDelta>& ops) {
    for (const MemoryDelta& op : ops) {
      if (op.delta >= 0) {
        allocate(op.p, op.delta);
      } else {
        release(op.p, -op.delta);
      }
    }
  }

  Extent bytes_on(ApId p) const { return bytes_[static_cast<std::size_t>(p)]; }
  Extent peak_on(ApId p) const { return peak_[static_cast<std::size_t>(p)]; }

  Extent total_bytes() const {
    Extent total = 0;
    for (Extent b : bytes_) total += b;
    return total;
  }

  Extent max_bytes() const {
    Extent best = 0;
    for (Extent b : bytes_) best = b > best ? b : best;
    return best;
  }

 private:
  std::vector<Extent> bytes_;
  std::vector<Extent> peak_;
};

/// Folds a stream of per-processor deltas into at most two per processor.
///
/// The tracker keeps per-processor bytes and peaks only — no gauge spans
/// processors — so how different processors' deltas interleave never
/// matters; only each processor's own sequence does. Of that sequence two
/// numbers survive: the net change and the largest prefix rise (>= 0).
/// Applying allocate(rise) then release(rise - net) leaves bytes_on(p) at
/// bytes + net and peak_on(p) at max(peak, bytes + rise), exactly what the
/// raw sequence would. Every processor that saw a delta gets its allocate
/// row (possibly zero), so the ops name the same processors the raw stream
/// did.
class MemoryDeltaFold {
 public:
  void add(ApId p, Extent delta) {
    const auto i = static_cast<std::size_t>(p);
    if (i >= acc_.size()) acc_.resize(i + 1);
    Acc& a = acc_[i];
    a.touched = true;
    a.net += delta;
    a.rise = std::max(a.rise, a.net);
  }

  /// add() of a stream already folded: `net` in total, its largest
  /// prefix rise `rise` (>= 0).
  void add_folded(ApId p, Extent net, Extent rise) {
    const auto i = static_cast<std::size_t>(p);
    if (i >= acc_.size()) acc_.resize(i + 1);
    Acc& a = acc_[i];
    a.touched = true;
    a.rise = std::max(a.rise, a.net + rise);
    a.net += net;
  }

  /// The folded deltas, ascending by processor: {p, rise} then, when it is
  /// nonzero, {p, net - rise}.
  std::vector<MemoryDelta> ops() const {
    std::vector<MemoryDelta> out;
    for (std::size_t i = 0; i < acc_.size(); ++i) {
      const Acc& a = acc_[i];
      if (!a.touched) continue;
      const auto p = static_cast<ApId>(i);
      out.push_back({p, a.rise});
      if (a.net != a.rise) out.push_back({p, a.net - a.rise});
    }
    return out;
  }

 private:
  struct Acc {
    Extent net = 0;
    Extent rise = 0;
    bool touched = false;
  };
  std::vector<Acc> acc_;  // indexed by processor, grown on demand
};

}  // namespace hpfnt
