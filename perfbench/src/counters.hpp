// Library counters the workloads read and compare.
#pragma once

#include "exec/comm_plan.hpp"
#include "machine/comm.hpp"

namespace bench {

/// A session's modeled totals: the CommEngine's cumulative counters, in the
/// fields hpfcost's CostTotals predicts.
struct Totals {
  hpfnt::Extent messages = 0, bytes = 0, transfers = 0, local_reads = 0;
  double time_us = 0.0, exposed_us = 0.0, hidden_us = 0.0;

  static Totals of(const hpfnt::CommEngine& c) {
    return {c.total_messages(),  c.total_bytes(),
            c.total_transfers(), c.local_reads(),
            c.total_time_us(),   c.total_exposed_comm_us(),
            c.total_hidden_comm_us()};
  }
  bool operator==(const Totals& o) const {
    return messages == o.messages && bytes == o.bytes &&
           transfers == o.transfers && local_reads == o.local_reads &&
           time_us == o.time_us && exposed_us == o.exposed_us &&
           hidden_us == o.hidden_us;
  }
};

/// Plans that have entered an L1 PlanCache: those resident plus those
/// evicted or invalidated since. PlanCache keeps no insert counter.
inline hpfnt::Extent plans_entered(const hpfnt::PlanCache& plans) {
  return static_cast<hpfnt::Extent>(plans.size()) + plans.evictions() +
         plans.invalidations();
}

}  // namespace bench
