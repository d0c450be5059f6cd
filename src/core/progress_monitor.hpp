// Progress monitor (§3.1, Figs. 2/5/6): its options and its statistics.
//
// The monitor itself — period registry, resource waitlist, §3.4 pool
// guard, starvation watchdog and orphan reclamation — is the slow lane of
// core::AdmissionCore; its Fig. 5/6 logic lives in progress_monitor.cpp as
// AdmissionCore members. This header holds only the plain types the
// substrates, the cluster and service layers and obs::reconcile share with
// it, so they can name them without pulling in the core class.
#pragma once

#include <cstdint>

#include "core/waitlist.hpp"

namespace rda::core {

/// Starvation watchdog: detects waiters that make no progress (infeasible
/// demand, lost wake, leaked capacity) and escalates them through a
/// degradation ladder instead of letting them wait forever. Disabled by
/// default — the paper's cooperative model needs none of it, and the default
/// hot path must stay branch-free.
struct WatchdogOptions {
  bool enable = false;
  /// Escalate a waiter one rung after this many rescans that left it parked
  /// (a "wake round" = one release/cancel-driven waitlist re-evaluation).
  /// 0 disables the round trigger.
  std::uint32_t max_wake_rounds = 0;
  /// Escalate a waiter one rung after this much time (sim seconds on the
  /// sim substrate, wall-clock seconds on the native gate) without progress,
  /// measured from enqueue or the previous escalation. Checked only from
  /// watchdog_tick(). 0 disables the time trigger.
  double max_wait_seconds = 0.0;
  /// Ladder rung 1: clamp each declared demand to clamp_fraction × capacity,
  /// making an infeasible request feasible (it then competes normally).
  bool clamp = true;
  double clamp_fraction = 1.0;
  /// Ladder rung 2: force-admit with the excess booked in the resource
  /// monitor's separate oversubscription tally.
  bool force_admit = true;
  /// Ladder rung 3: evict the waiter with an error the caller observes.
  bool reject = true;
};

struct MonitorOptions {
  /// Waitlist scan mode on release: admit every fitting entry (true) or stop
  /// at the first non-fitting one (false; stricter FIFO fairness). Only
  /// meaningful under WakeOrder::kFifo.
  bool work_conserving = true;
  /// Enable the §3.4 thread-pool group pause.
  bool pool_guard = true;
  /// Order in which freed capacity is re-offered to parked periods.
  WakeOrder wake_order = WakeOrder::kFifo;
  WatchdogOptions watchdog{};
};

struct MonitorStats {
  std::uint64_t begins = 0;
  std::uint64_t ends = 0;
  std::uint64_t immediate_admissions = 0;
  std::uint64_t blocks = 0;
  std::uint64_t wakes = 0;              ///< admissions from the waitlist
  std::uint64_t forced_admissions = 0;  ///< liveness overrides
  std::uint64_t pool_disables = 0;
  std::uint64_t pool_group_admissions = 0;
  std::uint64_t cancels = 0;       ///< waitlisted requests withdrawn
  std::uint64_t reclaims = 0;      ///< orphaned periods reaped
  std::uint64_t demand_clamps = 0; ///< watchdog rung 1 applications
  std::uint64_t rejections = 0;    ///< watchdog rung 3 evictions
  /// Watchdog rung-2 admits; a subset of forced_admissions (each also emits
  /// kForceAdmit so the event/stat reconciliation stays one-to-one).
  std::uint64_t watchdog_force_admissions = 0;

  /// Field-wise accumulation: fleet-wide admission totals, summed over the
  /// per-node cores by the cluster layer and the service front end.
  MonitorStats& operator+=(const MonitorStats& o) {
    begins += o.begins;
    ends += o.ends;
    immediate_admissions += o.immediate_admissions;
    blocks += o.blocks;
    wakes += o.wakes;
    forced_admissions += o.forced_admissions;
    pool_disables += o.pool_disables;
    pool_group_admissions += o.pool_group_admissions;
    cancels += o.cancels;
    reclaims += o.reclaims;
    demand_clamps += o.demand_clamps;
    rejections += o.rejections;
    watchdog_force_admissions += o.watchdog_force_admissions;
    return *this;
  }
};

}  // namespace rda::core
