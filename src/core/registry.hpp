// Progress-period registry (§3.1).
//
// "The progress monitor stores all active progress period information in a
//  registry, so the resource usage footprint of each progress period can be
//  removed from our environment after the period completes."
//
// pp_begin returns a PeriodId that uniquely identifies the period (paper
// Fig. 4 line 6); pp_end passes it back. Ids are never reused within a
// registry's lifetime so a stale pp_end is detected, not misattributed.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "sim/ids.hpp"

namespace rda::core {

/// One declared demand of a progress period.
struct ResourceDemand {
  ResourceKind resource = ResourceKind::kLLC;
  double amount = 0.0;  ///< bytes for kLLC, bytes/second for kMemBandwidth

  bool operator==(const ResourceDemand&) const = default;
};

/// Everything the scheduler knows about one active progress period. A
/// period may target several resources at once (§3.2's per-resource load
/// table; the conclusion's "configurable to allow multiple hardware
/// resources to be targeted") — admission requires every declared demand to
/// fit its resource.
struct PeriodRecord {
  PeriodId id = kInvalidPeriod;
  sim::ThreadId thread = sim::kInvalidThread;
  sim::ProcessId process = sim::kInvalidProcess;
  std::vector<ResourceDemand> demands;
  ReuseLevel reuse = ReuseLevel::kLow;
  double begin_time = 0.0;
  std::string label;
  /// Primary-resource demand as the caller DECLARED it, before
  /// counter-feedback correction and partition capping reshaped the charged
  /// amount; what observed hardware counters are compared against at
  /// release. 0 only for records built outside AdmissionCore.
  double declared_demand = 0.0;
  /// DRAM-bandwidth demand as DECLARED (before counter-feedback reshaped
  /// the charged amount); what observed bandwidth is compared against at
  /// release. 0 when the period declared none.
  double declared_bandwidth = 0.0;
  /// Lease epoch at begin (refreshed by heartbeat); sweep() reaps periods
  /// whose lease is older than the configured age.
  std::uint64_t lease_epoch = 0;
  /// Admitted by the watchdog's forced-oversubscription rung: its load is
  /// mirrored in the resource monitor's oversubscription tally and must be
  /// removed from both sides on release/reap.
  bool oversub = false;
  /// Currently admitted (load charged)? False while parked on a waitlist.
  /// Replaces the old monitor-side admitted set so the lock-free release
  /// path learns the period's fate from the record it removed.
  bool admitted = false;
  /// ResourceMonitor stripe this period's load was charged on; its pp_end
  /// must discharge the same stripe.
  std::uint32_t stripe = 0;

  /// Declares a single-resource period (the common, paper-default case).
  void set_single(ResourceKind resource, double amount) {
    demands = {{resource, amount}};
  }
  /// Adds one more targeted resource.
  void add_demand(ResourceKind resource, double amount) {
    demands.push_back({resource, amount});
  }
  /// Demand on one resource (0 when the period does not target it).
  double demand_for(ResourceKind resource) const {
    for (const ResourceDemand& d : demands) {
      if (d.resource == resource) return d.amount;
    }
    return 0.0;
  }
  /// The primary (first-declared) resource and demand — convenience for the
  /// single-resource call sites.
  ResourceKind primary_resource() const {
    return demands.empty() ? ResourceKind::kLLC : demands.front().resource;
  }
  double primary_demand() const {
    return demands.empty() ? 0.0 : demands.front().amount;
  }
};

class PeriodRegistry {
 public:
  /// Ids are assigned first_id, first_id+stride, first_id+2·stride, … —
  /// the sharded registry gives each shard a distinct residue class so ids
  /// stay globally unique without cross-shard coordination.
  explicit PeriodRegistry(PeriodId first_id = 1, PeriodId stride = 1)
      : next_id_(first_id), stride_(stride) {}

  /// Registers a new active period; assigns and returns its unique id.
  /// Validates before moving: if it throws (nested begin, negative demand)
  /// the caller's record is untouched and still owns its demands.
  PeriodId insert(PeriodRecord&& record);

  /// nullptr if the id is not active.
  const PeriodRecord* find(PeriodId id) const;

  /// Mutable lookup for in-place reshaping (watchdog demand clamp, lease
  /// refresh). The id and thread keys must not be modified through this.
  PeriodRecord* find_mutable(PeriodId id);

  /// Removes and returns the record; throws util::CheckFailure if the id is
  /// unknown (double pp_end or a forged id).
  PeriodRecord remove(PeriodId id);

  std::size_t active_count() const { return records_.size(); }

  /// Active period of a given thread, if any (a thread can be inside at
  /// most one period at a time — periods do not nest in the paper's model).
  std::optional<PeriodId> active_for_thread(sim::ThreadId thread) const;

  /// Snapshot for diagnostics.
  std::vector<PeriodRecord> snapshot() const;

 private:
  using RecordMap = std::unordered_map<PeriodId, PeriodRecord>;
  using ThreadMap = std::unordered_map<sim::ThreadId, PeriodId>;

  RecordMap records_;
  ThreadMap by_thread_;
  PeriodId next_id_ = 1;
  PeriodId stride_ = 1;
  /// Extracted-node stashes: begin/end on the calm path would otherwise pay
  /// two map-node mallocs and two frees per period. remove() parks the
  /// nodes here; insert() re-keys them. Bounded so an admission burst does
  /// not pin memory forever.
  std::vector<RecordMap::node_type> record_nodes_;
  std::vector<ThreadMap::node_type> thread_nodes_;
};

}  // namespace rda::core
