// Scheduling predicate (§3.3, Algorithm 1).
//
//   function TrySchedule(pp, resource)
//     remaining <- resource.capacity - resource.usage
//     outcome   <- remaining - pp.demand
//     runnable  <- apply_policy(outcome, resource)
//     if runnable then increment_load(pp.demand); schedule(get_process(pp))
//     else waitlist(pp)
//
// This class is the pure decision + load update; queueing the loser is the
// progress monitor's job.
#pragma once

#include "core/policy.hpp"
#include "core/registry.hpp"
#include "core/resource_monitor.hpp"

namespace rda::core {

class SchedulingPredicate {
 public:
  /// Non-owning references; both must outlive the predicate. Every resource
  /// kind gets `policy` as its bound and admission combines all-must-fit.
  SchedulingPredicate(const SchedulingPolicy& policy,
                      ResourceMonitor& resources)
      : resources_(&resources), combiner_(&default_combiner()) {
    policies_.fill(&policy);
  }

  /// Per-resource bounds + pluggable combiner. `policies` entries must be
  /// non-null and, like `combiner` and `resources`, outlive the predicate.
  SchedulingPredicate(const PolicyTable& policies,
                      const CombiningPolicy& combiner,
                      ResourceMonitor& resources)
      : policies_(policies), resources_(&resources), combiner_(&combiner) {}

  /// Algorithm 1, generalized to multi-resource periods: the combiner folds
  /// the per-resource verdicts into one decision and, on admit, charges the
  /// whole demand vector atomically (exact rollback on deny).
  ///
  /// For all-must-fit: apply_policy(remaining − demand) ⟺ usage + demand ≤
  /// admission_bound for every shipped policy (Strict: bound = capacity;
  /// Compromise: x·capacity; AlwaysAdmit: +inf), so the check-then-increment
  /// is expressed as an atomic budget acquisition on the period's stripe —
  /// the same code path whether the caller holds the slow-lane lock or is
  /// racing through the lock-free lane. The other combiners are slow-lane
  /// only (AdmissionCore::calm() gates them off the lock-free path).
  bool try_schedule(const PeriodRecord& pp) {
    return combiner_->try_schedule(pp.demands, pp.stripe, *resources_,
                                   policies_);
  }

  /// Vector decision only, no load change — used for group (thread-pool)
  /// checks, where the pool's summed per-resource demands are the vector.
  /// Reads the load afresh.
  bool would_admit(const std::vector<ResourceDemand>& demands) const {
    LoadView load(*resources_);
    return combiner_->would_admit(demands, load, policies_);
  }

  /// Multi-resource decision only: the exact check try_schedule performs,
  /// without the load charge — used by wake strategies to enumerate fitting
  /// waitlist candidates before committing to one. `load` is the scan's
  /// view of this predicate's monitor; the caller refreshes it after every
  /// charge.
  bool would_admit(const PeriodRecord& pp, LoadView& load) const {
    return combiner_->would_admit(pp.demands, load, policies_);
  }

  const SchedulingPolicy& policy() const {
    return *policies_[static_cast<std::size_t>(ResourceKind::kLLC)];
  }
  const SchedulingPolicy& policy(ResourceKind kind) const {
    return *policies_[static_cast<std::size_t>(kind)];
  }
  const CombiningPolicy& combiner() const { return *combiner_; }

 private:
  PolicyTable policies_{};
  ResourceMonitor* resources_;
  const CombiningPolicy* combiner_;
};

}  // namespace rda::core
