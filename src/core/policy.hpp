// Scheduling policies (§3.3).
//
// Algorithm 1 computes outcome = (capacity − usage) − demand and asks
// apply_policy(outcome, resource) whether the period may run. The paper
// ships two configurations:
//   * RDA:Strict      — deny anything that would exceed capacity
//                       (outcome >= 0). Maximum resource efficiency.
//   * RDA:Compromise  — allow while usage + demand <= x × capacity, i.e.
//                       outcome >= −(x−1) × capacity, with x = 2 by default.
//                       Trades some efficiency for concurrency.
// "The policy allows users to specify that a certain amount of
//  oversubscription is allowed to provide more concurrency."
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "core/resource_monitor.hpp"

namespace rda::core {

/// Named configurations used throughout the benches and tests.
enum class PolicyKind {
  kLinuxDefault,  ///< no admission control (baseline; gate never attached)
  kStrict,        ///< RDA: Strict
  kCompromise,    ///< RDA: Compromise (oversubscription factor x)
};

std::string to_string(PolicyKind kind);

/// apply_policy(outcome, resource) of Algorithm 1.
class SchedulingPolicy {
 public:
  virtual ~SchedulingPolicy() = default;

  /// `outcome` is remaining-after-admission (may be negative); `resource`
  /// carries capacity and current usage.
  virtual bool allow(double outcome, const ResourceState& resource) const = 0;

  /// Total aggregate demand this policy admits against `capacity` — the
  /// budget the striped resource monitor partitions across its stripes.
  /// allow(remaining − demand) ⟺ usage + demand ≤ admission_bound(capacity),
  /// which is what lets the lock-free fast lane replace the policy check
  /// with an atomic budget acquisition.
  virtual double admission_bound(double capacity) const { return capacity; }

  virtual std::string name() const = 0;
};

/// RDA:Strict — never oversubscribe.
class StrictPolicy final : public SchedulingPolicy {
 public:
  bool allow(double outcome, const ResourceState& resource) const override;
  std::string name() const override { return "RDA:Strict"; }
};

/// RDA:Compromise — allow up to factor × capacity of aggregate demand.
class CompromisePolicy final : public SchedulingPolicy {
 public:
  explicit CompromisePolicy(double oversubscription_factor = 2.0);
  bool allow(double outcome, const ResourceState& resource) const override;
  double admission_bound(double capacity) const override;
  std::string name() const override;
  double factor() const { return factor_; }

 private:
  double factor_;
};

/// Admits everything (useful for overhead-only measurements: the API calls
/// are made, the predicate always says yes).
class AlwaysAdmitPolicy final : public SchedulingPolicy {
 public:
  bool allow(double outcome, const ResourceState& resource) const override;
  double admission_bound(double capacity) const override;
  std::string name() const override { return "AlwaysAdmit"; }
};

/// Factory for the named configurations. kLinuxDefault maps to AlwaysAdmit
/// (callers normally just skip attaching the gate for the baseline).
std::unique_ptr<SchedulingPolicy> make_policy(PolicyKind kind,
                                              double oversubscription = 2.0);

// --- Combining policies (multi-resource admission) --------------------------
//
// A progress period declares a *vector* of {resource, amount} demands; the
// combiner decides how the per-resource verdicts fold into one admit/deny,
// and performs the matching load charge. Each resource keeps its own
// Strict/Compromise bound (the PolicyTable below), so e.g. the LLC can run
// Compromise(x=2) while the watts budget stays Strict.

enum class CombinerKind {
  kAllMustFit,       ///< admit iff every declared demand fits its bound
  kWeightedSum,      ///< admit iff the weighted utilization stays under a
                     ///< threshold; demands are then charged force-if-needed
  kPriorityOrdered,  ///< the first-declared demand must fit hard; the rest
                     ///< are charged force-if-needed (overdraft-backed)
};

std::string_view to_string(CombinerKind kind);

struct CombinerOptions {
  CombinerKind kind = CombinerKind::kAllMustFit;
  /// kWeightedSum: admit while the weight-averaged post-admission
  /// utilization (usage + amount over the per-resource admission bound)
  /// stays <= this.
  double weighted_threshold = 1.0;
  /// kWeightedSum: per-resource weights (indexed by ResourceKind).
  std::array<double, kNumResourceKinds> weights{1.0, 1.0, 1.0, 1.0};
};

/// One per-resource bound policy per ResourceKind (non-owning). Entries must
/// never be null — callers fill unconfigured kinds with the default policy.
using PolicyTable = std::array<const SchedulingPolicy*, kNumResourceKinds>;

/// Folds per-resource predicate verdicts into one admission decision and
/// performs the matching all-or-nothing load charge.
///
/// Contract, for every combiner:
///  * try_schedule is atomic: on false, the load table is exactly as it was
///    (partial claims rolled back); on true, every declared demand has been
///    charged (reversible by one decrement_load per demand).
///  * would_admit is a pure read of `load` and must never pass when a
///    serialized try_schedule against the state `load` read would fail —
///    the rescan loop relies on would_admit ⇒ try_schedule under the
///    slow-lane lock, refreshing its view after every charge.
///  * Forced charges (kWeightedSum / kPriorityOrdered overflow) go through
///    increment_load, which books the shortfall as overdraft, so the
///    per-kind Σusage+Σfree−overdraft == bound invariant holds throughout.
class CombiningPolicy {
 public:
  virtual ~CombiningPolicy() = default;

  virtual CombinerKind kind() const = 0;
  virtual std::string name() const = 0;

  /// Decision only, no load change. Reads the load through `load`, so a
  /// scan judging many vectors against one load table reads it once.
  virtual bool would_admit(const std::vector<ResourceDemand>& demands,
                           LoadView& load,
                           const PolicyTable& policies) const = 0;

  /// Decision + all-or-nothing charge on `stripe`.
  virtual bool try_schedule(const std::vector<ResourceDemand>& demands,
                            std::uint32_t stripe, ResourceMonitor& resources,
                            const PolicyTable& policies) const = 0;
};

std::unique_ptr<CombiningPolicy> make_combiner(const CombinerOptions& options);

/// The process-wide default combiner (all-must-fit) — what a predicate uses
/// when no combiner was configured. Never null.
const CombiningPolicy& default_combiner();

}  // namespace rda::core
