#include "core/policy.hpp"

#include <cmath>
#include <limits>
#include <sstream>

#include "util/check.hpp"

namespace rda::core {

std::string to_string(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kLinuxDefault: return "Linux default";
    case PolicyKind::kStrict: return "RDA:Strict";
    case PolicyKind::kCompromise: return "RDA:Compromise";
  }
  return "?";
}

bool StrictPolicy::allow(double outcome,
                         const ResourceState& resource) const {
  (void)resource;
  return outcome >= 0.0;
}

CompromisePolicy::CompromisePolicy(double oversubscription_factor)
    : factor_(oversubscription_factor) {
  RDA_CHECK_MSG(factor_ >= 1.0, "oversubscription factor below 1 is stricter "
                                "than Strict; use StrictPolicy");
}

bool CompromisePolicy::allow(double outcome,
                             const ResourceState& resource) const {
  // usage + demand <= factor * capacity  <=>  outcome >= -(factor-1)*capacity
  return outcome >= -(factor_ - 1.0) * resource.capacity;
}

double CompromisePolicy::admission_bound(double capacity) const {
  return factor_ * capacity;
}

std::string CompromisePolicy::name() const {
  std::ostringstream os;
  os << "RDA:Compromise(x=" << factor_ << ")";
  return os.str();
}

bool AlwaysAdmitPolicy::allow(double outcome,
                              const ResourceState& resource) const {
  (void)outcome;
  (void)resource;
  return true;
}

double AlwaysAdmitPolicy::admission_bound(double capacity) const {
  (void)capacity;
  return std::numeric_limits<double>::infinity();
}

std::unique_ptr<SchedulingPolicy> make_policy(PolicyKind kind,
                                              double oversubscription) {
  switch (kind) {
    case PolicyKind::kLinuxDefault:
      return std::make_unique<AlwaysAdmitPolicy>();
    case PolicyKind::kStrict:
      return std::make_unique<StrictPolicy>();
    case PolicyKind::kCompromise:
      return std::make_unique<CompromisePolicy>(oversubscription);
  }
  return std::make_unique<AlwaysAdmitPolicy>();
}

// --- Combining policies -----------------------------------------------------

std::string_view to_string(CombinerKind kind) {
  switch (kind) {
    case CombinerKind::kAllMustFit: return "all-must-fit";
    case CombinerKind::kWeightedSum: return "weighted-sum";
    case CombinerKind::kPriorityOrdered: return "priority-ordered";
  }
  return "?";
}

namespace {

std::size_t idx(ResourceKind kind) { return static_cast<std::size_t>(kind); }

/// Charge `demand` even if its budget is exhausted: take what the budget
/// has via try_acquire, otherwise force the charge through increment_load,
/// which books the shortfall as overdraft so the per-kind conservation
/// invariant survives and decrement_load pays it back symmetrically.
void acquire_or_force(ResourceMonitor& resources, const ResourceDemand& d,
                      std::uint32_t stripe) {
  if (!resources.try_acquire(d.resource, d.amount, stripe)) {
    resources.increment_load(d.resource, d.amount, stripe);
  }
}

class AllMustFitCombiner final : public CombiningPolicy {
 public:
  CombinerKind kind() const override { return CombinerKind::kAllMustFit; }
  std::string name() const override { return "all-must-fit"; }

  bool would_admit(const std::vector<ResourceDemand>& demands,
                   LoadView& load,
                   const PolicyTable& policies) const override {
    for (const ResourceDemand& d : demands) {
      const ResourceState& res = load.state(d.resource);
      if (!policies[idx(d.resource)]->allow(res.remaining() - d.amount, res)) {
        return false;
      }
    }
    return true;
  }

  bool try_schedule(const std::vector<ResourceDemand>& demands,
                    std::uint32_t stripe, ResourceMonitor& resources,
                    const PolicyTable& policies) const override {
    (void)policies;  // each kind's bound is baked into its budget
    for (std::size_t i = 0; i < demands.size(); ++i) {
      const ResourceDemand& d = demands[i];
      if (!resources.try_acquire(d.resource, d.amount, stripe)) {
        for (std::size_t j = 0; j < i; ++j) {
          resources.decrement_load(demands[j].resource, demands[j].amount,
                                   stripe);
        }
        return false;
      }
    }
    return true;
  }
};

class WeightedSumCombiner final : public CombiningPolicy {
 public:
  explicit WeightedSumCombiner(const CombinerOptions& options)
      : threshold_(options.weighted_threshold), weights_(options.weights) {
    RDA_CHECK_MSG(threshold_ > 0.0,
                  "weighted-sum threshold must be positive");
  }

  CombinerKind kind() const override { return CombinerKind::kWeightedSum; }
  std::string name() const override {
    std::ostringstream os;
    os << "weighted-sum(t=" << threshold_ << ")";
    return os.str();
  }

  bool would_admit(const std::vector<ResourceDemand>& demands,
                   LoadView& load,
                   const PolicyTable& policies) const override {
    // Weight-averaged post-admission utilization over the declared kinds
    // with finite bounds. A single over-packed resource can be compensated
    // by slack on the others — the "compositional apportioning" admit.
    double weighted = 0.0;
    double weight_total = 0.0;
    for (const ResourceDemand& d : demands) {
      const ResourceState& res = load.state(d.resource);
      const double bound =
          policies[idx(d.resource)]->admission_bound(res.capacity);
      if (!std::isfinite(bound) || bound <= 0.0) continue;
      const double w = weights_[idx(d.resource)];
      weighted += w * (res.usage + d.amount) / bound;
      weight_total += w;
    }
    if (weight_total <= 0.0) return true;
    return weighted / weight_total <= threshold_;
  }

  bool try_schedule(const std::vector<ResourceDemand>& demands,
                    std::uint32_t stripe, ResourceMonitor& resources,
                    const PolicyTable& policies) const override {
    LoadView load(resources);
    if (!would_admit(demands, load, policies)) return false;
    // An admitted vector is charged in full: resources whose own budget is
    // exhausted (compensated by slack elsewhere) go through the overdraft.
    for (const ResourceDemand& d : demands) {
      acquire_or_force(resources, d, stripe);
    }
    return true;
  }

 private:
  double threshold_;
  std::array<double, kNumResourceKinds> weights_;
};

class PriorityOrderedCombiner final : public CombiningPolicy {
 public:
  CombinerKind kind() const override {
    return CombinerKind::kPriorityOrdered;
  }
  std::string name() const override { return "priority-ordered"; }

  bool would_admit(const std::vector<ResourceDemand>& demands,
                   LoadView& load,
                   const PolicyTable& policies) const override {
    // Only the first-declared (dominant) demand gates admission; the rest
    // ride along on the overdraft if their budgets are tight.
    if (demands.empty()) return true;
    const ResourceDemand& d = demands.front();
    const ResourceState& res = load.state(d.resource);
    return policies[idx(d.resource)]->allow(res.remaining() - d.amount, res);
  }

  bool try_schedule(const std::vector<ResourceDemand>& demands,
                    std::uint32_t stripe, ResourceMonitor& resources,
                    const PolicyTable& policies) const override {
    (void)policies;
    if (demands.empty()) return true;
    if (!resources.try_acquire(demands.front().resource,
                               demands.front().amount, stripe)) {
      return false;
    }
    for (std::size_t i = 1; i < demands.size(); ++i) {
      acquire_or_force(resources, demands[i], stripe);
    }
    return true;
  }
};

}  // namespace

std::unique_ptr<CombiningPolicy> make_combiner(const CombinerOptions& options) {
  switch (options.kind) {
    case CombinerKind::kAllMustFit:
      return std::make_unique<AllMustFitCombiner>();
    case CombinerKind::kWeightedSum:
      return std::make_unique<WeightedSumCombiner>(options);
    case CombinerKind::kPriorityOrdered:
      return std::make_unique<PriorityOrderedCombiner>();
  }
  return std::make_unique<AllMustFitCombiner>();
}

const CombiningPolicy& default_combiner() {
  static const AllMustFitCombiner combiner;
  return combiner;
}

}  // namespace rda::core
