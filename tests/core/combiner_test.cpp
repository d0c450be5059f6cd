// CombiningPolicy contract (multi-resource admission): how per-resource
// verdicts fold into one decision, the all-or-nothing charge with exact
// rollback, forced charges flowing through overdraft, and the per-kind
// budget invariant Σusage + Σfree − overdraft == bound under fuzz and
// 16-thread churn.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "core/admission.hpp"
#include "core/policy.hpp"
#include "core/resource_monitor.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace rda::core {
namespace {

using util::MB;

constexpr double kLlcCap = 15.0 * 1024.0 * 1024.0;
constexpr double kBwCap = 30e9;
constexpr double kWattsCap = 20.0;

constexpr ResourceKind kKinds[] = {ResourceKind::kLLC,
                                   ResourceKind::kMemBandwidth,
                                   ResourceKind::kEnergyBudget};

struct CombinerFixture {
  CombinerFixture() : strict(std::make_unique<StrictPolicy>()) {
    resources.set_capacity(ResourceKind::kLLC, kLlcCap);
    resources.set_capacity(ResourceKind::kMemBandwidth, kBwCap);
    resources.set_capacity(ResourceKind::kEnergyBudget, kWattsCap);
    policies.fill(strict.get());
  }

  /// The per-kind budget conservation law, checked for every kind.
  void expect_invariant() const {
    for (const ResourceKind kind : kKinds) {
      const double bound = resources.admission_bound(kind);
      const double lhs = resources.usage(kind) + resources.total_free(kind) -
                         resources.overdraft(kind);
      EXPECT_NEAR(lhs, bound, 1e-3 * std::max(1.0, bound))
          << to_string(kind);
    }
  }

  void expect_all_zero_usage() const {
    for (const ResourceKind kind : kKinds) {
      EXPECT_NEAR(resources.usage(kind), 0.0, 1e-6) << to_string(kind);
      EXPECT_NEAR(resources.overdraft(kind), 0.0, 1e-6) << to_string(kind);
    }
  }

  /// A freshly read view of `resources`, for one would_admit call.
  LoadView& view() {
    load = LoadView(resources);
    return load;
  }

  ResourceMonitor resources;
  LoadView load{resources};
  std::unique_ptr<SchedulingPolicy> strict;
  PolicyTable policies{};
};

TEST(Combiner, AllMustFitRejectsWhenAnyResourceOverflows) {
  CombinerFixture fx;
  const CombiningPolicy& combiner = default_combiner();
  // Watts over its cap; the LLC component fits easily.
  const std::vector<ResourceDemand> demands = {
      {ResourceKind::kLLC, static_cast<double>(MB(1))},
      {ResourceKind::kEnergyBudget, kWattsCap + 5.0}};
  EXPECT_FALSE(combiner.would_admit(demands, fx.view(), fx.policies));
  EXPECT_FALSE(combiner.try_schedule(demands, 0, fx.resources, fx.policies));
  // Atomicity: the fitting LLC component must NOT have been charged.
  fx.expect_all_zero_usage();
  fx.expect_invariant();
}

TEST(Combiner, AllMustFitChargesAndReleasesEveryKind) {
  CombinerFixture fx;
  const CombiningPolicy& combiner = default_combiner();
  const std::vector<ResourceDemand> demands = {
      {ResourceKind::kLLC, static_cast<double>(MB(4))},
      {ResourceKind::kMemBandwidth, 10e9},
      {ResourceKind::kEnergyBudget, 8.0}};
  ASSERT_TRUE(combiner.would_admit(demands, fx.view(), fx.policies));
  ASSERT_TRUE(combiner.try_schedule(demands, 3, fx.resources, fx.policies));
  EXPECT_NEAR(fx.resources.usage(ResourceKind::kLLC),
              static_cast<double>(MB(4)), 1.0);
  EXPECT_NEAR(fx.resources.usage(ResourceKind::kMemBandwidth), 10e9, 1.0);
  EXPECT_NEAR(fx.resources.usage(ResourceKind::kEnergyBudget), 8.0, 1e-9);
  fx.expect_invariant();
  for (const ResourceDemand& d : demands) {
    fx.resources.decrement_load(d.resource, d.amount, 3);
  }
  fx.expect_all_zero_usage();
  fx.expect_invariant();
}

TEST(Combiner, WeightedSumCompensatesAcrossResources) {
  CombinerFixture fx;
  CombinerOptions options;
  options.kind = CombinerKind::kWeightedSum;
  options.weighted_threshold = 1.0;
  const auto combiner = make_combiner(options);

  // LLC would overflow its own strict bound (18 MB on 15 MB), but the idle
  // watts row pulls the weighted average under the threshold: admitted, with
  // the LLC shortfall booked as overdraft — never a negative free pool.
  const std::vector<ResourceDemand> demands = {
      {ResourceKind::kLLC, 18.0 * 1024.0 * 1024.0},
      {ResourceKind::kEnergyBudget, 1.0}};
  ASSERT_TRUE(combiner->would_admit(demands, fx.view(), fx.policies));
  ASSERT_TRUE(combiner->try_schedule(demands, 0, fx.resources, fx.policies));
  EXPECT_GT(fx.resources.overdraft(ResourceKind::kLLC), 0.0);
  fx.expect_invariant();

  // A second heavy LLC demand pushes the weighted average past 1: denied,
  // and the monitor is exactly as it was (no partial charge).
  const double usage_before = fx.resources.usage(ResourceKind::kLLC);
  const std::vector<ResourceDemand> heavy = {
      {ResourceKind::kLLC, 14.0 * 1024.0 * 1024.0},
      {ResourceKind::kEnergyBudget, 1.0}};
  EXPECT_FALSE(combiner->would_admit(heavy, fx.view(), fx.policies));
  EXPECT_FALSE(combiner->try_schedule(heavy, 0, fx.resources, fx.policies));
  EXPECT_DOUBLE_EQ(fx.resources.usage(ResourceKind::kLLC), usage_before);

  // Releasing pays the overdraft down to zero on every kind.
  for (const ResourceDemand& d : demands) {
    fx.resources.decrement_load(d.resource, d.amount, 0);
  }
  fx.expect_all_zero_usage();
  fx.expect_invariant();
}

TEST(Combiner, PriorityOrderedGatesOnTheFrontDemand) {
  CombinerFixture fx;
  CombinerOptions options;
  options.kind = CombinerKind::kPriorityOrdered;
  const auto combiner = make_combiner(options);

  // Front (LLC) fits -> admitted even though the trailing watts demand
  // overflows its row; the overflow rides on overdraft.
  const std::vector<ResourceDemand> demands = {
      {ResourceKind::kLLC, static_cast<double>(MB(4))},
      {ResourceKind::kEnergyBudget, kWattsCap + 10.0}};
  ASSERT_TRUE(combiner->would_admit(demands, fx.view(), fx.policies));
  ASSERT_TRUE(combiner->try_schedule(demands, 0, fx.resources, fx.policies));
  EXPECT_GT(fx.resources.overdraft(ResourceKind::kEnergyBudget), 0.0);
  fx.expect_invariant();
  for (const ResourceDemand& d : demands) {
    fx.resources.decrement_load(d.resource, d.amount, 0);
  }
  fx.expect_all_zero_usage();

  // Front does NOT fit -> denied outright, trailing demands never charged.
  const std::vector<ResourceDemand> blocked = {
      {ResourceKind::kLLC, 20.0 * 1024.0 * 1024.0},
      {ResourceKind::kEnergyBudget, 1.0}};
  EXPECT_FALSE(combiner->would_admit(blocked, fx.view(), fx.policies));
  EXPECT_FALSE(combiner->try_schedule(blocked, 0, fx.resources, fx.policies));
  fx.expect_all_zero_usage();
  fx.expect_invariant();
}

TEST(Combiner, WouldAdmitImpliesTryScheduleWhenSerialized) {
  // The slow-lane rescan admits a waiter iff would_admit passes, then calls
  // try_schedule — a would_admit that passes where try_schedule fails would
  // wake a thread into a denial. Fuzz the implication for every combiner.
  for (const CombinerKind kind :
       {CombinerKind::kAllMustFit, CombinerKind::kWeightedSum,
        CombinerKind::kPriorityOrdered}) {
    CombinerFixture fx;
    CombinerOptions options;
    options.kind = kind;
    const auto combiner = make_combiner(options);
    util::Rng rng(42 + static_cast<std::uint64_t>(kind));

    struct Held {
      std::vector<ResourceDemand> demands;
      std::uint32_t stripe;
    };
    std::vector<Held> held;
    for (int step = 0; step < 2000; ++step) {
      if (!held.empty() && rng.next_bool(0.45)) {
        const std::size_t pick = rng.next_below(held.size());
        for (const ResourceDemand& d : held[pick].demands) {
          fx.resources.decrement_load(d.resource, d.amount, held[pick].stripe);
        }
        held.erase(held.begin() + static_cast<std::ptrdiff_t>(pick));
        continue;
      }
      Held h;
      h.stripe = static_cast<std::uint32_t>(rng.next_below(16));
      h.demands.push_back(
          {ResourceKind::kLLC, rng.next_double(0.0, 0.4 * kLlcCap)});
      if (rng.next_bool(0.7)) {
        h.demands.push_back(
            {ResourceKind::kMemBandwidth, rng.next_double(0.0, 0.4 * kBwCap)});
      }
      if (rng.next_bool(0.7)) {
        h.demands.push_back({ResourceKind::kEnergyBudget,
                             rng.next_double(0.0, 0.4 * kWattsCap)});
      }
      const bool would =
          combiner->would_admit(h.demands, fx.view(), fx.policies);
      const bool did = combiner->try_schedule(h.demands, h.stripe,
                                              fx.resources, fx.policies);
      EXPECT_TRUE(!would || did)
          << to_string(kind) << ": would_admit passed but try_schedule failed"
          << " at step " << step;
      if (did) held.push_back(std::move(h));
    }
    for (const Held& h : held) {
      for (const ResourceDemand& d : h.demands) {
        fx.resources.decrement_load(d.resource, d.amount, h.stripe);
      }
    }
    fx.expect_all_zero_usage();
    fx.expect_invariant();
  }
}

TEST(Combiner, PerKindInvariantFuzz) {
  // Random acquire / forced-charge / release traffic across all three kinds
  // and all 16 stripes; the per-kind conservation law must hold at every
  // checkpoint, not just at quiescence.
  CombinerFixture fx;
  util::Rng rng(7);
  struct Charge {
    ResourceKind kind;
    double amount;
    std::uint32_t stripe;
  };
  std::vector<Charge> charges;
  for (int step = 0; step < 5000; ++step) {
    const double roll = rng.next_double();
    if (roll < 0.4 || charges.empty()) {
      Charge c;
      c.kind = kKinds[rng.next_below(3)];
      c.amount =
          rng.next_double(0.0, 0.3 * fx.resources.capacity(c.kind));
      c.stripe = static_cast<std::uint32_t>(rng.next_below(16));
      if (fx.resources.try_acquire(c.kind, c.amount, c.stripe)) {
        charges.push_back(c);
      }
    } else if (roll < 0.55) {
      // Forced charge (the watchdog/pool path): may overdraft.
      Charge c;
      c.kind = kKinds[rng.next_below(3)];
      c.amount =
          rng.next_double(0.0, 0.5 * fx.resources.capacity(c.kind));
      c.stripe = static_cast<std::uint32_t>(rng.next_below(16));
      fx.resources.increment_load(c.kind, c.amount, c.stripe);
      charges.push_back(c);
    } else {
      const std::size_t pick = rng.next_below(charges.size());
      fx.resources.decrement_load(charges[pick].kind, charges[pick].amount,
                                  charges[pick].stripe);
      charges.erase(charges.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    if (step % 100 == 0) fx.expect_invariant();
  }
  for (const Charge& c : charges) {
    fx.resources.decrement_load(c.kind, c.amount, c.stripe);
  }
  fx.expect_all_zero_usage();
  fx.expect_invariant();
}

// Suite name deliberately starts with "AdmissionCore" so the tier-1 TSan
// stage's filter picks this race test up.
TEST(AdmissionCoreMultiKindRollback, FailedAcquireRollsBackExactlyUnderChurn) {
  // 16 threads hammer all-or-nothing multi-kind acquires sized so that the
  // energy row (4 x 5 W fits, 16 x 5 W does not) forces constant failures
  // mid-claim: a failed acquire must roll back its partial LLC/bandwidth
  // claims exactly, or the final ledger drifts.
  CombinerFixture fx;
  const CombiningPolicy& combiner = default_combiner();
  constexpr int kThreads = 16;
  constexpr int kIters = 2000;
  std::atomic<std::uint64_t> admitted{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&fx, &combiner, &admitted, t] {
      const auto stripe = static_cast<std::uint32_t>(t);
      const std::vector<ResourceDemand> demands = {
          {ResourceKind::kLLC, static_cast<double>(MB(2))},
          {ResourceKind::kMemBandwidth, 5e9},
          {ResourceKind::kEnergyBudget, 5.0}};
      for (int i = 0; i < kIters; ++i) {
        if (combiner.try_schedule(demands, stripe, fx.resources,
                                  fx.policies)) {
          admitted.fetch_add(1, std::memory_order_relaxed);
          for (const ResourceDemand& d : demands) {
            fx.resources.decrement_load(d.resource, d.amount, stripe);
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_GT(admitted.load(), 0u);
  fx.expect_all_zero_usage();
  fx.expect_invariant();
  for (const ResourceKind kind : kKinds) {
    EXPECT_NEAR(fx.resources.total_free(kind),
                fx.resources.admission_bound(kind),
                1e-3 * std::max(1.0, fx.resources.admission_bound(kind)))
        << to_string(kind);
  }
}

TEST(AdmissionCoreCombinerConfig, PerResourcePolicyOverridesApply) {
  AdmissionConfig config;
  config.llc_capacity_bytes = kLlcCap;
  config.bandwidth_capacity = kBwCap;
  config.energy_capacity_watts = kWattsCap;
  config.policy = PolicyKind::kStrict;
  // LLC runs Compromise(x=2) while bandwidth and watts stay Strict.
  config.resource_policies.push_back(
      {ResourceKind::kLLC, PolicyKind::kCompromise, 2.0});
  AdmissionCore core(config);

  EXPECT_NEAR(core.resources().admission_bound(ResourceKind::kLLC),
              2.0 * kLlcCap, 1.0);
  EXPECT_NEAR(core.resources().admission_bound(ResourceKind::kMemBandwidth),
              kBwCap, 1.0);
  EXPECT_NEAR(core.resources().admission_bound(ResourceKind::kEnergyBudget),
              kWattsCap, 1e-9);
  EXPECT_EQ(core.policy(ResourceKind::kLLC).name(), "RDA:Compromise(x=2)");
  EXPECT_EQ(core.policy(ResourceKind::kEnergyBudget).name(), "RDA:Strict");

  // 24 MB exceeds the raw LLC capacity but fits the doubled Compromise
  // bound. (Admitted first so the monitor is non-empty below — an empty
  // monitor would force-admit anything via the free-resource liveness
  // override.)
  AdmitRequest fits;
  fits.thread = 2;
  fits.process = 2;
  fits.demands = {{ResourceKind::kLLC, 24.0 * 1024.0 * 1024.0},
                  {ResourceKind::kEnergyBudget, 10.0}};
  AdmitTicket ticket = core.admit(fits, 0.0);
  ASSERT_TRUE(ticket.admitted);

  // A tiny LLC demand that breaks only the Strict watts row: denied — the
  // Compromise override loosened the LLC, not the energy budget.
  AdmitRequest over;
  over.thread = 1;
  over.process = 1;
  over.demands = {{ResourceKind::kLLC, 1.0 * 1024.0 * 1024.0},
                  {ResourceKind::kEnergyBudget, 15.0}};
  AdmitTicket denied = core.admit(over, 0.0);
  EXPECT_FALSE(denied.admitted);
  EXPECT_EQ(core.try_withdraw(denied.id, 0.0), WithdrawResult::kCancelled);

  core.release(ticket.id, {}, 1.0);
  EXPECT_TRUE(core.audit().ok);
}

TEST(AdmissionCoreCombinerConfig, WeightedSumCoreRoundTrip) {
  AdmissionConfig config;
  config.llc_capacity_bytes = kLlcCap;
  config.energy_capacity_watts = kWattsCap;
  config.combiner.kind = CombinerKind::kWeightedSum;
  config.combiner.weighted_threshold = 1.0;
  AdmissionCore core(config);

  // Over the LLC bound alone, admitted by cross-resource compensation.
  AdmitRequest request;
  request.thread = 1;
  request.process = 1;
  request.demands = {{ResourceKind::kLLC, 18.0 * 1024.0 * 1024.0},
                     {ResourceKind::kEnergyBudget, 1.0}};
  AdmitTicket ticket = core.admit(request, 0.0);
  ASSERT_TRUE(ticket.admitted);
  EXPECT_GT(core.resources().overdraft(ResourceKind::kLLC), 0.0);
  core.release(ticket.id, {}, 1.0);
  EXPECT_NEAR(core.resources().overdraft(ResourceKind::kLLC), 0.0, 1e-6);
  EXPECT_NEAR(core.resources().usage(ResourceKind::kLLC), 0.0, 1e-6);
  EXPECT_TRUE(core.audit().ok);
}

}  // namespace
}  // namespace rda::core
