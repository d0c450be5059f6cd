// AdmissionCore unit tests: the transactional admit/withdraw/release engine
// both gates (sim and native) and the cluster layer delegate to.
#include "core/admission.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <deque>
#include <iterator>
#include <map>
#include <vector>

#include "obs/recorder.hpp"
#include "obs/reconcile.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "common/wake_recorder.hpp"
#include "util/units.hpp"

namespace rda::core {
namespace {

double mb(double v) { return static_cast<double>(rda::util::MB(v)); }

AdmitRequest request(sim::ThreadId thread, double demand,
                     std::string label = "pp") {
  AdmitRequest r;
  r.thread = thread;
  r.process = thread;  // singleton groups, like the native gate's default
  r.demands = {{ResourceKind::kLLC, demand}};
  r.label = std::move(label);
  return r;
}

TEST(AdmissionCore, AdmitChargesAndReleaseFrees) {
  AdmissionConfig config;
  config.llc_capacity_bytes = mb(16);
  AdmissionCore core(config);

  const AdmitTicket t = core.admit(request(1, mb(6)), 0.0);
  EXPECT_TRUE(t.admitted);
  EXPECT_FALSE(t.forced);
  EXPECT_EQ(core.resources().usage(ResourceKind::kLLC), mb(6));
  EXPECT_EQ(core.active_for_thread(1), t.id);

  const ReleaseTicket r = core.release(t.id, {}, 1.0);
  EXPECT_EQ(r.record.id, t.id);
  EXPECT_EQ(r.record.thread, 1u);
  EXPECT_TRUE(core.resources().effectively_free(ResourceKind::kLLC));
  EXPECT_FALSE(core.active_for_thread(1).has_value());
  EXPECT_EQ(core.stats().begins, 1u);
  EXPECT_EQ(core.stats().ends, 1u);
}

TEST(AdmissionCore, DeniedRequestParksUntilReleaseWakes) {
  AdmissionConfig config;
  config.llc_capacity_bytes = mb(16);
  AdmissionCore core(config);
  std::vector<sim::ThreadId> woken;
  testutil::record_wakes(core, woken);

  const AdmitTicket first = core.admit(request(1, mb(10)), 0.0);
  ASSERT_TRUE(first.admitted);
  const AdmitTicket second = core.admit(request(2, mb(10)), 0.1);
  EXPECT_FALSE(second.admitted);
  EXPECT_EQ(core.waitlist().size(), 1u);
  EXPECT_TRUE(woken.empty());

  core.release(first.id, {}, 1.0);
  ASSERT_EQ(woken.size(), 1u);
  EXPECT_EQ(woken[0], 2u);
  EXPECT_EQ(core.resources().usage(ResourceKind::kLLC), mb(10));
  // The grant already charged load: withdraw must refuse.
  EXPECT_FALSE(core.withdraw(second.id, 1.1));
  core.release(second.id, {}, 2.0);
  EXPECT_TRUE(core.resources().effectively_free(ResourceKind::kLLC));
}

// Wakes are delivered after the slow mutex is released, so a wake callback
// may call back into the core (the sim's death-at-wake fault path reaps the
// woken thread from inside its wake). The nested operation must not
// deadlock, and its own wakes must reach the next waiter in FIFO order
// through the same callback.
TEST(AdmissionCore, WakeCallbackMayReenterTheCore) {
  for (const bool reap : {false, true}) {
    SCOPED_TRACE(reap ? "reap from the wake" : "release from the wake");
    AdmissionConfig config;
    config.llc_capacity_bytes = mb(16);
    AdmissionCore core(config);
    std::vector<sim::ThreadId> woken;
    double now = 1.0;
    core.set_batch_waker([&](const std::vector<WakeGrant>& grants) {
      for (const WakeGrant& g : grants) {
        woken.push_back(g.thread);
        if (g.thread != 2) continue;
        if (reap) {
          const ReapOutcome outcome = core.reap(g.thread, now);
          EXPECT_TRUE(outcome.reaped);
          EXPECT_TRUE(outcome.was_admitted);
          EXPECT_EQ(outcome.period, g.period);
        } else {
          EXPECT_EQ(core.release(g.period, {}, now).record.thread, 2u);
        }
      }
    });

    const AdmitTicket holder = core.admit(request(1, mb(10)), 0.0);
    ASSERT_TRUE(holder.admitted);
    std::vector<AdmitTicket> parked;
    for (sim::ThreadId t = 2; t <= 4; ++t) {
      parked.push_back(core.admit(request(t, mb(10)), 0.1 * t));
      ASSERT_FALSE(parked.back().admitted);
    }
    core.release(holder.id, {}, now);
    // Thread 2's period ended inside its own wake, and that nested
    // operation woke the next waiter in FIFO order: 3, not 4.
    ASSERT_EQ(woken, (std::vector<sim::ThreadId>{2, 3}));
    EXPECT_EQ(core.waitlist().size(), 1u);
    core.release(parked[1].id, {}, now += 1.0);
    ASSERT_EQ(woken, (std::vector<sim::ThreadId>{2, 3, 4}));
    core.release(parked[2].id, {}, now += 1.0);

    const AdmissionCore::AuditReport audit = core.audit();
    EXPECT_TRUE(audit.ok) << audit.detail;
    const MonitorStats s = core.stats();
    EXPECT_EQ(s.begins, s.ends + s.cancels + s.reclaims + s.rejections);
    EXPECT_EQ(s.reclaims, reap ? 1u : 0u);
    EXPECT_TRUE(core.resources().effectively_free(ResourceKind::kLLC));
  }
}

TEST(AdmissionCore, WithdrawReleasesNothingAndCountsCancel) {
  AdmissionConfig config;
  config.llc_capacity_bytes = mb(16);
  AdmissionCore core(config);

  const AdmitTicket first = core.admit(request(1, mb(12)), 0.0);
  const AdmitTicket second = core.admit(request(2, mb(12)), 0.1);
  ASSERT_FALSE(second.admitted);
  EXPECT_TRUE(core.withdraw(second.id, 0.2));
  EXPECT_EQ(core.stats().cancels, 1u);
  EXPECT_EQ(core.waitlist().size(), 0u);
  EXPECT_FALSE(core.active_for_thread(2).has_value());
  EXPECT_EQ(core.resources().usage(ResourceKind::kLLC), mb(12));
  core.release(first.id, {}, 1.0);
}

TEST(AdmissionCore, WithdrawUnknownIdThrows) {
  AdmissionCore core(AdmissionConfig{});
  EXPECT_THROW(core.withdraw(42, 0.0), util::CheckFailure);
  EXPECT_THROW(core.release(42, {}, 0.0), util::CheckFailure);
}

TEST(AdmissionCore, NestedAdmitThrowsBeforeAnyStatsMutation) {
  AdmissionConfig config;
  config.llc_capacity_bytes = mb(16);
  AdmissionCore core(config);
  const AdmitTicket t = core.admit(request(1, mb(1)), 0.0);
  ASSERT_TRUE(t.admitted);
  EXPECT_THROW(core.admit(request(1, mb(1)), 0.1), util::CheckFailure);
  EXPECT_EQ(core.stats().begins, 1u);
  EXPECT_EQ(core.resources().usage(ResourceKind::kLLC), mb(1));
}

TEST(AdmissionCore, SlowLaneEventStampsNeverRunBackwards) {
  // A gate samples `now` before the core serializes the call, so a release
  // can arrive stamped earlier than the block it resolves. The wake must
  // not be stamped before its block: the wait histogram clamps a negative
  // interval to 0, the event-derived total would not.
  obs::EventRecorder recorder;
  AdmissionConfig config;
  config.llc_capacity_bytes = mb(16);
  config.trace_sink = &recorder;
  AdmissionCore core(config);

  const AdmitTicket holder = core.admit(request(1, mb(10)), 0.0);
  ASSERT_TRUE(holder.admitted);
  const AdmitTicket waiter = core.admit(request(2, mb(10)), 2.0);
  ASSERT_FALSE(waiter.admitted);
  core.release(holder.id, {}, 1.0);
  ASSERT_TRUE(core.is_admitted(waiter.id));
  core.release(waiter.id, {}, 3.0);

  obs::WaitStatsCheck gate_side;
  gate_side.waits = 1;
  const obs::ReconcileReport report = obs::reconcile_waits(
      recorder.events(), recorder.wait_histogram(), gate_side);
  EXPECT_TRUE(report.ok) << report.message;
}

TEST(AdmissionCore, PartitioningCapsStreamingDemand) {
  AdmissionConfig config;
  config.llc_capacity_bytes = mb(16);
  config.partitioning.enable = true;
  config.partitioning.streaming_fraction = 0.25;
  AdmissionCore core(config);

  const AdmitTicket t = core.admit(request(1, mb(64)), 0.0);
  EXPECT_TRUE(t.admitted);
  EXPECT_EQ(t.occupancy_cap, mb(4));
  EXPECT_EQ(core.partitioned_periods(), 1u);
  EXPECT_EQ(core.resources().usage(ResourceKind::kLLC), mb(4));
  // The registry holds the capped charge but remembers the declaration.
  const ReleaseTicket r = core.release(t.id, {}, 1.0);
  EXPECT_EQ(r.record.primary_demand(), mb(4));
  EXPECT_EQ(r.record.declared_demand, mb(64));
}

TEST(AdmissionCore, FeedbackCorrectsUnderDeclaredDemand) {
  AdmissionConfig config;
  config.llc_capacity_bytes = mb(16);
  config.feedback.enable = true;
  config.feedback.min_samples = 1;
  AdmissionCore core(config);

  // Declares 4 MB but the counters keep seeing 8 MB resident.
  for (int i = 0; i < 4; ++i) {
    const AdmitTicket t = core.admit(request(1, mb(4), "hot"), i * 1.0);
    ASSERT_TRUE(t.admitted);
    ReleaseObservation observed;
    observed.peak_occupancy = mb(8);
    observed.has_counters = true;
    core.release(t.id, observed, i * 1.0 + 0.5);
  }
  EXPECT_GT(core.corrector().correction("hot"), 1.5);

  // The corrected charge, not the declaration, is what admission debits.
  const AdmitTicket corrected = core.admit(request(1, mb(4), "hot"), 10.0);
  ASSERT_TRUE(corrected.admitted);
  EXPECT_GT(core.resources().usage(ResourceKind::kLLC), mb(6));
  core.release(corrected.id, {}, 11.0);
}

TEST(AdmissionCore, BestFitWakeOrderPrefersLargestFittingWaiter) {
  AdmissionConfig config;
  config.llc_capacity_bytes = mb(16);
  config.monitor.wake_order = WakeOrder::kBestFitDemand;
  AdmissionCore core(config);
  std::vector<sim::ThreadId> woken;
  testutil::record_wakes(core, woken);

  const AdmitTicket hog = core.admit(request(1, mb(14)), 0.0);
  ASSERT_TRUE(hog.admitted);
  ASSERT_FALSE(core.admit(request(2, mb(3)), 0.1).admitted);   // FIFO first
  ASSERT_FALSE(core.admit(request(3, mb(10)), 0.2).admitted);  // biggest
  ASSERT_FALSE(core.admit(request(4, mb(6)), 0.3).admitted);

  core.release(hog.id, {}, 1.0);
  // 16 MB free: best-fit admits 10 (thread 3) then 6 (thread 4) then
  // nothing — FIFO would have admitted 3 (thread 2) then 10 (thread 3).
  ASSERT_EQ(woken.size(), 2u);
  EXPECT_EQ(woken[0], 3u);
  EXPECT_EQ(woken[1], 4u);
  EXPECT_EQ(core.waitlist().size(), 1u);
}

TEST(AdmissionCore, EmptyDemandListRejected) {
  AdmissionCore core(AdmissionConfig{});
  AdmitRequest bad;
  bad.thread = 1;
  bad.process = 1;
  EXPECT_THROW(core.admit(std::move(bad), 0.0), util::CheckFailure);
}

// --- Batch entry points (service front end drain loop) ----------------------

TEST(AdmissionBatch, AdmitBatchMatchesPerCallSequence) {
  // The batched path must be semantically identical to calling admit() per
  // request in order: same tickets, same stats, same resource usage.
  AdmissionConfig config;
  config.llc_capacity_bytes = mb(16);
  AdmissionCore batched(config);
  AdmissionCore serial(config);

  std::vector<AdmitRequest> reqs;
  for (sim::ThreadId t = 1; t <= 6; ++t) {
    reqs.push_back(request(t, mb(4), "b" + std::to_string(t)));
  }
  std::vector<AdmitRequest> reqs_copy = reqs;

  const std::vector<AdmitTicket> tickets =
      batched.admit_batch(std::move(reqs), 0.0);
  std::vector<AdmitTicket> expected;
  for (AdmitRequest& r : reqs_copy) {
    expected.push_back(serial.admit(std::move(r), 0.0));
  }

  ASSERT_EQ(tickets.size(), expected.size());
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    EXPECT_EQ(tickets[i].admitted, expected[i].admitted) << "request " << i;
    EXPECT_EQ(tickets[i].forced, expected[i].forced) << "request " << i;
    EXPECT_EQ(tickets[i].id, expected[i].id) << "request " << i;
  }
  EXPECT_EQ(batched.stats().begins, serial.stats().begins);
  EXPECT_EQ(batched.stats().blocks, serial.stats().blocks);
  EXPECT_EQ(batched.stats().immediate_admissions,
            serial.stats().immediate_admissions);
  EXPECT_EQ(batched.resources().usage(ResourceKind::kLLC),
            serial.resources().usage(ResourceKind::kLLC));
  EXPECT_TRUE(batched.audit().ok) << batched.audit().detail;
}

TEST(AdmissionBatch, AdmitBatchParksOverflowInArrivalOrder) {
  AdmissionConfig config;
  config.llc_capacity_bytes = mb(16);
  AdmissionCore core(config);
  std::vector<WakeGrant> grants;
  core.set_batch_waker([&](const std::vector<WakeGrant>& batch) {
    grants.insert(grants.end(), batch.begin(), batch.end());
  });

  // 16 MB of budget, four 6 MB requests: two admit, two park — in order.
  std::vector<AdmitRequest> reqs;
  for (sim::ThreadId t = 1; t <= 4; ++t) reqs.push_back(request(t, mb(6)));
  const std::vector<AdmitTicket> tickets =
      core.admit_batch(std::move(reqs), 0.0);
  EXPECT_TRUE(tickets[0].admitted);
  EXPECT_TRUE(tickets[1].admitted);
  EXPECT_FALSE(tickets[2].admitted);
  EXPECT_FALSE(tickets[3].admitted);
  EXPECT_EQ(core.waitlist().size(), 2u);

  // Freeing both admitted periods wakes the parked pair FIFO, and the whole
  // release batch delivers ONE wake flush.
  core.release_batch({tickets[0].id, tickets[1].id}, 1.0);
  ASSERT_EQ(grants.size(), 2u);
  EXPECT_EQ(grants[0].thread, 3u);
  EXPECT_EQ(grants[1].thread, 4u);
  EXPECT_EQ(core.stats().wakes, 2u);
  EXPECT_TRUE(core.audit().ok) << core.audit().detail;
}

TEST(AdmissionBatch, ReleaseBatchMatchesPerCallSequence) {
  AdmissionConfig config;
  config.llc_capacity_bytes = mb(16);
  AdmissionCore batched(config);
  AdmissionCore serial(config);

  std::vector<PeriodId> batched_ids;
  std::vector<PeriodId> serial_ids;
  for (sim::ThreadId t = 1; t <= 5; ++t) {
    batched_ids.push_back(batched.admit(request(t, mb(2)), 0.0).id);
    serial_ids.push_back(serial.admit(request(t, mb(2)), 0.0).id);
  }

  const std::vector<ReleaseTicket> tickets =
      batched.release_batch(batched_ids, 1.0);
  for (const PeriodId id : serial_ids) serial.release(id, {}, 1.0);

  ASSERT_EQ(tickets.size(), 5u);
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    EXPECT_EQ(tickets[i].record.id, batched_ids[i]);
  }
  EXPECT_EQ(batched.stats().ends, serial.stats().ends);
  EXPECT_TRUE(batched.resources().effectively_free(ResourceKind::kLLC));
  EXPECT_TRUE(batched.audit().ok) << batched.audit().detail;
}

TEST(AdmissionBatch, ReleaseBatchDischargesOversubRecords) {
  // Forced-oversub records carry slow-lane obligations (oversub tally): the
  // batch path must discharge them exactly like the per-call slow release.
  AdmissionConfig config;
  config.llc_capacity_bytes = mb(16);
  config.monitor.watchdog.enable = true;
  config.monitor.watchdog.clamp = false;
  config.monitor.watchdog.force_admit = true;
  config.monitor.watchdog.max_wake_rounds = 1;
  AdmissionCore core(config);

  const AdmitTicket holder = core.admit(request(1, mb(12)), 0.0);
  ASSERT_TRUE(holder.admitted);
  const AdmitTicket waiter = core.admit(request(2, mb(12)), 0.1);
  ASSERT_FALSE(waiter.admitted);
  // Two stall escalations: rung 2 force-admits the waiter with the excess
  // booked in the oversubscription tally.
  while (!core.is_admitted(waiter.id)) {
    ASSERT_TRUE(core.watchdog_stalled(0.2));
  }
  EXPECT_GT(core.resources().oversubscribed(ResourceKind::kLLC), 0.0);

  core.release_batch({holder.id, waiter.id}, 1.0);
  EXPECT_EQ(core.resources().oversubscribed(ResourceKind::kLLC), 0.0);
  EXPECT_TRUE(core.resources().effectively_free(ResourceKind::kLLC));
  EXPECT_EQ(core.stats().ends, 2u);
  EXPECT_TRUE(core.audit().ok) << core.audit().detail;
}

TEST(AdmissionBatch, EndPeriodsUsesOneRescanForTheWholeBatch) {
  // Direct monitor-level check: a batch of ends re-offers capacity with a
  // single scheduling pass, so a waiter that fits only after ALL the ends
  // still wakes (work-conserving), and wake rounds advance once per batch.
  AdmissionConfig config;
  config.llc_capacity_bytes = mb(16);
  AdmissionCore core(config);
  std::vector<sim::ThreadId> woken;
  testutil::record_wakes(core, woken);

  const AdmitTicket a = core.admit(request(1, mb(8)), 0.0);
  const AdmitTicket b = core.admit(request(2, mb(8)), 0.0);
  const AdmitTicket big = core.admit(request(3, mb(14)), 0.1);
  ASSERT_FALSE(big.admitted);

  // Releasing a alone cannot admit the 14 MB waiter; the batch of both must.
  core.release_batch({a.id, b.id}, 1.0);
  ASSERT_EQ(woken.size(), 1u);
  EXPECT_EQ(woken[0], 3u);
  core.release(big.id, {}, 2.0);
  EXPECT_TRUE(core.audit().ok) << core.audit().detail;
}

// --- Wake-scan differential (one load read per kind per rescan) --------------

/// Serialized reference of Algorithm 1's wake scan: a request is admitted
/// iff every demand fits its bound; a release returns the load, then scans
/// the waiters in arrival order, admitting each one that fits and charging
/// it before judging the next.
struct ReferenceCore {
  std::array<double, kNumResourceKinds> bound{};
  std::array<double, kNumResourceKinds> usage{};
  std::deque<std::pair<sim::ThreadId, std::vector<ResourceDemand>>> waiters;
  std::map<sim::ThreadId, std::vector<ResourceDemand>> admitted;

  bool fits(const std::vector<ResourceDemand>& demands) const {
    for (const ResourceDemand& d : demands) {
      const auto k = static_cast<std::size_t>(d.resource);
      if (usage[k] + d.amount > bound[k]) return false;
    }
    return true;
  }
  void charge(sim::ThreadId thread, std::vector<ResourceDemand> demands) {
    for (const ResourceDemand& d : demands) {
      usage[static_cast<std::size_t>(d.resource)] += d.amount;
    }
    admitted.emplace(thread, std::move(demands));
  }
  bool admit(sim::ThreadId thread, std::vector<ResourceDemand> demands) {
    if (fits(demands)) {
      charge(thread, std::move(demands));
      return true;
    }
    waiters.emplace_back(thread, std::move(demands));
    return false;
  }
  std::vector<sim::ThreadId> release(const std::vector<sim::ThreadId>& done) {
    for (const sim::ThreadId t : done) {
      for (const ResourceDemand& d : admitted.at(t)) {
        usage[static_cast<std::size_t>(d.resource)] -= d.amount;
      }
      admitted.erase(t);
    }
    std::vector<sim::ThreadId> woken;
    for (auto it = waiters.begin(); it != waiters.end();) {
      if (!fits(it->second)) {
        ++it;
        continue;
      }
      woken.push_back(it->first);
      charge(it->first, std::move(it->second));
      it = waiters.erase(it);
    }
    return woken;
  }
};

TEST(AdmissionCore, WakeScanMatchesSerialReference) {
  // Seeded park/release sequences through the batched and per-call entry
  // points. Capacities are 16 units and demands whole units (MB, GB/s, W),
  // so every budget split and sum is exact and the reference's plain
  // arithmetic decides exactly what the striped budget does.
  constexpr std::array<ResourceKind, 3> kKinds = {
      ResourceKind::kLLC, ResourceKind::kMemBandwidth,
      ResourceKind::kEnergyBudget};
  constexpr std::array<double, 3> kUnit = {1024.0 * 1024.0, 1e9, 1.0};
  for (const PolicyKind policy : {PolicyKind::kStrict, PolicyKind::kCompromise}) {
    for (std::size_t kinds = 1; kinds <= 3; ++kinds) {
      SCOPED_TRACE(to_string(policy) + ", " + std::to_string(kinds) +
                   " resource kind(s)");
      AdmissionConfig config;
      config.policy = policy;
      config.llc_capacity_bytes = 16 * kUnit[0];
      if (kinds >= 2) config.bandwidth_capacity = 16 * kUnit[1];
      if (kinds >= 3) config.energy_capacity_watts = 16 * kUnit[2];
      AdmissionCore core(config);
      std::vector<sim::ThreadId> woken;
      testutil::record_wakes(core, woken);

      const double factor =
          policy == PolicyKind::kCompromise ? config.oversubscription : 1.0;
      ReferenceCore ref;
      for (std::size_t k = 0; k < kinds; ++k) {
        ref.bound[static_cast<std::size_t>(kKinds[k])] = factor * 16 * kUnit[k];
      }

      util::Rng rng(7 + 10 * kinds + static_cast<std::uint64_t>(policy));
      std::map<sim::ThreadId, PeriodId> ids;
      sim::ThreadId next_thread = 1;
      for (int op = 0; op < 2000; ++op) {
        SCOPED_TRACE("op " + std::to_string(op));
        woken.clear();
        std::vector<sim::ThreadId> expect_woken;
        const std::size_t n = 1 + rng.next_below(3);
        if (ref.admitted.empty() || rng.next_bool(0.55)) {
          std::vector<AdmitRequest> reqs;
          std::vector<bool> expect_admitted;
          for (std::size_t i = 0; i < n; ++i) {
            AdmitRequest r = request(next_thread++, 0.0);
            r.demands.clear();
            for (std::size_t k = 0; k < kinds; ++k) {
              if (k > 0 && rng.next_bool(0.3)) continue;
              r.demands.push_back(
                  {kKinds[k],
                   static_cast<double>(1 + rng.next_below(12)) * kUnit[k]});
            }
            expect_admitted.push_back(ref.admit(r.thread, r.demands));
            reqs.push_back(std::move(r));
          }
          std::vector<AdmitTicket> tickets;
          if (rng.next_bool(0.5)) {
            tickets = core.admit_batch(reqs, 0.0);
          } else {
            for (AdmitRequest& r : reqs) {
              tickets.push_back(core.admit(std::move(r), 0.0));
            }
          }
          for (std::size_t i = 0; i < tickets.size(); ++i) {
            EXPECT_EQ(tickets[i].admitted, expect_admitted[i]) << i;
            ids[next_thread - n + i] = tickets[i].id;
          }
        } else {
          std::vector<sim::ThreadId> done;
          for (std::size_t i = 0; i < n && i < ref.admitted.size(); ++i) {
            auto it = ref.admitted.begin();
            std::advance(it, static_cast<std::ptrdiff_t>(
                                 rng.next_below(ref.admitted.size())));
            if (std::find(done.begin(), done.end(), it->first) == done.end()) {
              done.push_back(it->first);
            }
          }
          std::vector<PeriodId> done_ids;
          for (const sim::ThreadId t : done) done_ids.push_back(ids.at(t));
          expect_woken = ref.release(done);
          if (done_ids.size() == 1 && rng.next_bool(0.5)) {
            core.release(done_ids.front(), {}, 0.0);
          } else {
            core.release_batch(done_ids, 0.0);
          }
        }
        ASSERT_EQ(woken, expect_woken);
        for (std::size_t k = 0; k < kinds; ++k) {
          ASSERT_EQ(core.resources().usage(kKinds[k]),
                    ref.usage[static_cast<std::size_t>(kKinds[k])])
              << to_string(kKinds[k]);
        }
        ASSERT_EQ(core.waitlist().size(), ref.waiters.size());
      }
      EXPECT_EQ(core.stats().forced_admissions, 0u);
      EXPECT_TRUE(core.audit().ok) << core.audit().detail;
    }
  }
}

TEST(AdmissionCore, WakeScanChargesEachWakeBeforeJudgingTheNext) {
  // Waiters of 6, 6 and 2 MB on 10 MB, released together: the first and
  // third must wake. A scan that judged the second waiter against the load
  // read before the first one's charge would pass it, fail its charge,
  // stop, and strand the third.
  AdmissionConfig config;
  config.llc_capacity_bytes = mb(10);
  AdmissionCore core(config);
  std::vector<sim::ThreadId> woken;
  testutil::record_wakes(core, woken);

  const AdmitTicket a = core.admit(request(1, mb(5)), 0.0);
  const AdmitTicket b = core.admit(request(2, mb(5)), 0.0);
  ASSERT_TRUE(a.admitted && b.admitted);
  for (sim::ThreadId t : {3u, 4u}) {
    ASSERT_FALSE(core.admit(request(t, mb(6)), 0.1).admitted);
  }
  ASSERT_FALSE(core.admit(request(5, mb(2)), 0.1).admitted);

  core.release_batch({a.id, b.id}, 1.0);
  EXPECT_EQ(woken, (std::vector<sim::ThreadId>{3, 5}));
  EXPECT_EQ(core.resources().usage(ResourceKind::kLLC), mb(8));
  EXPECT_EQ(core.waitlist().size(), 1u);
  EXPECT_TRUE(core.audit().ok) << core.audit().detail;
}

}  // namespace
}  // namespace rda::core
