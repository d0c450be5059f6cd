// Wake-delivery race regressions for the native gate.
//
// The single-lock gate hid two bug classes this suite pins (a third, the
// denied try_begin a grant could overtake, is pinned at the end):
//   * a lost-wakeup window: end() only pinged the condition variable when
//     the gate ran hardened, and the plain wait predicate only watched the
//     grant flag — so a plain waiter whose fate arrived WITHOUT a Waker
//     grant (evicted by a reap, or racing a timed withdraw) slept to its
//     full timeout (or forever, for a blocking begin);
//   * wait-accounting drift: hardened sliced waits counted every retry
//     slice as a separate wait, inflating GateStats::waits.
// Both are structural in the sharded gate (every fate transition notifies;
// waits are counted once per logical wait) — these tests keep them so.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <thread>
#include <vector>

#include "fault/fault.hpp"
#include "obs/reconcile.hpp"
#include "obs/recorder.hpp"
#include "runtime/gate.hpp"
#include "util/units.hpp"

namespace rda {
namespace {

using namespace std::chrono_literals;
using util::MB;

rt::GateConfig plain_config() {
  rt::GateConfig config;
  config.llc_capacity_bytes = static_cast<double>(MB(15));
  config.policy = core::PolicyKind::kStrict;
  return config;
}

/// Failure backstop only — nothing on the success path depends on it.
void await(const std::function<bool()>& pred, const char* what) {
  const auto deadline = std::chrono::steady_clock::now() + 30s;
  while (!pred()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << what;
    std::this_thread::sleep_for(50us);
  }
}

// The timed-begin-vs-release race, rapid-fire: a release lands around the
// waiter's timeout on every round. Whatever side wins, the round must
// resolve promptly and leave no capacity charged, no waiter parked, and no
// stale grant to poison the NEXT round's begin (same thread, new period).
TEST(GateRace, TimedBeginVsReleaseRaceAlwaysResolves) {
  rt::AdmissionGate gate(plain_config());
  for (int round = 0; round < 120; ++round) {
    const core::PeriodId held = gate.begin(
        ResourceKind::kLLC, static_cast<double>(MB(10)), ReuseLevel::kHigh);
    std::optional<core::PeriodId> got;
    std::thread waiter([&gate, &got, round] {
      // Timeout varies through the contention window so successive rounds
      // land the withdraw on both sides of the release.
      got = gate.begin_for(ResourceKind::kLLC, static_cast<double>(MB(10)),
                           ReuseLevel::kHigh,
                           std::chrono::microseconds(50 + 40 * (round % 8)));
    });
    // No park rendezvous here — the waiter may already have timed out and
    // withdrawn. The stagger sweeps the release across the timeout window.
    std::this_thread::sleep_for(std::chrono::microseconds(20 * (round % 11)));
    gate.end(held);
    waiter.join();
    if (got.has_value()) gate.end(*got);
    EXPECT_LT(gate.usage(ResourceKind::kLLC), 1e-6) << "round " << round;
    EXPECT_EQ(gate.waiting(), 0u) << "round " << round;
  }
  const core::AdmissionCore::AuditReport audit = gate.audit();
  EXPECT_TRUE(audit.ok) << audit.detail;
  const rt::GateStats stats = gate.stats();
  EXPECT_EQ(stats.monitor.begins,
            stats.monitor.ends + stats.monitor.cancels);
}

// A plain (non-hardened) timed waiter whose release arrives mid-wait must
// wake on the release, not sleep out its generous timeout.
TEST(GateRace, ReleaseWakesPlainTimedWaiterPromptly) {
  rt::AdmissionGate gate(plain_config());
  const core::PeriodId held = gate.begin(
      ResourceKind::kLLC, static_cast<double>(MB(10)), ReuseLevel::kHigh);
  std::optional<core::PeriodId> got;
  const auto start = std::chrono::steady_clock::now();
  std::thread waiter([&gate, &got] {
    got = gate.begin_for(ResourceKind::kLLC, static_cast<double>(MB(10)),
                         ReuseLevel::kHigh, 30s);
  });
  await([&gate] { return gate.waiting() == 1; }, "waiter to park");
  gate.end(held);
  waiter.join();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(got.has_value());
  gate.end(*got);
  // Far below the 30 s timeout: the waiter was woken, not timed out.
  EXPECT_LT(elapsed, 10s);
  EXPECT_LT(gate.usage(ResourceKind::kLLC), 1e-6);
}

// A plain timed waiter reaped off the waitlist gets NO grant — only an
// evict notice. The old gate never surfaced those to plain waiters, so the
// reaped waiter slept to its full timeout.
TEST(GateRace, ReapEvictsPlainTimedWaiterPromptly) {
  rt::AdmissionGate gate(plain_config());
  const core::PeriodId held = gate.begin(
      ResourceKind::kLLC, static_cast<double>(MB(10)), ReuseLevel::kHigh);
  std::atomic<std::uint32_t> waiter_token{0};
  std::optional<core::PeriodId> got = core::kInvalidPeriod;
  const auto start = std::chrono::steady_clock::now();
  std::thread waiter([&gate, &waiter_token, &got] {
    waiter_token.store(rt::AdmissionGate::current_thread_token());
    got = gate.begin_for(ResourceKind::kLLC, static_cast<double>(MB(10)),
                         ReuseLevel::kHigh, 30s);
  });
  await([&gate] { return gate.waiting() == 1; }, "waiter to park");
  gate.reap_thread(waiter_token.load());
  waiter.join();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_FALSE(got.has_value());
  EXPECT_LT(elapsed, 10s) << "reaped waiter slept toward its timeout";
  gate.end(held);
  EXPECT_LT(gate.usage(ResourceKind::kLLC), 1e-6);
  EXPECT_EQ(gate.stats().monitor.reclaims, 1u);
}

// The blocking flavour: a reaped blocking waiter must observe
// AdmissionRejected instead of sleeping forever.
TEST(GateRace, ReapEvictsPlainBlockingWaiterWithError) {
  rt::AdmissionGate gate(plain_config());
  const core::PeriodId held = gate.begin(
      ResourceKind::kLLC, static_cast<double>(MB(10)), ReuseLevel::kHigh);
  std::atomic<std::uint32_t> waiter_token{0};
  std::atomic<bool> rejected{false};
  std::thread waiter([&gate, &waiter_token, &rejected] {
    waiter_token.store(rt::AdmissionGate::current_thread_token());
    try {
      const core::PeriodId id = gate.begin(
          ResourceKind::kLLC, static_cast<double>(MB(10)), ReuseLevel::kHigh);
      gate.end(id);
    } catch (const rt::AdmissionRejected&) {
      rejected.store(true);
    }
  });
  await([&gate] { return gate.waiting() == 1; }, "waiter to park");
  gate.reap_thread(waiter_token.load());
  waiter.join();
  EXPECT_TRUE(rejected.load());
  gate.end(held);
  EXPECT_LT(gate.usage(ResourceKind::kLLC), 1e-6);
}

// Hardened sliced waits: however many retry slices the sleeper needs, the
// stats record ONE logical wait (the slices are tallied separately), and
// the monitor's block count stays in lock-step.
TEST(GateRace, HardenedWaitCountsOneLogicalWait) {
  // An armed-but-empty injector hardens the gate without injecting faults.
  fault::FaultInjector injector{fault::FaultPlan{}};
  rt::GateConfig config = plain_config();
  config.fault_injector = &injector;
  config.retry.initial_slice_seconds = 0.0002;
  config.retry.max_slice_seconds = 0.002;
  rt::AdmissionGate gate(config);

  const core::PeriodId held = gate.begin(
      ResourceKind::kLLC, static_cast<double>(MB(10)), ReuseLevel::kHigh);
  std::thread waiter([&gate] {
    const core::PeriodId id = gate.begin(
        ResourceKind::kLLC, static_cast<double>(MB(10)), ReuseLevel::kHigh);
    gate.end(id);
  });
  await([&gate] { return gate.waiting() == 1; }, "waiter to park");
  // Hold long enough for several backoff slices to elapse.
  std::this_thread::sleep_for(20ms);
  gate.end(held);
  waiter.join();

  const rt::GateStats stats = gate.stats();
  EXPECT_EQ(stats.monitor.blocks, 1u);
  EXPECT_EQ(stats.waits, 1u) << "sliced wait counted per-slice";
  EXPECT_GE(stats.wait_slices, 2u);
  EXPECT_EQ(stats.no_sleep_blocks, 0u);
  EXPECT_GT(stats.total_wait_seconds, 0.0);
  EXPECT_LT(gate.usage(ResourceKind::kLLC), 1e-6);
}

// Two threads, most ops try_begin: two 10 MB requests overflow the 15 MB
// capacity, so tries are denied whenever the other thread holds one. A
// denied try parks and is withdrawn in one core operation, so no release
// can grant it in between — such a grant used to leave a block that was
// neither a wait, a no-sleep block nor a cancel, and reconcile_waits
// failed. Small begins always fit beside a 10 MB period and never wait.
TEST(GateRace, TryHeavyTracedGateReconcilesWaits) {
  // Runs until enough tries were denied.
  constexpr int kMaxOpsPerThread = 20000;
  constexpr std::uint64_t kEnoughDenials = 1000;
  obs::EventRecorder recorder(1 << 17);  // 3 events per op
  rt::GateConfig config = plain_config();
  config.trace_sink = &recorder;
  rt::AdmissionGate gate(config);

  std::atomic<std::uint64_t> denied{0};
  std::atomic<int> started{0};
  const auto worker = [&gate, &denied, &started](int salt) {
    // Start together: one thread's ops alone take less than a thread spawn.
    started.fetch_add(1);
    while (started.load() < 2) {
    }
    std::uint64_t x = 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(salt);
    for (int i = 0; i < kMaxOpsPerThread && denied.load() < kEnoughDenials;
         ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      std::optional<core::PeriodId> id;
      if ((x >> 33) % 10 != 0) {
        id = gate.try_begin(ResourceKind::kLLC, static_cast<double>(MB(10)),
                            ReuseLevel::kHigh);
        if (!id.has_value()) {
          denied.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
      } else {
        id = gate.begin(ResourceKind::kLLC, static_cast<double>(MB(1)),
                        ReuseLevel::kHigh);
      }
      // A short hold, so releases land while the other thread's try is in
      // the slow lane. The yield lets the other thread run inside the hold
      // even when the OS has put both on one CPU.
      for (int spin = 0; spin < 64; ++spin) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        asm volatile("" : "+r"(x));
      }
      std::this_thread::yield();
      gate.end(*id);
    }
  };
  std::thread a(worker, 1);
  std::thread b(worker, 2);
  a.join();
  b.join();

  const rt::GateStats stats = gate.stats();
  EXPECT_GT(denied.load(), 0u) << "no try was ever denied";
  EXPECT_EQ(stats.monitor.cancels, denied.load());
  EXPECT_EQ(stats.monitor.begins,
            stats.monitor.ends + stats.monitor.cancels);
  EXPECT_EQ(stats.waits, 0u) << "only tries can block, and they never sleep";
  EXPECT_EQ(gate.usage(ResourceKind::kLLC), 0.0);
  EXPECT_EQ(gate.waiting(), 0u);
  const core::AdmissionCore::AuditReport audit = gate.audit();
  EXPECT_TRUE(audit.ok) << audit.detail;

  ASSERT_EQ(recorder.dropped(), 0u);
  const std::vector<obs::Event> events = recorder.events();
  const obs::ReconcileReport lifecycle = obs::reconcile(events, stats.monitor);
  EXPECT_TRUE(lifecycle.ok) << lifecycle.message;
  obs::WaitStatsCheck check;
  check.waits = stats.waits;
  check.no_sleep_blocks = stats.no_sleep_blocks;
  check.total_wait_seconds = stats.total_wait_seconds;
  const obs::ReconcileReport waits =
      obs::reconcile_waits(events, recorder.wait_histogram(), check);
  EXPECT_TRUE(waits.ok) << waits.message;
}

}  // namespace
}  // namespace rda
