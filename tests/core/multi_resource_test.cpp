// Multi-resource gating: periods that declare both an LLC working set and a
// DRAM-bandwidth demand must fit BOTH resources (conclusion: "configurable
// to allow multiple hardware resources to be targeted").
#include <gtest/gtest.h>

#include <vector>

#include "common/wake_recorder.hpp"
#include "core/rda_scheduler.hpp"
#include "runtime/gate.hpp"
#include "util/units.hpp"

namespace rda::core {
namespace {

using rda::util::MB;

AdmitRequest multi_request(sim::ThreadId thread, double llc_mb,
                           double bw_gbs) {
  AdmitRequest r;
  r.thread = thread;
  r.process = thread;
  r.demands = {{ResourceKind::kLLC, static_cast<double>(MB(llc_mb))}};
  if (bw_gbs > 0.0) {
    r.demands.push_back({ResourceKind::kMemBandwidth, bw_gbs * 1e9});
  }
  r.reuse = ReuseLevel::kLow;
  return r;
}

AdmissionConfig multi_config() {
  AdmissionConfig config;
  config.policy = PolicyKind::kStrict;
  config.llc_capacity_bytes = static_cast<double>(MB(15));
  config.bandwidth_capacity = 30e9;
  return config;
}

class MultiFixture {
 public:
  MultiFixture() : core_(multi_config()) {
    testutil::record_wakes(core_, woken_);
  }

  double usage(ResourceKind kind) const {
    return core_.resources().usage(kind);
  }

  AdmissionCore core_;
  std::vector<sim::ThreadId> woken_;
};

TEST(MultiResource, BothDemandsCharged) {
  MultiFixture fx;
  const auto outcome = fx.core_.admit(multi_request(1, 2.0, 10.0), 0.0);
  ASSERT_TRUE(outcome.admitted);
  EXPECT_NEAR(fx.usage(ResourceKind::kLLC), static_cast<double>(MB(2)), 1.0);
  EXPECT_NEAR(fx.usage(ResourceKind::kMemBandwidth), 10e9, 1.0);
  fx.core_.release(outcome.id, {}, 1.0);
  EXPECT_NEAR(fx.usage(ResourceKind::kLLC), 0.0, 1e-6);
  EXPECT_NEAR(fx.usage(ResourceKind::kMemBandwidth), 0.0, 1e-6);
}

TEST(MultiResource, SecondResourceCanBeTheBottleneck) {
  MultiFixture fx;
  // Tiny LLC footprints, huge bandwidth appetites: 3 x 12 GB/s > 30 GB/s.
  const auto a = fx.core_.admit(multi_request(1, 0.5, 12.0), 0.0);
  const auto b = fx.core_.admit(multi_request(2, 0.5, 12.0), 0.0);
  const auto c = fx.core_.admit(multi_request(3, 0.5, 12.0), 0.0);
  EXPECT_TRUE(a.admitted);
  EXPECT_TRUE(b.admitted);
  EXPECT_FALSE(c.admitted);  // LLC has room; bandwidth does not
  fx.core_.release(a.id, {}, 1.0);
  ASSERT_EQ(fx.woken_.size(), 1u);
  EXPECT_EQ(fx.woken_[0], 3u);
}

TEST(MultiResource, NoPartialCharging) {
  MultiFixture fx;
  // First period eats most of the bandwidth.
  const auto a = fx.core_.admit(multi_request(1, 1.0, 25.0), 0.0);
  ASSERT_TRUE(a.admitted);
  // Second fits the LLC but not the bandwidth: denied, and crucially the
  // LLC load must NOT have been incremented (atomic all-or-nothing).
  const double llc_before = fx.usage(ResourceKind::kLLC);
  const auto b = fx.core_.admit(multi_request(2, 1.0, 10.0), 0.0);
  EXPECT_FALSE(b.admitted);
  EXPECT_DOUBLE_EQ(fx.usage(ResourceKind::kLLC), llc_before);
}

TEST(MultiResource, LivenessOverrideChecksAllTargets) {
  MultiFixture fx;
  // 50 GB/s can never fit a 30 GB/s machine; alone, it is force-admitted.
  const auto big = fx.core_.admit(multi_request(1, 1.0, 50.0), 0.0);
  EXPECT_TRUE(big.admitted);
  EXPECT_TRUE(big.forced);
  fx.core_.release(big.id, {}, 1.0);
}

TEST(MultiResource, SchedulerGatesDeclaredBandwidth) {
  RdaOptions options;
  options.policy = PolicyKind::kStrict;
  options.bandwidth_capacity = 30e9;
  RdaScheduler sched(static_cast<double>(MB(15)), sim::Calibration{},
                     options);
  class NullWaker : public sim::ThreadWaker {
   public:
    void wake(sim::ThreadId) override {}
  } waker;
  sched.attach(waker);

  sim::PhaseSpec streaming;
  streaming.flops = 1e9;
  streaming.wss_bytes = MB(0.6);
  streaming.bw_bytes_per_sec = 12e9;
  streaming.reuse = ReuseLevel::kLow;
  streaming.marked = true;

  EXPECT_TRUE(sched.on_phase_begin(1, 1, streaming, 0.0).admit);
  EXPECT_TRUE(sched.on_phase_begin(2, 2, streaming, 0.0).admit);
  // Third 12 GB/s stream exceeds the 30 GB/s plane.
  EXPECT_FALSE(sched.on_phase_begin(3, 3, streaming, 0.0).admit);
}

TEST(MultiResource, SchedulerIgnoresBandwidthWhenDisabled) {
  RdaOptions options;
  options.policy = PolicyKind::kStrict;
  options.bandwidth_capacity = 0.0;  // extension off
  RdaScheduler sched(static_cast<double>(MB(15)), sim::Calibration{},
                     options);
  class NullWaker : public sim::ThreadWaker {
   public:
    void wake(sim::ThreadId) override {}
  } waker;
  sched.attach(waker);

  sim::PhaseSpec streaming;
  streaming.flops = 1e9;
  streaming.wss_bytes = MB(0.6);
  streaming.bw_bytes_per_sec = 12e9;
  streaming.reuse = ReuseLevel::kLow;
  streaming.marked = true;

  // All admitted: only the LLC is gated and 3 x 0.6 MB fits trivially.
  for (sim::ThreadId t = 1; t <= 3; ++t) {
    EXPECT_TRUE(sched.on_phase_begin(t, t, streaming, 0.0).admit) << t;
  }
}

TEST(MultiResource, NativeGateBeginMulti) {
  rt::GateConfig cfg;
  cfg.llc_capacity_bytes = static_cast<double>(MB(15));
  cfg.bandwidth_capacity = 30e9;
  cfg.policy = PolicyKind::kStrict;
  rt::AdmissionGate gate(cfg);
  const auto id = gate.begin_multi(
      {{ResourceKind::kLLC, static_cast<double>(MB(1))},
       {ResourceKind::kMemBandwidth, 10e9}},
      ReuseLevel::kLow, "stream");
  EXPECT_NEAR(gate.usage(ResourceKind::kMemBandwidth), 10e9, 1.0);
  gate.end(id);
  EXPECT_NEAR(gate.usage(ResourceKind::kMemBandwidth), 0.0, 1e-6);
}

}  // namespace
}  // namespace rda::core
