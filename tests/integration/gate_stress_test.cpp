// Randomized end-to-end stress: arbitrary phase programs under every policy
// and every extension combination must (1) finish all work, (2) never
// deadlock, (3) leave the gate's load table empty, and (4) keep the cache
// model's invariants (checked inside the engine on every step).
#include <gtest/gtest.h>

#include "core/rda_scheduler.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace rda {
namespace {

using rda::util::MB;

struct StressParams {
  std::uint64_t seed;
  core::PolicyKind policy;
  bool fast_path;
  bool partitioning;
  bool feedback;
};

class GateStress : public ::testing::TestWithParam<StressParams> {};

TEST_P(GateStress, RandomWorkloadCompletesCleanly) {
  const StressParams params = GetParam();
  util::Rng rng(params.seed);

  sim::EngineConfig cfg;
  cfg.machine = sim::MachineConfig::e5_2420();
  cfg.machine.cores = 4;
  cfg.time_limit = 600.0;
  sim::Engine engine(cfg);

  core::RdaOptions options;
  options.policy = params.policy;
  options.fast_path = params.fast_path;
  options.partitioning.enable = params.partitioning;
  options.feedback.enable = params.feedback;
  core::RdaScheduler gate(static_cast<double>(cfg.machine.llc_bytes),
                          cfg.calib, options);
  engine.set_gate(&gate);

  double expected_flops = 0.0;
  const int processes = 3 + static_cast<int>(rng.next_below(5));
  for (int p = 0; p < processes; ++p) {
    const sim::ProcessId pid = engine.create_process();
    const bool pool = rng.next_bool(0.25);
    if (pool) gate.mark_pool(pid);
    const int threads = 1 + static_cast<int>(rng.next_below(3));
    for (int t = 0; t < threads; ++t) {
      sim::ProgramBuilder b;
      const int phases = 1 + static_cast<int>(rng.next_below(6));
      for (int ph = 0; ph < phases; ++ph) {
        const double flops = rng.next_double(5e6, 3e8);
        const double wss = rng.next_double(0.1, 20.0);  // some oversized
        const auto reuse = static_cast<ReuseLevel>(rng.next_below(3));
        if (rng.next_bool(0.7)) {
          b.period("pp" + std::to_string(ph), flops, MB(wss), reuse);
          if (rng.next_bool(0.3)) {
            b.declared(MB(rng.next_double(0.1, 25.0)));  // mis-declare
          }
        } else {
          b.plain("glue" + std::to_string(ph), flops, MB(wss), reuse);
          // Barriers only make sense when all threads of the process share
          // the phase structure; keep them out of the random mix (covered
          // by dedicated barrier tests).
        }
        expected_flops += flops;
      }
      engine.add_thread(pid, b.build());
    }
  }

  const sim::SimResult result = engine.run();
  EXPECT_FALSE(result.hit_time_limit) << "seed " << params.seed;
  EXPECT_NEAR(result.total_flops, expected_flops, 1e-6 * expected_flops);
  // All periods closed: the load table must be fully released.
  EXPECT_NEAR(gate.resources().usage(ResourceKind::kLLC), 0.0, 1e-6);
  EXPECT_EQ(gate.core().waitlist().size(), 0u);
  EXPECT_EQ(gate.core().registry().active_count(), 0u);
  // Accounting identity: every begin either admitted immediately, woken
  // later, or force-admitted.
  const core::MonitorStats& s = gate.monitor_stats();
  EXPECT_EQ(s.begins, s.ends);
  EXPECT_GE(s.immediate_admissions + s.wakes + s.forced_admissions, s.begins);
}

std::vector<StressParams> make_params() {
  std::vector<StressParams> all;
  std::uint64_t seed = 100;
  for (const auto policy :
       {core::PolicyKind::kStrict, core::PolicyKind::kCompromise}) {
    for (const bool fast : {false, true}) {
      for (const bool part : {false, true}) {
        for (const bool feedback : {false, true}) {
          all.push_back({seed++, policy, fast, part, feedback});
        }
      }
    }
  }
  // A few extra seeds on the default configuration.
  for (int i = 0; i < 6; ++i) {
    all.push_back({seed++, core::PolicyKind::kStrict, false, false, false});
  }
  return all;
}

INSTANTIATE_TEST_SUITE_P(Sweep, GateStress, ::testing::ValuesIn(make_params()));

}  // namespace
}  // namespace rda
