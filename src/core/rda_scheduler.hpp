// RdaScheduler — the paper's scheduling extension, packaged as a sim gate.
//
// A thin adapter over core::AdmissionCore: it translates sim phase
// boundaries (on_phase_begin / on_phase_end) into the core's transactional
// admit/release calls and the sim's ThreadWaker into the core's batch
// waker. All policy, partitioning, feedback and waitlist logic lives in the
// core — shared verbatim with the native rt::AdmissionGate and the cluster
// layer's per-node gates. The adapter owns one decision of its own: the Fig. 11
// cached-decision fast path, a cost model that picks the calibrated API
// call cost the simulator charges. It needs no locking because the
// simulator drives its gate from one thread.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/admission.hpp"
#include "obs/sink.hpp"
#include "sim/calibration.hpp"
#include "sim/gate.hpp"

namespace rda::core {

struct RdaOptions {
  PolicyKind policy = PolicyKind::kStrict;
  /// Oversubscription factor x for RDA:Compromise (paper uses 2).
  double oversubscription = 2.0;
  /// Enable the cached-decision fast path (Fig. 11 second series): a begin
  /// that repeats its thread's last admitted, unforced request (same
  /// post-shaping demands) against an unchanged load table, with nobody
  /// waiting and no pool disabled, replays the same "admit" and is charged
  /// the fast call cost; so is an end while nobody waits.
  bool fast_path = false;
  PartitionOptions partitioning{};
  /// Multi-resource extension: when > 0, DRAM bandwidth becomes a second
  /// gated resource with this capacity (bytes/second); periods declaring a
  /// bandwidth demand must fit BOTH resources to be admitted.
  double bandwidth_capacity = 0.0;
  /// Multi-resource extension: when > 0, a package power budget (watts)
  /// becomes a gated resource; phases declaring `watts` are throttled so
  /// the sum of admitted watts holds the cap (fig10's GFLOPS/W machinery
  /// provides the ground truth).
  double energy_capacity_watts = 0.0;
  /// Per-resource bound overrides + demand-vector combining policy; see
  /// core::AdmissionConfig.
  std::vector<PerResourcePolicy> resource_policies;
  CombinerOptions combiner{};
  /// Counter-feedback extension: correct declared demands from observed
  /// per-period hardware counters.
  FeedbackOptions feedback{};
  MonitorOptions monitor{};
  /// Tenant-truth enforcement tier (non-owning; nullptr = off). Shared
  /// across gates so a fleet audits each tenant once, fleet-wide.
  TenantLedger* tenant_ledger = nullptr;
  /// Admission-lifecycle event sink (non-owning; nullptr = tracing off).
  obs::TraceSink* trace_sink = nullptr;
  /// Fault injection (non-owning; nullptr = off). Forwarded to the core,
  /// which consults the counter-corruption hook on release.
  fault::FaultInjector* fault_injector = nullptr;
};

class RdaScheduler final : public sim::PhaseGate {
 public:
  /// `llc_capacity_bytes` seeds the resource monitor; `calib` provides the
  /// API call costs the simulator charges.
  RdaScheduler(double llc_capacity_bytes, const sim::Calibration& calib,
               RdaOptions options = {});

  /// Declares a process as a task-pool (§3.4 group pause semantics).
  void mark_pool(sim::ProcessId process) { core_.mark_pool(process); }

  /// Attaches/detaches the lifecycle-event sink at runtime.
  void set_trace_sink(obs::TraceSink* sink) { core_.set_trace_sink(sink); }

  // sim::PhaseGate
  sim::BeginResult on_phase_begin(sim::ThreadId thread,
                                  sim::ProcessId process,
                                  const sim::PhaseSpec& phase,
                                  double now) override;
  sim::EndResult on_phase_end(sim::ThreadId thread, sim::ProcessId process,
                              const sim::PhaseSpec& phase,
                              const sim::PhaseObservation& observed,
                              double now) override;
  void attach(sim::ThreadWaker& waker) override;
  void on_thread_exit(sim::ThreadId thread, double now) override;
  bool pending_admitted(sim::ThreadId thread) const override;
  bool on_stall(double now) override;

  /// The shared engine (e.g. to swap the wake strategy for ablations).
  AdmissionCore& core() { return core_; }
  const AdmissionCore& core() const { return core_; }

  MonitorStats monitor_stats() const { return core_.stats(); }
  std::uint64_t fast_path_hits() const { return fast_path_hits_; }
  std::uint64_t partitioned_periods() const {
    return core_.partitioned_periods();
  }
  ResourceMonitor& resources() { return core_.resources(); }
  const SchedulingPolicy& policy() const { return core_.policy(); }
  const DemandCorrector& corrector() const { return core_.corrector(); }

 private:
  /// A thread's last decision, as the fast path replays it.
  struct CachedDecision {
    bool valid = false;  ///< last begin admitted unforced, table undisturbed
    std::vector<ResourceDemand> demands;  ///< post-shaping, from the registry
    std::uint64_t version = 0;  ///< resources().version() after the last call
  };

  sim::Calibration calib_;
  AdmissionCore core_;
  const bool fast_path_;
  std::unordered_map<sim::ThreadId, CachedDecision> decisions_;
  std::uint64_t fast_path_hits_ = 0;
  sim::ThreadWaker* waker_ = nullptr;
  /// Threads running ungated after a watchdog rejection: their next phase
  /// end has no core period to release.
  std::unordered_set<sim::ThreadId> rejected_running_;
};

}  // namespace rda::core
