// AdmissionCore — the one transactional admit/withdraw/release engine.
//
// Every substrate that gates progress periods (the discrete-event simulator
// via core::RdaScheduler, real threads via rt::AdmissionGate, and the
// cluster layer's per-node gates) used to re-implement the same pipeline:
// demand correction, §6 streaming partitioning, registry + predicate +
// waitlist bookkeeping. AdmissionCore owns that pipeline once; the
// substrates shrink to adapters that translate their wake mechanism (sim
// event injection, condvar notify) into the core's batch waker and their
// notion of time into `now` seconds. The Fig. 11 cached-decision cost model
// is the simulator's alone and lives in RdaScheduler.
//
// Threading contract (sharded edition): the core is INTERNALLY synchronized
// and splits every operation across two lanes.
//
//   * Fast lane (lock-free, the common case): when calm() holds, admit
//     claims budget from the striped ResourceMonitor with atomic CAS and
//     inserts into the calling thread's registry shard; release removes the
//     record from its shard and returns the budget. The only shared state
//     two unrelated threads touch is their own shard/stripe, so contended
//     throughput scales with cores.
//
//   * Slow lane: everything else (parks, wakes, pools, watchdog, feedback,
//     fault hooks) runs the paper's progress monitor (Figs. 5/6, defined in
//     progress_monitor.cpp) under one slow mutex, exactly as the pre-shard
//     core did — byte-for-byte identical traces and stats when calls are
//     serialized.
//
// The lanes hand off via a Dekker-style handshake on seq_cst atomics: a
// parking thread publishes its waitlist entry and then re-reads the budget
// (begin_period's second look); a fast release returns its budget and then
// re-reads the waitlist count, escalating to a slow-lane rescan if anybody
// is parked. One side always sees the other, so no wake is lost.
//
// Wakes are delivered ONE way, in batches: every public slow-lane operation
// takes slow_mu_, runs, moves the grants and eviction notices its helpers
// queued out of the core, releases the mutex, and only then hands them to
// the batch waker (one call with every grant, in wake order) and the evict
// notifier. Delivering outside the lock lets a wake callback re-enter the
// core — the sim engine's death-at-wake fault path reaps the dying thread
// from inside the wake. The woken period is already marked admitted before
// its wake is delivered, so a waiter that probes its fate (is_admitted /
// take_rejection / …, all under the slow mutex) instead of sleeping
// observes a consistent verdict.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/feedback.hpp"
#include "core/policy.hpp"
#include "core/tenant_ledger.hpp"
#include "core/predicate.hpp"
#include "core/progress_monitor.hpp"
#include "core/resource_monitor.hpp"
#include "core/sharding.hpp"
#include "fault/fault.hpp"
#include "obs/sink.hpp"
#include "obs/summary.hpp"
#include "util/adaptive_mutex.hpp"

namespace rda::core {

/// §6 future-work extension: cache partitioning for streaming periods.
/// "If an application whose working set size is larger than the LLC is
///  scheduled (e.g., streaming applications), we can partition the cache and
///  give this application only a small portion ... because it would fetch
///  most data from main memory regardless."
struct PartitionOptions {
  bool enable = false;
  /// Fraction of LLC capacity granted to a larger-than-LLC period. The
  /// period is admitted with this reduced charge and confined to it, so
  /// normal periods co-run instead of waiting behind it.
  double streaming_fraction = 0.10;
};

/// Per-resource bound override: one resource kind running a different
/// Strict/Compromise configuration than the core-wide default.
struct PerResourcePolicy {
  ResourceKind resource = ResourceKind::kLLC;
  PolicyKind policy = PolicyKind::kStrict;
  double oversubscription = 2.0;
};

struct AdmissionConfig {
  /// LLC capacity the admission decisions are made against (bytes).
  double llc_capacity_bytes = 15360.0 * 1024.0;  // paper Table 1 default
  /// Multi-resource extension: when > 0, DRAM bandwidth (bytes/second)
  /// becomes a second gated resource.
  double bandwidth_capacity = 0.0;
  /// Multi-resource extension: when > 0, a RAPL-style package power budget
  /// (watts) becomes a gated resource — periods declaring kEnergyBudget
  /// demands are throttled to hold the cap.
  double energy_capacity_watts = 0.0;
  PolicyKind policy = PolicyKind::kStrict;
  /// Oversubscription factor x for RDA:Compromise (paper uses 2).
  double oversubscription = 2.0;
  /// Per-resource overrides of the default bound policy above (e.g. LLC on
  /// Compromise while the watts budget stays Strict). At most one entry per
  /// resource kind; later entries win.
  std::vector<PerResourcePolicy> resource_policies;
  /// How per-resource verdicts fold into one admission decision.
  CombinerOptions combiner{};
  PartitionOptions partitioning{};
  /// Counter-feedback extension: correct declared demands from observed
  /// per-period hardware counters.
  FeedbackOptions feedback{};
  MonitorOptions monitor{};
  /// Tenant-truth enforcement tier (non-owning; nullptr = off). When set,
  /// every completed period with counters is audited against its tenant's
  /// declaration (request.process is the tenant identity) and admissions
  /// from haircut-rung tenants are charged the audited usage ratio instead
  /// of the declared demand.
  TenantLedger* tenant_ledger = nullptr;
  /// Admission-lifecycle event sink (non-owning; nullptr = tracing off).
  obs::TraceSink* trace_sink = nullptr;
  /// Fault injection (non-owning; nullptr = off). The core itself consults
  /// only the kRelease hook (corrupted counter observations); the substrates
  /// consult the lifecycle hooks around their own admit/block/wake sites.
  fault::FaultInjector* fault_injector = nullptr;
};

/// One pp_begin, substrate-neutral. The first demand is the primary one;
/// when it targets the LLC it is reshaped by counter feedback and §6
/// partitioning before admission.
struct AdmitRequest {
  sim::ThreadId thread = sim::kInvalidThread;
  sim::ProcessId process = sim::kInvalidProcess;
  std::vector<ResourceDemand> demands;
  ReuseLevel reuse = ReuseLevel::kLow;
  std::string label;
};

/// Outcome of admit(). `admitted == false` means the period is parked on
/// the waitlist; the caller must either sleep until the batch waker grants
/// its period or withdraw() the request.
struct AdmitTicket {
  PeriodId id = kInvalidPeriod;
  bool admitted = false;
  bool forced = false;  ///< admitted via the liveness override
  /// Admitted on the post-park second look of the lost-wake handshake: the
  /// period visited the waitlist (blocks was counted) but the caller must
  /// NOT sleep — no grant will ever arrive for it.
  bool woke_from_waitlist = false;
  /// Non-zero when §6 partitioning capped the period's LLC occupancy.
  double occupancy_cap = 0.0;
};

/// Observed hardware counters of a completed period, fed back into the
/// demand corrector. `has_counters == false` (the default) skips feedback —
/// the native runtime has no per-period counter isolation by default.
struct ReleaseObservation {
  double peak_occupancy = 0.0;  ///< bytes actually resident at peak
  bool cache_contended = false;
  bool has_counters = false;
  /// Observed DRAM bandwidth (bytes/second) for the vector-demand feedback
  /// path; consumed only when has_bandwidth is set AND the period declared
  /// a kMemBandwidth demand.
  double peak_bandwidth = 0.0;
  bool has_bandwidth = false;
  /// True when the memory bus was saturated while the period ran — its
  /// bandwidth peak is then a lower bound, like cache_contended for the LLC.
  bool bandwidth_contended = false;
};

/// Outcome of release().
struct ReleaseTicket {
  PeriodRecord record;  ///< the closed period
};

/// One admission grant bound for a sleeping owner. Carrying the PERIOD id
/// (not just the thread) lets an asynchronous substrate discard a grant that
/// was delivered late — after its period was already recovered, withdrawn,
/// or ended — instead of mistaking it for the thread's next period's grant.
struct WakeGrant {
  sim::ThreadId thread = sim::kInvalidThread;
  PeriodId period = kInvalidPeriod;
};

/// A waiter evicted without a wake grant (watchdog rung 3, or reaped off the
/// waitlist): the substrate must rouse the sleeping owner so it can observe
/// the error instead of sleeping to its timeout.
struct EvictNotice {
  sim::ThreadId thread = sim::kInvalidThread;
  PeriodId period = kInvalidPeriod;
  const char* reason = "";
};

/// Outcome of reap().
struct ReapOutcome {
  bool reaped = false;
  bool was_admitted = false;  ///< held load (vs parked on the waitlist)
  PeriodId period = kInvalidPeriod;
};

/// Outcome of try_withdraw() — the race-tolerant withdraw the native gate's
/// timeout path uses.
enum class WithdrawResult {
  kCancelled,        ///< was waitlisted; now cancelled
  kAlreadyAdmitted,  ///< the grant won the race; caller owns the admission
  kGone,             ///< already rejected/reclaimed/unknown
};

class AdmissionCore {
 public:
  /// The kernel wake event, abstracted: one call per slow-lane operation
  /// with every period it admitted off the waitlist, in wake order. Invoked
  /// after the slow mutex is released — re-entering the core from the
  /// callback is safe.
  using BatchWakeFn = std::function<void(const std::vector<WakeGrant>&)>;
  /// Eviction notices (watchdog rung 3, waitlisted-orphan reclaim),
  /// delivered right after the operation's wakes.
  using EvictFn = std::function<void(const std::vector<EvictNotice>&)>;

  explicit AdmissionCore(AdmissionConfig config = {});

  AdmissionCore(const AdmissionCore&) = delete;
  AdmissionCore& operator=(const AdmissionCore&) = delete;

  void set_batch_waker(BatchWakeFn waker) { batch_waker_ = std::move(waker); }
  /// Lets the substrate rouse a sleeping owner that will never get a grant.
  void set_evict_notifier(EvictFn notifier) {
    evict_notifier_ = std::move(notifier);
  }
  /// Attaches a lifecycle-event sink (non-owning; nullptr disables tracing
  /// at the cost of one branch per transition).
  void set_trace_sink(obs::TraceSink* sink) { config_.trace_sink = sink; }

  /// Declares a process as a task-pool (§3.4 group pause semantics).
  void mark_pool(sim::ProcessId process) {
    std::lock_guard lock(slow_mu_);
    pools_.insert(process);
  }

  /// pp_begin. Applies feedback correction and §6 partitioning to the
  /// primary LLC demand, then admits through the calm lock-free lane or the
  /// full predicate pipeline. Throws util::CheckFailure on a nested begin
  /// from the same thread (before any stats or trace mutation).
  AdmitTicket admit(AdmitRequest request, double now);

  /// Batched pp_begin for the service front end's drain loop. Semantically
  /// identical to calling admit() per request in order (tickets come back in
  /// request order), but calm requests go through the lock-free lane
  /// individually while every slow-lane leftover shares ONE slow-mutex
  /// acquisition, one wake batch, and one deliver — the per-call lock and
  /// notify cost is amortized across the whole batch. Leftovers keep their
  /// original arrival order (FIFO fairness). A nested-begin throw aborts the
  /// batch like it aborts the single call.
  std::vector<AdmitTicket> admit_batch(std::vector<AdmitRequest> requests,
                                       double now);

  /// Non-blocking pp_begin (the native gate's try_begin): admit() that
  /// never leaves the request parked. A denied request is withdrawn inside
  /// the same slow-mutex hold and wake batch that parked it, so it records
  /// the same begin/block/cancel events and stats as admit() followed by
  /// withdraw(), but no grant can race the withdrawal. `admitted == false`
  /// means the request is gone (its id is no longer registered).
  AdmitTicket try_admit(AdmitRequest request, double now);

  /// Withdraws a request that is still waitlisted (timeout / shutdown).
  /// Returns false — withdrawing NOTHING — when the period was already
  /// admitted (the grant raced the timeout; the caller must consume it and
  /// eventually release()). Throws on an unknown id.
  bool withdraw(PeriodId id, double now);

  /// Race-tolerant withdraw: like withdraw(), but an id that vanished
  /// (watchdog rejection, orphan reclaim) reports kGone instead of
  /// throwing, and a won-by-the-grant race reports kAlreadyAdmitted.
  WithdrawResult try_withdraw(PeriodId id, double now);

  /// pp_end. Feeds observed counters to the demand corrector, releases the
  /// period's load and rescans the waitlist (granting every admission to
  /// the batch waker). Throws on an unknown id or a never-admitted period.
  ReleaseTicket release(PeriodId id, const ReleaseObservation& observed,
                        double now);

  /// Batched pp_end. Calm records release through the lock-free lane; the
  /// rest are discharged together under one slow-mutex hold with a single
  /// waitlist rescan for the whole batch, and the Dekker re-check after a
  /// purely fast batch escalates at most once.
  /// No counter observations: feedback-corrected periods must go through the
  /// single-call release() (feedback disables the calm lane anyway).
  std::vector<ReleaseTicket> release_batch(const std::vector<PeriodId>& ids,
                                           double now);

  /// Active (admitted OR waitlisted) period of a thread, if any.
  std::optional<PeriodId> active_for_thread(sim::ThreadId thread) const {
    return registry_.active_for_thread(thread);
  }

  /// --- Self-healing lifecycle ---------------------------------------------

  /// Reaps whatever period `thread` left behind (thread-exit detection /
  /// task teardown): an admitted orphan's load is returned and waiters are
  /// rescanned; a waitlisted orphan is evicted. With `remember_waiter`, a
  /// reaped WAITLISTED period is remembered so a live waiter polling on it
  /// can observe the eviction (take_reclaimed).
  ReapOutcome reap(sim::ThreadId thread, double now,
                   bool remember_waiter = false);

  /// Lease-based reclamation: reaps every period whose lease is more than
  /// `max_epoch_age` advance_epoch() calls stale. heartbeat() refreshes a
  /// live thread's lease.
  std::size_t sweep(std::uint64_t max_epoch_age, double now,
                    bool remember_waiters = false);
  void heartbeat(sim::ThreadId thread);
  void advance_epoch() { epoch_.fetch_add(1); }

  /// Time-triggered starvation-watchdog pass (the round trigger runs inside
  /// every rescan). Returns true when a waiter moved a degradation rung.
  bool watchdog_tick(double now);

  /// Stall-triggered escalation: the substrate proved nothing can progress,
  /// so the head-most unexhausted waiter moves a rung immediately.
  bool watchdog_stalled(double now);

  /// Post-wait state probes for the substrates: a granted period shows as
  /// admitted; a watchdog-rejected or reaped-while-waiting one never gets a
  /// wake grant and must be discovered (and consumed) through these. All
  /// take the slow mutex: an operation's wakes are flushed before its
  /// effects become observable here.
  bool is_admitted(PeriodId id) const;
  bool is_rejected(PeriodId id) const;
  bool take_rejection(PeriodId id);
  std::optional<PeriodId> take_rejection_for_thread(sim::ThreadId thread);
  std::vector<sim::ThreadId> rejected_threads() const;
  bool is_reclaimed(PeriodId id) const;
  bool take_reclaimed(PeriodId id);

  /// Shard-accounting audit, meaningful at quiescence (no in-flight calls):
  /// striped usage vs registry ground truth, budget conservation, waitlist
  /// counter vs contents, oversubscription tally vs oversub records.
  struct AuditReport {
    bool ok = true;
    std::string detail;  ///< first violated invariant, empty when ok
  };
  AuditReport audit() const;

  /// Per-resource ledger snapshot (one row per configured kind, in kind
  /// order) for obs::summarize and obs::reconcile_resources: capacity,
  /// policy bound, aggregate usage, unclaimed budget, overdraft, and the
  /// watchdog oversubscription tally.
  std::vector<obs::ResourceRow> resource_rows() const;

  const AdmissionConfig& config() const { return config_; }
  /// Slow-lane monitor stats plus the fast lane's per-shard begin/end
  /// counters, merged. By value: assembled at call time.
  MonitorStats stats() const;
  std::uint64_t partitioned_periods() const {
    return partitioned_periods_.load();
  }
  ResourceMonitor& resources() { return resources_; }
  const ResourceMonitor& resources() const { return resources_; }
  /// Lock-free views for probes and quiescent audits: the waitlist's size()
  /// is its seq_cst Dekker counter, and each registry shard locks itself.
  const Waitlist& waitlist() const { return waitlist_; }
  const ShardedRegistry& registry() const { return registry_; }
  /// True while a §3.4 pool is paused as a group. Takes the slow mutex.
  bool pool_disabled(sim::ProcessId process) const;
  const SchedulingPolicy& policy() const { return *policy_; }
  const SchedulingPolicy& policy(ResourceKind kind) const {
    return *policy_table_[static_cast<std::size_t>(kind)];
  }
  const CombiningPolicy& combiner() const { return *combiner_; }
  const DemandCorrector& corrector() const { return corrector_; }

  /// Somebody is parked on the waitlist or a §3.4 pool is disabled: only
  /// the slow lane may admit, and a release must rescan. Reads two seq_cst
  /// atomics; a fast release re-reads them after returning its budget (the
  /// releaser's half of the Dekker handshake).
  bool slow_work_pending() const {
    return waitlist_.size() != 0 || disabled_pool_count_.load() != 0;
  }

 private:
  /// This shard's share of the fast lane's begin/end counters.
  /// Cacheline-aligned so shards do not false-share.
  struct alignas(64) ShardSlot {
    std::atomic<std::uint64_t> begins{0};
    std::atomic<std::uint64_t> ends{0};
    std::atomic<std::uint64_t> immediate{0};
  };

  /// The calm predicate: the one condition under which the lock-free lane
  /// may decide alone. Its static half, calm_config_, is fixed at
  /// construction and requires
  ///   * all-must-fit combining (the budget CAS expresses only per-resource
  ///     hard fits),
  ///   * no counter feedback and no tenant ledger (serial corrector and
  ///     ledger state), and
  ///   * no fault injector (the fault matrix stays deterministic).
  /// Its dynamic half is !slow_work_pending().
  bool calm() const { return calm_config_ && !slow_work_pending(); }

  /// What admit-side shaping learned about a request before any lane ran.
  struct Shaped {
    bool partitioned = false;  ///< §6 capped the primary LLC demand
    double declared = 0.0;     ///< primary demand as the caller declared it
  };
  /// Rejects an empty demand list and applies the §6 partitioning transform
  /// to the primary LLC demand (setting ticket.occupancy_cap). With counter
  /// feedback on, the corrected demand must be capped instead, so the
  /// transform is left to slow_admit_locked (feedback forces every call
  /// there anyway).
  Shaped shape(AdmitRequest& request, AdmitTicket& ticket) const;
  /// admit()/try_admit(): the calm lane, else one slow-lane operation
  /// around slow_admit_locked. With `withdraw_if_parked` a request the
  /// predicate parked is cancelled before the hold ends.
  AdmitTicket admit_one(AdmitRequest request, double now,
                        bool withdraw_if_parked);
  /// Lock-free admit attempt. False = budget contention or nested-begin
  /// impossible here; caller falls through to the slow lane.
  bool fast_admit(AdmitRequest& request, double now, const Shaped& shaped,
                  AdmitTicket& ticket);
  /// Slow-lane admit: demand correction, then begin_period. Caller holds
  /// slow_mu_ inside slow_op.
  AdmitTicket slow_admit_locked(AdmitRequest request, double now,
                                Shaped shaped, double occupancy_cap);
  ReleaseTicket slow_release(PeriodId id, const ReleaseObservation& observed,
                             double now);
  /// Lock-free release attempt (no Dekker re-check — the caller owes one
  /// rescan check per call/batch). False = record not claimable calmly.
  bool fast_release(PeriodId id, double now, ReleaseTicket& ticket);

  /// What one slow-lane operation woke or evicted, in order.
  struct Delivery {
    std::vector<WakeGrant> wakes;
    std::vector<EvictNotice> evicts;
  };
  /// One public slow-lane operation's hold on slow_mu_. When it ends, also
  /// by an exception, it moves what the operation queued into `out` before
  /// the mutex is released.
  class SlowHold {
   public:
    SlowHold(AdmissionCore& core, Delivery& out)
        : core_(core), out_(out), lock_(core.slow_mu_) {}
    SlowHold(const SlowHold&) = delete;
    SlowHold& operator=(const SlowHold&) = delete;
    ~SlowHold() { std::swap(out_, core_.pending_); }

   private:
    AdmissionCore& core_;
    Delivery& out_;
    std::lock_guard<util::AdaptiveMutex> lock_;
  };
  /// Runs `op` as ONE public slow-lane operation: under slow_mu_, after
  /// which the wakes and evictions its helpers queued are moved out, the
  /// mutex is released, and only then are they delivered. The core's one
  /// wake delivery path. A throwing `op` drops what it queued.
  template <typename Op>
  std::invoke_result_t<Op&> slow_op(Op&& op) {
    Delivery out;
    if constexpr (std::is_void_v<std::invoke_result_t<Op&>>) {
      {
        const SlowHold hold(*this, out);
        op();
      }
      deliver(out);
    } else {
      std::invoke_result_t<Op&> result = [&] {
        const SlowHold hold(*this, out);
        return op();
      }();
      deliver(out);
      return result;
    }
  }
  /// Hands one operation's grants and notices to the substrate. Call
  /// WITHOUT slow_mu_ held.
  void deliver(const Delivery& batch) const;

  /// --- Slow lane: the progress monitor (progress_monitor.cpp) -------------
  /// Every helper below runs under slow_mu_ and only APPENDS wakes and
  /// evictions to the pending lists; slow_op delivers them.

  /// Fig. 5, pp_begin: registers the record (the registry assigns its id),
  /// then runs it, force-admits it, or parks it. Fills the ticket's id and
  /// lane verdict.
  void begin_period(PeriodRecord record, double now, AdmitTicket& ticket);
  /// Fig. 6, first half of pp_end: removes the period and returns its load.
  /// Throws on an unknown or never-admitted id. The caller rescans.
  PeriodRecord close_period(PeriodId id, double now);
  /// Returns a closed period's load, and its oversubscription tally.
  void discharge(const PeriodRecord& record);
  /// Withdraws a still-waitlisted period and rescans. False when the period
  /// was already admitted or is unknown.
  bool cancel_waiting(PeriodId id, double now);
  /// Fig. 6, second half: re-offers freed capacity to the waitlist.
  void rescan(double now);
  /// Reap shared by reap() and sweep().
  ReapOutcome reap_period(PeriodId id, double now, bool remember_waiter);
  /// Round-triggered watchdog pass over the entries a rescan left parked.
  void watchdog_rounds(double now);
  /// Applies the next enabled ladder rung to the entry at `index`. Returns
  /// true when the entry left the waitlist (admitted or rejected).
  bool escalate(std::size_t index, double now);
  /// Group admission check for one disabled pool; admits and wakes the whole
  /// group when it fits. Returns true if the pool was re-enabled.
  bool try_admit_pool(sim::ProcessId process, bool force, double now);
  void disable_pool(sim::ProcessId process);
  void enable_pool(sim::ProcessId process);
  /// The pool guard holds `process` back: §3.4 group semantics are live.
  bool pool_paused(sim::ProcessId process) const {
    return config_.monitor.pool_guard && disabled_pools_.count(process) != 0;
  }
  void mark_admitted(PeriodId id);  ///< bookkeeping common to every admission
  void wake_entry(const Waitlist::Entry& entry, double now,
                  bool notify = true);

  /// Two event stamps, because the lanes see time differently. The slow
  /// lane stamps under slow_mu_ and never runs backwards: the native gate
  /// samples `now` before the mutex orders the calls, so a wake could
  /// otherwise be stamped before its block. The fast lane cannot read the
  /// slow lane's last stamp without that mutex, so it stamps `now` as given.
  void trace_locked(obs::EventKind kind, double now,
                    const PeriodRecord& record);
  void trace_lockfree(obs::EventKind kind, double now,
                      const PeriodRecord& record) const;

  AdmissionConfig config_;
  std::unique_ptr<SchedulingPolicy> policy_;
  /// Owned per-resource override policies (resource_policies entries).
  std::vector<std::unique_ptr<SchedulingPolicy>> override_policies_;
  /// Per-kind bound policies; kinds without an override point at policy_.
  PolicyTable policy_table_{};
  std::unique_ptr<CombiningPolicy> combiner_;
  /// The static half of calm(); see there.
  const bool calm_config_;
  ResourceMonitor resources_;
  SchedulingPredicate predicate_;

  /// Slow-lane state. Everything here except the lock-free counters
  /// (waitlist size, disabled_pool_count_, epoch_) and the self-locking
  /// registry shards is guarded by slow_mu_.
  std::unique_ptr<WakeStrategy> strategy_;
  BatchWakeFn batch_waker_;
  EvictFn evict_notifier_;
  /// Latest slow-lane event stamp so far (see trace_locked()).
  double last_event_time_ = -std::numeric_limits<double>::infinity();
  ShardedRegistry registry_;
  Waitlist waitlist_;
  std::set<sim::ProcessId> pools_;
  std::set<sim::ProcessId> disabled_pools_;
  std::atomic<std::size_t> disabled_pool_count_{0};
  MonitorStats stats_;
  std::atomic<std::uint64_t> epoch_{0};  ///< lease clock (advance_epoch)
  /// Unconsumed watchdog rejections, both directions (period↔thread).
  std::unordered_map<PeriodId, sim::ThreadId> rejected_;
  std::unordered_map<sim::ThreadId, PeriodId> rejected_by_thread_;
  /// Waitlisted periods reaped out from under a live waiter.
  std::unordered_set<PeriodId> reclaimed_;
  /// What the current slow-lane operation woke or evicted (see slow_op).
  Delivery pending_;

  DemandCorrector corrector_;

  /// Serializes the slow lane for the whole core, across all shards. Its
  /// holds are short, so a contended acquire spins about one futex round
  /// trip before it parks. Lock order: slow_mu_ → registry shard.
  mutable util::AdaptiveMutex slow_mu_;

  std::array<ShardSlot, kNumShards> slots_;
  std::atomic<std::uint64_t> partitioned_periods_{0};
};

}  // namespace rda::core
