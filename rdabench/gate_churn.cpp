// gate_churn — two workers in a closed loop on one Strict
// rt::AdmissionGate (default GateConfig plus a bandwidth capacity, so
// begin_multi gates two resources). Each op is begin → fixed spin → end.
// Seeded demands are mostly small with a minority large, and two large ones
// overflow the LLC capacity. Large demands mostly go through try_begin (some
// denied), a few through begin (some wait); small ones through begin,
// try_begin and begin_multi.
//
// Two threads, not nproc: on a shared guest whose vCPUs the host takes away
// in bursts, four threads contending on one gate spread their ops per second
// by a third between runs of the same code. A preempted holder of the gate's
// lock or capacity stalls every other thread, so the stall is multiplied by
// the number of waiters, and four busy threads leave no vCPU for the rest of
// the guest.
//
// End-to-end: ops per second of the threads' own time, and the latency of
// one op with the spin excluded and waits included (a denied try is an op of
// its own), timed on every 8th op, as the median over 1-s windows of each
// window's quantile. Own time is threads x wall time of the load minus the
// CPU time the hypervisor stole from the guest meanwhile (/proc/stat; an
// idle vCPU has nothing stolen): every other moment of a thread's life
// counts, its time asleep in the gate's waits and on its locks' futexes
// included. The context's cpu_share is the part of threads x wall time the
// threads spent on a CPU.
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "gate_util.hpp"
#include "spans.hpp"
#include "util/rng.hpp"

namespace rdabench {

namespace {

using rda::ResourceKind;
using rda::ReuseLevel;

constexpr std::size_t kOpsPerThread = 1 << 18;  // cycled
constexpr int kSpin = 256;
constexpr double kBandwidthCapacity = 16e9;
constexpr std::uint64_t kRoundOps = 20000;  // per thread, traced rounds
/// Share of 8-12 MiB demands (two of them exceed the 15 MiB capacity).
constexpr double kLargeShare = 0.3;
/// Share of large demands issued with a blocking begin; the rest go through
/// try_begin, as a caller would that skips a large working set rather than
/// wait for one. About 2% of ops then take the slow lane without sleeping (a
/// denied try blocks and withdraws; a begin is admitted on the second look),
/// so the op p99 lies inside that CPU-bound population, and the few begins
/// that sleep (0.05%, whose wall time is how fast the host wakes a halted
/// vCPU: about 15 us on a calm host, past 25 us on a busy one) are too few
/// to reach it.
constexpr double kLargeBeginShare = 0.05;

enum class OpKind : std::uint8_t { kBegin, kTry, kMulti };

struct Op {
  OpKind kind = OpKind::kBegin;
  double llc = 0.0;
  double bw = 0.0;
};

std::vector<Op> make_ops(std::uint64_t seed, int thread) {
  rda::util::Rng rng(seed * 0x9e3779b97f4a7c15ull + thread + 1);
  std::vector<Op> ops(kOpsPerThread);
  for (Op& op : ops) {
    const double u = rng.next_double();
    const bool large = rng.next_bool(kLargeShare);
    if (large) {
      op.kind = rng.next_bool(kLargeBeginShare) ? OpKind::kBegin : OpKind::kTry;
    } else {
      op.kind = u < 0.75 ? OpKind::kBegin
                         : (u < 0.85 ? OpKind::kTry : OpKind::kMulti);
    }
    const double mb = large ? rng.next_double(8.0, 12.0)
                            : rng.next_double(0.25, 1.0);
    op.llc = mb * 1024.0 * 1024.0;
    op.bw = rng.next_double(1e9, 4e9);
  }
  return ops;
}

rda::rt::GateConfig gate_config(rda::obs::TraceSink* sink) {
  rda::rt::GateConfig c;
  c.policy = rda::core::PolicyKind::kStrict;
  c.bandwidth_capacity = kBandwidthCapacity;
  c.trace_sink = sink;
  return c;
}

/// A fixed amount of dependent integer work standing in for the period body.
inline std::uint64_t spin(std::uint64_t x) {
  for (int i = 0; i < kSpin; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    asm volatile("" : "+r"(x));
  }
  return x;
}

/// Latency windows: the op quantiles are medians over 1-s windows of each
/// window's quantile, so one disturbed stretch of a shared host cannot move
/// them. Each thread keeps a uniform reservoir of kWindowSamples per window,
/// so memory does not grow with the op rate.
constexpr double kWindowNs = 1e9;
constexpr std::size_t kWindowSamples = 8192;

struct ThreadTally {
  std::size_t next = 0;  ///< position in the thread's op sequence
  std::uint64_t ops = 0;
  std::uint64_t tries = 0;
  std::uint64_t denied = 0;
  std::uint64_t rejected = 0;
  std::uint64_t sink = 0;
  std::uint64_t timed = 0;
  double cpu_s = 0.0;  ///< thread CPU time in the loop
  /// Reservoirs of op latencies (spin excluded) by the window the op
  /// started in, and how many ops each window saw.
  std::vector<std::vector<double>> window_ns;
  std::vector<std::uint64_t> window_seen;
  rda::util::Rng rng{7};

  void record(double start_ns, double ns) {
    ++timed;
    const std::size_t w = static_cast<std::size_t>(start_ns / kWindowNs);
    if (window_ns.size() <= w) {
      window_ns.resize(w + 1);
      window_seen.resize(w + 1);
      window_ns[w].reserve(kWindowSamples);
    }
    std::vector<double>& xs = window_ns[w];
    const std::uint64_t seen = ++window_seen[w];
    if (xs.size() < kWindowSamples) {
      xs.push_back(ns);
    } else if (const std::uint64_t slot = rng.next_below(seen);
               slot < kWindowSamples) {
      xs[slot] = ns;
    }
  }
};

/// One op; returns false when the begin was rejected (a failure).
bool do_op(rda::rt::AdmissionGate& gate, const Op& op, ThreadTally& tally,
           bool sample, double phase_start, Tracer* tracer,
           std::uint64_t request) {
  Span root(tracer, "gate.op", request);
  const double t0 = sample ? fine_ns() : 0.0;
  std::optional<rda::core::PeriodId> id;
  try {
    switch (op.kind) {
      case OpKind::kBegin: {
        Span s(tracer, "runtime.begin", request);
        id = gate.begin(ResourceKind::kLLC, op.llc, ReuseLevel::kHigh);
        break;
      }
      case OpKind::kTry: {
        Span s(tracer, "runtime.try_begin", request);
        ++tally.tries;
        id = gate.try_begin(ResourceKind::kLLC, op.llc, ReuseLevel::kHigh);
        if (!id) {
          ++tally.denied;
          s.rename("runtime.try_denied");
        }
        break;
      }
      case OpKind::kMulti: {
        Span s(tracer, "runtime.begin_multi", request);
        id = gate.begin_multi({{ResourceKind::kLLC, op.llc},
                               {ResourceKind::kMemBandwidth, op.bw}},
                              ReuseLevel::kHigh);
        break;
      }
    }
  } catch (const rda::rt::AdmissionRejected&) {
    ++tally.rejected;
    return false;
  }
  const double t1 = sample ? fine_ns() : 0.0;
  double t2 = t1;
  if (id) {
    {
      Span s(tracer, "bench.spin", request);
      tally.sink = spin(tally.sink + 1);
    }
    t2 = sample ? fine_ns() : 0.0;
    Span s(tracer, "runtime.end", request);
    gate.end(*id);
  }
  if (sample) {
    const double t3 = id ? fine_ns() : t2;
    tally.record(t0 - phase_start, (t1 - t0) + (t3 - t2));
  }
  ++tally.ops;
  return true;
}

struct Phase {
  std::vector<ThreadTally> tallies;
  double start = fine_ns();
  double wall = 0.0;
  std::uint64_t ops() const {
    std::uint64_t n = 0;
    for (const ThreadTally& t : tallies) n += t.ops;
    return n;
  }
  std::uint64_t sum(std::uint64_t ThreadTally::*field) const {
    std::uint64_t n = 0;
    for (const ThreadTally& t : tallies) n += t.*field;
    return n;
  }
};

}  // namespace

Result run_gate_churn(const Options& opt) {
  Result r;
  const int threads = opt.threads;
  std::vector<std::vector<Op>> ops;
  for (int t = 0; t < threads; ++t) ops.push_back(make_ops(opt.seed, t));

  const auto loop = [&](rda::rt::AdmissionGate& g, Phase& phase) {
    return [&g, &phase, &ops](int t, const std::atomic<bool>& stop) {
      ThreadTally& tally = phase.tallies[static_cast<std::size_t>(t)];
      const std::vector<Op>& seq = ops[static_cast<std::size_t>(t)];
      const double cpu0 = thread_cpu_seconds();
      while (!stop.load(std::memory_order_relaxed)) {
        const std::size_t i = tally.next++;
        do_op(g, seq[i % kOpsPerThread], tally, (i & 7) == 0, phase.start,
              nullptr, 0);
      }
      tally.cpu_s += thread_cpu_seconds() - cpu0;
    };
  };
  {
    rda::rt::AdmissionGate warm(gate_config(nullptr));
    Phase warmup;
    warmup.tallies.resize(static_cast<std::size_t>(threads));
    run_threads(threads, kWarmupSeconds, loop(warm, warmup));
  }
  const double setup = median_setup_seconds(kSetupReps, [&] {
    std::vector<std::vector<Op>> copy;
    for (int t = 0; t < threads; ++t) copy.push_back(make_ops(opt.seed, t));
    const rda::rt::AdmissionGate gate(gate_config(nullptr));
  });

  // Untraced closed loop for the whole budget (half of it when traced),
  // interleaved with machine-speed calibration.
  rda::rt::AdmissionGate gate(gate_config(nullptr));
  Calibrator cal(threads);
  Phase plain;
  plain.tallies.resize(static_cast<std::size_t>(threads));
  const SliceTime time =
      run_calibrated(threads, opt.trace ? opt.seconds / 2 : opt.seconds, 0.25,
                     cal, loop(gate, plain));
  plain.wall = time.wall;
  check_quiescent(r, gate, "gate_churn");
  const rda::rt::GateStats stats = gate.stats();
  const std::uint64_t rejected = plain.sum(&ThreadTally::rejected);
  const std::uint64_t total_ops = plain.ops() + rejected;
  r.attempted = total_ops;
  r.failed = rejected;
  r.check(stats.waits > 0, "gate_churn: no begin waited");
  r.check(plain.sum(&ThreadTally::denied) > 0,
          "gate_churn: no try_begin was denied");

  double cpu_s = 0.0;
  std::vector<std::vector<double>> windows;
  for (const ThreadTally& t : plain.tallies) {
    cpu_s += t.cpu_s;
    for (std::size_t w = 0; w < t.window_ns.size(); ++w) {
      if (windows.size() <= w) windows.resize(w + 1);
      windows[w].insert(windows[w].end(), t.window_ns[w].begin(),
                        t.window_ns[w].end());
    }
  }
  const double own_s = threads * plain.wall - time.steal;
  const double rate = static_cast<double>(total_ops) / (own_s / threads);
  r.context.emplace_back("own_share",
                         std::to_string(own_s / (threads * plain.wall)));
  const double wall_rate = static_cast<double>(total_ops) / plain.wall;
  r.context.emplace_back("cpu_share",
                         std::to_string(cpu_s / (threads * plain.wall)));
  set_end_to_end(r,
                 EndToEnd{setup, kSetupReps, rate, wall_rate, total_ops,
                          window_quantile(windows, 0.50) * 1e-3,
                          window_quantile(windows, 0.99) * 1e-3,
                          plain.sum(&ThreadTally::timed)},
                 cal);
  if (!opt.trace) return r;

  // Traced half: rounds of kRoundOps per thread on a fresh gate whose event
  // stream is recorded and reconciled after every round.
  std::vector<std::unique_ptr<Tracer>> tracers;
  for (int t = 0; t < threads; ++t) {
    tracers.push_back(
        std::make_unique<Tracer>(static_cast<std::uint32_t>(t), 1 << 14,
                                 opt.seed));
  }
  double traced_wall = 0.0;
  std::uint64_t traced_ops = 0;
  std::uint64_t rounds = 0;
  std::uint64_t wait_reconcile_failures = 0;
  const std::uint64_t traced_start = now_ns();
  while (rounds == 0 || seconds_since(traced_start) < opt.seconds / 2) {
    rda::obs::EventRecorder recorder(1 << 21);
    rda::rt::AdmissionGate traced(gate_config(&recorder));
    Phase phase;
    phase.tallies.resize(static_cast<std::size_t>(threads));
    phase.wall = run_threads(
        threads, 0.0, [&](int t, const std::atomic<bool>&) {
          ThreadTally& tally = phase.tallies[static_cast<std::size_t>(t)];
          const std::vector<Op>& seq = ops[static_cast<std::size_t>(t)];
          Tracer* tracer = tracers[static_cast<std::size_t>(t)].get();
          for (std::uint64_t i = 0; i < kRoundOps; ++i) {
            const std::uint64_t request =
                (static_cast<std::uint64_t>(t) << 32) | (rounds * kRoundOps + i);
            do_op(traced, seq[(rounds * kRoundOps + i) % kOpsPerThread], tally,
                  false, 0.0, tracer, request);
          }
        });
    check_quiescent(r, traced, "gate_churn traced");
    check_reconcile(r, traced, recorder, "gate_churn traced",
                    wait_reconcile_failures);
    traced_wall += phase.wall;
    traced_ops += phase.ops() + phase.sum(&ThreadTally::rejected);
    ++rounds;
  }
  const double traced_rate = static_cast<double>(traced_ops) / traced_wall;

  std::vector<const Tracer*> views;
  for (const auto& t : tracers) views.push_back(t.get());
  const std::vector<SpanStats> spans = merge_stats(views);
  const auto q = [&](const char* name, double p) {
    const SpanStats* s = find_stats(spans, name);
    return s ? s->quantile_ns(p) : 0.0;
  };
  const auto n = [&](const char* name) -> std::uint64_t {
    const SpanStats* s = find_stats(spans, name);
    return s ? s->count : 0;
  };
  r.set("runtime.begin_ns_p50", q("runtime.begin", 0.50), "ns", Clock::kHost,
        n("runtime.begin"));
  r.set("runtime.begin_ns_p99", q("runtime.begin", 0.99), "ns", Clock::kHost,
        n("runtime.begin"));
  r.set("runtime.end_ns_p50", q("runtime.end", 0.50), "ns", Clock::kHost,
        n("runtime.end"));
  r.set("runtime.try_denied_ns_p50", q("runtime.try_denied", 0.50), "ns",
        Clock::kHost, n("runtime.try_denied"));
  r.set("runtime.begin_multi_ns_p50", q("runtime.begin_multi", 0.50), "ns",
        Clock::kHost, n("runtime.begin_multi"));

  // Shares and counters from the untraced half (tracing perturbs waits).
  const rda::core::MonitorStats& m = stats.monitor;
  r.set("runtime.wait_share",
        m.begins > 0 ? static_cast<double>(stats.waits) / m.begins : 0.0,
        "ratio", Clock::kHost, m.begins);
  const std::uint64_t tries = plain.sum(&ThreadTally::tries);
  r.set("runtime.try_denied_share",
        tries > 0 ? static_cast<double>(plain.sum(&ThreadTally::denied)) /
                        tries
                  : 0.0,
        "ratio", Clock::kHost, tries);
  r.set("runtime.no_sleep_blocks", stats.no_sleep_blocks, "count");
  r.set("runtime.wait_s", stats.total_wait_seconds, "s", Clock::kHost,
        stats.waits);
  set_core_metrics(r, m, Clock::kHost);

  const std::size_t written = write_chrome_trace(
      opt.out_dir + "/gate_churn-seed" + std::to_string(opt.seed) +
          ".trace.json",
      views);
  r.set("bench.spans", static_cast<double>(written), "count");
  r.set("trace.overhead", 1.0 - traced_rate / wall_rate, "ratio", Clock::kHost,
        rounds);
  r.set("runtime.wait_reconcile_failures",
        static_cast<double>(wait_reconcile_failures), "count", Clock::kHost,
        rounds);
  return r;
}

}  // namespace rdabench
