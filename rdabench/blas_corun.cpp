// blas_corun — `threads` workers co-running the real blas:: level-1 and
// level-3 kernels of Table 2 at native_runner sizes, each call wrapped in a
// Strict gate begin/end declaring the kernel's true footprint. The gate
// capacity is fixed at threads/2 level-1 footprints (not read from the
// host's LLC, which on a large-cache host would admit everything), so Strict
// admits about half the threads' streaming kernels at once.
//
// Each worker runs a seeded random sequence of kernel blocks; a block is the
// four kernels of one level in Table-2 order, which keeps the in-place
// operands bounded (dtrmm multiplies by U, dtrsm divides it back out). The
// seed draws the operands and each worker's block levels. Random levels keep
// the workers from locking into one collision pattern for a whole run.
//
// End-to-end: flops per second over all workers, and the latency of one
// round (two blocks: eight gated calls), both in the workers' own time:
// thread CPU time plus time blocked in begin. With four busy threads on a
// shared host the hypervisor steals up to a quarter of the wall time; own
// time leaves the stolen part out and keeps the waits the gate imposes.
#include <array>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "blas/level1.hpp"
#include "blas/level3.hpp"
#include "gate_util.hpp"
#include "spans.hpp"
#include "util/rng.hpp"

namespace rdabench {

namespace {

using rda::ResourceKind;
using rda::ReuseLevel;

constexpr std::size_t kN1 = 1048576;  // level-1 vector length
constexpr std::size_t kN3 = 192;      // level-3 matrix edge
constexpr std::size_t kPlanBlocks = 4096;
constexpr int kDgemmCheckEvery = 16;
/// The round tail is the median over 3-s windows of each window's p99, so
/// one disturbed stretch of a shared host cannot move it.
constexpr double kWindowNs = 3e9;
constexpr int kDgemmChecksPerThread = 3;

enum Kernel { kDaxpy, kDcopy, kDscal, kDswap, kDgemm, kDsyrk, kDtrmm, kDtrsm,
              kNumKernels };

constexpr std::array<const char*, kNumKernels> kSpanNames = {
    "blas.daxpy", "blas.dcopy", "blas.dscal", "blas.dswap",
    "blas.dgemm", "blas.dsyrk", "blas.dtrmm", "blas.dtrsm"};

double level1_bytes() { return 2.0 * kN1 * sizeof(double); }

double demand_of(Kernel k) {
  if (k == kDscal) return level1_bytes() / 2.0;
  if (k < kDgemm) return level1_bytes();
  return 3.0 * kN3 * kN3 * sizeof(double);
}

double flops_of(Kernel k) {
  switch (k) {
    case kDaxpy: return rda::blas::daxpy_flops(kN1);
    case kDscal: return rda::blas::dscal_flops(kN1);
    case kDgemm: return rda::blas::dgemm_flops(kN3, kN3, kN3);
    case kDsyrk: return rda::blas::dsyrk_flops(kN3, kN3);
    case kDtrmm: return rda::blas::dtrmm_flops(kN3, kN3);
    case kDtrsm: return rda::blas::dtrsm_flops(kN3, kN3);
    default: return 0.0;
  }
}

/// One worker's operands and its position in its rounds; both persist
/// across phases so every dtrmm is followed by its dtrsm.
struct Operands {
  std::vector<double> x, y, a, b, c;
  std::vector<bool> plan;  ///< block i is level-1 (cycled)
  std::uint64_t step = 0;  ///< kernel calls issued: block = step / 4
  std::uint64_t dgemms = 0;
};

Operands make_operands(std::uint64_t seed, int thread) {
  rda::util::Rng rng(seed * 0x2545f4914f6cdd1dull + thread + 1);
  Operands o;
  o.x.resize(kN1);
  o.y.resize(kN1);
  for (std::size_t i = 0; i < kN1; ++i) {
    o.x[i] = rng.next_double(0.5, 1.5);
    o.y[i] = rng.next_double(0.5, 1.5);
  }
  o.a.resize(kN3 * kN3);
  o.b.resize(kN3 * kN3);
  o.c.assign(kN3 * kN3, 0.0);
  for (std::size_t i = 0; i < kN3 * kN3; ++i) {
    o.a[i] = rng.next_double(-0.5, 0.5) / kN3;
    o.b[i] = rng.next_double(-1.0, 1.0);
  }
  // Dominant diagonal keeps the triangular multiply/solve well-conditioned.
  for (std::size_t i = 0; i < kN3; ++i) o.a[i * kN3 + i] = 1.0 + rng.next_double();
  o.plan.resize(kPlanBlocks);
  for (std::size_t i = 0; i < kPlanBlocks; ++i) o.plan[i] = rng.next_bool(0.5);
  return o;
}

void run_kernel(Kernel k, Operands& o) {
  switch (k) {
    case kDaxpy: rda::blas::daxpy(1.0001, o.x, o.y); break;
    case kDcopy: rda::blas::dcopy(o.x, o.y); break;
    case kDscal: rda::blas::dscal(1.0001, o.x); break;
    case kDswap: rda::blas::dswap(o.x, o.y); break;
    case kDgemm:
      rda::blas::dgemm(kN3, kN3, kN3, 1.0, o.a, o.b, 0.0, o.c);
      break;
    case kDsyrk: rda::blas::dsyrk_upper(kN3, kN3, 1.0, o.a, 0.0, o.c); break;
    case kDtrmm: rda::blas::dtrmm_ru(kN3, kN3, o.a, o.b); break;
    case kDtrsm: rda::blas::dtrsm_ru(kN3, kN3, o.a, o.b); break;
    default: break;
  }
}

/// A dgemm call kept for checking against blas::dgemm_naive.
struct DgemmSample {
  std::vector<double> b, c;
};

struct ThreadTally {
  std::uint64_t calls = 0;
  std::uint64_t rejected = 0;
  double flops = 0.0;
  double begin_s = 0.0;   ///< time inside begin (waits included)
  double end_s = 0.0;
  double own_s = 0.0;     ///< CPU time in calls + time blocked in begin
  /// Round latencies (own time) by the window the round started in.
  std::vector<std::vector<double>> round_ns;
  std::vector<DgemmSample> samples;
};

struct Phase {
  std::vector<ThreadTally> tallies;
  double wall = 0.0;
};

/// Runs every worker through its rounds for `seconds`, in calibrated
/// 0.5-s slices when `cal` is given.
Phase run_phase(rda::rt::AdmissionGate& gate, std::vector<Operands>& operands,
                double seconds, Calibrator* cal,
                std::vector<std::unique_ptr<Tracer>>* tracers) {
  const int threads = static_cast<int>(operands.size());
  Phase phase;
  phase.tallies.resize(operands.size());
  const double phase_start = fine_ns();
  const auto body = [&](int t, const std::atomic<bool>& stop) {
    const std::size_t ti = static_cast<std::size_t>(t);
    ThreadTally& tally = phase.tallies[ti];
    Operands& o = operands[ti];
    Tracer* tracer = tracers ? (*tracers)[ti].get() : nullptr;
    double round_start = -1.0;  // a round is timed from its first begin
    double round_own = 0.0;
    while (!stop.load(std::memory_order_relaxed)) {
      const std::uint64_t step = o.step++;
      const bool level1 = o.plan[(step / 4) % kPlanBlocks];
      const Kernel k =
          static_cast<Kernel>((level1 ? kDaxpy : kDgemm) + step % 4);
      const std::uint64_t request = (static_cast<std::uint64_t>(t) << 32) | step;
      Span call(tracer, "corun.call", request);
      const double t0 = fine_ns();
      const double cpu0 = thread_cpu_seconds();
      if (step % 8 == 0) {
        round_start = t0;
        round_own = 0.0;
      }
      rda::core::PeriodId id = rda::core::kInvalidPeriod;
      try {
        Span s(tracer, "runtime.begin", request);
        id = gate.begin(ResourceKind::kLLC, demand_of(k),
                        level1 ? ReuseLevel::kLow : ReuseLevel::kHigh,
                        kSpanNames[k]);
      } catch (const rda::rt::AdmissionRejected&) {
        ++tally.rejected;
        continue;
      }
      const double t1 = fine_ns();
      const double cpu1 = thread_cpu_seconds();
      {
        Span s(tracer, kSpanNames[k], request);
        run_kernel(k, o);
      }
      const double t2 = fine_ns();
      if (k == kDgemm && o.dgemms++ % kDgemmCheckEvery == 0 &&
          tally.samples.size() < kDgemmChecksPerThread) {
        tally.samples.push_back(DgemmSample{o.b, o.c});
      }
      {
        Span s(tracer, "runtime.end", request);
        gate.end(id);
      }
      const double t3 = fine_ns();
      const double blocked = std::max(0.0, (t1 - t0) * 1e-9 - (cpu1 - cpu0));
      const double own = thread_cpu_seconds() - cpu0 + blocked;
      tally.own_s += own;
      round_own += own;
      if (step % 8 == 7 && round_start >= 0.0) {
        const std::size_t window =
            static_cast<std::size_t>((round_start - phase_start) / kWindowNs);
        if (tally.round_ns.size() <= window) tally.round_ns.resize(window + 1);
        tally.round_ns[window].push_back(round_own * 1e9);
      }
      tally.begin_s += (t1 - t0) * 1e-9;
      tally.end_s += (t3 - t2) * 1e-9;
      tally.flops += flops_of(k);
      ++tally.calls;
    }
  };
  phase.wall = cal != nullptr
                   ? run_calibrated(threads, seconds, 0.5, *cal, body).wall
                   : run_threads(threads, seconds, body);
  return phase;
}

void check_dgemm(Result& r, const std::vector<Operands>& operands,
                 const Phase& phase) {
  std::size_t checked = 0;
  std::vector<double> expect(kN3 * kN3);
  for (std::size_t t = 0; t < operands.size(); ++t) {
    for (const DgemmSample& s : phase.tallies[t].samples) {
      rda::blas::dgemm_naive(kN3, kN3, kN3, 1.0, operands[t].a, s.b, 0.0,
                             expect);
      double worst = 0.0;
      double scale = 0.0;
      for (std::size_t i = 0; i < expect.size(); ++i) {
        worst = std::max(worst, std::fabs(expect[i] - s.c[i]));
        scale = std::max(scale, std::fabs(expect[i]));
      }
      r.check(worst <= 1e-9 * std::max(scale, 1.0),
              "blas_corun: dgemm output differs from dgemm_naive by " +
                  std::to_string(worst));
      ++checked;
    }
  }
  r.check(checked > 0, "blas_corun: no dgemm output was checked");
}

rda::rt::GateConfig gate_config(int threads, rda::obs::TraceSink* sink) {
  rda::rt::GateConfig c;
  c.policy = rda::core::PolicyKind::kStrict;
  c.llc_capacity_bytes = std::max(1, threads / 2) * level1_bytes();
  c.trace_sink = sink;
  return c;
}

}  // namespace

Result run_blas_corun(const Options& opt) {
  Result r;
  const int threads = opt.threads;
  std::vector<Operands> operands;
  for (int t = 0; t < threads; ++t) {
    operands.push_back(make_operands(opt.seed, t));
  }

  {
    rda::rt::AdmissionGate warm(gate_config(threads, nullptr));
    run_phase(warm, operands, kWarmupSeconds, nullptr, nullptr);
  }
  const double setup = median_setup_seconds(kSetupReps, [&] {
    std::vector<Operands> copy;
    for (int t = 0; t < threads; ++t) {
      copy.push_back(make_operands(opt.seed, t));
    }
    const rda::rt::AdmissionGate gate(gate_config(threads, nullptr));
  });
  rda::rt::AdmissionGate gate(gate_config(threads, nullptr));
  Calibrator cal(threads);
  const Phase plain = run_phase(
      gate, operands, opt.trace ? opt.seconds / 2 : opt.seconds, &cal, nullptr);
  check_quiescent(r, gate, "blas_corun");
  check_dgemm(r, operands, plain);
  const rda::rt::GateStats stats = gate.stats();
  r.check(stats.waits > 0, "blas_corun: no begin waited");

  double flops = 0.0;
  double own_s = 0.0;
  double begin_s = 0.0;
  double end_s = 0.0;
  std::vector<double> round_ns;
  std::vector<std::vector<double>> windows;
  for (const ThreadTally& t : plain.tallies) {
    r.attempted += t.calls + t.rejected;
    r.failed += t.rejected;
    flops += t.flops;
    own_s += t.own_s;
    begin_s += t.begin_s;
    end_s += t.end_s;
    for (std::size_t w = 0; w < t.round_ns.size(); ++w) {
      if (windows.size() <= w) windows.resize(w + 1);
      windows[w].insert(windows[w].end(), t.round_ns[w].begin(),
                        t.round_ns[w].end());
      round_ns.insert(round_ns.end(), t.round_ns[w].begin(),
                      t.round_ns[w].end());
    }
  }
  const double rate = flops / (own_s / threads);
  r.context.emplace_back("own_share",
                         std::to_string(own_s / threads / plain.wall));

  set_end_to_end(r,
                 EndToEnd{setup, kSetupReps, rate, flops / plain.wall,
                          r.attempted, quantile(round_ns, 0.50) * 1e-3,
                          window_quantile(windows, 0.99) * 1e-3,
                          round_ns.size()},
                 cal);
  if (!opt.trace) return r;

  std::vector<std::unique_ptr<Tracer>> tracers;
  for (int t = 0; t < threads; ++t) {
    tracers.push_back(std::make_unique<Tracer>(static_cast<std::uint32_t>(t),
                                               1 << 14, opt.seed));
  }
  rda::obs::EventRecorder recorder(1 << 20);
  rda::rt::AdmissionGate traced(gate_config(threads, &recorder));
  const Phase phase =
      run_phase(traced, operands, opt.seconds / 2, nullptr, &tracers);
  check_quiescent(r, traced, "blas_corun traced");
  std::uint64_t wait_reconcile_failures = 0;
  check_reconcile(r, traced, recorder, "blas_corun traced",
                  wait_reconcile_failures);
  check_dgemm(r, operands, phase);
  double traced_flops = 0.0;
  double traced_own_s = 0.0;
  for (const ThreadTally& t : phase.tallies) {
    traced_flops += t.flops;
    traced_own_s += t.own_s;
  }

  std::vector<const Tracer*> views;
  for (const auto& t : tracers) views.push_back(t.get());
  const std::vector<SpanStats> spans = merge_stats(views);
  const auto span = [&](const char* name) {
    static const SpanStats empty;
    const SpanStats* s = find_stats(spans, name);
    return s ? *s : empty;
  };
  const SpanStats begin = span("runtime.begin");
  r.set("runtime.begin_ns_p50", begin.quantile_ns(0.50), "ns", Clock::kHost,
        begin.count);
  r.set("runtime.begin_ns_p99", begin.quantile_ns(0.99), "ns", Clock::kHost,
        begin.count);
  const SpanStats end = span("runtime.end");
  r.set("runtime.end_ns_p50", end.quantile_ns(0.50), "ns", Clock::kHost,
        end.count);
  double kernel_self_ns = 0.0;
  for (int k = 0; k < kNumKernels; ++k) {
    const SpanStats s = span(kSpanNames[k]);
    kernel_self_ns += static_cast<double>(s.self_ns);
    r.set(std::string(kSpanNames[k]) + "_s", s.quantile_ns(0.50) * 1e-9, "s",
          Clock::kHost, s.count);
  }
  r.set("blas.gflops_in_kernel",
        kernel_self_ns > 0.0 ? traced_flops / kernel_self_ns : 0.0,
        "GFLOP/s", Clock::kHost);

  // Shares and counters from the untraced half (tracing perturbs waits).
  const rda::core::MonitorStats& m = stats.monitor;
  const double thread_seconds = threads * plain.wall;
  r.set("runtime.wait_share",
        m.begins > 0 ? static_cast<double>(stats.waits) / m.begins : 0.0,
        "ratio", Clock::kHost, m.begins);
  r.set("runtime.no_sleep_blocks", stats.no_sleep_blocks, "count");
  r.set("runtime.wait_s", stats.total_wait_seconds, "s", Clock::kHost,
        stats.waits);
  r.set("runtime.begin_wait_s", begin_s, "s", Clock::kHost, m.begins);
  r.set("corun.idle_share", begin_s / thread_seconds, "ratio");
  r.set("corun.gate_share", (begin_s + end_s) / thread_seconds, "ratio");
  set_core_metrics(r, m, Clock::kHost);
  r.set("runtime.wait_reconcile_failures",
        static_cast<double>(wait_reconcile_failures), "count", Clock::kHost, 1);

  r.set("bench.spans",
        static_cast<double>(write_chrome_trace(
            opt.out_dir + "/blas_corun-seed" + std::to_string(opt.seed) +
                ".trace.json",
            views)),
        "count");
  r.set("trace.overhead", 1.0 - (traced_flops / (traced_own_s / threads)) / rate,
        "ratio");
  return r;
}

}  // namespace rdabench
