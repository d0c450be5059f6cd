// Shared types of the rdabench workloads: run options, the metric sheet a
// workload fills, host-clock helpers and order statistics.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace rdabench {

/// Which clock a metric is read from: `host` is time measured on this host
/// (wall or CPU time of this process), `virtual` is simulated or
/// virtual-time output (deterministic per seed).
enum class Clock { kHost, kVirtual };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int threads = 1;        ///< load threads: nproc, or 1 for a serial workload
  std::string out_dir;    ///< where a traced run writes its Chrome trace
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  Clock clock = Clock::kHost;
  std::uint64_t samples = 0;  ///< observations behind the value (0 = count)
};

/// What one workload run reports. `check` records a failed output check;
/// any failed check makes the run incorrect and its exit code non-zero.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> metrics;
  /// Findings printed with the result that do not fail the run.
  std::vector<std::string> notes;
  /// Extra host-context fields (name, value) printed with the result.
  std::vector<std::pair<std::string, std::string>> context;

  void set(const std::string& name, double value, const std::string& unit,
           Clock clock = Clock::kHost, std::uint64_t samples = 0);
  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
  bool correct() const { return errors.empty(); }
};

using SteadyClock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          SteadyClock::now().time_since_epoch())
          .count());
}

inline double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// Host time in nanoseconds below nanosecond resolution, for timing single
/// operations: the CPU timestamp counter scaled by a ratio calibrated
/// against steady_clock on first use (steady_clock where there is no TSC).
double fine_ns();

/// CPU time the calling thread has been given, in seconds. On a guest with
/// steal-time accounting this leaves out time the hypervisor ran others.
double thread_cpu_seconds();

/// CPU time the hypervisor has taken from this guest, summed over its CPUs
/// (the steal column of /proc/stat), in seconds; 0 where it is not reported.
double steal_seconds();

/// Linear-interpolated quantile (q in [0,1]) of an unsorted sample; sorts
/// in place. 0 for an empty sample.
double quantile(std::vector<double>& xs, double q);
double median(std::vector<double> xs);

/// Returns memory the allocator holds free to the system.
void release_free_memory();

/// Host weather. The benchmark's host is a shared guest: the hypervisor
/// steals up to a quarter of its CPU time in bursts, and what is left runs
/// at a speed that drifts with the neighbours' load. End-to-end rates
/// therefore use the load's own time, not wall time (each workload says
/// how it counts it). And the workload interleaves short runs of a fixed
/// reference kernel (the primitives the admission paths are built from)
/// with its own work, on as many threads as it loads, timed in thread CPU
/// time as well; rates are multiplied by speed_factor() and latencies
/// divided by it, so both sides see the same weather and the ratio keeps
/// what the program did. The measurements behind this are in
/// rdabench/README.md.
class Calibrator {
 public:
  explicit Calibrator(int threads) : threads_(threads) {}

  /// Runs the reference kernel once on every thread (a few ms).
  void sample();
  /// Median kernel cost over all samples and threads, thread CPU ns per
  /// iteration. A median, not a mean: while the host was taking time from
  /// the guest, the mean spread gate_churn's scaled rate by 9-13% over seeds
  /// whose unscaled rate spread by 3-8%.
  double kernel_ns() const { return median(samples_); }
  /// How much slower than the reference machine state the host ran
  /// (>1 = slower).
  double speed_factor() const;

 private:
  int threads_;
  std::vector<double> samples_;
};

/// The reference kernel's typical cost on the 4-core Xeon host where the
/// benchmark was defined, ns per iteration (one thread). Changing the
/// kernel or this anchor changes every scaled figure.
inline constexpr double kReferenceNs = 65.0;

/// One run of the reference kernel on the calling thread: thread CPU ns per
/// iteration.
double reference_kernel_ns();

/// The benchmark's set-up time: runs `fn` `reps` times on each of
/// kSetupThreads fresh threads in turn, each rep right after a run of the
/// reference kernel, and returns the median over threads of each thread's
/// median CPU time per set-up divided by its speed factor (median kernel
/// cost / kReferenceNs), in seconds. A thread runs at one of two speeds, up
/// to 2x apart, for as long as it keeps its place on the shared host, and
/// the host's speed drifts between runs: the unscaled figure spread 17-41%
/// over ten seeds, the scaled one 3-9%, because the kernel and the set-up
/// it is paired with share the thread and the moment. CPU time leaves out
/// the time the host took away; set-up is in-memory work, so that is all of
/// it. Each workload times its set-up after its warm-up, building throwaway
/// copies of its inputs and program objects. The freed copies are returned
/// to the system after each thread, so the set-up threads' arenas do not
/// inflate peak_rss_mb.
template <typename Fn>
double median_setup_seconds(int reps, Fn&& fn) {
  constexpr int kSetupThreads = 4;
  std::vector<double> scaled;
  for (int t = 0; t < kSetupThreads; ++t) {
    std::thread worker([&] {
      std::vector<double> times;
      std::vector<double> kernel_ns;
      for (int i = 0; i < reps; ++i) {
        kernel_ns.push_back(reference_kernel_ns());
        const double t0 = thread_cpu_seconds();
        fn();
        times.push_back(thread_cpu_seconds() - t0);
      }
      scaled.push_back(median(std::move(times)) * kReferenceNs /
                       median(std::move(kernel_ns)));
    });
    worker.join();
    release_free_memory();
  }
  return median(std::move(scaled));
}

inline constexpr int kSetupReps = 9;

/// Host warm-up before anything is measured: the first second or so of
/// load on a fresh process runs up to 3x slower (frequency ramp, page
/// settling), so each workload first runs its own load this long, unmeasured.
inline constexpr double kWarmupSeconds = 1.5;

/// The end-to-end figures of one untraced measurement.
struct EndToEnd {
  double setup_s = 0.0;     ///< median set-up time
  int setup_reps = 0;
  double rate = 0.0;        ///< work per second of the load's own time
  double wall_rate = 0.0;   ///< work per wall-clock second
  std::uint64_t work = 0;   ///< units of work behind `rate`
  double op_p50_us = 0.0;   ///< unscaled op latency quantiles
  double op_p99_us = 0.0;
  std::uint64_t ops = 0;    ///< ops behind the quantiles
};

/// Sets the end-to-end metrics, scaling rate and latencies by the
/// calibrator's speed factor (the unscaled rates and the factor go to the
/// context), and the per-layer host.speed_factor.
void set_end_to_end(Result& r, const EndToEnd& e, const Calibrator& cal);

/// Peak resident set of this process, in MB.
double peak_rss_mb();

/// FNV-1a style fold used for the simulated fingerprint.
inline std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h * 0x100000001b3ull;
}
std::uint64_t fold_double(std::uint64_t h, double v);

Result run_svc_bursty(const Options& opt);
Result run_gate_churn(const Options& opt);
Result run_blas_corun(const Options& opt);
Result run_sim_table2(const Options& opt);

/// Wrapper-equivalence self-test: the bench's ArrivalSource and PhaseGate
/// wrappers must not change what the program computes. Returns the failed
/// checks (empty = pass).
std::vector<std::string> selftest_svc_wrapper();
std::vector<std::string> selftest_sim_wrapper();

}  // namespace rdabench
