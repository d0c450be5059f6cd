#include "bench.hpp"

#include <sys/resource.h>
#include <unistd.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif
#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include <atomic>
#include <cstring>
#include <ctime>
#include <fstream>
#include <mutex>
#include <thread>
#include <unordered_map>

namespace rdabench {

void Result::set(const std::string& name, double value,
                 const std::string& unit, Clock clock,
                 std::uint64_t samples) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m = Metric{name, value, unit, clock, samples};
      return;
    }
  }
  metrics.push_back(Metric{name, value, unit, clock, samples});
}

double quantile(std::vector<double>& xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

double median(std::vector<double> xs) { return quantile(xs, 0.5); }

double fine_ns() {
#if defined(__x86_64__)
  struct Calibration {
    std::uint64_t tsc0;
    double ns_per_tick;
  };
  static const Calibration cal = [] {
    const std::uint64_t c0 = __rdtsc();
    const std::uint64_t t0 = now_ns();
    while (now_ns() - t0 < 20'000'000) {
    }
    const std::uint64_t c1 = __rdtsc();
    const std::uint64_t t1 = now_ns();
    return Calibration{c0, static_cast<double>(t1 - t0) /
                               static_cast<double>(c1 - c0)};
  }();
  return static_cast<double>(__rdtsc() - cal.tsc0) * cal.ns_per_tick;
#else
  return static_cast<double>(now_ns());
#endif
}

void set_end_to_end(Result& r, const EndToEnd& e, const Calibrator& cal) {
  const double f = cal.speed_factor();
  r.set("setup_s", e.setup_s, "s", Clock::kHost,
        static_cast<std::uint64_t>(e.setup_reps));
  r.set("peak_rss_mb", peak_rss_mb(), "MB");
  r.set("work_per_s", e.rate * f, "1/s", Clock::kHost, e.work);
  r.set("op_p50_us", e.op_p50_us / f, "us", Clock::kHost, e.ops);
  r.set("op_p99_us", e.op_p99_us / f, "us", Clock::kHost, e.ops);
  r.set("host.speed_factor", f, "ratio");
  r.context.emplace_back("own_work_per_s", std::to_string(e.rate));
  r.context.emplace_back("wall_work_per_s", std::to_string(e.wall_rate));
  r.context.emplace_back("speed_factor", std::to_string(f));
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double steal_seconds() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double ticks[8] = {};
  stat >> cpu;
  for (double& t : ticks) stat >> t;
  if (!stat || cpu != "cpu") return 0.0;
  return ticks[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
}

void release_free_memory() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::uint64_t fold_double(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return fold(h, bits);
}

/// Admission-path primitives: an uncontended mutex, atomic RMWs, an
/// unordered_map insert/erase and a small allocation per iteration.
double reference_kernel_ns() {
  constexpr std::uint64_t kIters = 50'000;
  std::mutex mu;
  std::atomic<std::uint64_t> counter{0};
  std::unordered_map<std::uint64_t, std::uint64_t> map;
  const double c0 = thread_cpu_seconds();
  for (std::uint64_t i = 0; i < kIters; ++i) {
    {
      std::lock_guard<std::mutex> lock(mu);
      counter.fetch_add(1);
    }
    map.emplace(i, counter.load());
    map.erase(i);
    std::vector<double> v(1, 1.0);
    counter.fetch_add(static_cast<std::uint64_t>(v[0]));
  }
  return (thread_cpu_seconds() - c0) * 1e9 / kIters;
}

double Calibrator::speed_factor() const { return kernel_ns() / kReferenceNs; }

void Calibrator::sample() {
  std::vector<double> ns(static_cast<std::size_t>(threads_));
  std::vector<std::thread> workers;
  for (std::size_t t = 1; t < ns.size(); ++t) {
    workers.emplace_back([&ns, t] { ns[t] = reference_kernel_ns(); });
  }
  ns[0] = reference_kernel_ns();
  for (std::thread& w : workers) w.join();
  samples_.insert(samples_.end(), ns.begin(), ns.end());
}

}  // namespace rdabench
