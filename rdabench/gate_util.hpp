// Helpers the workloads share: running load threads for a fixed time, the
// output checks on a native gate after its threads joined, and the core.*
// metrics every workload reports.
#pragma once

#include <atomic>
#include <exception>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "obs/reconcile.hpp"
#include "obs/recorder.hpp"
#include "runtime/gate.hpp"

namespace rdabench {

/// Starts `threads` workers together, lets them run `body(thread, stop)`
/// until `seconds` have passed (seconds <= 0: until every body returns),
/// joins them and returns the wall time from start to the last join. An
/// exception escaping a body is rethrown here after every thread joined.
inline double run_threads(
    int threads, double seconds,
    const std::function<void(int, const std::atomic<bool>&)>& body) {
  std::atomic<bool> stop{false};
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(threads));
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      try {
        body(t, stop);
      } catch (...) {
        errors[static_cast<std::size_t>(t)] = std::current_exception();
      }
    });
  }
  while (ready.load() < threads) std::this_thread::yield();
  const std::uint64_t t0 = now_ns();
  go.store(true, std::memory_order_release);
  if (seconds > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop.store(true, std::memory_order_relaxed);
  }
  for (std::thread& w : workers) w.join();
  const double wall = seconds_since(t0);
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return wall;
}

/// Time taken by calibrated slices of load.
struct SliceTime {
  double wall = 0.0;   ///< summed wall time of the slices
  double steal = 0.0;  ///< CPU time the hypervisor took during them
};

/// run_threads for `seconds` in slices of `slice` seconds, sampling `cal`
/// before the first slice and after each, so the calibration sees the same
/// host weather as the load. Bodies keep their position across slices.
inline SliceTime run_calibrated(
    int threads, double seconds, double slice, Calibrator& cal,
    const std::function<void(int, const std::atomic<bool>&)>& body) {
  SliceTime time;
  cal.sample();
  const std::uint64_t start = now_ns();
  while (time.wall == 0.0 || seconds_since(start) < seconds) {
    const double steal0 = steal_seconds();
    time.wall += run_threads(threads, slice, body);
    time.steal += steal_seconds() - steal0;
    cal.sample();
  }
  return time;
}

/// After every load thread joined: nothing is held or parked, and every
/// begin was ended or cancelled.
inline void check_quiescent(Result& r, const rda::rt::AdmissionGate& gate,
                            const std::string& tag) {
  r.check(gate.usage(rda::ResourceKind::kLLC) == 0.0,
          tag + ": LLC usage left after join");
  r.check(gate.usage(rda::ResourceKind::kMemBandwidth) == 0.0,
          tag + ": bandwidth usage left after join");
  r.check(gate.waiting() == 0, tag + ": waiters left after join");
  const rda::core::MonitorStats m = gate.stats().monitor;
  r.check(m.begins == m.ends + m.cancels,
          tag + ": begins != ends + cancels (" + std::to_string(m.begins) +
              " vs " + std::to_string(m.ends) + " + " +
              std::to_string(m.cancels) + ")");
}

/// Reconciles the gate's recorded event stream against its counters.
///
/// obs::reconcile (the period lifecycle) is a check that fails the run.
/// obs::reconcile_waits is run as well, but its failures are counted in
/// `failures` and its first message printed, without failing the run:
/// under contention it fails because of two program defects (see
/// rdabench/README.md, "Known defects"), and a benchmark whose traced runs
/// always fail could measure nothing.
inline void check_reconcile(Result& r, const rda::rt::AdmissionGate& gate,
                            const rda::obs::EventRecorder& recorder,
                            const std::string& tag, std::uint64_t& failures) {
  r.check(recorder.dropped() == 0, tag + ": event recorder dropped events");
  const std::vector<rda::obs::Event> events = recorder.events();
  const rda::rt::GateStats stats = gate.stats();
  const rda::obs::ReconcileReport lifecycle =
      rda::obs::reconcile(events, stats.monitor);
  r.check(lifecycle.ok, tag + ": reconcile: " + lifecycle.message);
  rda::obs::WaitStatsCheck waits;
  waits.waits = stats.waits;
  waits.no_sleep_blocks = stats.no_sleep_blocks;
  waits.total_wait_seconds = stats.total_wait_seconds;
  const rda::obs::ReconcileReport w =
      rda::obs::reconcile_waits(events, recorder.wait_histogram(), waits);
  if (!w.ok && failures++ == 0) {
    r.notes.push_back("KNOWN DEFECT: " + tag + ": reconcile_waits: " +
                      w.message);
  }
}

/// Median over full windows of each window's `q` quantile (all windows when
/// none is full, as in a short run); sorts the windows in place.
inline double window_quantile(std::vector<std::vector<double>>& windows,
                              double q) {
  std::size_t most = 0;
  for (const auto& w : windows) most = std::max(most, w.size());
  std::vector<double> qs;
  for (auto& w : windows) {
    if (!w.empty() && w.size() * 2 >= most) qs.push_back(quantile(w, q));
  }
  return median(std::move(qs));
}

/// Core counters every workload reports under core.*.
inline void set_core_metrics(Result& r, const rda::core::MonitorStats& m,
                             Clock clock) {
  r.set("core.immediate_share",
        m.begins > 0 ? static_cast<double>(m.immediate_admissions) / m.begins
                     : 0.0,
        "ratio", clock, m.begins);
  r.set("core.blocks", m.blocks, "count", clock);
  r.set("core.wakes", m.wakes, "count", clock);
  r.set("core.cancels", m.cancels, "count", clock);
  r.set("core.forced_admissions", m.forced_admissions, "count", clock);
}

}  // namespace rdabench
