// sim_table2 — a fixed subset of Table-2 cells simulated through sim::Engine
// with core::RdaScheduler as the gate, under Linux default, Strict and
// Compromise. The subset mixes high-reuse workloads (BLAS-3, Water_nsq,
// Raytrace), where the gate blocks, with streaming BLAS-1.
//
// The simulated inputs are fixed, so every simulated statistic repeats
// exactly for every seed; the seed only shuffles the order cells run in.
// In a traced run the gate is wrapped in the bench's TimedPhaseGate, which
// forwards every PhaseGate call and times on_phase_begin/on_phase_end.
#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/rda_scheduler.hpp"
#include "gate_util.hpp"
#include "sim/engine.hpp"
#include "spans.hpp"
#include "util/rng.hpp"
#include "workload/table2.hpp"

namespace rdabench {

namespace {

using rda::core::PolicyKind;

// Cells are cut to 1/32 of the flops, so a 15-s run holds well over 1000
// cell runs and the op latency p99 has more than ten samples beyond it, and
// to half the processes; a quarter leaves Water_nsq under Compromise with
// too little contention to block.
constexpr double kFlopScale = 1.0 / 32;
constexpr int kProcDivisor = 2;
/// The simulator's set-up takes well under a millisecond; more repetitions
/// keep its median steady.
constexpr int kSimSetupReps = 21;

struct Cell {
  rda::workload::WorkloadSpec spec;
  PolicyKind policy = PolicyKind::kLinuxDefault;
  bool high_reuse = false;
};

std::vector<Cell> make_cells() {
  const std::vector<rda::workload::WorkloadSpec> all =
      rda::workload::table2_workloads();
  std::vector<Cell> cells;
  for (const char* name : {"BLAS-3", "Water_nsq", "Raytrace", "BLAS-1"}) {
    const rda::workload::WorkloadSpec spec = rda::workload::scale_workload(
        rda::workload::find_workload(all, name), kFlopScale, kProcDivisor);
    for (const PolicyKind policy : {PolicyKind::kLinuxDefault,
                                    PolicyKind::kStrict,
                                    PolicyKind::kCompromise}) {
      cells.push_back(Cell{spec, policy, std::string(name) != "BLAS-1"});
    }
  }
  return cells;
}

/// The bench's PhaseGate wrapper: forwards every virtual to the wrapped
/// gate and times the two admission calls.
class TimedPhaseGate final : public rda::sim::PhaseGate {
 public:
  TimedPhaseGate(rda::sim::PhaseGate& inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  rda::sim::BeginResult on_phase_begin(rda::sim::ThreadId thread,
                                       rda::sim::ProcessId process,
                                       const rda::sim::PhaseSpec& phase,
                                       double now) override {
    Span span(tracer_, "core.phase_begin", thread);
    return inner_.on_phase_begin(thread, process, phase, now);
  }
  rda::sim::EndResult on_phase_end(rda::sim::ThreadId thread,
                                   rda::sim::ProcessId process,
                                   const rda::sim::PhaseSpec& phase,
                                   const rda::sim::PhaseObservation& observed,
                                   double now) override {
    Span span(tracer_, "core.phase_end", thread);
    return inner_.on_phase_end(thread, process, phase, observed, now);
  }
  void attach(rda::sim::ThreadWaker& waker) override { inner_.attach(waker); }
  void on_thread_exit(rda::sim::ThreadId thread, double now) override {
    inner_.on_thread_exit(thread, now);
  }
  bool pending_admitted(rda::sim::ThreadId thread) const override {
    return inner_.pending_admitted(thread);
  }
  bool on_stall(double now) override { return inner_.on_stall(now); }

 private:
  rda::sim::PhaseGate& inner_;
  Tracer* tracer_;
};

struct CellOut {
  rda::sim::SimResult result;
  rda::core::MonitorStats core;
  double populate_s = 0.0;
  double run_s = 0.0;
  double cpu_s = 0.0;
};

/// Simulates one cell. `wrap` interposes TimedPhaseGate (with `tracer`,
/// which may be null) between the engine and the scheduler.
CellOut run_cell(const Cell& cell, bool wrap, Tracer* tracer,
                 std::uint64_t request) {
  Span root(tracer, "sim.cell", request);
  const rda::sim::EngineConfig config{};
  rda::sim::Engine engine(config);
  std::unique_ptr<rda::core::RdaScheduler> gate;
  std::optional<TimedPhaseGate> timed;
  if (cell.policy != PolicyKind::kLinuxDefault) {
    rda::core::RdaOptions options;
    options.policy = cell.policy;
    gate = std::make_unique<rda::core::RdaScheduler>(
        static_cast<double>(config.machine.llc_bytes), config.calib, options);
    if (wrap) {
      timed.emplace(*gate, tracer);
      engine.set_gate(&*timed);
    } else {
      engine.set_gate(gate.get());
    }
  }
  CellOut out;
  std::uint64_t t0 = now_ns();
  {
    Span s(tracer, "workload.populate", request);
    rda::workload::populate_engine(engine, cell.spec,
                                   [&](rda::sim::ProcessId pid) {
                                     if (gate) gate->mark_pool(pid);
                                   });
  }
  out.populate_s = seconds_since(t0);
  t0 = now_ns();
  const double c0 = thread_cpu_seconds();
  {
    Span s(tracer, "sim.run", request);
    out.result = engine.run();
  }
  out.run_s = seconds_since(t0);
  out.cpu_s = thread_cpu_seconds() - c0;
  if (gate) out.core = gate->core().stats();
  return out;
}

/// Every SimResult field, per-thread stats included.
std::uint64_t fingerprint(const rda::sim::SimResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const double v : {r.makespan, r.total_flops, r.package_joules,
                         r.dram_joules, r.dram_bytes}) {
    h = fold_double(h, v);
  }
  for (const std::uint64_t v :
       {r.sim_steps, r.context_switches, r.migrations, r.gate_blocks,
        r.gate_admissions, r.api_calls, r.injected_deaths, r.lost_wakes,
        r.recovered_wakes, static_cast<std::uint64_t>(r.hit_time_limit)}) {
    h = fold(h, v);
  }
  for (const rda::sim::ThreadStats& t : r.threads) {
    for (const double v : {t.cpu_time, t.gate_blocked_time, t.finish_time,
                           t.flops, t.dram_bytes}) {
      h = fold_double(h, v);
    }
  }
  return h;
}

std::string cell_name(const Cell& c) {
  return c.spec.name + "/" + std::string(rda::core::to_string(c.policy));
}

/// Runs passes over every cell (in a seeded order) until `seconds` passed.
struct Passes {
  std::uint64_t passes = 0;
  std::vector<CellOut> first;  ///< pass 0, in cell order
  std::vector<double> ns_per_step;
  std::uint64_t steps = 0;
  std::uint64_t timed_out = 0;  ///< cell runs that hit the time limit
  double run_s = 0.0;
  double cpu_s = 0.0;
  double populate_s = 0.0;
};

Passes run_passes(Result& r, const std::vector<Cell>& cells,
                  std::uint64_t seed, double seconds, bool wrap,
                  Tracer* tracer, const std::vector<std::uint64_t>* expect,
                  Calibrator* cal) {
  Passes p;
  p.first.resize(cells.size());
  std::vector<std::size_t> order(cells.size());
  std::iota(order.begin(), order.end(), 0);
  const std::uint64_t start = now_ns();
  while (p.passes == 0 || seconds_since(start) < seconds) {
    rda::util::Rng rng(seed * 0x9e3779b97f4a7c15ull + p.passes);
    std::shuffle(order.begin(), order.end(), rng);
    for (const std::size_t i : order) {
      const CellOut out = run_cell(cells[i], wrap, tracer, i);
      const std::uint64_t fp = fingerprint(out.result);
      if (p.passes == 0) p.first[i] = out;
      const std::uint64_t want =
          expect != nullptr ? (*expect)[i] : fingerprint(p.first[i].result);
      r.check(fp == want, "sim_table2: " + cell_name(cells[i]) +
                              (wrap ? " with the PhaseGate wrapper" : "") +
                              " did not repeat its simulated result");
      r.check(!out.result.hit_time_limit,
              "sim_table2: " + cell_name(cells[i]) + " hit the time limit");
      p.timed_out += out.result.hit_time_limit ? 1 : 0;
      p.steps += out.result.sim_steps;
      p.run_s += out.run_s;
      p.cpu_s += out.cpu_s;
      p.populate_s += out.populate_s;
      p.ns_per_step.push_back(out.cpu_s * 1e9 /
                              static_cast<double>(out.result.sim_steps));
      if (cal != nullptr) cal->sample();
    }
    ++p.passes;
  }
  return p;
}

}  // namespace

Result run_sim_table2(const Options& opt) {
  Result r;
  const std::vector<Cell> cells = make_cells();
  run_passes(r, cells, opt.seed, kWarmupSeconds, false, nullptr, nullptr,
             nullptr);
  // Set-up: the cell list, and for every cell its engine, its scheduler
  // and the populated threads — everything run_cell does before run().
  const double setup = median_setup_seconds(kSimSetupReps, [&] {
    for (const Cell& c : make_cells()) {
      const rda::sim::EngineConfig config{};
      rda::sim::Engine engine(config);
      std::unique_ptr<rda::core::RdaScheduler> gate;
      if (c.policy != PolicyKind::kLinuxDefault) {
        rda::core::RdaOptions options;
        options.policy = c.policy;
        gate = std::make_unique<rda::core::RdaScheduler>(
            static_cast<double>(config.machine.llc_bytes), config.calib,
            options);
        engine.set_gate(gate.get());
      }
      rda::workload::populate_engine(engine, c.spec,
                                     [&](rda::sim::ProcessId pid) {
                                       if (gate) gate->mark_pool(pid);
                                     });
    }
  });
  Calibrator cal(1);
  cal.sample();
  const Passes plain = run_passes(r, cells, opt.seed,
                                  opt.trace ? opt.seconds / 2 : opt.seconds,
                                  false, nullptr, nullptr, &cal);
  std::vector<std::uint64_t> fingerprints;
  std::uint64_t all = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const rda::sim::SimResult& res = plain.first[i].result;
    fingerprints.push_back(fingerprint(res));
    all = fold(all, fingerprints.back());
    if (cells[i].high_reuse && cells[i].policy != PolicyKind::kLinuxDefault) {
      r.check(res.gate_blocks > 0,
              "sim_table2: " + cell_name(cells[i]) + " never blocked");
    }
  }
  r.attempted = plain.passes * cells.size();
  r.failed = plain.timed_out;
  r.context.emplace_back("passes", std::to_string(plain.passes));
  r.context.emplace_back("sim_fingerprint", std::to_string(all));
  const double rate = static_cast<double>(plain.steps) / plain.cpu_s;
  const double wall_rate = static_cast<double>(plain.steps) / plain.run_s;

  std::vector<double> per_step = plain.ns_per_step;
  set_end_to_end(r,
                 EndToEnd{setup, kSimSetupReps, rate, wall_rate, plain.steps,
                          quantile(per_step, 0.50) * 1e-3,
                          quantile(per_step, 0.99) * 1e-3, per_step.size()},
                 cal);
  if (!opt.trace) return r;

  // Traced half: every gated cell runs through TimedPhaseGate and must
  // reproduce the unwrapped result field for field.
  Tracer tracer(0, 1 << 16, opt.seed);
  const Passes traced = run_passes(r, cells, opt.seed, opt.seconds / 2, true,
                                   &tracer, &fingerprints, nullptr);
  const std::vector<SpanStats> spans = merge_stats({&tracer});
  const auto total = [&](const char* name) {
    const SpanStats* s = find_stats(spans, name);
    return s ? static_cast<double>(s->total_ns) : 0.0;
  };
  const auto mean = [&](const char* name) {
    const SpanStats* s = find_stats(spans, name);
    return s ? s->mean_ns() : 0.0;
  };

  rda::sim::SimResult sum;
  rda::core::MonitorStats core;
  double log_gpw = 0.0;
  for (const CellOut& c : plain.first) {
    sum.gate_blocks += c.result.gate_blocks;
    sum.gate_admissions += c.result.gate_admissions;
    sum.api_calls += c.result.api_calls;
    sum.context_switches += c.result.context_switches;
    sum.migrations += c.result.migrations;
    sum.package_joules += c.result.package_joules;
    sum.dram_joules += c.result.dram_joules;
    log_gpw += std::log(c.result.gflops_per_watt());
    core += c.core;
  }
  const double passes = static_cast<double>(plain.passes);
  r.set("sim.run_s", plain.run_s / passes, "s", Clock::kHost, plain.passes);
  r.set("sim.ns_per_step", plain.run_s * 1e9 / plain.steps, "ns",
        Clock::kHost, plain.steps);
  r.set("workload.populate_s", plain.populate_s / passes, "s", Clock::kHost,
        plain.passes);
  r.set("sim.blocked_begin_share",
        sum.gate_admissions > 0
            ? static_cast<double>(sum.gate_blocks) / sum.gate_admissions
            : 0.0,
        "ratio", Clock::kVirtual, sum.gate_admissions);
  r.set("sim.gate_blocks", sum.gate_blocks, "count", Clock::kVirtual);
  r.set("sim.gate_admissions", sum.gate_admissions, "count", Clock::kVirtual);
  r.set("sim.api_calls", sum.api_calls, "count", Clock::kVirtual);
  r.set("sim.context_switches", sum.context_switches, "count",
        Clock::kVirtual);
  r.set("sim.migrations", sum.migrations, "count", Clock::kVirtual);
  r.set("sim.system_joules", sum.system_joules(), "J", Clock::kVirtual);
  r.set("sim.dram_joules", sum.dram_joules, "J", Clock::kVirtual);
  r.set("sim.gflops_per_watt",
        std::exp(log_gpw / static_cast<double>(cells.size())), "GFLOP/J",
        Clock::kVirtual, cells.size());
  set_core_metrics(r, core, Clock::kVirtual);
  r.set("core.phase_begin_ns", mean("core.phase_begin"), "ns");
  r.set("core.phase_end_ns", mean("core.phase_end"), "ns");
  r.set("core.gate_share",
        total("sim.run") > 0.0
            ? (total("core.phase_begin") + total("core.phase_end")) /
                  total("sim.run")
            : 0.0,
        "ratio");
  r.set("bench.spans",
        static_cast<double>(write_chrome_trace(
            opt.out_dir + "/sim_table2-seed" + std::to_string(opt.seed) +
                ".trace.json",
            {&tracer})),
        "count");
  r.set("trace.overhead",
        1.0 - (static_cast<double>(traced.steps) / traced.run_s) / wall_rate,
        "ratio", Clock::kHost, traced.passes);
  return r;
}

std::vector<std::string> selftest_sim_wrapper() {
  Result r;
  const std::vector<Cell> cells = make_cells();
  Tracer tracer(0, 1024, 1);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellOut plain = run_cell(cells[i], false, nullptr, i);
    const CellOut wrapped = run_cell(cells[i], true, &tracer, i);
    r.check(fingerprint(plain.result) == fingerprint(wrapped.result),
            "sim: " + cell_name(cells[i]) +
                " SimResult differs with the PhaseGate wrapper");
  }
  return r.errors;
}

}  // namespace rdabench
