// svc_bursty — one ServiceFrontEnd::run per repetition, single-threaded and
// in virtual time: bursty arrivals with a hot tenant, 4 nodes with locality
// routing, tenant-truth enforcement with one WSS-inflating tenant, and an
// offered load whose bursts park work, trigger steals, climb the overload
// ladder and shed.
//
// Arrival streams are generated from the seed and replayed through the
// bench-owned TimedArrivals wrapper, which measures the host time the front
// end spends on each arrival before it asks for the next. Each repetition
// replays a stream of its own, so one run averages over many burst patterns
// (a single stream's share of arrivals inside bursts, and with it the work
// per arrival, varies by about 10% from seed to seed).
#include <string>
#include <vector>

#include "bench.hpp"
#include "gate_util.hpp"
#include "obs/reconcile.hpp"
#include "obs/recorder.hpp"
#include "service/arrival.hpp"
#include "service/frontend.hpp"
#include "spans.hpp"

namespace rdabench {

namespace {

using rda::service::Arrival;

constexpr std::uint64_t kArrivals = 100000;  // per stream
constexpr std::size_t kRecorderCapacity = std::size_t{1} << 20;

rda::service::ArrivalConfig arrival_config(std::uint64_t seed) {
  rda::service::ArrivalConfig a;
  a.shape = rda::service::ArrivalShape::kBursty;
  a.rate = 12000.0;
  a.seed = seed;
  a.tenants = 8;
  a.hot_tenant_share = 0.4;
  a.demand_mean_bytes = 2.0 * 1024.0 * 1024.0;
  a.service_mean_seconds = 2.0e-3;
  a.burst_multiplier = 8.0;
  a.burst_fraction = 0.125;
  a.burst_mean_seconds = 0.02;
  a.adversary.kind = rda::service::AdversaryKind::kWssInflator;
  a.adversary.tenant = 2;
  a.adversary.factor = 4.0;
  return a;
}

rda::service::ServiceConfig service_config(std::uint64_t seed) {
  rda::service::ServiceConfig c;
  c.nodes = 4;
  c.routing = rda::service::RoutePolicy::kLocalityAware;
  c.enforce = true;
  c.model_true_occupancy = true;
  c.seed = seed;
  return c;
}

/// What a wrapped run records; every member may be null.
struct Hooks {
  std::vector<double>* gaps = nullptr;  ///< host ns per arrival
  Tracer* tracer = nullptr;
  rda::obs::TraceSink* sink = nullptr;  ///< service + core event stream
  Calibrator* cal = nullptr;
};

/// The bench's ArrivalSource wrapper: forwards every next() to `inner` and
/// records the host time since the previous arrival was handed out (the
/// front end's time on that arrival). In a traced run it opens one span per
/// call; with a calibrator it samples the machine speed every
/// kCalibrateEvery arrivals, outside every timed interval.
class TimedArrivals final : public rda::service::ArrivalSource {
 public:
  static constexpr std::uint64_t kCalibrateEvery = 20000;

  TimedArrivals(rda::service::ArrivalSource& inner, const Hooks& hooks)
      : inner_(inner), hooks_(hooks) {}

  Arrival next() override {
    const double t = fine_ns();
    if (calls_ != 0 && hooks_.gaps != nullptr) {
      hooks_.gaps->push_back(t - last_);
    }
    if (hooks_.cal != nullptr && calls_ % kCalibrateEvery == 0) {
      const double c0 = thread_cpu_seconds();
      hooks_.cal->sample();
      paused_ns_ += fine_ns() - t;
      paused_cpu_ += thread_cpu_seconds() - c0;
    }
    Arrival a;
    {
      Span span(hooks_.tracer, "service.arrival_next", calls_);
      a = inner_.next();
    }
    ++calls_;
    last_ = fine_ns();
    return a;
  }

  /// Time spent calibrating, to be taken out of the run's time.
  double paused_seconds() const { return paused_ns_ * 1e-9; }
  double paused_cpu_seconds() const { return paused_cpu_; }

 private:
  rda::service::ArrivalSource& inner_;
  const Hooks& hooks_;
  double last_ = 0.0;
  double paused_ns_ = 0.0;
  double paused_cpu_ = 0.0;
  std::uint64_t calls_ = 0;
};

struct RunOutcome {
  rda::service::ServiceReport report;
  double seconds = 0.0;
  double cpu_seconds = 0.0;
};

/// One run of the front end over the recorded stream: through TimedArrivals
/// when `hooks` is given, else straight from the program's TraceArrivals.
RunOutcome run_once(const std::vector<Arrival>& arrivals, std::uint64_t seed,
                    const Hooks* hooks, std::uint64_t run_index) {
  const Hooks none;
  rda::service::TraceArrivals replay(arrivals);
  TimedArrivals timed(replay, hooks != nullptr ? *hooks : none);
  rda::service::ServiceConfig cfg = service_config(seed);
  if (hooks != nullptr) cfg.trace_sink = hooks->sink;
  rda::service::ServiceFrontEnd frontend(cfg);
  Tracer* tracer = hooks != nullptr ? hooks->tracer : nullptr;
  RunOutcome out;
  const std::uint64_t t0 = now_ns();
  const double c0 = thread_cpu_seconds();
  {
    Span span(tracer, "service.run", run_index);
    out.report = hooks != nullptr ? frontend.run(timed, arrivals.size())
                                  : frontend.run(replay, arrivals.size());
  }
  out.seconds = seconds_since(t0) - timed.paused_seconds();
  out.cpu_seconds = thread_cpu_seconds() - c0 - timed.paused_cpu_seconds();
  return out;
}

void check_report(Result& r, const rda::service::ServiceReport& rep,
                  std::uint64_t arrivals) {
  const rda::service::ServiceStats& s = rep.stats;
  r.check(s.completed + s.shed == arrivals,
          "svc: completed + shed != arrivals");
  r.check(s.overflow_drops == 0, "svc: submission queue overflowed");
  r.check(s.still_queued == 0, "svc: work left queued at quiescence");
  r.check(rep.credits_conserved, "svc: credits not conserved");
  const rda::core::MonitorStats& m = rep.admission;
  r.check(m.begins == m.ends + m.cancels + m.reclaims + m.rejections,
          "svc: core ledger begins != ends + cancels + reclaims + rejections");
}

/// Arrival stream `index` of the run seeded `seed`.
std::vector<Arrival> generate(std::uint64_t seed, std::uint64_t index) {
  rda::service::ArrivalGenerator gen(arrival_config(seed * 1000003 + index));
  return rda::service::record_arrivals(gen, kArrivals);
}

}  // namespace

Result run_svc_bursty(const Options& opt) {
  Result r;
  const std::vector<Arrival> arrivals = generate(opt.seed, 0);  // stream 0

  // Reference run of stream 0 through the program's own TraceArrivals: the
  // checksum and ledger fingerprint every wrapped run of stream 0 must
  // reproduce. It also warms the host up.
  const RunOutcome reference = run_once(arrivals, opt.seed, nullptr, 0);
  check_report(r, reference.report, arrivals.size());
  const double setup = median_setup_seconds(kSetupReps, [&] {
    const std::vector<Arrival> stream = generate(opt.seed, 0);
    const rda::service::ServiceFrontEnd frontend(service_config(opt.seed));
  });

  const double untraced_budget = opt.trace ? opt.seconds / 2 : opt.seconds;
  std::vector<double> p50s;
  std::vector<double> p99s;
  std::uint64_t gap_samples = 0;
  double run_seconds = 0.0;
  double stream0_seconds = 0.0;
  double cpu_seconds = 0.0;
  std::uint64_t runs = 0;
  Calibrator cal(1);
  const std::uint64_t start = now_ns();
  while (runs == 0 || seconds_since(start) < untraced_budget) {
    const std::vector<Arrival> stream =
        runs == 0 ? arrivals : generate(opt.seed, runs);
    std::vector<double> gaps;
    gaps.reserve(stream.size());
    Hooks hooks;
    hooks.gaps = &gaps;
    hooks.cal = &cal;
    const RunOutcome o = run_once(stream, opt.seed, &hooks, runs);
    check_report(r, o.report, stream.size());
    if (runs == 0) {
      stream0_seconds = o.seconds;
      r.check(o.report.checksum == reference.report.checksum &&
                  o.report.ledger_fingerprint ==
                      reference.report.ledger_fingerprint,
              "svc: wrapped run diverged from the reference run");
    }
    ++runs;
    run_seconds += o.seconds;
    cpu_seconds += o.cpu_seconds;
    gap_samples += gaps.size();
    p50s.push_back(quantile(gaps, 0.50) * 1e-3);
    p99s.push_back(quantile(gaps, 0.99) * 1e-3);
  }
  const std::uint64_t total_arrivals = runs * arrivals.size();
  const double rate = static_cast<double>(total_arrivals) / cpu_seconds;
  const double wall_rate = static_cast<double>(total_arrivals) / run_seconds;
  const rda::service::ServiceReport& rep = reference.report;
  const rda::service::ServiceStats& s = rep.stats;
  r.attempted = total_arrivals;
  r.failed = runs * s.overflow_drops;
  r.context.emplace_back("runs", std::to_string(runs));
  r.context.emplace_back("checksum", std::to_string(rep.checksum));
  r.context.emplace_back("ledger_fingerprint",
                         std::to_string(rep.ledger_fingerprint));
  r.check(s.shed > 0 && s.steals > 0 && s.woken > 0 && s.escalations > 0,
          "svc: the load did not park, steal, climb the ladder and shed");

  set_end_to_end(r,
                 EndToEnd{setup, kSetupReps, rate, wall_rate, total_arrivals,
                          median(p50s), median(p99s), gap_samples},
                 cal);
  if (!opt.trace) return r;

  // Traced half: stream 0 again, with spans around run and every
  // ArrivalSource::next; the first traced run also records the service
  // event stream for reconciliation.
  Tracer tracer(0, 1 << 16, opt.seed);
  double traced_seconds = 0.0;
  std::uint64_t traced_runs = 0;
  const std::uint64_t traced_start = now_ns();
  rda::obs::EventRecorder recorder(kRecorderCapacity);
  while (traced_runs == 0 || seconds_since(traced_start) < opt.seconds / 2) {
    const bool reconcile = traced_runs == 0;
    Hooks hooks;
    hooks.tracer = &tracer;
    if (reconcile) hooks.sink = &recorder;
    const RunOutcome o = run_once(arrivals, opt.seed, &hooks, traced_runs);
    ++traced_runs;
    traced_seconds += o.seconds;
    r.check(o.report.checksum == rep.checksum,
            "svc: traced run diverged from the reference run");
    if (reconcile) {
      const rda::service::ServiceStats& t = o.report.stats;
      rda::obs::ServiceStatsCheck check;
      check.enqueued = t.enqueued;
      check.drains = t.drains;
      check.steals = t.steals;
      check.stolen = t.stolen;
      check.reroutes = t.reroutes;
      check.mailboxed = t.mailboxed;
      check.shed = t.shed;
      check.still_queued = t.still_queued;
      r.check(recorder.dropped() == 0, "svc: event recorder dropped events");
      const rda::obs::ReconcileReport rec =
          rda::obs::reconcile_service(recorder.events(), check);
      r.check(rec.ok, "svc: reconcile_service: " + rec.message);
    }
  }
  const double traced_rate =
      static_cast<double>(traced_runs * arrivals.size()) / traced_seconds;
  const std::vector<SpanStats> spans = merge_stats({&tracer});
  const SpanStats* next = find_stats(spans, "service.arrival_next");
  const SpanStats* run = find_stats(spans, "service.run");
  const double arrivals_d = static_cast<double>(arrivals.size());

  r.set("service.arrival_ns_per_call", next ? next->mean_ns() : 0.0, "ns",
        Clock::kHost, next ? next->count : 0);
  r.set("service.run_self_s",
        run ? static_cast<double>(run->self_ns) * 1e-9 / run->count : 0.0,
        "s", Clock::kHost, traced_runs);
  r.set("service.host_ns_per_sub", 1e9 / wall_rate, "ns", Clock::kHost, runs);
  r.set("service.drained_per_drain",
        s.drains > 0 ? static_cast<double>(s.drained) / s.drains : 0.0,
        "count", Clock::kVirtual, s.drains);
  r.set("service.parked_share",
        s.admitted > 0 ? 1.0 - static_cast<double>(
                                   rep.admission.immediate_admissions) /
                                   s.admitted
                       : 0.0,
        "ratio", Clock::kVirtual, s.admitted);
  r.set("service.woken", s.woken, "count", Clock::kVirtual);
  r.set("service.woken_share",
        s.admitted > 0 ? static_cast<double>(s.woken) / s.admitted : 0.0,
        "ratio", Clock::kVirtual, s.admitted);
  r.set("service.stolen_share", s.stolen / arrivals_d, "ratio",
        Clock::kVirtual, arrivals.size());
  r.set("service.shed_share", s.shed / arrivals_d, "ratio", Clock::kVirtual,
        arrivals.size());
  r.set("service.steals", s.steals, "count", Clock::kVirtual);
  r.set("service.mailboxed", s.mailboxed, "count", Clock::kVirtual);
  r.set("service.shed", s.shed, "count", Clock::kVirtual);
  r.set("service.max_backlog", s.max_backlog, "count", Clock::kVirtual);
  r.set("service.final_rung", s.final_rung, "count", Clock::kVirtual);
  r.set("service.audits", s.audits, "count", Clock::kVirtual);
  r.set("service.penalties", s.penalties, "count", Clock::kVirtual);
  r.set("service.goodput_vps", rep.goodput_per_second, "1/s", Clock::kVirtual,
        s.completed);
  r.set("service.admit_p50_vms", rep.admission_latency.p50() * 1e3, "ms",
        Clock::kVirtual, rep.admission_latency.count());
  r.set("service.admit_p99_vms", rep.admission_latency.p99() * 1e3, "ms",
        Clock::kVirtual, rep.admission_latency.count());

  set_core_metrics(r, rep.admission, Clock::kVirtual);

  r.set("bench.spans",
        static_cast<double>(write_chrome_trace(
            opt.out_dir + "/svc_bursty-seed" + std::to_string(opt.seed) +
                ".trace.json",
            {&tracer})),
        "count");
  r.set("trace.overhead",
        1.0 - traced_rate * stream0_seconds / static_cast<double>(arrivals.size()),
        "ratio", Clock::kHost, traced_runs);
  return r;
}

std::vector<std::string> selftest_svc_wrapper() {
  Result r;
  for (const std::uint64_t seed : {1ull, 2ull}) {
    const std::vector<Arrival> arrivals = generate(seed, 0);
    const RunOutcome plain = run_once(arrivals, seed, nullptr, 0);
    std::vector<double> gaps;
    Tracer tracer(0, 1024, seed);
    Calibrator cal(1);
    Hooks hooks;
    hooks.gaps = &gaps;
    hooks.tracer = &tracer;
    hooks.cal = &cal;
    const RunOutcome timed = run_once(arrivals, seed, &hooks, 0);
    r.check(plain.report.checksum == timed.report.checksum,
            "svc seed " + std::to_string(seed) +
                ": checksum differs with the ArrivalSource wrapper");
    r.check(plain.report.ledger_fingerprint ==
                timed.report.ledger_fingerprint,
            "svc seed " + std::to_string(seed) +
                ": ledger_fingerprint differs with the ArrivalSource wrapper");
    r.check(plain.report.ledger_fingerprint != 0,
            "svc: enforcement produced no ledger fingerprint");
  }
  return r.errors;
}

}  // namespace rdabench
