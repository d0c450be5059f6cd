#include "report.hpp"

#include <cmath>
#include <cstdio>

#include "runtime/affinity.hpp"

namespace rdabench {

namespace {

/// The seed held out for confirming a claimed gain: never used while
/// tuning the benchmark or a change.
constexpr std::uint64_t kHeldOutSeed = 8191;

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

const char* to_string(Clock clock) {
  return clock == Clock::kHost ? "host" : "virtual";
}

bool print_result(std::ostream& os, const Options& opt, const Result& r) {
  Result out = r;
  for (Metric& m : out.metrics) {
    out.check(std::isfinite(m.value), "metric " + m.name + " is not finite");
    if (!std::isfinite(m.value)) m.value = 0.0;
  }

  const std::uint64_t llc = rda::rt::detect_llc_bytes().value_or(0);
  os << "context: workload=" << opt.workload << " seed=" << opt.seed
     << " held_out_seed=" << kHeldOutSeed << " seconds=" << opt.seconds
     << " trace=" << (opt.trace ? 1 : 0) << " threads=" << opt.threads
     << " nproc=" << rda::rt::online_cpus() << " llc_bytes=" << llc
     << " compiler=\"" << __VERSION__ << "\" build_type=" << RDABENCH_BUILD_TYPE
     << " commit=" << RDABENCH_COMMIT;
  for (const auto& [key, value] : out.context) os << ' ' << key << '=' << value;
  os << '\n';
  for (const std::string& n : out.notes) os << n << '\n';
  for (const std::string& e : out.errors) os << "CHECK FAILED: " << e << '\n';

  char line[256];
  std::snprintf(line, sizeof(line), "%-30s %16s  %-8s %-8s %s\n", "metric",
                "value", "unit", "clock", "samples");
  os << line;
  for (const Metric& m : out.metrics) {
    std::snprintf(line, sizeof(line), "%-30s %16.6g  %-8s %-8s %llu\n",
                  m.name.c_str(), m.value, m.unit.c_str(), to_string(m.clock),
                  static_cast<unsigned long long>(m.samples));
    os << line;
  }

  os << "{\"correct\": " << (out.correct() ? "true" : "false")
     << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    os << (i == 0 ? "" : ", ") << '"' << m.name << "\": {\"value\": "
       << json_number(m.value) << ", \"unit\": \"" << m.unit
       << "\", \"clock\": \"" << to_string(m.clock)
       << "\", \"samples\": " << m.samples << '}';
  }
  os << "}}" << std::endl;
  return out.correct();
}

}  // namespace rdabench
