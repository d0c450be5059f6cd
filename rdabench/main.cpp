// rdabench — runs one named workload against the program's public entry
// points, checks the program's outputs, and prints every metric.
//
//   rdabench --workload <svc_bursty|gate_churn|blas_corun|sim_table2>
//            --seed N --seconds S --trace 0|1
//   rdabench --selftest        wrapper-equivalence checks
//
// blas_corun loads nproc threads, gate_churn two (one on a single CPU),
// svc_bursty and sim_table2 one. An untraced run (--trace 0) measures the
// end-to-end metrics; a traced run (--trace 1) also the per-layer metrics,
// and writes its spans to .bench_out/<workload>-seed<N>.trace.json. The
// last line of stdout is the JSON result. Any failed output check exits 1;
// bad arguments exit 2.
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "report.hpp"
#include "runtime/affinity.hpp"

namespace {

using namespace rdabench;

const char* flag(int argc, char** argv, const char* key) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], key) == 0) return argv[i + 1];
  }
  return nullptr;
}

bool has(int argc, char** argv, const char* key) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], key) == 0) return true;
  }
  return false;
}

int usage(const std::string& why) {
  std::cerr << "rdabench: " << why << "\n"
            << "usage: rdabench --workload <svc_bursty|gate_churn|blas_corun|"
               "sim_table2> --seed N --seconds S --trace 0|1\n"
               "       rdabench --selftest\n";
  return 2;
}

int selftest() {
  std::vector<std::string> failures = selftest_svc_wrapper();
  for (const std::string& f : selftest_sim_wrapper()) failures.push_back(f);
  for (const std::string& f : failures) std::cout << "FAIL: " << f << '\n';
  std::cout << (failures.empty() ? "selftest: OK\n" : "selftest: FAILED\n");
  return failures.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (has(argc, argv, "--selftest")) return selftest();

  Options opt;
  const char* workload = flag(argc, argv, "--workload");
  const char* seed = flag(argc, argv, "--seed");
  const char* seconds = flag(argc, argv, "--seconds");
  const char* trace = flag(argc, argv, "--trace");
  if (workload == nullptr || seed == nullptr || seconds == nullptr ||
      trace == nullptr) {
    return usage("missing argument");
  }
  opt.workload = workload;
  opt.seed = std::strtoull(seed, nullptr, 10);
  opt.seconds = std::strtod(seconds, nullptr);
  opt.trace = std::strcmp(trace, "1") == 0;
  if (!opt.trace && std::strcmp(trace, "0") != 0) {
    return usage("--trace must be 0 or 1");
  }
  if (!(opt.seconds > 0.0 && opt.seconds <= 600.0)) {
    return usage("--seconds must be in (0, 600]");
  }
  const int nproc = rda::rt::online_cpus();
  opt.out_dir = ".bench_out";

  Result (*run)(const Options&) = nullptr;
  if (opt.workload == "svc_bursty") run = run_svc_bursty;
  if (opt.workload == "gate_churn") run = run_gate_churn;
  if (opt.workload == "blas_corun") run = run_blas_corun;
  if (opt.workload == "sim_table2") run = run_sim_table2;
  if (run == nullptr) return usage("unknown workload " + opt.workload);
  opt.threads = run == run_blas_corun   ? nproc
                : run == run_gate_churn ? std::min(2, nproc)
                                        : 1;

  try {
    if (opt.trace) std::filesystem::create_directories(opt.out_dir);
    fine_ns();  // calibrate the fine clock before anything is timed
    Result result = run(opt);
    if (opt.trace) {
      result.set("bench.fail_frac",
                 result.attempted > 0 ? static_cast<double>(result.failed) /
                                            result.attempted
                                      : 0.0,
                 "ratio", Clock::kHost, result.attempted);
      result.set("host.nproc", nproc, "count");
      result.set("host.llc_bytes",
                 static_cast<double>(rda::rt::detect_llc_bytes().value_or(0)),
                 "bytes");
    }
    return print_result(std::cout, opt, result) ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "rdabench: " << opt.workload << " failed: " << e.what()
              << '\n';
    return 1;
  }
}
