// The result printer.
//
// The binary prints the metrics the workload set, each with its unit, clock
// and sample count. BENCHMARK.json at the repository root is the one
// catalogue of metric names and units: run.py checks the printed metrics
// against it and reads a per-layer metric of a layer the workload leaves
// idle as 0.
#pragma once

#include <ostream>

#include "bench.hpp"

namespace rdabench {

const char* to_string(Clock clock);

/// Prints the host context, the metric table (name, value, unit, clock,
/// samples) and, as the last line, the one-line JSON result. Returns false
/// when the run failed an output check (including the printer's own).
bool print_result(std::ostream& os, const Options& opt, const Result& r);

}  // namespace rdabench
