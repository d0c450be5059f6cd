// In-memory span tracing for the traced run.
//
// A span is recorded in the benchmark's own code around each call into a
// layer: name, start, end, parent span and a per-thread or per-request id.
// Each load thread owns one Tracer, so recording takes no lock. A span's
// self time is its duration minus the time its child spans cover; the
// Tracer folds every closed span into per-name totals at once and keeps the
// first `keep` spans for the Chrome trace_event file written at exit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace rdabench {

struct SpanRecord {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root span
  std::uint64_t request = 0;
  std::uint32_t thread = 0;
};

/// Per-name totals over every closed span, plus a uniform reservoir of
/// durations for quantiles.
struct SpanStats {
  const char* name = "";
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
  std::vector<double> durations_ns;  ///< reservoir sample

  double mean_ns() const {
    return count > 0 ? static_cast<double>(total_ns) / count : 0.0;
  }
  double quantile_ns(double q) const;
};

class Tracer {
 public:
  Tracer(std::uint32_t thread, std::size_t keep, std::uint64_t seed);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void open(const char* name, std::uint64_t request);
  void close();
  /// Renames the innermost open span (for calls whose outcome names them,
  /// such as a try_begin that turns out to be denied).
  void rename(const char* name) { open_.back().name = name; }

  const std::vector<SpanRecord>& kept() const { return kept_; }
  const std::vector<SpanStats>& stats() const { return stats_; }

 private:
  struct Frame {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t request;
    std::uint64_t child_ns;
  };

  SpanStats& stats_for(const char* name);

  std::uint32_t thread_;
  std::size_t keep_;
  std::uint64_t next_id_ = 1;
  std::vector<Frame> open_;
  std::vector<SpanRecord> kept_;
  std::vector<SpanStats> stats_;
  rda::util::Rng rng_;
};

/// RAII span; a null tracer makes it a no-op (the untraced path).
class Span {
 public:
  Span(Tracer* tracer, const char* name, std::uint64_t request = 0)
      : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->open(name, request);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void rename(const char* name) {
    if (tracer_ != nullptr) tracer_->rename(name);
  }

 private:
  Tracer* tracer_;
};

/// Per-name totals merged over several tracers (reservoirs concatenated).
std::vector<SpanStats> merge_stats(const std::vector<const Tracer*>& tracers);
const SpanStats* find_stats(const std::vector<SpanStats>& all,
                            const std::string& name);

/// Writes the kept spans of every tracer as Chrome trace_event JSON
/// ("X" complete events; args carry id, parent and request). Returns the
/// number of spans written.
std::size_t write_chrome_trace(const std::string& path,
                               const std::vector<const Tracer*>& tracers);

}  // namespace rdabench
