#include "spans.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "bench.hpp"

namespace rdabench {

namespace {

constexpr std::size_t kReservoir = 1 << 15;

}  // namespace

double SpanStats::quantile_ns(double q) const {
  std::vector<double> copy = durations_ns;
  return quantile(copy, q);
}

Tracer::Tracer(std::uint32_t thread, std::size_t keep, std::uint64_t seed)
    : thread_(thread), keep_(keep), rng_(seed ^ (0x51ed27ull * (thread + 1))) {
  open_.reserve(16);
  kept_.reserve(keep);
}

SpanStats& Tracer::stats_for(const char* name) {
  for (SpanStats& s : stats_) {
    if (s.name == name || std::strcmp(s.name, name) == 0) return s;
  }
  stats_.push_back(SpanStats{});
  stats_.back().name = name;
  return stats_.back();
}

void Tracer::open(const char* name, std::uint64_t request) {
  const std::uint64_t parent = open_.empty() ? 0 : open_.back().id;
  const std::uint64_t id =
      (static_cast<std::uint64_t>(thread_) << 40) | next_id_++;
  open_.push_back(Frame{name, now_ns(), id, parent, request, 0});
}

void Tracer::close() {
  const std::uint64_t end = now_ns();
  const Frame f = open_.back();
  open_.pop_back();
  const std::uint64_t dur = end - f.start_ns;
  if (!open_.empty()) open_.back().child_ns += dur;

  SpanStats& s = stats_for(f.name);
  ++s.count;
  s.total_ns += dur;
  s.self_ns += dur > f.child_ns ? dur - f.child_ns : 0;
  if (s.durations_ns.size() < kReservoir) {
    s.durations_ns.push_back(static_cast<double>(dur));
  } else {
    const std::uint64_t slot = rng_.next_below(s.count);
    if (slot < kReservoir) s.durations_ns[slot] = static_cast<double>(dur);
  }
  if (kept_.size() < keep_) {
    kept_.push_back(SpanRecord{f.name, f.start_ns, end, f.id, f.parent,
                               f.request, thread_});
  }
}

std::vector<SpanStats> merge_stats(const std::vector<const Tracer*>& tracers) {
  std::vector<SpanStats> out;
  for (const Tracer* t : tracers) {
    for (const SpanStats& s : t->stats()) {
      SpanStats* into = nullptr;
      for (SpanStats& o : out) {
        if (std::strcmp(o.name, s.name) == 0) into = &o;
      }
      if (into == nullptr) {
        out.push_back(SpanStats{});
        into = &out.back();
        into->name = s.name;
      }
      into->count += s.count;
      into->total_ns += s.total_ns;
      into->self_ns += s.self_ns;
      into->durations_ns.insert(into->durations_ns.end(),
                                s.durations_ns.begin(), s.durations_ns.end());
    }
  }
  return out;
}

const SpanStats* find_stats(const std::vector<SpanStats>& all,
                            const std::string& name) {
  for (const SpanStats& s : all) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

std::size_t write_chrome_trace(const std::string& path,
                               const std::vector<const Tracer*>& tracers) {
  std::uint64_t epoch = UINT64_MAX;
  for (const Tracer* t : tracers) {
    for (const SpanRecord& r : t->kept()) epoch = std::min(epoch, r.start_ns);
  }
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open trace output " + path);
  os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  std::size_t written = 0;
  char buf[512];
  for (const Tracer* t : tracers) {
    for (const SpanRecord& r : t->kept()) {
      std::snprintf(
          buf, sizeof(buf),
          "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
          "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,"
          "\"request\":%llu}}",
          written == 0 ? "" : ",", r.name, r.thread,
          static_cast<double>(r.start_ns - epoch) * 1e-3,
          static_cast<double>(r.end_ns - r.start_ns) * 1e-3,
          static_cast<unsigned long long>(r.id),
          static_cast<unsigned long long>(r.parent),
          static_cast<unsigned long long>(r.request));
      os << buf;
      ++written;
    }
  }
  os << "\n]}\n";
  if (!os) throw std::runtime_error("failed writing trace output " + path);
  return written;
}

}  // namespace rdabench
