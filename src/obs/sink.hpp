// TraceSink — the zero-cost-when-disabled hook the schedulers emit into.
//
// Producers (core::AdmissionCore, sim::Engine, rt::AdmissionGate) hold a raw
// `TraceSink*` that defaults to nullptr; every emission site is a single
// branch (`if (sink_) sink_->record(...)`), so a run without tracing pays
// one predictable-not-taken test per transition and nothing else. Concrete
// sinks (EventRecorder) must tolerate concurrent record() calls — the
// native gate serializes under its own mutex, but the sink contract does
// not rely on that.
#pragma once

#include "obs/event.hpp"

namespace rda::obs {

class TraceSink {
 public:
  virtual ~TraceSink() = default;

  /// Records one lifecycle event. Must be cheap and non-blocking; called on
  /// the admission hot path.
  virtual void record(const Event& event) = 0;
};

}  // namespace rda::obs
