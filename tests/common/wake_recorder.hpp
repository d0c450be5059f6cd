// Test helper: records the threads an AdmissionCore wakes, in wake order.
#pragma once

#include <vector>

#include "core/admission.hpp"

namespace rda::testutil {

/// Routes `core`'s batch waker into `woken` (one entry per grant, in the
/// order the core delivered them). `woken` must outlive the core's use.
inline void record_wakes(core::AdmissionCore& core,
                         std::vector<sim::ThreadId>& woken) {
  core.set_batch_waker([&woken](const std::vector<core::WakeGrant>& grants) {
    for (const core::WakeGrant& g : grants) woken.push_back(g.thread);
  });
}

}  // namespace rda::testutil
