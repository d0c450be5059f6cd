// AdaptiveMutex — a std::mutex that spins briefly before it parks.
//
// A contended std::mutex::lock() goes straight to the futex: the waiter
// sleeps in the kernel, and waking it costs a few microseconds. That is far
// longer than the sub-microsecond critical sections this lock guards (the
// admission core's slow lane), so a waiter that parks pays more for the
// sleep than for the wait itself. AdaptiveMutex spins first, for about one
// futex round trip, and parks only if the holder keeps the lock that long.
//
//   * An uncontended lock() is one relaxed load of the lock word followed
//     by std::mutex::lock(): no extra stores, no clock read. It does not
//     start with try_lock(), because glibc's lock() skips the atomic
//     read-modify-write while the process has a single thread and
//     try_lock() never does — a single-threaded caller (the service front
//     end's drain loop) would pay for an atomic on every acquire.
//   * A lock that looks held is spun on: kPausesPerTry CPU pause hints
//     between looks, try_lock() only when the lock looks free (spinning on
//     loads keeps the lock's cache line from bouncing between the spinners
//     and the holder), and a clock check per look. After kSpinBudget it
//     parks in std::mutex::lock().
//
// Only glibc's lock word can be looked at (pthread_mutex_t::__data.__lock,
// 0 when free); elsewhere the lock never looks held and AdaptiveMutex is a
// plain std::mutex. std::mutex stays underneath, so ThreadSanitizer and
// AddressSanitizer see every acquire and release as an ordinary mutex
// operation. Satisfies the standard Lockable requirements (std::lock_guard,
// std::unique_lock).
#pragma once

#include <chrono>
#include <mutex>

namespace rda::util {

class AdaptiveMutex {
 public:
  /// Longest a contended lock() spins before it parks: about one futex
  /// sleep/wake round trip.
  static constexpr std::chrono::nanoseconds kSpinBudget{5000};
  /// Pause hints between two looks at the lock word.
  static constexpr int kPausesPerTry = 4;

  AdaptiveMutex() = default;
  AdaptiveMutex(const AdaptiveMutex&) = delete;
  AdaptiveMutex& operator=(const AdaptiveMutex&) = delete;

  void lock() {
    if (looks_held()) {
      lock_contended();
    } else {
      mu_.lock();
    }
  }
  bool try_lock() { return mu_.try_lock(); }
  void unlock() { mu_.unlock(); }

 private:
  /// One spin-wait hint to the CPU (x86 `pause`, ARM `yield`): lets a
  /// sibling hyperthread run and keeps the spin loop off the memory system.
  static void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield" ::: "memory");
#else
    asm volatile("" ::: "memory");
#endif
  }

  /// A racy hint, never a decision: only try_lock()/lock() acquire.
  bool looks_held() {
#if defined(__GLIBC__)
    return __atomic_load_n(&mu_.native_handle()->__data.__lock,
                           __ATOMIC_RELAXED) != 0;
#else
    return false;
#endif
  }

  [[gnu::noinline]] void lock_contended() {
    const auto deadline = std::chrono::steady_clock::now() + kSpinBudget;
    do {
      for (int i = 0; i < kPausesPerTry; ++i) cpu_relax();
      if (!looks_held() && mu_.try_lock()) return;
    } while (std::chrono::steady_clock::now() < deadline);
    mu_.lock();
  }

  std::mutex mu_;
};

}  // namespace rda::util
