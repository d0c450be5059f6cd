#include "core/waitlist.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace rda::core {
namespace {

Waitlist::Entry entry(PeriodId period, sim::ThreadId thread,
                      sim::ProcessId process) {
  return Waitlist::Entry{period, thread, process, 0.0};
}

TEST(Waitlist, FifoOrderPreserved) {
  Waitlist wl;
  wl.push(entry(1, 10, 0));
  wl.push(entry(2, 11, 0));
  wl.push(entry(3, 12, 1));
  ASSERT_EQ(wl.size(), 3u);
  EXPECT_EQ(wl.entries().front().period, 1u);
  EXPECT_EQ(wl.entries().back().period, 3u);
}

TEST(Waitlist, DrainWorkConservingSkipsNonFitting) {
  Waitlist wl;
  wl.push(entry(1, 10, 0));
  wl.push(entry(2, 11, 0));
  wl.push(entry(3, 12, 1));
  // Admit odd period ids only.
  const auto admitted = wl.drain_admissible(
      [](const Waitlist::Entry& e) { return e.period % 2 == 1; },
      /*head_only=*/false);
  ASSERT_EQ(admitted.size(), 2u);
  EXPECT_EQ(admitted[0].period, 1u);
  EXPECT_EQ(admitted[1].period, 3u);
  ASSERT_EQ(wl.size(), 1u);
  EXPECT_EQ(wl.entries().front().period, 2u);
}

TEST(Waitlist, DrainHeadOnlyStopsAtFirstRejection) {
  Waitlist wl;
  wl.push(entry(1, 10, 0));
  wl.push(entry(2, 11, 0));
  wl.push(entry(3, 12, 1));
  const auto admitted = wl.drain_admissible(
      [](const Waitlist::Entry& e) { return e.period != 2; },
      /*head_only=*/true);
  // Head (1) admitted, 2 rejected -> stop; 3 never examined.
  ASSERT_EQ(admitted.size(), 1u);
  EXPECT_EQ(admitted[0].period, 1u);
  EXPECT_EQ(wl.size(), 2u);
}

TEST(Waitlist, DrainAdmitAllEmptiesList) {
  Waitlist wl;
  for (PeriodId id = 1; id <= 5; ++id) wl.push(entry(id, 10, 0));
  const auto admitted = wl.drain_admissible(
      [](const Waitlist::Entry&) { return true; }, false);
  EXPECT_EQ(admitted.size(), 5u);
  EXPECT_TRUE(wl.empty());
}

TEST(Waitlist, RemoveProcessPullsWholeGroup) {
  Waitlist wl;
  wl.push(entry(1, 10, 7));
  wl.push(entry(2, 11, 8));
  wl.push(entry(3, 12, 7));
  EXPECT_EQ(wl.count_process(7), 2u);
  const auto removed = wl.remove_process(7);
  ASSERT_EQ(removed.size(), 2u);
  EXPECT_EQ(removed[0].period, 1u);
  EXPECT_EQ(removed[1].period, 3u);
  EXPECT_EQ(wl.size(), 1u);
  EXPECT_EQ(wl.count_process(7), 0u);
}

TEST(Waitlist, RemoveAtPullsOneEntry) {
  Waitlist wl;
  wl.push(entry(1, 10, 0));
  wl.push(entry(2, 11, 0));
  wl.push(entry(3, 12, 1));
  const Waitlist::Entry pulled = wl.remove_at(1);
  EXPECT_EQ(pulled.period, 2u);
  ASSERT_EQ(wl.size(), 2u);
  EXPECT_EQ(wl.entries()[0].period, 1u);
  EXPECT_EQ(wl.entries()[1].period, 3u);
  EXPECT_THROW(wl.remove_at(2), util::CheckFailure);
}

TEST(Waitlist, CounterTracksContents) {
  Waitlist waitlist;
  util::Rng rng(7);
  std::uint64_t next_period = 1;
  std::size_t expected = 0;
  for (int round = 0; round < 200; ++round) {
    if (expected == 0 || rng.next_double() < 0.6) {
      Waitlist::Entry entry;
      entry.period = next_period++;
      entry.thread = static_cast<sim::ThreadId>(1 + rng.next_below(64));
      entry.process = static_cast<sim::ProcessId>(entry.thread);
      waitlist.push(entry);
      ++expected;
    } else {
      waitlist.remove_at(rng.next_below(expected));
      --expected;
    }
    // The Dekker flag the lock-free lane reads must equal the list's true
    // size after every mutation.
    ASSERT_EQ(waitlist.size(), expected);
    ASSERT_EQ(waitlist.entries().size(), expected);
    // The list is in strict arrival order.
    std::uint64_t prev_seq = 0;
    for (const Waitlist::Entry& e : waitlist.entries()) {
      ASSERT_GT(e.seq, prev_seq);
      prev_seq = e.seq;
    }
  }
}

TEST(Waitlist, RestoreReinsertsAtOriginalFifoPosition) {
  Waitlist waitlist;
  for (std::uint64_t p = 1; p <= 8; ++p) {
    Waitlist::Entry entry;
    entry.period = p;
    entry.thread = static_cast<sim::ThreadId>(p);
    waitlist.push(entry);
  }
  Waitlist::Entry taken = waitlist.remove_at(3);
  EXPECT_EQ(waitlist.size(), 7u);
  waitlist.restore(taken);
  ASSERT_EQ(waitlist.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(waitlist.entries()[i].period, i + 1) << "index " << i;
  }
}

bool same_entry(const Waitlist::Entry& a, const Waitlist::Entry& b) {
  return a.period == b.period && a.thread == b.thread &&
         a.process == b.process && a.enqueue_time == b.enqueue_time &&
         a.demand == b.demand && a.rounds == b.rounds && a.rung == b.rung &&
         a.last_escalation_time == b.last_escalation_time && a.seq == b.seq;
}

// Differential check of every mutation against a plain vector re-sorted by
// seq after each op: the waitlist must always equal the sorted reference,
// keep its counter equal to its contents, and keep seq strictly increasing.
TEST(Waitlist, MatchesSortedReferenceUnderRandomOps) {
  Waitlist waitlist;
  std::vector<Waitlist::Entry> ref;
  std::vector<Waitlist::Entry> removed;  // remove_at results, restorable
  std::uint64_t next_seq = 1;
  PeriodId next_period = 1;
  util::Rng rng(20181);
  const auto by_seq = [](const Waitlist::Entry& a, const Waitlist::Entry& b) {
    return a.seq < b.seq;
  };
  const auto expect_same = [](const std::vector<Waitlist::Entry>& got,
                              const std::vector<Waitlist::Entry>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_TRUE(same_entry(got[i], want[i])) << "index " << i;
    }
  };

  for (int op = 0; op < 5000; ++op) {
    const std::uint64_t roll = rng.next_below(100);
    if (ref.empty() || roll < 35) {
      Waitlist::Entry entry;
      entry.period = next_period++;
      entry.thread = static_cast<sim::ThreadId>(1 + rng.next_below(32));
      entry.process = static_cast<sim::ProcessId>(1 + rng.next_below(6));
      entry.enqueue_time = static_cast<double>(op);
      entry.demand = static_cast<double>(1 + rng.next_below(16));
      waitlist.push(entry);
      entry.seq = next_seq++;
      ref.push_back(entry);
    } else if (roll < 55) {
      const std::size_t i = rng.next_below(ref.size());
      const Waitlist::Entry got = waitlist.remove_at(i);
      ASSERT_TRUE(same_entry(got, ref[i])) << "op " << op;
      removed.push_back(ref[i]);
      ref.erase(ref.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (roll < 65) {
      if (removed.empty()) continue;
      const std::size_t i = rng.next_below(removed.size());
      waitlist.restore(removed[i]);
      ref.push_back(removed[i]);
      removed.erase(removed.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (roll < 80) {
      const double bound = static_cast<double>(1 + rng.next_below(16));
      const bool head_only = rng.next_below(2) == 0;
      const std::vector<Waitlist::Entry> got = waitlist.drain_admissible(
          [bound](const Waitlist::Entry& e) { return e.demand <= bound; },
          head_only);
      std::vector<Waitlist::Entry> want;
      std::vector<Waitlist::Entry> kept;
      bool stopped = false;
      for (const Waitlist::Entry& e : ref) {
        if (!stopped && e.demand <= bound) {
          want.push_back(e);
        } else {
          if (head_only) stopped = true;
          kept.push_back(e);
        }
      }
      expect_same(got, want);
      ref = kept;
    } else if (roll < 85) {
      const auto process = static_cast<sim::ProcessId>(1 + rng.next_below(6));
      EXPECT_EQ(waitlist.count_process(process),
                static_cast<std::size_t>(std::count_if(
                    ref.begin(), ref.end(), [process](const auto& e) {
                      return e.process == process;
                    })));
      const std::vector<Waitlist::Entry> got =
          waitlist.remove_process(process);
      std::vector<Waitlist::Entry> want;
      std::vector<Waitlist::Entry> kept;
      for (const Waitlist::Entry& e : ref) {
        (e.process == process ? want : kept).push_back(e);
      }
      expect_same(got, want);
      ref = kept;
    } else {
      // Watchdog-style bookkeeping through entry_at.
      const std::size_t i = rng.next_below(ref.size());
      Waitlist::Entry& e = waitlist.entry_at(i);
      ++e.rounds;
      e.rung = static_cast<std::uint8_t>(rng.next_below(4));
      e.last_escalation_time = static_cast<double>(op);
      ++ref[i].rounds;
      ref[i].rung = e.rung;
      ref[i].last_escalation_time = e.last_escalation_time;
    }
    std::sort(ref.begin(), ref.end(), by_seq);

    ASSERT_EQ(waitlist.size(), waitlist.entries().size()) << "op " << op;
    const std::vector<Waitlist::Entry> got(waitlist.entries().begin(),
                                           waitlist.entries().end());
    expect_same(got, ref);
    for (std::size_t i = 1; i < got.size(); ++i) {
      ASSERT_LT(got[i - 1].seq, got[i].seq) << "op " << op;
    }
  }
}

Waitlist::Entry sized(PeriodId period, double demand) {
  Waitlist::Entry e{period, static_cast<sim::ThreadId>(period),
                    static_cast<sim::ProcessId>(period), 0.0};
  e.demand = demand;
  return e;
}

TEST(WakeStrategy, FifoPicksFirstFitting) {
  Waitlist wl;
  wl.push(sized(1, 8.0));
  wl.push(sized(2, 2.0));
  wl.push(sized(3, 4.0));
  const FifoWakeStrategy fifo(/*work_conserving=*/true);
  const auto fits_small = [](const Waitlist::Entry& e) {
    return e.demand <= 4.0;
  };
  EXPECT_EQ(fifo.select(wl.entries(), fits_small), 1u);
  const auto fits_none = [](const Waitlist::Entry&) { return false; };
  EXPECT_EQ(fifo.select(wl.entries(), fits_none), WakeStrategy::npos);
}

TEST(WakeStrategy, FifoHeadOnlyBlocksBehindNonFittingHead) {
  Waitlist wl;
  wl.push(sized(1, 8.0));
  wl.push(sized(2, 2.0));
  const FifoWakeStrategy head_only(/*work_conserving=*/false);
  const auto fits_small = [](const Waitlist::Entry& e) {
    return e.demand <= 4.0;
  };
  // The head does not fit: nothing may be admitted past it.
  EXPECT_EQ(head_only.select(wl.entries(), fits_small), WakeStrategy::npos);
  const auto fits_all = [](const Waitlist::Entry&) { return true; };
  EXPECT_EQ(head_only.select(wl.entries(), fits_all), 0u);
}

TEST(WakeStrategy, BestFitPicksLargestFittingDemand) {
  Waitlist wl;
  wl.push(sized(1, 3.0));
  wl.push(sized(2, 9.0));  // does not fit
  wl.push(sized(3, 6.0));
  wl.push(sized(4, 6.0));  // tie: earlier index wins
  const BestFitWakeStrategy best_fit;
  const auto fits = [](const Waitlist::Entry& e) { return e.demand <= 6.0; };
  EXPECT_EQ(best_fit.select(wl.entries(), fits), 2u);
  EXPECT_EQ(best_fit.select({}, fits), WakeStrategy::npos);
}

TEST(WakeStrategy, FactoryMapsOrderAndConservation) {
  EXPECT_EQ(make_wake_strategy(WakeOrder::kFifo, true)->name(), "fifo");
  EXPECT_EQ(make_wake_strategy(WakeOrder::kFifo, false)->name(),
            "fifo-head-only");
  EXPECT_EQ(make_wake_strategy(WakeOrder::kBestFitDemand, true)->name(),
            make_wake_strategy(WakeOrder::kBestFitDemand, false)->name());
  EXPECT_EQ(to_string(WakeOrder::kBestFitDemand), "best-fit");
}

TEST(Waitlist, EmptyOperations) {
  Waitlist wl;
  EXPECT_TRUE(wl.empty());
  EXPECT_TRUE(wl.drain_admissible([](const auto&) { return true; }, false)
                  .empty());
  EXPECT_TRUE(wl.remove_process(1).empty());
  EXPECT_EQ(wl.count_process(1), 0u);
}

}  // namespace
}  // namespace rda::core
