// Unit tests for the discrete-event simulation kernel.
#include <gtest/gtest.h>

#include "obs/trace.h"
#include "sim/simulator.h"

namespace pmp::sim {
namespace {

TEST(Simulator, StartsAtZero) {
    Simulator sim;
    EXPECT_EQ(sim.now(), SimTime::zero());
    EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, EventsFireInTimeOrder) {
    Simulator sim;
    std::vector<int> order;
    sim.schedule_at(SimTime{300}, [&]() { order.push_back(3); });
    sim.schedule_at(SimTime{100}, [&]() { order.push_back(1); });
    sim.schedule_at(SimTime{200}, [&]() { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(sim.now(), SimTime{300});
}

TEST(Simulator, SameTimeIsFifo) {
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i) {
        sim.schedule_at(SimTime{50}, [&order, i]() { order.push_back(i); });
    }
    sim.run();
    for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, ScheduleAfterUsesNow) {
    Simulator sim;
    SimTime observed;
    sim.schedule_at(SimTime{1000}, [&]() {
        sim.schedule_after(Duration{500}, [&]() { observed = sim.now(); });
    });
    sim.run();
    EXPECT_EQ(observed, SimTime{1500});
}

TEST(Simulator, PastSchedulingClampsToNow) {
    Simulator sim;
    sim.schedule_at(SimTime{100}, []() {});
    sim.run();
    bool fired = false;
    sim.schedule_at(SimTime{50}, [&]() {
        fired = true;
        EXPECT_EQ(sim.now(), SimTime{100});
    });
    sim.run();
    EXPECT_TRUE(fired);
}

TEST(Simulator, CancelPreventsExecution) {
    Simulator sim;
    bool fired = false;
    TimerId id = sim.schedule_after(Duration{10}, [&]() { fired = true; });
    EXPECT_TRUE(sim.cancel(id));
    sim.run();
    EXPECT_FALSE(fired);
}

TEST(Simulator, CancelUnknownIsNoop) {
    Simulator sim;
    EXPECT_FALSE(sim.cancel(TimerId{}));
    EXPECT_FALSE(sim.cancel(TimerId{9999}));
}

TEST(Simulator, DoubleCancelSecondReturnsFalse) {
    Simulator sim;
    TimerId id = sim.schedule_after(Duration{10}, []() {});
    EXPECT_TRUE(sim.cancel(id));
    EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulator, StepRunsExactlyOne) {
    Simulator sim;
    int fired = 0;
    sim.schedule_after(Duration{1}, [&]() { ++fired; });
    sim.schedule_after(Duration{2}, [&]() { ++fired; });
    EXPECT_TRUE(sim.step());
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(sim.step());
    EXPECT_FALSE(sim.step());
    EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunLimitStops) {
    Simulator sim;
    int fired = 0;
    for (int i = 0; i < 5; ++i) sim.schedule_after(Duration{i + 1}, [&]() { ++fired; });
    EXPECT_EQ(sim.run(3), 3u);
    EXPECT_EQ(fired, 3);
}

TEST(Simulator, RunUntilAdvancesClockEvenWhenIdle) {
    Simulator sim;
    sim.run_until(SimTime{5000});
    EXPECT_EQ(sim.now(), SimTime{5000});
}

TEST(Simulator, RunUntilDoesNotRunLaterEvents) {
    Simulator sim;
    bool early = false, late = false;
    sim.schedule_at(SimTime{100}, [&]() { early = true; });
    sim.schedule_at(SimTime{201}, [&]() { late = true; });
    sim.run_until(SimTime{200});
    EXPECT_TRUE(early);
    EXPECT_FALSE(late);
    EXPECT_EQ(sim.now(), SimTime{200});
    sim.run();
    EXPECT_TRUE(late);
}

TEST(Simulator, RunForIsRelative) {
    Simulator sim;
    sim.run_until(SimTime{1000});
    sim.run_for(Duration{500});
    EXPECT_EQ(sim.now(), SimTime{1500});
}

TEST(Simulator, ScheduleEveryRepeats) {
    Simulator sim;
    int fired = 0;
    TimerId id = sim.schedule_every(Duration{100}, [&]() { ++fired; });
    sim.run_until(SimTime{1000});
    EXPECT_EQ(fired, 10);
    sim.cancel(id);
    sim.run_until(SimTime{2000});
    EXPECT_EQ(fired, 10);
}

TEST(Simulator, ScheduleEveryCanCancelItself) {
    Simulator sim;
    int fired = 0;
    TimerId id;
    id = sim.schedule_every(Duration{10}, [&]() {
        if (++fired == 3) sim.cancel(id);
    });
    sim.run_until(SimTime{1000});
    EXPECT_EQ(fired, 3);
}

TEST(Simulator, NestedSchedulingWithinEvent) {
    Simulator sim;
    std::vector<SimTime> at;
    sim.schedule_at(SimTime{10}, [&]() {
        at.push_back(sim.now());
        sim.schedule_after(Duration{5}, [&]() { at.push_back(sim.now()); });
    });
    sim.run();
    ASSERT_EQ(at.size(), 2u);
    EXPECT_EQ(at[0], SimTime{10});
    EXPECT_EQ(at[1], SimTime{15});
}


// ------------------------------------------------------- edge semantics ----
// These pin down the kernel's corners: cancellation from inside a firing
// callback, the strict horizon edge of run_window, rearm ordering for
// repeating timers, tombstone compaction, and the scoped trace-clock
// binding.

TEST(Simulator, CancelOtherTimerFromInsideFiringCallback) {
    Simulator sim;
    int fired = 0;
    TimerId victim = sim.schedule_at(SimTime{20}, [&]() { ++fired; });
    sim.schedule_at(SimTime{10}, [&]() {
        EXPECT_TRUE(sim.cancel(victim));
        // A second cancel of the same id from the same callback is a no-op.
        EXPECT_FALSE(sim.cancel(victim));
    });
    sim.run();
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, CancelSelfFromInsideFiringCallbackIsNoop) {
    // Once an event is firing it has already left the queue; cancelling
    // its own id must return false and must not poison a later event that
    // could reuse queue position.
    Simulator sim;
    TimerId self;
    int after = 0;
    self = sim.schedule_at(SimTime{5}, [&]() { EXPECT_FALSE(sim.cancel(self)); });
    sim.schedule_at(SimTime{6}, [&]() { ++after; });
    sim.run();
    EXPECT_EQ(after, 1);
}

TEST(Simulator, ScheduleAtNowDuringWindowRunsInSameWindow) {
    // An event that schedules a follow-up at the *current* instant must see
    // it fire inside the same window: now < horizon still holds.
    Simulator sim;
    std::vector<int> order;
    sim.schedule_at(SimTime{10}, [&]() {
        order.push_back(1);
        sim.schedule_at(sim.now(), [&]() { order.push_back(2); });
    });
    std::size_t ran = sim.run_window(SimTime{11});
    EXPECT_EQ(ran, 2u);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulator, RunWindowHorizonIsExclusive) {
    // Events exactly at the horizon belong to the *next* window — this
    // strictness is what makes the conservative barrier safe.
    Simulator sim;
    int at_horizon = 0;
    int before = 0;
    sim.schedule_at(SimTime{9}, [&]() { ++before; });
    sim.schedule_at(SimTime{10}, [&]() { ++at_horizon; });
    EXPECT_EQ(sim.run_window(SimTime{10}), 1u);
    EXPECT_EQ(before, 1);
    EXPECT_EQ(at_horizon, 0);
    EXPECT_EQ(sim.next_event_time(), SimTime{10});
    // The barrier commits the clock, then the next window picks it up.
    sim.advance_to(SimTime{10});
    EXPECT_EQ(sim.run_window(SimTime{11}), 1u);
    EXPECT_EQ(at_horizon, 1);
}

TEST(Simulator, AdvanceToNeverMovesBackwards) {
    Simulator sim;
    sim.advance_to(SimTime{100});
    EXPECT_EQ(sim.now(), SimTime{100});
    sim.advance_to(SimTime{50});
    EXPECT_EQ(sim.now(), SimTime{100});
}

TEST(Simulator, NextEventTimeSkipsTombstones) {
    Simulator sim;
    TimerId first = sim.schedule_at(SimTime{10}, []() {});
    sim.schedule_at(SimTime{20}, []() {});
    sim.cancel(first);
    EXPECT_EQ(sim.next_event_time(), SimTime{20});
    EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, NextEventTimeEmptyIsMax) {
    Simulator sim;
    EXPECT_EQ(sim.next_event_time(), SimTime::max());
}

TEST(Simulator, RearmCompetesFairlyWithSameInstantOneShots) {
    // A repeating timer that re-arms to t+period gets a *fresh* sequence
    // number at rearm time, so one-shots scheduled earlier for the same
    // instant fire first (FIFO by scheduling order, not by timer age).
    Simulator sim;
    std::vector<std::string> order;
    sim.schedule_every(Duration{10}, [&]() { order.push_back("every"); });
    sim.schedule_at(SimTime{20}, [&]() { order.push_back("shot"); });
    sim.run_until(SimTime{20});
    // t=10: every. t=20: the one-shot was scheduled before the rearm
    // (which happened while firing at t=10), so it wins the tie.
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], "every");
    EXPECT_EQ(order[1], "shot");
    EXPECT_EQ(order[2], "every");
}

TEST(Simulator, RearmRunsAfterOneShotScheduledFromItsOwnCallback) {
    // The rearm event is pushed *after* the user callback returns, so a
    // one-shot the callback schedules for the same future instant takes an
    // earlier sequence number and wins the tie.
    Simulator sim;
    std::vector<std::string> order;
    sim.schedule_every(Duration{10}, [&]() {
        if (order.empty()) {
            // Runs at t=10, after the rearm for t=20 was pushed.
            sim.schedule_at(SimTime{20}, [&]() { order.push_back("late-shot"); });
        }
        order.push_back("every");
    });
    EXPECT_EQ(order.size(), 0u);
    sim.run_until(SimTime{20});
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[1], "late-shot");
    EXPECT_EQ(order[2], "every");
}

TEST(Simulator, CompactionFiresWhenTombstonesDominate) {
    Simulator sim;
    std::vector<TimerId> ids;
    for (int i = 0; i < 100; ++i) {
        ids.push_back(sim.schedule_at(SimTime{100 + i}, []() {}));
    }
    EXPECT_EQ(sim.compactions(), 0u);
    // Cancel from the back so early cancels stay under the threshold.
    for (int i = 99; i >= 30; --i) sim.cancel(ids[static_cast<std::size_t>(i)]);
    EXPECT_GT(sim.compactions(), 0u);
    EXPECT_EQ(sim.pending(), 30u);
    // Order of survivors is unchanged by compaction.
    std::vector<SimTime> fired_at;
    std::size_t executed = 0;
    while (sim.next_event_time() < SimTime::max() && executed < 30) {
        SimTime t = sim.next_event_time();
        sim.step();
        fired_at.push_back(t);
        ++executed;
    }
    for (std::size_t i = 1; i < fired_at.size(); ++i) {
        EXPECT_LE(fired_at[i - 1], fired_at[i]);
    }
    EXPECT_EQ(fired_at.size(), 30u);
    // Survivors are the first 30 scheduled, at 100..129.
    EXPECT_EQ(fired_at.front(), SimTime{100});
    EXPECT_EQ(fired_at.back(), SimTime{129});
}

TEST(Simulator, CompactionPreservesFifoWithinSameInstant) {
    Simulator sim;
    std::vector<int> order;
    std::vector<TimerId> doomed;
    sim.schedule_at(SimTime{10}, [&]() { order.push_back(1); });
    for (int i = 0; i < 8; ++i) {
        doomed.push_back(sim.schedule_at(SimTime{10}, [&, i]() { order.push_back(100 + i); }));
    }
    sim.schedule_at(SimTime{10}, [&]() { order.push_back(2); });
    sim.schedule_at(SimTime{10}, [&]() { order.push_back(3); });
    for (TimerId id : doomed) sim.cancel(id);
    EXPECT_GT(sim.compactions(), 0u);
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// Timer ids name a slot and its generation; slots are reused. A stale id
// (fired or cancelled) must never reach the slot's next timer.
TEST(Simulator, StaleIdDoesNotCancelTimerThatReusedItsSlot) {
    Simulator sim;
    int fired = 0;
    TimerId done = sim.schedule_at(SimTime{10}, [&]() { ++fired; });
    sim.run();
    TimerId reuse = sim.schedule_at(SimTime{20}, [&]() { fired += 10; });
    EXPECT_NE(done, reuse);
    EXPECT_FALSE(sim.cancel(done));
    EXPECT_EQ(sim.pending(), 1u);

    TimerId gone = sim.schedule_at(SimTime{30}, [&]() { fired += 100; });
    EXPECT_TRUE(sim.cancel(gone));
    TimerId next = sim.schedule_at(SimTime{40}, [&]() { fired += 1000; });
    EXPECT_FALSE(sim.cancel(gone));
    EXPECT_EQ(sim.pending(), 2u);
    sim.run();
    EXPECT_EQ(fired, 1011);
    EXPECT_FALSE(sim.cancel(reuse));
    EXPECT_FALSE(sim.cancel(next));
}

TEST(Simulator, RepeatingTimerCancelledInOwnCallbackDuringCompaction) {
    // The repeating timer's event has left the queue while its callback
    // runs, so its self-cancel leaves no tombstone; the cancels after it
    // then trip a compaction inside the same callback.
    Simulator sim;
    int shots = 0;
    int every_fired = 0;
    std::vector<TimerId> doomed;
    for (int i = 0; i < 10; ++i) {
        TimerId id = sim.schedule_at(SimTime{1000 + i}, [&]() { ++shots; });
        if (i % 2) doomed.push_back(id);
    }
    TimerId every;
    every = sim.schedule_every(Duration{10}, [&]() {
        ++every_fired;
        EXPECT_EQ(sim.pending(), 10u);
        EXPECT_TRUE(sim.cancel(every));
        EXPECT_EQ(sim.pending(), 10u);
        for (TimerId id : doomed) EXPECT_TRUE(sim.cancel(id));
        EXPECT_GT(sim.compactions(), 0u);
        EXPECT_EQ(sim.pending(), 5u);
        EXPECT_FALSE(sim.cancel(every));
    });
    sim.run_until(SimTime{500});
    EXPECT_EQ(every_fired, 1);
    EXPECT_EQ(sim.pending(), 5u);
    sim.run();
    EXPECT_EQ(shots, 5);
    EXPECT_EQ(every_fired, 1);
    EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, ScopedTraceClockBindingRestoresOuter) {
    // Nested simulators on the same buffer: destroying the inner one must
    // restore the outer clock, and destroying them out of order must not
    // drop a live registration.
    auto& tb = obs::TraceBuffer::global();
    auto outer = std::make_unique<Simulator>();
    outer->advance_to(SimTime{111});
    EXPECT_EQ(tb.now(), SimTime{111});
    {
        Simulator inner;
        inner.advance_to(SimTime{222});
        EXPECT_EQ(tb.now(), SimTime{222});
    }
    // Inner gone: the outer simulator is the live clock again.
    EXPECT_EQ(tb.now(), SimTime{111});
    outer.reset();
    EXPECT_EQ(tb.now(), SimTime::zero());
}

TEST(Simulator, TraceClockBindsToRedirectedBuffer) {
    // A simulator constructed under a Redirect binds the redirected
    // buffer; the root buffer's clock stack is untouched.
    auto& root = obs::TraceBuffer::global();
    obs::TraceBuffer shard_buf(64);
    auto sim = std::make_unique<Simulator>();
    sim->advance_to(SimTime{5});
    {
        obs::TraceBuffer::Redirect r(shard_buf);
        Simulator inner;
        inner.advance_to(SimTime{77});
        EXPECT_EQ(shard_buf.now(), SimTime{77});
        EXPECT_EQ(root.now(), SimTime{5});  // via the redirect-free handle
    }
    EXPECT_EQ(shard_buf.now(), SimTime::zero());
    EXPECT_EQ(root.now(), SimTime{5});
}

}  // namespace
}  // namespace pmp::sim
