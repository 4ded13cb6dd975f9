// Tests for the epoch/RCU hook-table publication path:
//   - EpochDomain grace periods (participants, read guards, reclamation)
//   - concurrent advice dispatch vs. weave/withdraw on live threads
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/epoch.h"
#include "core/weaver.h"
#include "obs/trace.h"
#include "rt/runtime.h"
#include "sim/simulator.h"

namespace pmp {
namespace {

// ----------------------------------------------------------- EpochDomain ----

TEST(EpochDomain, ReclaimsOnceParticipantsQuiesce) {
    EpochDomain domain;
    std::atomic<bool> freed{false};

    std::atomic<int> phase{0};
    std::thread worker([&]() {
        EpochDomain::Participant p(domain);
        phase.store(1);
        while (phase.load() != 2) std::this_thread::yield();
        p.quiescent();
        phase.store(3);
        while (phase.load() != 4) std::this_thread::yield();
    });
    while (phase.load() != 1) std::this_thread::yield();

    domain.retire([&]() { freed.store(true); });
    // The worker registered before the retirement and has not quiesced
    // since: the entry must be deferred.
    domain.reap();
    EXPECT_FALSE(freed.load());
    EXPECT_EQ(domain.pending(), 1u);

    phase.store(2);
    while (phase.load() != 3) std::this_thread::yield();
    domain.reap();
    EXPECT_TRUE(freed.load());
    EXPECT_EQ(domain.pending(), 0u);
    phase.store(4);
    worker.join();
}

TEST(EpochDomain, ParticipantDestructionCountsAsQuiescence) {
    EpochDomain domain;
    bool freed = false;
    std::thread worker([&]() {
        EpochDomain::Participant p(domain);
        domain.retire([&]() { freed = true; });
        // No quiescent() call: destruction must release the entry.
    });
    worker.join();
    domain.reap();
    EXPECT_TRUE(freed);
}

TEST(EpochDomain, ReadGuardPinsReclamation) {
    // Guards from unregistered threads (this one) defer everything,
    // including entries retired by the guarded thread itself — the
    // withdraw-from-inside-advice shape.
    auto& domain = EpochDomain::global();
    bool freed = false;
    {
        EpochDomain::ReadGuard guard;
        domain.retire([&]() { freed = true; });
        domain.reap();
        EXPECT_FALSE(freed);
    }
    domain.reap();
    EXPECT_TRUE(freed);
}

TEST(EpochDomain, NestedGuardsReleaseOnce) {
    auto& domain = EpochDomain::global();
    bool freed = false;
    {
        EpochDomain::ReadGuard outer;
        {
            EpochDomain::ReadGuard inner;
            domain.retire([&]() { freed = true; });
        }
        domain.reap();
        EXPECT_FALSE(freed);  // outer guard still live
    }
    domain.reap();
    EXPECT_TRUE(freed);
}

TEST(EpochDomain, CountersTrackRetirements) {
    EpochDomain domain;
    std::uint64_t before = domain.retired_total();
    domain.retire([]() {});
    domain.retire([]() {});
    EXPECT_EQ(domain.retired_total(), before + 2);
    domain.reap();
    EXPECT_EQ(domain.reclaimed_total(), domain.retired_total());
}

TEST(EpochDomain, EnrolledThreadReclaimsAtTheEndOfTheOutermostGuard) {
    // A simulator's thread is enrolled: its guards are thread-local, and a
    // retirement from inside one (withdraw-from-inside-advice) is held
    // until the outermost guard ends, then reclaimed without a reap call.
    auto& domain = EpochDomain::global();
    EpochDomain::Enrollment enrolled;
    bool freed = false;
    {
        EpochDomain::ReadGuard outer;
        {
            EpochDomain::ReadGuard inner;
            domain.retire([&]() { freed = true; });
        }
        // Neither an explicit reap nor a poll inside the guard counts as
        // this thread's quiescence.
        domain.reap();
        EpochDomain::poll();
        EXPECT_FALSE(freed);
    }
    EXPECT_TRUE(freed);
    EXPECT_EQ(domain.pending(), 0u);
}

TEST(EpochDomain, EnrolledThreadOutsideAGuardReclaimsOnRetire) {
    auto& domain = EpochDomain::global();
    EpochDomain::Enrollment enrolled;
    bool freed = false;
    domain.retire([&]() { freed = true; });
    EXPECT_TRUE(freed);
}

TEST(EpochDomain, IdleEnrolledThreadHoldsOtherThreadsRetirementsUntilItPolls) {
    // QSBR across threads: this (enrolled) thread registered before the
    // retirement and has not passed a quiescent point since, so another
    // thread's retirement waits for it.
    auto& domain = EpochDomain::global();
    EpochDomain::Enrollment enrolled;
    std::atomic<bool> freed{false};
    std::thread retirer([&]() { domain.retire([&]() { freed.store(true); }); });
    retirer.join();
    EXPECT_FALSE(freed.load());
    EpochDomain::poll();  // what the simulator does between events
    EXPECT_TRUE(freed.load());
}

TEST(EpochDomain, LeavingTheDomainMidDispatchKeepsTheTablePinned) {
    // A simulator destroyed from inside advice: the enclosing guard must
    // keep protecting what the dispatch is walking.
    auto& domain = EpochDomain::global();
    auto enrolled = std::make_unique<EpochDomain::Enrollment>();
    bool freed = false;
    {
        EpochDomain::ReadGuard guard;
        enrolled.reset();
        domain.retire([&]() { freed = true; });
        domain.reap();
        EXPECT_FALSE(freed);
    }
    EXPECT_TRUE(freed);
}

TEST(EpochDomain, SimulatorQuiescesBetweenEvents) {
    // Another thread's retirement waits for the simulator's thread; an
    // event then retires from inside a dispatch guard. Both are reclaimed
    // by the time the event is over.
    auto& domain = EpochDomain::global();
    sim::Simulator sim;
    std::atomic<int> freed{0};
    std::thread retirer([&]() { domain.retire([&]() { freed.fetch_add(1); }); });
    retirer.join();
    EXPECT_EQ(freed.load(), 0);
    sim.schedule_after(Duration{1}, [&]() {
        EpochDomain::ReadGuard guard;  // as a woven dispatch would
        domain.retire([&]() { freed.fetch_add(1); });
    });
    sim.run();
    EXPECT_EQ(freed.load(), 2);
    EXPECT_EQ(domain.pending(), 0u);
}

// ------------------------------------------------- RCU hook publication ----

std::shared_ptr<rt::TypeInfo> calc_type() {
    return rt::TypeInfo::Builder("Calc")
        .method("add", rt::TypeKind::kInt, {{"x", rt::TypeKind::kInt}},
                [](rt::ServiceObject&, rt::List& args) -> rt::Value {
                    return rt::Value{args[0].as_int() + 1};
                })
        .build();
}

TEST(RcuDispatch, ConcurrentReadersSurviveHookChurn) {
    // Raw reader threads hammer dispatch while this thread publishes and
    // retires hook tables as fast as it can. Failure mode without the
    // epoch scheme: use-after-free of a superseded table mid-chain.
    rt::Runtime runtime("rcu-node");
    runtime.register_type(calc_type());
    auto obj = runtime.create("Calc", "calc:1");
    rt::Method* add = obj->type().method("add");

    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> calls{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 4; ++t) {
        readers.emplace_back([&]() {
            // One trace buffer per thread (trace.h: a buffer is confined
            // to one thread at a time).
            obs::TraceBuffer local(256);
            obs::TraceBuffer::Redirect redirect(local);
            while (!stop.load(std::memory_order_relaxed)) {
                rt::Value v = obj->call("add", {rt::Value{std::int64_t{41}}});
                // The body's result is stable whatever advice is woven.
                ASSERT_EQ(v.as_int(), 42);
                calls.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }

    // Don't start churning until every reader is demonstrably in its loop,
    // or the whole mutation phase can finish before the first dispatch.
    while (calls.load(std::memory_order_relaxed) < 16) std::this_thread::yield();

    std::atomic<std::uint64_t> advised{0};
    for (int round = 0; round < 400; ++round) {
        add->add_entry_hook(/*owner=*/7, /*priority=*/0,
                            [&](rt::CallFrame&) { advised.fetch_add(1); });
        add->add_exit_hook(/*owner=*/7, /*priority=*/0, [&](rt::CallFrame&) {});
        add->remove_hooks(7);
    }
    stop.store(true);
    for (auto& t : readers) t.join();
    EXPECT_GT(calls.load(), 0u);
    EXPECT_FALSE(add->woven());
    EpochDomain::global().reap();
    EXPECT_EQ(EpochDomain::global().pending(), 0u);
}

TEST(RcuDispatch, ConcurrentReadersSurviveWeaveWithdraw) {
    // Same shape one layer up: the Weaver publishes via the same RCU path
    // and retires each Woven through the domain; reader threads must never
    // observe a dangling Woven from a withdrawn aspect.
    rt::Runtime runtime("rcu-weave-node");
    runtime.register_type(calc_type());
    auto obj = runtime.create("Calc", "calc:2");
    prose::Weaver weaver(runtime);

    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> calls{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 2; ++t) {
        readers.emplace_back([&]() {
            obs::TraceBuffer local(256);
            obs::TraceBuffer::Redirect redirect(local);
            while (!stop.load(std::memory_order_relaxed)) {
                ASSERT_EQ(obj->call("add", {rt::Value{std::int64_t{1}}}).as_int(), 2);
                calls.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    while (calls.load(std::memory_order_relaxed) < 8) std::this_thread::yield();
    for (int round = 0; round < 200; ++round) {
        auto aspect = std::make_shared<prose::Aspect>("churn");
        aspect->before("call(* Calc.add(..))", [](rt::CallFrame&) {});
        AspectId id = weaver.weave(aspect);
        weaver.withdraw(id);
    }
    stop.store(true);
    for (auto& t : readers) t.join();
    EXPECT_GT(calls.load(), 0u);
}

}  // namespace
}  // namespace pmp
