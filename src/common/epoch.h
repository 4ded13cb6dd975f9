// Epoch-based reclamation for RCU-published hook tables.
//
// The weaver mutates a Method's advice tables by building a fresh table
// aside, swapping one pointer, and *retiring* the old table here. The old
// table cannot be freed immediately: the dispatch that retired it may be
// advice still walking it (withdraw from inside advice), and a reader on
// another thread may be mid-dispatch through it. It can be freed once
// every thread that might hold the pointer has passed a point where it
// provably holds none — a grace period.
//
// Quiescent-state-based flavour (QSBR): a registered thread pays nothing
// but a thread-local depth bump per woven dispatch. A worker thread
// registers a Participant and announces quiescence at points where it
// holds no table pointers. A thread that owns a Simulator is enrolled
// (see Enrollment) and announces quiescence between events, whenever
// something is pending. A retired table is reclaimed once every
// participant has announced quiescence after the retirement.
//
// Every woven dispatch holds a ReadGuard across its advice chain. On a
// participant thread the guard is a thread-local depth count: quiescence
// is never announced while the depth is non-zero (advice that pumps a
// nested event loop stays safe), and the end of the outermost guard, like
// any reap() outside a guard, is itself a quiescent point when something
// is pending. Threads that never register (raw threads in tests, tools)
// fall back to a shared guard count, and reclamation is deferred while any
// such guard is live anywhere. The un-woven fast path takes no guard and
// stays a single load + branch.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

namespace pmp {

class EpochDomain {
    struct Slot;  ///< one participant's announced epoch (epoch.cpp)

public:
    EpochDomain();
    ~EpochDomain();

    EpochDomain(const EpochDomain&) = delete;
    EpochDomain& operator=(const EpochDomain&) = delete;

    /// The process-wide domain every Method/Field retires into.
    static EpochDomain& global();

    /// One registered worker thread. Construct on the worker, call
    /// quiescent() wherever it holds no table pointer, destroy when the
    /// worker retires (destruction counts as a final quiescent state). A
    /// participant of the global domain covers its thread's ReadGuards;
    /// participants nest on one thread, innermost destroyed first
    /// (destruction restores the previous one).
    class Participant {
    public:
        explicit Participant(EpochDomain& domain = EpochDomain::global());
        ~Participant();

        Participant(const Participant&) = delete;
        Participant& operator=(const Participant&) = delete;

        /// Announce: this thread currently holds no retired-able pointer.
        /// Ignored while the thread is inside a ReadGuard of the domain it
        /// participates in.
        void quiescent();

        EpochDomain& domain() const { return domain_; }

    private:
        friend class EpochDomain;
        /// Store the current epoch into this participant's slot.
        void announce();

        EpochDomain& domain_;
        Slot* slot_;
        Participant* prev_ = nullptr;  ///< the thread's previous global participant
    };

    /// Scoped, per-thread refcounted enrolment in the global domain: while
    /// at least one Enrollment lives on a thread, that thread is a
    /// participant (the first one registers it, the last one out
    /// unregisters it). Each Simulator holds one, so the thread driving a
    /// simulation pays only the thread-local guard. Construct and destroy
    /// on the same thread. Does nothing extra on a thread that already
    /// carries a global Participant.
    class Enrollment {
    public:
        Enrollment();
        ~Enrollment();

        Enrollment(const Enrollment&) = delete;
        Enrollment& operator=(const Enrollment&) = delete;
    };

    /// Pins reclamation of the global domain across a woven dispatch.
    /// Nestable. On a participant thread: one thread-local increment and
    /// decrement, plus one relaxed load when the outermost guard ends. On
    /// an unregistered thread: a shared atomic bump on the 0 -> 1
    /// transition, and a reap when the last guard ends.
    class ReadGuard {
    public:
        ReadGuard() {
            if (tl_.depth++ == 0 && tl_.participant == nullptr) pin();
        }
        ~ReadGuard() {
            if (--tl_.depth == 0 &&
                (tl_.pinned || tl_.participant->domain().pending_.load(
                                   std::memory_order_relaxed) != 0)) {
                release();
            }
        }

        ReadGuard(const ReadGuard&) = delete;
        ReadGuard& operator=(const ReadGuard&) = delete;
    };

    /// A quiescent point of the calling thread, for event loops to call
    /// between events: if the thread is a participant of the global domain
    /// outside any ReadGuard and something is pending, announce quiescence
    /// and reap. Otherwise one thread-local load (and one relaxed load).
    static void poll() {
        Participant* p = tl_.participant;
        if (p != nullptr && tl_.depth == 0 &&
            p->domain().pending_.load(std::memory_order_relaxed) != 0) {
            p->quiescent();
        }
    }

    /// Queue `reclaim` to run once the grace period for the current epoch
    /// has elapsed. Safe from any thread, including from inside advice
    /// (a guard on the calling thread defers its own entry).
    void retire(std::function<void()> reclaim);

    /// Reclaim everything whose grace period has passed (called
    /// opportunistically from retire()/quiescent(); exposed for tests).
    /// Returns without taking the lock when nothing is pending. Called on
    /// a participant thread outside any guard, it also announces that
    /// thread's quiescence.
    void reap();

    /// Retired entries not yet reclaimed.
    std::size_t pending() const;

    /// Total entries retired / reclaimed over the domain's lifetime.
    std::uint64_t retired_total() const { return retired_total_.load(std::memory_order_relaxed); }
    std::uint64_t reclaimed_total() const {
        return reclaimed_total_.load(std::memory_order_relaxed);
    }

private:
    struct Retired {
        std::uint64_t epoch;
        std::function<void()> reclaim;
    };
    /// Per-thread state for the global domain (zero-initialized, like
    /// every thread_local).
    struct ThreadState {
        Participant* participant;  ///< global-domain participant on this thread
        int depth;                 ///< ReadGuard nesting depth
        bool pinned;               ///< holds one count in global().guards_
    };
    static inline thread_local ThreadState tl_;

    /// Slow paths of ReadGuard: take / drop this thread's shared guard
    /// count, or (participant thread) reap at the end of the dispatch.
    static void pin();
    static void release();

    Slot* register_participant();
    void unregister_participant(Slot* slot);
    /// Collect reclaimable entries under the lock; run them after.
    std::vector<Retired> collect_ripe();

    // Global epoch. A retired entry stamped E is safe once every active
    // participant's local epoch is >= E (each has quiesced after the
    // retirement) and no unregistered thread's ReadGuard is live.
    std::atomic<std::uint64_t> epoch_{1};
    std::atomic<std::int64_t> guards_{0};
    /// Mirrors retired_.size() (written under mu_), so readers can skip
    /// the lock when nothing is pending.
    std::atomic<std::size_t> pending_{0};

    mutable std::mutex mu_;
    std::vector<Slot*> slots_;  // stable addresses; reused after unregister
    std::vector<Retired> retired_;

    std::atomic<std::uint64_t> retired_total_{0};
    std::atomic<std::uint64_t> reclaimed_total_{0};
};

}  // namespace pmp
