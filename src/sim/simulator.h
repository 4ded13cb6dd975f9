// Discrete-event simulation kernel.
//
// Every dynamic behaviour in the platform — radio propagation, lease
// renewal timers, mobility, asynchronous extension uploads — is an event on
// this single virtual timeline. Events scheduled for the same instant fire
// in scheduling order (FIFO), which makes whole-system runs deterministic
// for a fixed seed.
//
// A Simulator is single-threaded by design: one thread owns it and runs
// every event. Besides run()/run_until(), a caller can step it through
// bounded time windows with run_window()/advance_to() and count the events
// each window executed.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/epoch.h"
#include "common/time.h"

namespace pmp::obs {
class TraceBuffer;
}

namespace pmp::sim {

/// Handle to a scheduled event, usable to cancel it before it fires.
///
/// Opaque: it packs the event's timer slot and that slot's generation.
/// An id goes stale once its timer fires (one-shot) or is cancelled;
/// the slot may then carry a new timer, but under a new generation, so
/// cancelling a stale id never touches its successor.
struct TimerId {
    std::uint64_t value = 0;
    bool valid() const { return value != 0; }
    auto operator<=>(const TimerId&) const = default;
};

/// The event loop. Single-threaded by design (Core Guidelines CP: shared
/// mutable state is avoided by having exactly one logical thread of control;
/// benchmarks that need wall-clock parallelism run separate simulators).
class Simulator {
public:
    using Callback = std::function<void()>;

    /// Binds this simulator as a trace clock on the TraceBuffer that is
    /// current *on the constructing thread* (the thread's redirect target,
    /// else the root buffer) and remembers that buffer, so the destructor
    /// unbinds from the same one even if the thread's redirect has since
    /// changed. Clocks stack per buffer: nesting a scratch simulator inside
    /// a live one restores the outer clock on destruction instead of
    /// leaving the buffer clockless ("most recently constructed wins" is
    /// gone — binding is scoped to this object's lifetime).
    ///
    /// The constructing thread is also enrolled in the global EpochDomain
    /// for the simulator's lifetime, and every event is followed by an
    /// epoch quiescent point (EpochDomain::poll): woven dispatch on this
    /// thread then pins hook tables with a thread-local guard only.
    /// Construct and destroy a Simulator on the same thread.
    Simulator();
    ~Simulator();
    Simulator(const Simulator&) = delete;
    Simulator& operator=(const Simulator&) = delete;

    /// Current virtual time.
    SimTime now() const { return now_; }

    /// Schedule `fn` to run at absolute time `when` (>= now, else it runs at
    /// the current instant, never in the past).
    TimerId schedule_at(SimTime when, Callback fn);

    /// Schedule `fn` to run `delay` after now.
    TimerId schedule_after(Duration delay, Callback fn);

    /// Schedule `fn` every `period`, first firing after one period.
    /// Cancelling the returned id stops the repetition.
    TimerId schedule_every(Duration period, Callback fn);

    /// Cancel a pending event: O(1) plus, now and then, an amortised
    /// tombstone sweep. Cancelling a stale (fired, cancelled) or unknown
    /// id is a no-op. Returns true if something was actually cancelled.
    /// The callback is destroyed before cancel() returns, or, for a
    /// repeating timer cancelled from its own callback, when that returns.
    bool cancel(TimerId id);

    /// Run the single next event. Returns false if the queue is empty.
    bool step();

    /// Run events until the queue is empty or `limit` events have fired.
    /// Returns the number of events executed.
    std::size_t run(std::size_t limit = SIZE_MAX);

    /// Run all events with time <= deadline; afterwards now() == deadline
    /// (even if the queue went empty earlier).
    void run_until(SimTime deadline);

    /// Convenience: run_until(now() + d).
    void run_for(Duration d);

    /// Time of the earliest live (non-cancelled) pending event, or
    /// SimTime::max() when the queue is empty. Pops tombstones encountered
    /// at the top, so amortized cost stays with the cancels that created
    /// them.
    SimTime next_event_time();

    /// Run every event with `when` strictly before `horizon`, leaving
    /// events at exactly `horizon` queued for the next window. Does NOT
    /// advance now() past the last fired event — the caller advances the
    /// clock explicitly (advance_to) when the window closes, which keeps
    /// "events < horizon fired, now() <= horizon" an invariant. Returns the
    /// number of events executed.
    std::size_t run_window(SimTime horizon);

    /// Move the clock forward to `t` without running anything (no-op if
    /// now() >= t already). Closes a run_window() at the window's edge.
    void advance_to(SimTime t);

    /// Number of events currently pending.
    std::size_t pending() const { return queue_.size() - tombstones_; }

    /// Times the tombstone sweep has rebuilt the queue (metric
    /// `sim.compactions` counts the same thing process-wide).
    std::uint64_t compactions() const { return compactions_; }

private:
    /// One timer. The slot outlives the timer: when the timer ends the
    /// slot goes on the free list, and reuse bumps `gen`, which makes
    /// every id and queued event of the old timer stale (until `gen`
    /// wraps, after 2^32 timers in one slot).
    struct Slot {
        Callback fn;  // moved out while it runs
        Duration period{0};
        std::uint32_t gen = 0;
        bool live = false;       // a timer holds the slot
        bool repeating = false;
        bool queued = false;     // the live timer's next event is in queue_
    };
    /// Heap entry; stale once its slot no longer holds the generation.
    struct Event {
        SimTime when;
        std::uint64_t seq;  // tie-breaker: FIFO among same-time events
        std::uint32_t slot;
        std::uint32_t gen;
    };
    struct Later {
        bool operator()(const Event& a, const Event& b) const {
            if (a.when != b.when) return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    TimerId arm(SimTime when, Callback fn, bool repeating, Duration period);
    void push(std::uint32_t slot, SimTime when);
    Event pop();
    bool stale(const Event& ev) const;
    /// The live slot `id` names, or nullptr if the id is stale or unknown.
    Slot* live_slot(TimerId id);
    void release(std::uint32_t slot);
    bool fire_next();
    void maybe_compact();

    EpochDomain::Enrollment epoch_enrollment_;
    SimTime now_ = SimTime::zero();
    std::uint64_t next_seq_ = 0;
    std::vector<Event> queue_;  // binary heap under Later
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> free_slots_;
    std::size_t tombstones_ = 0;  // stale events still in queue_
    std::uint64_t compactions_ = 0;
    obs::TraceBuffer* trace_buffer_ = nullptr;  // buffer the clock is bound to
    std::uint64_t trace_clock_token_ = 0;       // obs trace-clock registration
};

}  // namespace pmp::sim
