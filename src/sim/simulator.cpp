#include "sim/simulator.h"

#include <memory>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace pmp::sim {

Simulator::Simulator() {
    // Bind to the thread's current buffer, not root(): a simulator
    // constructed under a TraceBuffer::Redirect clocks the redirected buffer.
    trace_buffer_ = &obs::TraceBuffer::global();
    trace_clock_token_ = trace_buffer_->set_clock([this]() { return now_; });
}

Simulator::~Simulator() { trace_buffer_->clear_clock(trace_clock_token_); }

TimerId Simulator::schedule_at(SimTime when, Callback fn) {
    if (when < now_) when = now_;
    std::uint64_t id = ++next_id_;
    live_.insert(id);
    queue_.push(Event{when, ++next_seq_, id, /*repeating=*/false, std::move(fn)});
    return TimerId{id};
}

TimerId Simulator::schedule_after(Duration delay, Callback fn) {
    return schedule_at(now_ + delay, std::move(fn));
}

TimerId Simulator::schedule_every(Duration period, Callback fn) {
    // The repeating timer keeps one pending event at a time. The shared id
    // is stable across re-arms so a single cancel() stops the cycle: the
    // cancelled_ tombstone suppresses the in-flight event, which is the
    // only thing that would re-arm.
    std::uint64_t id = ++next_id_;
    live_.insert(id);
    auto shared_fn = std::make_shared<Callback>(std::move(fn));
    auto rearm = std::make_shared<std::function<void()>>();
    // The rearm body refers to itself only weakly; the strong reference
    // lives in the queued event. Once the final event is consumed (fired
    // or tombstoned away) everything is freed — capturing `rearm` strongly
    // here would form a shared_ptr cycle and leak the closure.
    *rearm = [this, id, period, shared_fn,
              weak = std::weak_ptr<std::function<void()>>(rearm)]() {
        (*shared_fn)();
        if (live_.contains(id)) {
            auto self = weak.lock();  // held alive by the event invoking us
            queue_.push(Event{now_ + period, ++next_seq_, id, /*repeating=*/true,
                              [self]() { (*self)(); }});
        } else {
            // Cancelled from inside fn: no event will carry the tombstone
            // out of the queue, so clear it here.
            cancelled_.erase(id);
        }
    };
    queue_.push(Event{now_ + period, ++next_seq_, id, /*repeating=*/true,
                      [rearm]() { (*rearm)(); }});
    return TimerId{id};
}

bool Simulator::cancel(TimerId id) {
    if (!id.valid() || !live_.erase(id.value)) return false;
    cancelled_.insert(id.value);
    maybe_compact();
    return true;
}

void Simulator::maybe_compact() {
    // Rebuild the queue once tombstones exceed half the live set: a
    // workload that arms and cancels many timers (lease renewals across
    // handoffs) would otherwise drag a heap full of dead entries through
    // every push/pop. Each rebuild removes at least a third of the queue,
    // so the cost is amortized against the cancels that forced it.
    if (cancelled_.size() * 2 <= pending()) return;
    std::vector<Event> keep;
    keep.reserve(queue_.size() - cancelled_.size());
    while (!queue_.empty()) {
        Event ev = std::move(const_cast<Event&>(queue_.top()));
        queue_.pop();
        if (!cancelled_.contains(ev.id)) keep.push_back(std::move(ev));
    }
    cancelled_.clear();
    for (auto& ev : keep) queue_.push(std::move(ev));
    ++compactions_;
    obs::Registry::global().counter("sim.compactions").inc();
}

bool Simulator::fire_next() {
    while (!queue_.empty()) {
        Event ev = queue_.top();
        queue_.pop();
        if (auto it = cancelled_.find(ev.id); it != cancelled_.end()) {
            cancelled_.erase(it);
            continue;
        }
        if (!ev.repeating) live_.erase(ev.id);
        now_ = ev.when;
        ev.fn();
        EpochDomain::poll();
        return true;
    }
    return false;
}

bool Simulator::step() { return fire_next(); }

std::size_t Simulator::run(std::size_t limit) {
    std::size_t executed = 0;
    while (executed < limit && fire_next()) ++executed;
    return executed;
}

void Simulator::run_until(SimTime deadline) {
    // next_event_time() skips tombstones, so a cancelled entry at the top
    // of the heap can never trick the loop into firing a live event that
    // lies beyond the deadline.
    while (next_event_time() <= deadline) {
        fire_next();
    }
    if (now_ < deadline) now_ = deadline;
}

void Simulator::run_for(Duration d) { run_until(now_ + d); }

SimTime Simulator::next_event_time() {
    while (!queue_.empty()) {
        const Event& top = queue_.top();
        if (auto it = cancelled_.find(top.id); it != cancelled_.end()) {
            cancelled_.erase(it);
            queue_.pop();
            continue;
        }
        return top.when;
    }
    return SimTime::max();
}

std::size_t Simulator::run_window(SimTime horizon) {
    // Strictly-before: an event at exactly `horizon` belongs to the next
    // window, so all events at one instant run in the same window.
    std::size_t executed = 0;
    while (next_event_time() < horizon) {
        if (fire_next()) ++executed;
    }
    return executed;
}

void Simulator::advance_to(SimTime t) {
    if (now_ < t) now_ = t;
}

}  // namespace pmp::sim
