#include "sim/simulator.h"

#include <algorithm>
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
    return arm(when, std::move(fn), /*repeating=*/false, Duration{0});
}

TimerId Simulator::schedule_after(Duration delay, Callback fn) {
    return schedule_at(now_ + delay, std::move(fn));
}

TimerId Simulator::schedule_every(Duration period, Callback fn) {
    // The repeating timer keeps one pending event at a time and one id
    // for its whole life: fire_next() re-arms it after each run unless
    // the run (or anything before it) cancelled the id.
    return arm(now_ + period, std::move(fn), /*repeating=*/true, period);
}

TimerId Simulator::arm(SimTime when, Callback fn, bool repeating, Duration period) {
    if (when < now_) when = now_;
    std::uint32_t index;
    if (free_slots_.empty()) {
        index = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    } else {
        index = free_slots_.back();
        free_slots_.pop_back();
    }
    Slot& slot = slots_[index];
    // Generation 0 is never issued, so TimerId{} (value 0) stays invalid.
    if (++slot.gen == 0) slot.gen = 1;
    slot.fn = std::move(fn);
    slot.period = period;
    slot.live = true;
    slot.repeating = repeating;
    push(index, when);
    return TimerId{std::uint64_t{slot.gen} << 32 | index};
}

void Simulator::push(std::uint32_t slot, SimTime when) {
    slots_[slot].queued = true;
    queue_.push_back(Event{when, ++next_seq_, slot, slots_[slot].gen});
    std::push_heap(queue_.begin(), queue_.end(), Later{});
}

Simulator::Event Simulator::pop() {
    std::pop_heap(queue_.begin(), queue_.end(), Later{});
    Event ev = queue_.back();
    queue_.pop_back();
    return ev;
}

bool Simulator::stale(const Event& ev) const {
    const Slot& slot = slots_[ev.slot];
    return !slot.live || slot.gen != ev.gen;
}

Simulator::Slot* Simulator::live_slot(TimerId id) {
    const auto index = static_cast<std::uint32_t>(id.value);
    const auto gen = static_cast<std::uint32_t>(id.value >> 32);
    if (index >= slots_.size()) return nullptr;
    Slot& slot = slots_[index];
    return slot.live && slot.gen == gen ? &slot : nullptr;
}

void Simulator::release(std::uint32_t slot) {
    slots_[slot].live = false;
    slots_[slot].queued = false;
    free_slots_.push_back(slot);
}

bool Simulator::cancel(TimerId id) {
    Slot* slot = live_slot(id);
    if (!slot) return false;
    // Destroyed on return, once the slot table is consistent again: the
    // closure's captures may themselves schedule or cancel.
    Callback dead = std::move(slot->fn);
    // A repeating timer cancelled from its own callback has no event
    // queued; anything else leaves one behind as a tombstone.
    if (slot->queued) ++tombstones_;
    release(static_cast<std::uint32_t>(id.value));
    maybe_compact();
    return true;
}

void Simulator::maybe_compact() {
    // Rebuild the queue once tombstones exceed half the live set: a
    // workload that arms and cancels many timers (lease renewals across
    // handoffs) would otherwise drag a heap full of dead entries through
    // every push/pop. Each rebuild removes at least a third of the queue,
    // so the cost is amortized against the cancels that forced it.
    // (when, seq) is a total order, so the rebuilt heap pops in the same
    // order as the old one.
    if (tombstones_ * 2 <= pending()) return;
    std::erase_if(queue_, [this](const Event& ev) { return stale(ev); });
    std::make_heap(queue_.begin(), queue_.end(), Later{});
    tombstones_ = 0;
    ++compactions_;
    obs::Registry::global().counter("sim.compactions").inc();
}

bool Simulator::fire_next() {
    while (!queue_.empty()) {
        const Event ev = pop();
        if (stale(ev)) {
            --tombstones_;
            continue;
        }
        Slot& slot = slots_[ev.slot];
        slot.queued = false;
        const bool repeating = slot.repeating;
        Callback fn = std::move(slot.fn);
        if (!repeating) release(ev.slot);
        now_ = ev.when;
        fn();
        // Re-arm unless fn cancelled the timer. fn may have grown slots_
        // (or let the slot be reused), so index it afresh.
        if (repeating && !stale(ev)) {
            slots_[ev.slot].fn = std::move(fn);
            push(ev.slot, now_ + slots_[ev.slot].period);
        }
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
        const Event& top = queue_.front();
        if (stale(top)) {
            pop();
            --tombstones_;
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
