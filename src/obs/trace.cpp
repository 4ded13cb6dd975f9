#include "obs/trace.h"

#include "obs/flight.h"
#include "obs/metrics.h"

namespace pmp::obs {

const char* event_kind_name(EventKind k) {
    switch (k) {
        case EventKind::kSpanBegin: return "span_begin";
        case EventKind::kSpanEnd: return "span_end";
        case EventKind::kInstant: return "instant";
    }
    return "?";
}

namespace {
// Per-thread redirect target (see TraceBuffer::Redirect).
thread_local TraceBuffer* tl_redirect = nullptr;
}  // namespace

TraceBuffer::TraceBuffer(std::size_t capacity) : ring_(capacity == 0 ? 1 : capacity) {}

TraceBuffer& TraceBuffer::root() {
    static TraceBuffer buffer;
    return buffer;
}

TraceBuffer& TraceBuffer::global() { return tl_redirect != nullptr ? *tl_redirect : root(); }

TraceBuffer::Redirect::Redirect(TraceBuffer& target) : saved_(tl_redirect) {
    tl_redirect = &target;
}

TraceBuffer::Redirect::~Redirect() { tl_redirect = saved_; }

void TraceBuffer::push(TraceEvent ev) {
    if (size_ == ring_.size()) {
        ++dropped_;  // overwrite the oldest
        // If the evictee is a begin whose end has not been recorded yet,
        // forget its open-span entry: a later end_span is then an orphan
        // and says so, instead of silently claiming a linkage the ring no
        // longer holds.
        const TraceEvent& evicted = ring_[head_];
        if (evicted.kind == EventKind::kSpanBegin) {
            auto it = open_spans_.find(evicted.span);
            if (it != open_spans_.end() && it->second.slot == head_) open_spans_.erase(it);
        }
    } else {
        ++size_;
    }
    // Only the process-wide root buffer feeds the flight recorder; scratch
    // and redirected buffers stay out of the black box. (Compared against
    // root(), not global(): a thread-local redirect must not accidentally
    // feed its events into the black box.)
    if (this == &TraceBuffer::root()) FlightRecorder::global().observe(ev);
    ring_[head_] = std::move(ev);
    head_ = (head_ + 1) % ring_.size();
    ++recorded_;
}

std::uint64_t TraceBuffer::begin_span(std::string component, std::string name, KeyValues kv) {
    return begin_span_at(now(), std::move(component), std::move(name), std::move(kv));
}

void TraceBuffer::end_span(std::uint64_t span, KeyValues kv) {
    end_span_at(now(), span, std::move(kv));
}

void TraceBuffer::instant(std::string component, std::string name, KeyValues kv) {
    instant_at(now(), std::move(component), std::move(name), std::move(kv));
}

TraceContext TraceBuffer::context_of(std::uint64_t span) const {
    auto it = open_spans_.find(span);
    if (span == 0 || it == open_spans_.end()) return TraceContext{};
    return TraceContext{it->second.trace, span};
}

TraceContext TraceBuffer::new_root() {
    if (!detail::g_enabled) return TraceContext{};
    return TraceContext{++next_trace_, 0};
}

std::uint64_t TraceBuffer::begin_span_at(SimTime at, std::string component, std::string name,
                                         KeyValues kv) {
    if (!detail::g_enabled) return 0;
    std::uint64_t id = ++next_span_;
    TraceEvent ev{at,  EventKind::kSpanBegin,    id, 0, 0, std::move(component),
                  std::move(name), std::move(kv)};
    if (current_.valid()) {
        ev.trace = current_.trace_id;
        ev.parent = current_.parent_span;
    } else {
        ev.trace = ++next_trace_;  // no caller: this span roots a new trace
    }
    open_spans_.emplace(id, OpenSpan{ev.trace, ev.parent, head_});
    push(std::move(ev));
    return id;
}

void TraceBuffer::end_span_at(SimTime at, std::uint64_t span, KeyValues kv) {
    if (!detail::g_enabled || span == 0) return;
    TraceEvent ev{at, EventKind::kSpanEnd, span, 0, 0, {}, {}, std::move(kv)};
    auto it = open_spans_.find(span);
    if (it != open_spans_.end()) {
        ev.trace = it->second.trace;
        ev.parent = it->second.parent;
        open_spans_.erase(it);
    } else {
        // The begin was evicted (or never recorded): account for it
        // honestly rather than emitting a dangling linkage.
        ++orphan_ends_;
        static Counter& orphans = Registry::global().counter("obs.trace.orphan_ends");
        orphans.inc();
        ev.kv.emplace_back("orphan", "true");
    }
    push(std::move(ev));
}

void TraceBuffer::instant_at(SimTime at, std::string component, std::string name, KeyValues kv) {
    if (!detail::g_enabled) return;
    TraceEvent ev{at,  EventKind::kInstant,      0, current_.trace_id, current_.parent_span,
                  std::move(component), std::move(name), std::move(kv)};
    push(std::move(ev));
}

std::vector<TraceEvent> TraceBuffer::events() const {
    std::vector<TraceEvent> out;
    out.reserve(size_);
    // Oldest event sits at head_ when full, at 0 otherwise.
    std::size_t start = size_ == ring_.size() ? head_ : 0;
    for (std::size_t i = 0; i < size_; ++i) {
        out.push_back(ring_[(start + i) % ring_.size()]);
    }
    return out;
}

void TraceBuffer::clear() {
    head_ = 0;
    size_ = 0;
    dropped_ = 0;
    recorded_ = 0;
    orphan_ends_ = 0;
    next_span_ = 0;
    next_trace_ = 0;
    open_spans_.clear();
    // current_ is deliberately left alone: it belongs to live ContextScope
    // frames on the stack, not to the ring's contents.
}

std::uint64_t TraceBuffer::set_clock(std::function<SimTime()> clock) {
    std::uint64_t token = ++next_clock_token_;
    clocks_.push_back(ClockEntry{token, std::move(clock)});
    return token;
}

void TraceBuffer::clear_clock(std::uint64_t token) {
    std::erase_if(clocks_, [token](const ClockEntry& e) { return e.token == token; });
}

}  // namespace pmp::obs
