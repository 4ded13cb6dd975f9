// Bounded trace ring of structured events, with causal context.
//
// Where the metrics registry answers "how many / how fast", the trace ring
// answers "what happened, in what order": span begin/end pairs for the
// platform's long operations (weave, withdraw, RPC round-trips, package
// push/verify) and instant events for point occurrences (lease renew,
// lease expire, signature rejection). Events carry the virtual SimTime,
// a canonical component name, and a small key/value payload.
//
// Causality: every event additionally carries a trace id and a parent
// span. The buffer holds one *ambient* TraceContext — installed with the
// RAII ContextScope by whatever is currently executing on behalf of a
// span (an rpc dispatch, a delivered message's handler) — and stamps it
// onto events as they are recorded. A begin_span with no ambient context
// roots a fresh trace. Both span and trace ids are plain counters, so a
// deterministic simulation replays to byte-identical causal trees.
//
// The buffer is a fixed-capacity ring: recording never allocates beyond
// the high-water mark and old events are evicted oldest-first, so tracing
// can stay on permanently — the cost of a busy system is forgetting the
// distant past, not growing without bound. An end_span whose begin was
// already evicted is counted (`obs.trace.orphan_ends`) and tagged
// `orphan=true` so exporters render it honestly instead of silently.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/time.h"

namespace pmp::obs {

enum class EventKind : std::uint8_t { kSpanBegin, kSpanEnd, kInstant };

const char* event_kind_name(EventKind k);

/// Key/value payload: small, ordered, stringly — render-friendly.
using KeyValues = std::vector<std::pair<std::string, std::string>>;

/// Causal position: which trace new events belong to and which span caused
/// them. Carried ambiently by the TraceBuffer and across the simulated
/// radio by net::Message, so cross-node chains share one trace id.
struct TraceContext {
    std::uint64_t trace_id = 0;    ///< 0 = no trace (events root fresh ones)
    std::uint64_t parent_span = 0; ///< 0 = root position within the trace

    bool valid() const { return trace_id != 0; }
    bool operator==(const TraceContext&) const = default;
};

struct TraceEvent {
    SimTime at;
    EventKind kind = EventKind::kInstant;
    std::uint64_t span = 0;    ///< nonzero links a begin to its end
    std::uint64_t trace = 0;   ///< causal tree this event belongs to
    std::uint64_t parent = 0;  ///< span that caused it (0 = root)
    std::string component;     ///< canonical component name (see component.h)
    std::string name;          ///< operation, e.g. "weave", "rpc.call"
    KeyValues kv;

    bool operator==(const TraceEvent&) const = default;
};

/// A TraceBuffer is confined to one thread at a time: the root buffer to
/// whichever thread runs the simulated world, a redirected buffer to the
/// thread that installed the Redirect. The buffer itself carries no locks.
class TraceBuffer {
public:
    explicit TraceBuffer(std::size_t capacity = 1024);

    /// The thread's redirect target when one is installed, else the
    /// process-wide root buffer.
    static TraceBuffer& global();

    /// While alive, TraceBuffer::global() *on this thread* resolves to
    /// `target` — how a harness records a program's events into its own
    /// buffer without threading a TraceBuffer& through every subsystem.
    /// Nests (strictly scoped, per thread).
    class Redirect {
    public:
        explicit Redirect(TraceBuffer& target);
        ~Redirect();
        Redirect(const Redirect&) = delete;
        Redirect& operator=(const Redirect&) = delete;

    private:
        TraceBuffer* saved_;
    };

    /// Begin a span; returns its id for end_span. Timestamps come from the
    /// installed clock (the live simulator); SimTime::zero() without one.
    /// The span joins the ambient trace (parented under its parent_span),
    /// or roots a fresh trace when no context is installed.
    std::uint64_t begin_span(std::string component, std::string name, KeyValues kv = {});
    void end_span(std::uint64_t span, KeyValues kv = {});
    void instant(std::string component, std::string name, KeyValues kv = {});

    /// Explicit-time variants for callers that carry their own SimTime.
    std::uint64_t begin_span_at(SimTime at, std::string component, std::string name,
                                KeyValues kv = {});
    void end_span_at(SimTime at, std::uint64_t span, KeyValues kv = {});
    void instant_at(SimTime at, std::string component, std::string name, KeyValues kv = {});

    /// The ambient causal context (invalid when nothing is executing on
    /// behalf of a span).
    TraceContext current() const { return current_; }

    /// Context that makes `span` the parent of subsequent events — what a
    /// caller installs (via ContextScope) while work caused by the span
    /// runs. Invalid for span 0 or a span the ring no longer tracks.
    TraceContext context_of(std::uint64_t span) const;

    /// Allocate a fresh trace root without recording an event — used by
    /// retry drivers that must pin every attempt to one trace before the
    /// first attempt's span exists. Invalid while obs is disabled.
    TraceContext new_root();

    /// RAII ambient-context switch. Single-threaded (like the simulator):
    /// scopes nest, never interleave.
    class ContextScope {
    public:
        ContextScope(TraceBuffer& buf, TraceContext ctx) : buf_(buf), saved_(buf.current_) {
            buf_.current_ = ctx;
        }
        ~ContextScope() { buf_.current_ = saved_; }
        ContextScope(const ContextScope&) = delete;
        ContextScope& operator=(const ContextScope&) = delete;

    private:
        TraceBuffer& buf_;
        TraceContext saved_;
    };

    /// All retained events, oldest first.
    std::vector<TraceEvent> events() const;

    std::size_t size() const { return size_; }
    std::size_t capacity() const { return ring_.size(); }
    /// Events evicted so far to make room.
    std::uint64_t dropped() const { return dropped_; }
    /// Total events ever recorded.
    std::uint64_t recorded() const { return recorded_; }
    /// end_span calls whose begin had already been evicted from the ring
    /// (also counted globally as `obs.trace.orphan_ends`).
    std::uint64_t orphan_ends() const { return orphan_ends_; }

    void clear();

    /// High-volume spans (per-advice execution) are gated behind this
    /// extra switch so the default-on trace does not tax interception
    /// microbenchmarks. Flip on when debugging advice behaviour.
    bool detail() const { return detail_; }
    void set_detail(bool on) { detail_ = on; }

    /// Install a time source (the live simulator registers itself; see
    /// Simulator's scoped binding). Sources *stack*: the newest wins, and
    /// clear_clock removes by token from anywhere in the stack — so a
    /// bench that builds a scratch world inside a live one restores the
    /// outer simulator's clock instead of leaving a stale or null clock
    /// ("most recently constructed wins" is gone).
    std::uint64_t set_clock(std::function<SimTime()> clock);
    void clear_clock(std::uint64_t token);
    SimTime now() const { return clocks_.empty() ? SimTime::zero() : clocks_.back().fn(); }

private:
    /// The process-wide buffer (redirects resolve here by default). Only
    /// this one feeds the flight recorder.
    static TraceBuffer& root();

    void push(TraceEvent ev);

    /// Book-keeping for spans whose begin is still in the ring: lets
    /// end_span inherit the begin's context and detect orphans honestly.
    struct OpenSpan {
        std::uint64_t trace = 0;
        std::uint64_t parent = 0;
        std::size_t slot = 0;  ///< ring slot of the begin event
    };

    std::vector<TraceEvent> ring_;
    std::size_t head_ = 0;  ///< next write position
    std::size_t size_ = 0;
    std::uint64_t dropped_ = 0;
    std::uint64_t recorded_ = 0;
    std::uint64_t orphan_ends_ = 0;
    std::uint64_t next_span_ = 0;
    std::uint64_t next_trace_ = 0;
    TraceContext current_;
    std::map<std::uint64_t, OpenSpan> open_spans_;  ///< bounded by ring capacity
    bool detail_ = false;
    struct ClockEntry {
        std::uint64_t token;
        std::function<SimTime()> fn;
    };
    std::vector<ClockEntry> clocks_;  ///< stack: back() is live
    std::uint64_t next_clock_token_ = 0;
};

}  // namespace pmp::obs
