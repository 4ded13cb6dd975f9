// The flight recorder: a second bounded ring for post-mortems.
//
// The main TraceBuffer is a diagnostic window — exporters read it while
// the system is healthy. The flight recorder models the black box: it
// passively mirrors every event the global trace ring records into its
// own (smaller) ring, and the moment something dies — midas::Supervisor
// cutting a node's power, the adaptation service quarantining an
// extension — the tail is *dumped*: frozen into a named Dump that
// eviction can no longer touch.
//
// Durability is split the way real black boxes split it: a quarantine
// happens while the node is alive, so the receiver journals its dump
// alongside the rest of its durable state (midas::ReceiverDurableState)
// and a restart recovers it — the post-mortem survives the power cord. A
// crash-restart gives no such opportunity (power first, then nothing);
// there the supervisor reads the chip at the moment of impact, so the
// dump survives the *node* but lives in supervisor memory, not a journal.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/time.h"
#include "obs/trace.h"

namespace pmp::obs {

class FlightRecorder {
public:
    explicit FlightRecorder(std::size_t capacity = 256);

    static FlightRecorder& global();

    /// Mirror one event (called by the global TraceBuffer on every push).
    void observe(const TraceEvent& ev);

    /// Retained tail, oldest first.
    std::vector<TraceEvent> tail() const;

private:
    std::vector<TraceEvent> tail_locked() const;

public:

    /// One frozen post-mortem: who died, why, when, and the event tail
    /// leading up to it.
    struct Dump {
        std::string node;    ///< label of the dying node (or "" for global)
        std::string reason;  ///< e.g. "crash", "quarantine:hall/rogue"
        SimTime at;
        std::vector<TraceEvent> events;
    };

    /// Freeze the current tail. Dumps are kept newest-last, bounded at
    /// kMaxDumps (oldest forgotten first).
    const Dump& dump(std::string node, std::string reason, SimTime at);

    const std::vector<Dump>& dumps() const { return dumps_; }

    std::size_t size() const {
        std::lock_guard<std::mutex> lock(mu_);
        return size_;
    }
    std::size_t capacity() const {
        std::lock_guard<std::mutex> lock(mu_);
        return ring_.size();
    }
    /// Resize the ring (drops retained events; dumps are untouched).
    void set_capacity(std::size_t capacity);

    /// Forget retained events and dumps (tests).
    void clear();

    static constexpr std::size_t kMaxDumps = 32;

private:
    /// Crashes and quarantines can fire from any thread; the black box is
    /// one shared ring, so it locks (it is never on a hot path).
    mutable std::mutex mu_;
    std::vector<TraceEvent> ring_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
    std::vector<Dump> dumps_;
};

}  // namespace pmp::obs
