// Deterministic radio fault injection.
//
// The base NetworkConfig models a *uniform* radio: every message sees the
// same independent loss and jitter. Real radios misbehave in structured
// ways — losses arrive in bursts (fading, interference), links go one-way
// (asymmetric transmit power), whole areas black out and heal (a forklift
// parks in front of the access point). A FaultPlan describes such a
// scenario; the Network consults its FaultInjector on every delivery, so a
// single seeded plan turns any existing test or benchmark topology into a
// hostile one without touching the protocols under test.
//
// Determinism: the injector derives one independent RNG stream per
// directed link from the plan seed (order-independent mixing), so the same
// seed over the same traffic produces the identical fault pattern — the
// property the chaos soak's replay check relies on.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/time.h"

namespace pmp::net {

struct Message;

/// A scripted connectivity cut between two node groups. While active,
/// messages from a node in `side_a` to one in `side_b` are dropped — and
/// the reverse direction too unless `one_way` is set. An empty side matches
/// every node, so {.side_a = {n}, .side_b = {}} isolates `n` entirely.
struct PartitionWindow {
    SimTime from;                  ///< window opens (inclusive)
    SimTime until = SimTime::max();  ///< window heals (exclusive)
    std::vector<NodeId> side_a;
    std::vector<NodeId> side_b;
    bool one_way = false;  ///< only a->b is cut; b->a still delivers
};

/// Everything the injector may do to traffic. All probabilities are
/// per-message; durations are added on top of the network's own latency
/// model. Zero-initialised members leave that fault class off.
struct FaultPlan {
    /// Independent per-message loss while a link is in its good state.
    double loss = 0.0;

    /// Gilbert-Elliott burst loss, tracked per directed link: with
    /// `burst_enter` a message flips the link into the burst state, where
    /// messages drop with `burst_loss` until a message flips it back with
    /// `burst_exit`. Models fading: losses cluster instead of sprinkling.
    double burst_enter = 0.0;
    double burst_exit = 0.25;
    double burst_loss = 0.95;

    /// Extra delivery delay, uniform in [0, delay_jitter], per message.
    Duration delay_jitter = Duration{0};

    /// Per-message duplication (the radio MAC retransmits although the
    /// first copy arrived).
    double duplicate = 0.0;

    /// With this probability a message is held back `reorder_hold` longer,
    /// letting later messages overtake it.
    double reorder = 0.0;
    Duration reorder_hold = milliseconds(5);

    /// Scheduled partitions; any active window that matches drops the
    /// message.
    std::vector<PartitionWindow> partitions;
};

/// One scheduled process crash: the node (by label — ids change across
/// restarts) dies at `at` and restarts `down_for` later.
struct CrashEvent {
    std::string node;
    SimTime at;
    Duration down_for = seconds(1);
};

/// Probabilistic crashes: within [from, until) the node crashes at Poisson
/// rate `rate_per_sec`, each outage lasting `down_for`. Expanded into
/// concrete CrashEvents up front (see expand_crashes) so the schedule is a
/// pure function of the seed — crashes never consume RNG state that the
/// link-fault streams depend on.
struct CrashWindow {
    std::string node;
    SimTime from;
    SimTime until;
    double rate_per_sec = 0.0;
    Duration down_for = seconds(1);
};

/// Process-level fault script, consumed by midas::Supervisor. Named
/// crash-points ("after install sent, before activity recorded") are armed
/// separately through sim::FailPoints — they fire on code-path hits, not
/// at scheduled instants.
struct CrashPlan {
    std::vector<CrashEvent> events;
    std::vector<CrashWindow> windows;
};

/// Deterministically pre-expand a plan's windows into concrete events and
/// merge them with the scheduled ones, sorted by time. Each window draws
/// from its own RNG stream keyed by (seed, node label, window index), so
/// editing one window never shifts another's crash times.
std::vector<CrashEvent> expand_crashes(const CrashPlan& plan, std::uint64_t seed);

/// Per-delivery verdict machinery. Owned by the Network once a plan is
/// installed; tests may also drive one directly.
class FaultInjector {
public:
    FaultInjector(FaultPlan plan, std::uint64_t seed);

    /// Why a message was dropped (for per-cause counters).
    enum class Drop { kNone, kLoss, kBurst, kPartition };

    struct Verdict {
        Drop drop = Drop::kNone;
        Duration extra_delay = Duration{0};
        bool reordered = false;   ///< extra_delay includes a reorder hold
        bool duplicate = false;
    };

    /// Judge a message about to be sent at `now`. Advances the per-link
    /// burst state, so call exactly once per send attempt.
    Verdict judge(NodeId from, NodeId to, SimTime now);

    /// True if any active partition window cuts `from -> to` at `now`.
    /// Pure (no RNG state touched); also consulted at delivery time for
    /// messages in flight when a window opens.
    bool partitioned(NodeId from, NodeId to, SimTime now) const;

    /// Override the per-link stream key. By default streams derive from
    /// NodeId values, which are allocation-ordered: the same logical world
    /// built in a different order assigns different ids and so draws
    /// different fault patterns. Installing a resolver that returns a
    /// *stable* key (the Network installs the FNV-1a hash of the node's
    /// name) makes each directed link's stream a pure function of
    /// (seed, names), whatever the construction order. Affects
    /// links on first use, so install before traffic flows; direct users
    /// of the id-derived default are unchanged.
    void set_key_fn(std::function<std::uint64_t(NodeId)> fn) { key_fn_ = std::move(fn); }

    const FaultPlan& plan() const { return plan_; }

private:
    struct LinkState {
        Rng rng;
        bool in_burst = false;
    };
    LinkState& link(NodeId from, NodeId to);

    FaultPlan plan_;
    std::uint64_t seed_;
    std::function<std::uint64_t(NodeId)> key_fn_;
    std::map<std::pair<NodeId, NodeId>, LinkState> links_;
};

}  // namespace pmp::net
