// Simulated wireless network.
//
// Models the paper's deployment substrate: mobile nodes and base stations on
// a 2-D plane, communicating over a shared radio. A pair of nodes can
// exchange messages while they are within radio range of each other; range
// is what makes "entering / leaving a production hall" observable to the
// middleware (discovery fires on entry, lease renewals start failing on
// exit). Latency, jitter and loss are configurable so tests can inject
// failures deterministically.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/ids.h"
#include "common/rng.h"
#include "net/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace pmp::net {

/// 2-D position in metres.
struct Position {
    double x = 0;
    double y = 0;

    double distance_to(const Position& other) const;
    bool operator==(const Position&) const = default;
};

/// One datagram. `kind` is the protocol discriminator (e.g. "disco.request",
/// "midas.install"); `payload` is the protocol-specific encoding.
struct Message {
    NodeId from;
    NodeId to;
    std::string kind;
    Bytes payload;
    /// Causal context riding the datagram (a real radio would put a few
    /// bytes of it in a header). The router stamps the sender's ambient
    /// context here; delivery restores it around the receiving handler,
    /// so cross-node chains share one trace. Observability metadata —
    /// deliberately excluded from wire_size(). A duplicated frame copies
    /// the whole Message, context included, so duplicates attach to the
    /// original's trace.
    obs::TraceContext trace{};

    /// Approximate on-air size, used for the per-byte latency component.
    std::size_t wire_size() const { return kind.size() + payload.size() + 16; }
};

/// Radio and link-quality parameters.
struct NetworkConfig {
    Duration base_latency = microseconds(500);   ///< fixed per-hop cost
    Duration per_kilobyte = microseconds(800);   ///< serialization cost
    Duration jitter = microseconds(200);         ///< uniform in [0, jitter]
    double loss_probability = 0.0;               ///< per-message drop chance
    double duplicate_probability = 0.0;          ///< per-message dup chance
};

/// Legacy stats view for tests and benchmarks. The authoritative counters
/// live in the obs registry under `net.*` (labelled per network instance);
/// this struct is assembled on demand by `Network::stats()`.
struct NetworkStats {
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped_out_of_range = 0;
    std::uint64_t dropped_loss = 0;
    std::uint64_t duplicated = 0;
    std::uint64_t bytes_delivered = 0;
    /// Drops and duplicates attributed to an installed FaultPlan
    /// (`net.fault.*` in the registry), by cause.
    std::uint64_t fault_dropped_loss = 0;
    std::uint64_t fault_dropped_burst = 0;
    std::uint64_t fault_dropped_partition = 0;
    std::uint64_t fault_duplicated = 0;
    std::uint64_t fault_delayed = 0;
    std::uint64_t fault_reordered = 0;
};

/// The shared radio medium. All nodes of one simulated world attach here.
class Network {
public:
    using Handler = std::function<void(const Message&)>;

    Network(sim::Simulator& sim, NetworkConfig config, std::uint64_t seed);

    /// Attach a node. `range` is its radio range in metres (base stations
    /// typically get a large range covering their hall; handhelds a small
    /// one). Returns the node's network identity.
    NodeId add_node(const std::string& name, Position pos, double range);

    /// Remove a node from the air (simulates power-off / crash). Pending
    /// deliveries to it are dropped; frames it already sent are still in
    /// flight and deliver (they left the radio before the power died). The
    /// entry itself is compacted once its in-flight deliveries have
    /// drained, so churn does not grow `nodes_`. Safe to call from inside
    /// the node's own receive handler (crash-points fire mid-dispatch).
    void remove_node(NodeId id);

    /// Attached node entries, including tombstones awaiting compaction
    /// (bounded: each tombstone lives only until its in-flight deliveries
    /// drain).
    std::size_t node_count() const { return nodes_.size(); }

    /// Install the receive callback for a node.
    void set_handler(NodeId id, Handler handler);

    /// Install a passive tap on a node: observes every message delivered to
    /// it, before the handler runs, without consuming anything. One tap per
    /// node; pass nullptr to remove. (The eavesdropper in the secure-hall
    /// example, packet captures in tests.)
    void set_tap(NodeId id, Handler tap);

    /// Teleport a node (the mobility model calls this every tick).
    void move_node(NodeId id, Position pos);

    Position position_of(NodeId id) const;
    std::string name_of(NodeId id) const;

    /// Connect two nodes with a wired link: they stay in contact regardless
    /// of position (the backbone between base stations of adjacent halls).
    /// Both must be attached; removing either cuts the wire for good.
    void add_wire(NodeId a, NodeId b);

    /// True if the two nodes can currently exchange messages — wired, or
    /// by radio (symmetric: each must be inside the other's range).
    bool in_contact(NodeId a, NodeId b) const;

    /// All attached nodes currently in contact with `id` (excluding
    /// itself), in ascending NodeId order, so a seed's results do not
    /// depend on hash-table layout. Cost: the node's wired peers plus the
    /// nodes in the grid cells its radio range box overlaps, or in every
    /// occupied cell when the box overlaps more cells than are occupied
    /// (a hall-wide range); never a scan of the whole node table.
    std::vector<NodeId> neighbors(NodeId id) const;

    /// Unicast. Checks contact at send time and again at delivery time (the
    /// receiver may have moved away mid-flight). Returns false if dropped at
    /// send time.
    bool send(const Message& msg);

    /// Broadcast to every node currently in contact with the sender: one
    /// neighbors() query, then one send per recipient in ascending NodeId
    /// order (the order in which jitter, loss and fault draws are taken).
    /// Returns the number of deliveries scheduled.
    std::size_t broadcast(NodeId from, const std::string& kind, Bytes payload);

    /// Install a fault plan: from now on every send/delivery is judged by
    /// a FaultInjector seeded with `seed` (deterministic per seed). Each
    /// partition window additionally emits `net.partition` trace instants
    /// when it opens ("cut") and heals ("heal"). Replaces any prior plan.
    void set_fault_plan(FaultPlan plan, std::uint64_t seed);
    void clear_fault_plan();
    const FaultInjector* fault() const { return injector_.get(); }

    NetworkStats stats() const;
    void reset_stats();

    /// The obs label this instance reports under (e.g. "net3").
    const std::string& obs_label() const { return obs_label_; }

    sim::Simulator& simulator() { return sim_; }

private:
    struct NodeState;
    /// A node as seen from the grid or a wire: its id and its state.
    /// `node` stays valid: unordered_map never moves its elements, and
    /// remove_node() takes the node off the grid and its peers' wire
    /// lists before compact() erases it.
    struct Peer {
        NodeId id;
        NodeState* node;
    };
    struct NodeState {
        std::string name;
        Position pos;
        double range = 0;
        Handler handler;
        Handler tap;
        std::uint64_t epoch = 0;  // bumped on remove; stale deliveries check it
        bool removed = false;     // tombstoned; compacted when in_flight drains
        std::uint64_t in_flight = 0;  // deliveries scheduled to this node
        std::uint64_t cell = 0;       // grid cell key; off the grid once removed
        std::vector<Peer> wired;      // sorted by id; both ends list the wire
    };

    /// Wired, or mutually in radio range. Removed nodes touch nothing.
    static bool linked(NodeId a, const NodeState& na, NodeId b, const NodeState& nb);
    /// Everything in contact with `self`, in ascending id order.
    std::vector<Peer> contacts(NodeId id, const NodeState& self) const;
    void grid_insert(NodeId id, NodeState& node);
    void grid_erase(NodeId id, const NodeState& node);
    /// Send tail shared by send() and broadcast(): loss, faults and
    /// scheduling, once the receiver is known to be in contact.
    bool transmit(const Message& msg, NodeState& receiver);
    void schedule_delivery(const Message& msg, NodeState& receiver_at_send,
                           Duration extra_delay = Duration{0});
    /// Erase a tombstoned node once its in-flight deliveries have drained.
    void compact(NodeId id);
    Duration transit_time(const Message& msg);
    const NodeState* find(NodeId id) const;
    NodeState* find(NodeId id);

    sim::Simulator& sim_;
    NetworkConfig config_;
    Rng rng_;
    IdGenerator<NodeId> node_ids_;
    std::unordered_map<NodeId, NodeState> nodes_;
    // Uniform grid over live nodes' positions, keyed by packed cell
    // coordinates; empty cells are erased, so size() is the occupied count.
    std::unordered_map<std::uint64_t, std::vector<Peer>> grid_;
    std::unique_ptr<FaultInjector> injector_;    // null: no plan installed

    // Per-instance counters in the global registry. Owned (refcounted) so a
    // destroyed network frees its label and a successor starts from zero.
    std::string obs_label_;
    obs::OwnedCounter sent_;
    obs::OwnedCounter delivered_;
    obs::OwnedCounter dropped_out_of_range_;
    obs::OwnedCounter dropped_loss_;
    obs::OwnedCounter duplicated_;
    obs::OwnedCounter bytes_delivered_;
    // Fault-plan attribution (all zero until set_fault_plan).
    obs::OwnedCounter fault_dropped_loss_;
    obs::OwnedCounter fault_dropped_burst_;
    obs::OwnedCounter fault_dropped_partition_;
    obs::OwnedCounter fault_duplicated_;
    obs::OwnedCounter fault_delayed_;
    obs::OwnedCounter fault_reordered_;
};

}  // namespace pmp::net
