#include "net/network.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>

#include "common/error.h"
#include "common/hash.h"
#include "common/log.h"
#include "obs/trace.h"

namespace pmp::net {

double Position::distance_to(const Position& other) const {
    double dx = x - other.x;
    double dy = y - other.y;
    return std::sqrt(dx * dx + dy * dy);
}

namespace {

// Side of one neighbour-grid cell, in metres: about a handheld's radio
// range, so a handheld's query visits a handful of cells.
constexpr double kCellSize = 64.0;

// Grid coordinate of `v`, clamped to int32 (NaN lands on the low edge).
// Clamping is monotone, so a clamped node is still found by any box that
// should reach it.
std::int32_t cell_coord(double v) {
    constexpr auto kLo = std::numeric_limits<std::int32_t>::min();
    constexpr auto kHi = std::numeric_limits<std::int32_t>::max();
    const double c = std::floor(v / kCellSize);
    if (!(c > kLo)) return kLo;
    if (c >= kHi) return kHi;
    return static_cast<std::int32_t>(c);
}

std::uint64_t cell_key(std::int32_t cx, std::int32_t cy) {
    return std::uint64_t{static_cast<std::uint32_t>(cx)} << 32 | static_cast<std::uint32_t>(cy);
}

std::uint64_t cell_key(Position p) { return cell_key(cell_coord(p.x), cell_coord(p.y)); }

bool in_radio_range(const Position& a, double range_a, const Position& b, double range_b) {
    double dist = a.distance_to(b);
    return dist <= range_a && dist <= range_b;
}

// Where `id` sits, or belongs, in a node's id-sorted wire list.
template <typename Peers>
auto peer_at(Peers& wired, NodeId id) {
    return std::ranges::lower_bound(wired, id, {}, [](const auto& p) { return p.id; });
}

std::string next_net_label() {
    // Atomic, so Networks may be built on any thread.
    static std::atomic<int> seq{0};
    return "net" + std::to_string(seq.fetch_add(1, std::memory_order_relaxed) + 1);
}
}  // namespace

Network::Network(sim::Simulator& sim, NetworkConfig config, std::uint64_t seed)
    : sim_(sim),
      config_(config),
      rng_(seed),
      obs_label_(next_net_label()),
      sent_("net.sent", obs_label_),
      delivered_("net.delivered", obs_label_),
      dropped_out_of_range_("net.dropped_range", obs_label_),
      dropped_loss_("net.dropped_loss", obs_label_),
      duplicated_("net.duplicated", obs_label_),
      bytes_delivered_("net.bytes_delivered", obs_label_),
      fault_dropped_loss_("net.fault.dropped_loss", obs_label_),
      fault_dropped_burst_("net.fault.dropped_burst", obs_label_),
      fault_dropped_partition_("net.fault.dropped_partition", obs_label_),
      fault_duplicated_("net.fault.duplicated", obs_label_),
      fault_delayed_("net.fault.delayed", obs_label_),
      fault_reordered_("net.fault.reordered", obs_label_) {}

NetworkStats Network::stats() const {
    return NetworkStats{sent_.value(),
                        delivered_.value(),
                        dropped_out_of_range_.value(),
                        dropped_loss_.value(),
                        duplicated_.value(),
                        bytes_delivered_.value(),
                        fault_dropped_loss_.value(),
                        fault_dropped_burst_.value(),
                        fault_dropped_partition_.value(),
                        fault_duplicated_.value(),
                        fault_delayed_.value(),
                        fault_reordered_.value()};
}

void Network::reset_stats() {
    sent_.reset();
    delivered_.reset();
    dropped_out_of_range_.reset();
    dropped_loss_.reset();
    duplicated_.reset();
    bytes_delivered_.reset();
    fault_dropped_loss_.reset();
    fault_dropped_burst_.reset();
    fault_dropped_partition_.reset();
    fault_duplicated_.reset();
    fault_delayed_.reset();
    fault_reordered_.reset();
}

void Network::set_fault_plan(FaultPlan plan, std::uint64_t seed) {
    // Announce each scheduled window on the trace ring so a soak's event
    // log shows *why* traffic stopped. Instants fire when the window
    // actually opens/heals, not at install time.
    for (const PartitionWindow& w : plan.partitions) {
        if (w.from > sim_.now()) {
            sim_.schedule_at(w.from, [this]() {
                obs::TraceBuffer::global().instant("net.network", "net.partition",
                                                   {{"net", obs_label_}, {"state", "cut"}});
            });
        }
        if (w.until != SimTime::max()) {
            sim_.schedule_at(w.until, [this]() {
                obs::TraceBuffer::global().instant("net.network", "net.partition",
                                                   {{"net", obs_label_}, {"state", "heal"}});
            });
        }
    }
    injector_ = std::make_unique<FaultInjector>(std::move(plan), seed);
    // Key link streams by stable node names: the same logical link draws
    // the same fault pattern however ids were allocated (a world may add
    // its nodes in a different order).
    injector_->set_key_fn([this](NodeId id) {
        const auto* n = find(id);
        return n ? fnv1a64(n->name) : id.value;
    });
}

void Network::clear_fault_plan() { injector_.reset(); }

NodeId Network::add_node(const std::string& name, Position pos, double range) {
    NodeId id = node_ids_.next();
    NodeState& node = nodes_[id];
    node.name = name;
    node.pos = pos;
    node.range = range;
    node.epoch = 1;
    grid_insert(id, node);
    return id;
}

void Network::grid_insert(NodeId id, NodeState& node) {
    node.cell = cell_key(node.pos);
    grid_[node.cell].push_back(Peer{id, &node});
}

void Network::grid_erase(NodeId id, const NodeState& node) {
    auto it = grid_.find(node.cell);
    auto& cell = it->second;
    auto at = std::ranges::find(cell, id, &Peer::id);
    *at = cell.back();
    cell.pop_back();
    if (cell.empty()) grid_.erase(it);
}

void Network::remove_node(NodeId id) {
    auto* node = find(id);
    if (!node || node->removed) return;
    // Bumping the epoch invalidates in-flight deliveries without having
    // to chase down their timers. The handler/tap std::functions are NOT
    // destroyed here: remove_node may be running *inside* the node's own
    // handler (a crash-point firing mid-dispatch), and freeing the closure
    // under its own feet is UB. The `removed` flag keeps them from ever
    // running again; compact() frees them on a fresh event.
    ++node->epoch;
    node->range = 0;
    node->removed = true;
    grid_erase(id, *node);
    for (const Peer& peer : node->wired) peer.node->wired.erase(peer_at(peer.node->wired, id));
    node->wired.clear();
    // Compact on a fresh event (not inline): a handler removing its own
    // node must not free the std::function it is executing from.
    sim_.schedule_after(Duration{0}, [this, id]() { compact(id); });
}

void Network::compact(NodeId id) {
    auto it = nodes_.find(id);
    if (it != nodes_.end() && it->second.removed && it->second.in_flight == 0) {
        nodes_.erase(it);
    }
}

void Network::set_handler(NodeId id, Handler handler) {
    if (auto* node = find(id)) {
        node->handler = std::move(handler);
    } else {
        throw RemoteError("set_handler: unknown node " + id.str());
    }
}

void Network::set_tap(NodeId id, Handler tap) {
    if (auto* node = find(id)) {
        node->tap = std::move(tap);
    } else {
        throw RemoteError("set_tap: unknown node " + id.str());
    }
}

void Network::move_node(NodeId id, Position pos) {
    if (auto* node = find(id)) {
        node->pos = pos;
        if (!node->removed && cell_key(pos) != node->cell) {
            grid_erase(id, *node);
            grid_insert(id, *node);
        }
    } else {
        throw RemoteError("move_node: unknown node " + id.str());
    }
}

Position Network::position_of(NodeId id) const {
    const auto* node = find(id);
    if (!node) throw RemoteError("position_of: unknown node " + id.str());
    return node->pos;
}

std::string Network::name_of(NodeId id) const {
    const auto* node = find(id);
    return node ? node->name : "<gone>";
}

void Network::add_wire(NodeId a, NodeId b) {
    auto* na = find(a);
    auto* nb = find(b);
    if (a == b || !na || !nb || na->removed || nb->removed) return;
    auto at = peer_at(na->wired, b);
    if (at != na->wired.end() && at->id == b) return;  // already wired
    na->wired.insert(at, Peer{b, nb});
    nb->wired.insert(peer_at(nb->wired, a), Peer{a, na});
}

bool Network::linked(NodeId a, const NodeState& na, NodeId b, const NodeState& nb) {
    if (na.removed || nb.removed) return false;
    // Both ends list the wire; search the shorter list.
    const bool a_shorter = na.wired.size() <= nb.wired.size();
    const auto& wired = a_shorter ? na.wired : nb.wired;
    if (std::ranges::binary_search(wired, a_shorter ? b : a, {}, &Peer::id)) return true;
    return in_radio_range(na.pos, na.range, nb.pos, nb.range);
}

bool Network::in_contact(NodeId a, NodeId b) const {
    const auto* na = find(a);
    const auto* nb = find(b);
    if (!na || !nb || a == b) return false;
    return linked(a, *na, b, *nb);
}

std::vector<Network::Peer> Network::contacts(NodeId id, const NodeState& self) const {
    if (self.removed) return {};
    std::vector<Peer> out = self.wired;
    auto scan = [&](const std::vector<Peer>& cell) {
        for (const Peer& p : cell) {
            if (p.id != id &&
                in_radio_range(self.pos, self.range, p.node->pos, p.node->range)) {
                out.push_back(p);
            }
        }
    };
    // Widened by a hair, so rounding in distance_to() cannot put an
    // in-range node just outside the box.
    const double reach =
        self.range + 1e-9 * (self.range + std::abs(self.pos.x) + std::abs(self.pos.y));
    if (reach >= 0) {  // false for a negative or NaN range: radio-deaf
        const std::int32_t x0 = cell_coord(self.pos.x - reach);
        const std::int32_t x1 = cell_coord(self.pos.x + reach);
        const std::int32_t y0 = cell_coord(self.pos.y - reach);
        const std::int32_t y1 = cell_coord(self.pos.y + reach);
        const std::uint64_t w = static_cast<std::uint64_t>(std::int64_t{x1} - x0 + 1);
        const std::uint64_t h = static_cast<std::uint64_t>(std::int64_t{y1} - y0 + 1);
        const std::uint64_t occupied = grid_.size();
        if (w <= occupied && h <= occupied && w * h <= occupied) {
            for (std::int64_t cx = x0; cx <= x1; ++cx) {
                for (std::int64_t cy = y0; cy <= y1; ++cy) {
                    auto it = grid_.find(cell_key(static_cast<std::int32_t>(cx),
                                                  static_cast<std::int32_t>(cy)));
                    if (it != grid_.end()) scan(it->second);
                }
            }
        } else {
            // The box spans more cells than are occupied: walk those.
            for (const auto& [key, cell] : grid_) {
                const auto cx = static_cast<std::int32_t>(key >> 32);
                const auto cy = static_cast<std::int32_t>(key);
                if (cx >= x0 && cx <= x1 && cy >= y0 && cy <= y1) scan(cell);
            }
        }
    }
    // A wired peer may also be in radio range: keep one entry per id.
    std::ranges::sort(out, {}, &Peer::id);
    auto dup = std::ranges::unique(out, {}, &Peer::id);
    out.erase(dup.begin(), dup.end());
    return out;
}

std::vector<NodeId> Network::neighbors(NodeId id) const {
    std::vector<NodeId> out;
    if (const auto* self = find(id)) {
        for (const Peer& p : contacts(id, *self)) out.push_back(p.id);
    }
    return out;
}

Duration Network::transit_time(const Message& msg) {
    auto size_cost = Duration{config_.per_kilobyte.count() *
                              static_cast<std::int64_t>(msg.wire_size()) / 1024};
    auto jitter = config_.jitter.count() > 0
                      ? Duration{static_cast<std::int64_t>(
                            rng_.next_below(static_cast<std::uint64_t>(config_.jitter.count())))}
                      : Duration{0};
    return config_.base_latency + size_cost + jitter;
}

void Network::schedule_delivery(const Message& msg, NodeState& receiver_at_send,
                                Duration extra_delay) {
    ++receiver_at_send.in_flight;
    const std::uint64_t to_epoch = receiver_at_send.epoch;
    sim_.schedule_after(transit_time(msg) + extra_delay, [this, msg, to_epoch]() {
        auto it = nodes_.find(msg.to);
        if (it == nodes_.end()) {
            dropped_out_of_range_.inc();
            return;
        }
        NodeState& receiver = it->second;
        if (receiver.in_flight > 0) --receiver.in_flight;
        if (receiver.removed) {
            dropped_out_of_range_.inc();
            if (receiver.in_flight == 0) nodes_.erase(it);  // tombstone drained
            return;
        }
        if (receiver.epoch != to_epoch || !receiver.handler) {
            dropped_out_of_range_.inc();
            return;
        }
        // A partition window may have opened while the message was in
        // flight: the jammed radio swallows it at delivery time.
        if (injector_ && injector_->partitioned(msg.from, msg.to, sim_.now())) {
            fault_dropped_partition_.inc();
            return;
        }
        // Radio check at delivery time: the receiver may have roamed out of
        // range while the message was in flight. If the *sender* died
        // mid-flight the frame already left its radio, so it still arrives
        // — the physics a crash-point like "install sent, then the base
        // dies" depends on. (With the sender gone we can no longer compute
        // range, so such frames deliver unconditionally.)
        const NodeState* sender = find(msg.from);
        bool sender_gone = !sender || sender->removed;
        if (!sender_gone && !linked(msg.from, *sender, msg.to, receiver)) {
            dropped_out_of_range_.inc();
            return;
        }
        delivered_.inc();
        bytes_delivered_.inc(msg.wire_size());
        // The frame's causal context becomes ambient for the duration of
        // the delivery: every span/instant the handler records joins the
        // sender's trace.
        obs::TraceBuffer::ContextScope scope(obs::TraceBuffer::global(), msg.trace);
        if (receiver.tap) receiver.tap(msg);
        receiver.handler(msg);
    });
}

bool Network::send(const Message& msg) {
    sent_.inc();
    auto* receiver = find(msg.to);
    if (!receiver || !in_contact(msg.from, msg.to)) {
        dropped_out_of_range_.inc();
        return false;
    }
    return transmit(msg, *receiver);
}

std::size_t Network::broadcast(NodeId from, const std::string& kind, Bytes payload) {
    const auto* sender = find(from);
    if (!sender) return 0;
    const std::vector<Peer> to = contacts(from, *sender);
    sent_.inc(to.size());
    Message msg{from, NodeId{}, kind, std::move(payload), obs::TraceBuffer::global().current()};
    std::size_t scheduled = 0;
    for (const Peer& p : to) {
        msg.to = p.id;
        if (transmit(msg, *p.node)) ++scheduled;
    }
    return scheduled;
}

bool Network::transmit(const Message& msg, NodeState& receiver) {
    if (config_.loss_probability > 0 && rng_.chance(config_.loss_probability)) {
        dropped_loss_.inc();
        return false;
    }
    Duration extra_delay{0};
    bool fault_duplicate = false;
    if (injector_) {
        FaultInjector::Verdict verdict = injector_->judge(msg.from, msg.to, sim_.now());
        switch (verdict.drop) {
            case FaultInjector::Drop::kLoss:
                fault_dropped_loss_.inc();
                return false;
            case FaultInjector::Drop::kBurst:
                fault_dropped_burst_.inc();
                return false;
            case FaultInjector::Drop::kPartition:
                fault_dropped_partition_.inc();
                return false;
            case FaultInjector::Drop::kNone:
                break;
        }
        extra_delay = verdict.extra_delay;
        fault_duplicate = verdict.duplicate;
        if (verdict.reordered) fault_reordered_.inc();
        if (extra_delay.count() > 0) fault_delayed_.inc();
    }
    schedule_delivery(msg, receiver, extra_delay);
    if (fault_duplicate) {
        fault_duplicated_.inc();
        schedule_delivery(msg, receiver, extra_delay);
    }
    if (config_.duplicate_probability > 0 && rng_.chance(config_.duplicate_probability)) {
        duplicated_.inc();
        schedule_delivery(msg, receiver);
    }
    return true;
}

const Network::NodeState* Network::find(NodeId id) const {
    auto it = nodes_.find(id);
    return it == nodes_.end() ? nullptr : &it->second;
}

Network::NodeState* Network::find(NodeId id) {
    auto it = nodes_.find(id);
    return it == nodes_.end() ? nullptr : &it->second;
}

}  // namespace pmp::net
