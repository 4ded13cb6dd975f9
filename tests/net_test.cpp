// Tests for the simulated radio network, mobility and message routing.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.h"
#include "common/rng.h"
#include "net/mobility.h"
#include "net/network.h"
#include "net/router.h"

namespace pmp::net {
namespace {

NetworkConfig quiet() {
    NetworkConfig cfg;
    cfg.jitter = Duration{0};
    return cfg;
}

TEST(Position, Distance) {
    EXPECT_DOUBLE_EQ((Position{0, 0}.distance_to(Position{3, 4})), 5.0);
    EXPECT_DOUBLE_EQ((Position{1, 1}.distance_to(Position{1, 1})), 0.0);
}

TEST(Network, ContactRequiresMutualRange) {
    sim::Simulator sim;
    Network net(sim, quiet(), 1);
    NodeId big = net.add_node("base", {0, 0}, 100);
    NodeId small = net.add_node("pda", {50, 0}, 10);
    // base reaches pda, but pda's radio cannot reach back at 50m.
    EXPECT_FALSE(net.in_contact(big, small));
    net.move_node(small, {5, 0});
    EXPECT_TRUE(net.in_contact(big, small));
    EXPECT_TRUE(net.in_contact(small, big));
}

TEST(Network, NoSelfContact) {
    sim::Simulator sim;
    Network net(sim, quiet(), 1);
    NodeId a = net.add_node("a", {0, 0}, 10);
    EXPECT_FALSE(net.in_contact(a, a));
}

TEST(Network, DeliversWithLatency) {
    sim::Simulator sim;
    Network net(sim, quiet(), 1);
    NodeId a = net.add_node("a", {0, 0}, 10);
    NodeId b = net.add_node("b", {1, 0}, 10);

    SimTime delivered_at = SimTime::max();
    std::string got_kind;
    net.set_handler(b, [&](const Message& m) {
        delivered_at = sim.now();
        got_kind = m.kind;
    });
    ASSERT_TRUE(net.send(Message{a, b, "test.ping", to_bytes("hi")}));
    sim.run();
    EXPECT_EQ(got_kind, "test.ping");
    EXPECT_GE(delivered_at, SimTime::zero() + quiet().base_latency);
    EXPECT_EQ(net.stats().delivered, 1u);
}

TEST(Network, DropsWhenOutOfRangeAtSend) {
    sim::Simulator sim;
    Network net(sim, quiet(), 1);
    NodeId a = net.add_node("a", {0, 0}, 10);
    NodeId b = net.add_node("b", {100, 0}, 10);
    net.set_handler(b, [&](const Message&) { FAIL() << "should not deliver"; });
    EXPECT_FALSE(net.send(Message{a, b, "x", {}}));
    sim.run();
    EXPECT_EQ(net.stats().dropped_out_of_range, 1u);
}

TEST(Network, DropsWhenReceiverMovesAwayMidFlight) {
    sim::Simulator sim;
    Network net(sim, quiet(), 1);
    NodeId a = net.add_node("a", {0, 0}, 10);
    NodeId b = net.add_node("b", {1, 0}, 10);
    bool delivered = false;
    net.set_handler(b, [&](const Message&) { delivered = true; });
    ASSERT_TRUE(net.send(Message{a, b, "x", {}}));
    net.move_node(b, {1000, 0});  // teleports away before delivery
    sim.run();
    EXPECT_FALSE(delivered);
    EXPECT_EQ(net.stats().dropped_out_of_range, 1u);
}

TEST(Network, RemovedNodeDoesNotReceive) {
    sim::Simulator sim;
    Network net(sim, quiet(), 1);
    NodeId a = net.add_node("a", {0, 0}, 10);
    NodeId b = net.add_node("b", {1, 0}, 10);
    bool delivered = false;
    net.set_handler(b, [&](const Message&) { delivered = true; });
    ASSERT_TRUE(net.send(Message{a, b, "x", {}}));
    net.remove_node(b);
    sim.run();
    EXPECT_FALSE(delivered);
}

TEST(Network, LossInjection) {
    sim::Simulator sim;
    NetworkConfig cfg = quiet();
    cfg.loss_probability = 1.0;
    Network net(sim, cfg, 1);
    NodeId a = net.add_node("a", {0, 0}, 10);
    NodeId b = net.add_node("b", {1, 0}, 10);
    net.set_handler(b, [&](const Message&) { FAIL() << "lossy link delivered"; });
    EXPECT_FALSE(net.send(Message{a, b, "x", {}}));
    sim.run();
    EXPECT_EQ(net.stats().dropped_loss, 1u);
}

TEST(Network, DuplicateInjection) {
    sim::Simulator sim;
    NetworkConfig cfg = quiet();
    cfg.duplicate_probability = 1.0;
    Network net(sim, cfg, 1);
    NodeId a = net.add_node("a", {0, 0}, 10);
    NodeId b = net.add_node("b", {1, 0}, 10);
    int deliveries = 0;
    net.set_handler(b, [&](const Message&) { ++deliveries; });
    net.send(Message{a, b, "x", {}});
    sim.run();
    EXPECT_EQ(deliveries, 2);
    EXPECT_EQ(net.stats().duplicated, 1u);
}

TEST(Network, BroadcastReachesOnlyNeighbors) {
    sim::Simulator sim;
    Network net(sim, quiet(), 1);
    NodeId a = net.add_node("a", {0, 0}, 10);
    NodeId near1 = net.add_node("n1", {1, 0}, 10);
    NodeId near2 = net.add_node("n2", {0, 1}, 10);
    NodeId far = net.add_node("far", {100, 0}, 10);

    int near_got = 0;
    net.set_handler(near1, [&](const Message&) { ++near_got; });
    net.set_handler(near2, [&](const Message&) { ++near_got; });
    net.set_handler(far, [&](const Message&) { FAIL() << "far node reached"; });

    EXPECT_EQ(net.broadcast(a, "hello", {}), 2u);
    sim.run();
    EXPECT_EQ(near_got, 2);
}

TEST(Network, NeighborsList) {
    sim::Simulator sim;
    Network net(sim, quiet(), 1);
    NodeId a = net.add_node("a", {0, 0}, 10);
    net.add_node("b", {1, 0}, 10);
    net.add_node("c", {100, 0}, 10);
    EXPECT_EQ(net.neighbors(a).size(), 1u);
}

// The grid-indexed neighbour query must agree with the pairwise contact
// rule at fleet scale: negative coordinates, mixed ranges, one range wider
// than the whole layout (the occupied-cell walk), wires, moves across grid
// cells and removed nodes.
TEST(Network, NeighborsMatchPairwiseContactAtFleetScale) {
    sim::Simulator sim;
    Network net(sim, quiet(), 1);
    Rng rng(42);
    auto coord = [&] { return rng.next_double() * 1200.0 - 600.0; };
    const double ranges[] = {0.0, 5.0, 40.0, 64.0, 150.0, 500.0};
    std::vector<NodeId> ids;
    for (int i = 0; i < 1200; ++i) {
        const double range = ranges[rng.next_below(std::size(ranges))];
        const std::string name = std::string("n").append(std::to_string(i));
        ids.push_back(net.add_node(name, {coord(), coord()}, range));
    }
    const NodeId tower = net.add_node("tower", {-3.0, 7.0}, 1e5);  // wider than the layout
    ids.push_back(tower);
    // Peers exactly at range along each axis sit in the edge cells of the
    // sender's box: one box small enough to be visited cell by cell, one
    // large enough that the occupied cells are walked instead.
    for (double r : {100.0, 1000.0}) {
        const Position c{2000.5 + 3 * r, -1700.25};
        ids.push_back(net.add_node("c", c, r));
        for (auto [dx, dy] : {std::pair{r, 0.0}, {-r, 0.0}, {0.0, r}, {0.0, -r}}) {
            ids.push_back(net.add_node("edge", {c.x + dx, c.y + dy}, r));
        }
    }
    for (int i = 0; i < 60; ++i) {
        net.add_wire(ids[rng.next_below(ids.size())], ids[rng.next_below(ids.size())]);
    }
    for (int i = 0; i < 300; ++i) {  // small steps and long jumps
        const NodeId id = ids[rng.next_below(1200)];
        const Position p = net.position_of(id);
        const double step = i % 2 ? 70.0 : 900.0;
        net.move_node(id, {p.x + (rng.next_double() - 0.5) * step,
                           p.y + (rng.next_double() - 0.5) * step});
    }
    for (int i = 0; i < 100; ++i) net.remove_node(ids[rng.next_below(1200)]);
    // A removed node at a live node's very position is nobody's neighbour.
    const NodeId twin = net.add_node("twin", net.position_of(tower), 50);
    ids.push_back(twin);
    net.remove_node(twin);
    sim.run();  // compact the tombstones

    for (NodeId id : ids) {
        std::vector<NodeId> expect;
        for (NodeId other : ids) {
            if (net.in_contact(id, other)) expect.push_back(other);
        }
        std::sort(expect.begin(), expect.end());
        ASSERT_EQ(net.neighbors(id), expect) << "node " << id.str();
    }
    EXPECT_GT(net.neighbors(tower).size(), 100u);
}

TEST(Network, BroadcastSendsInAscendingNodeIdOrder) {
    sim::Simulator sim;
    Network net(sim, quiet(), 1);
    // Added out of id order relative to position, and some in another cell.
    NodeId src = net.add_node("src", {0, 0}, 200);
    std::vector<NodeId> peers;
    for (int i = 0; i < 12; ++i) {
        const std::string name = std::string("p").append(std::to_string(i));
        peers.push_back(net.add_node(name, {150.0 - 25.0 * i, -70.0}, 200));
    }
    std::vector<NodeId> order;
    for (NodeId p : peers) {
        net.set_handler(p, [&order, p](const Message&) { order.push_back(p); });
    }
    EXPECT_EQ(net.broadcast(src, "hello", {}), peers.size());
    sim.run();  // no jitter: deliveries fire in send order
    EXPECT_EQ(order, peers);
}

TEST(Network, LargerMessagesTakeLonger) {
    sim::Simulator sim;
    Network net(sim, quiet(), 1);
    NodeId a = net.add_node("a", {0, 0}, 10);
    NodeId b = net.add_node("b", {1, 0}, 10);
    SimTime small_at, big_at;
    int got = 0;
    net.set_handler(b, [&](const Message& m) {
        (got++ == 0 ? small_at : big_at) = sim.now();
        (void)m;
    });
    net.send(Message{a, b, "s", Bytes(10)});
    sim.run();
    SimTime start2 = sim.now();
    net.send(Message{a, b, "b", Bytes(100 * 1024)});
    sim.run();
    EXPECT_GT(big_at - start2, small_at - SimTime::zero() + Duration{0});
}

TEST(Network, UnknownNodeThrows) {
    sim::Simulator sim;
    Network net(sim, quiet(), 1);
    EXPECT_THROW(net.position_of(NodeId{99}), RemoteError);
    EXPECT_THROW(net.move_node(NodeId{99}, {0, 0}), RemoteError);
    EXPECT_THROW(net.set_handler(NodeId{99}, [](const Message&) {}), RemoteError);
}

TEST(Mobility, LinearInterpolation) {
    sim::Simulator sim;
    Network net(sim, quiet(), 1);
    NodeId a = net.add_node("a", {0, 0}, 10);
    PathMover mover(net, a, {Waypoint{{100, 0}, SimTime::zero() + seconds(10)}});

    sim.run_until(SimTime::zero() + seconds(5));
    Position mid = net.position_of(a);
    EXPECT_NEAR(mid.x, 50.0, 2.0);  // within one tick of the midpoint
    sim.run_until(SimTime::zero() + seconds(11));
    EXPECT_NEAR(net.position_of(a).x, 100.0, 0.01);
    EXPECT_TRUE(mover.finished());
}

TEST(Mobility, MultiLegPath) {
    sim::Simulator sim;
    Network net(sim, quiet(), 1);
    NodeId a = net.add_node("a", {0, 0}, 10);
    PathMover mover(net, a, {Waypoint{{10, 0}, SimTime::zero() + seconds(1)},
                             Waypoint{{10, 20}, SimTime::zero() + seconds(3)}});
    sim.run_until(SimTime::zero() + seconds(2));
    Position p = net.position_of(a);
    EXPECT_NEAR(p.x, 10.0, 0.5);
    EXPECT_NEAR(p.y, 10.0, 1.5);
    sim.run_until(SimTime::zero() + seconds(4));
    EXPECT_NEAR(net.position_of(a).y, 20.0, 0.01);
}

TEST(Mobility, EmptyPathFinishesImmediately) {
    sim::Simulator sim;
    Network net(sim, quiet(), 1);
    NodeId a = net.add_node("a", {0, 0}, 10);
    PathMover mover(net, a, {});
    EXPECT_TRUE(mover.finished());
}

TEST(Network, WiredLinkIgnoresDistance) {
    sim::Simulator sim;
    Network net(sim, quiet(), 1);
    NodeId a = net.add_node("base-a", {0, 0}, 10);
    NodeId b = net.add_node("base-b", {10000, 0}, 10);
    EXPECT_FALSE(net.in_contact(a, b));
    net.add_wire(a, b);
    EXPECT_TRUE(net.in_contact(a, b));
    EXPECT_TRUE(net.in_contact(b, a));  // symmetric regardless of argument order

    int got = 0;
    net.set_handler(b, [&](const Message&) { ++got; });
    EXPECT_TRUE(net.send(Message{a, b, "backbone", {}}));
    sim.run();
    EXPECT_EQ(got, 1);
}

TEST(Network, WireDoesNotAffectThirdParties) {
    sim::Simulator sim;
    Network net(sim, quiet(), 1);
    NodeId a = net.add_node("a", {0, 0}, 10);
    NodeId b = net.add_node("b", {10000, 0}, 10);
    NodeId c = net.add_node("c", {20000, 0}, 10);
    net.add_wire(a, b);
    EXPECT_FALSE(net.in_contact(a, c));
    EXPECT_FALSE(net.in_contact(b, c));
    // Broadcast from a reaches only the wired peer.
    EXPECT_EQ(net.broadcast(a, "x", {}), 1u);
}

TEST(Router, RoutesByKind) {
    sim::Simulator sim;
    Network net(sim, quiet(), 1);
    NodeId a = net.add_node("a", {0, 0}, 10);
    NodeId b = net.add_node("b", {1, 0}, 10);
    MessageRouter ra(net, a);
    MessageRouter rb(net, b);

    int pings = 0, pongs = 0;
    rb.route("ping", [&](const Message&) { ++pings; });
    rb.route("pong", [&](const Message&) { ++pongs; });
    ra.send(b, "ping", {});
    ra.send(b, "other", {});  // unrouted: silently dropped
    sim.run();
    EXPECT_EQ(pings, 1);
    EXPECT_EQ(pongs, 0);
}

TEST(Fault, VerdictStreamIsSeedDeterministic) {
    FaultPlan plan;
    plan.loss = 0.2;
    plan.burst_enter = 0.1;
    plan.delay_jitter = milliseconds(10);
    plan.duplicate = 0.1;
    plan.reorder = 0.1;
    FaultInjector a(plan, 42), b(plan, 42), other(plan, 43);

    NodeId n1{1}, n2{2};
    bool any_difference_from_other_seed = false;
    for (int i = 0; i < 200; ++i) {
        SimTime t = SimTime::zero() + milliseconds(i);
        auto va = a.judge(n1, n2, t);
        auto vb = b.judge(n1, n2, t);
        auto vo = other.judge(n1, n2, t);
        EXPECT_EQ(va.drop, vb.drop);
        EXPECT_EQ(va.extra_delay, vb.extra_delay);
        EXPECT_EQ(va.duplicate, vb.duplicate);
        EXPECT_EQ(va.reordered, vb.reordered);
        if (va.drop != vo.drop || va.extra_delay != vo.extra_delay) {
            any_difference_from_other_seed = true;
        }
    }
    EXPECT_TRUE(any_difference_from_other_seed);
}

TEST(Fault, LinkStreamsAreIndependentOfJudgeOrder) {
    // Interleaving traffic on other links must not perturb a link's own
    // fault stream — the property that makes multi-node soaks replayable.
    FaultPlan plan;
    plan.loss = 0.3;
    plan.delay_jitter = milliseconds(10);
    NodeId n1{1}, n2{2}, n3{3};

    FaultInjector alone(plan, 7), interleaved(plan, 7);
    for (int i = 0; i < 100; ++i) {
        SimTime t = SimTime::zero() + milliseconds(i);
        auto va = alone.judge(n1, n2, t);
        interleaved.judge(n3, n1, t);  // extra traffic on another link
        auto vb = interleaved.judge(n1, n2, t);
        interleaved.judge(n2, n3, t);
        EXPECT_EQ(va.drop, vb.drop);
        EXPECT_EQ(va.extra_delay, vb.extra_delay);
    }
}

TEST(Fault, BurstLossClusters) {
    FaultPlan plan;
    plan.burst_enter = 0.05;
    plan.burst_exit = 0.2;
    plan.burst_loss = 1.0;  // every in-burst message drops
    FaultInjector inj(plan, 11);

    NodeId n1{1}, n2{2};
    int drops = 0, runs = 0;
    bool in_run = false;
    for (int i = 0; i < 2000; ++i) {
        auto v = inj.judge(n1, n2, SimTime::zero() + milliseconds(i));
        bool dropped = v.drop == FaultInjector::Drop::kBurst;
        if (dropped) ++drops;
        if (dropped && !in_run) ++runs;
        in_run = dropped;
    }
    ASSERT_GT(drops, 0);
    ASSERT_GT(runs, 0);
    // Clustering: far fewer distinct runs than drops (uniform loss would
    // give runs ~= drops at these rates).
    EXPECT_GT(drops / runs, 2);
}

TEST(Fault, OneWayPartitionCutsSingleDirection) {
    NodeId n1{1}, n2{2}, n3{3};
    FaultPlan plan;
    plan.partitions.push_back(PartitionWindow{SimTime::zero() + seconds(1),
                                             SimTime::zero() + seconds(2),
                                             {n1},
                                             {n2},
                                             /*one_way=*/true});
    FaultInjector inj(plan, 1);

    SimTime before = SimTime::zero(), during = SimTime::zero() + milliseconds(1500),
            after = SimTime::zero() + seconds(2);
    EXPECT_FALSE(inj.partitioned(n1, n2, before));
    EXPECT_TRUE(inj.partitioned(n1, n2, during));
    EXPECT_FALSE(inj.partitioned(n2, n1, during));  // reverse stays up
    EXPECT_FALSE(inj.partitioned(n1, n3, during));  // uninvolved link
    EXPECT_FALSE(inj.partitioned(n1, n2, after));   // healed (exclusive end)
}

TEST(Fault, EmptySideMatchesEveryNode) {
    NodeId n1{1}, n2{2}, n3{3};
    FaultPlan plan;
    // Isolate n1 from everyone, both directions.
    plan.partitions.push_back(
        PartitionWindow{SimTime::zero(), SimTime::max(), {n1}, {}});
    FaultInjector inj(plan, 1);
    SimTime t = SimTime::zero() + seconds(1);
    EXPECT_TRUE(inj.partitioned(n1, n2, t));
    EXPECT_TRUE(inj.partitioned(n3, n1, t));
    EXPECT_FALSE(inj.partitioned(n2, n3, t));
}

TEST(Fault, NetworkDropsDuringPartitionWindowAndHeals) {
    sim::Simulator sim;
    Network net(sim, quiet(), 1);
    NodeId a = net.add_node("a", {0, 0}, 10);
    NodeId b = net.add_node("b", {1, 0}, 10);
    int got = 0;
    net.set_handler(b, [&](const Message&) { ++got; });

    FaultPlan plan;
    plan.partitions.push_back(PartitionWindow{SimTime::zero() + seconds(1),
                                             SimTime::zero() + seconds(2),
                                             {a},
                                             {b}});
    net.set_fault_plan(plan, 5);

    auto send_at = [&](Duration when) {
        sim.schedule_at(SimTime::zero() + when,
                        [&] { net.send(Message{a, b, "k", to_bytes("x")}); });
    };
    send_at(milliseconds(500));   // before the window: delivered
    send_at(milliseconds(1500));  // inside: dropped
    send_at(milliseconds(2500));  // after heal: delivered
    sim.run();
    EXPECT_EQ(got, 2);
    EXPECT_EQ(net.stats().fault_dropped_partition, 1u);
}

TEST(Fault, PartitionOpeningMidFlightSwallowsMessage) {
    sim::Simulator sim;
    NetworkConfig cfg = quiet();
    cfg.base_latency = milliseconds(20);
    Network net(sim, cfg, 1);
    NodeId a = net.add_node("a", {0, 0}, 10);
    NodeId b = net.add_node("b", {1, 0}, 10);
    int got = 0;
    net.set_handler(b, [&](const Message&) { ++got; });

    FaultPlan plan;
    plan.partitions.push_back(
        PartitionWindow{SimTime::zero() + milliseconds(10), SimTime::max(), {a}, {b}});
    net.set_fault_plan(plan, 5);

    // Sent while the link is still up, but the window opens before the
    // 20ms transit completes: the jammed radio eats it at delivery time.
    ASSERT_TRUE(net.send(Message{a, b, "k", to_bytes("x")}));
    sim.run();
    EXPECT_EQ(got, 0);
    EXPECT_EQ(net.stats().fault_dropped_partition, 1u);
}

TEST(Fault, DuplicationAndDelayCounters) {
    sim::Simulator sim;
    Network net(sim, quiet(), 1);
    NodeId a = net.add_node("a", {0, 0}, 10);
    NodeId b = net.add_node("b", {1, 0}, 10);
    int got = 0;
    net.set_handler(b, [&](const Message&) { ++got; });

    FaultPlan plan;
    plan.duplicate = 1.0;
    plan.delay_jitter = milliseconds(5);
    net.set_fault_plan(plan, 9);
    for (int i = 0; i < 10; ++i) net.send(Message{a, b, "k", to_bytes("x")});
    sim.run();
    EXPECT_EQ(got, 20);  // every message doubled
    EXPECT_EQ(net.stats().fault_duplicated, 10u);
}

TEST(Network, ChurnKeepsNodeTableBounded) {
    sim::Simulator sim;
    Network net(sim, quiet(), 1);
    NodeId base = net.add_node("base", {0, 0}, 10);
    net.set_handler(base, [](const Message&) {});

    for (int i = 0; i < 1000; ++i) {
        NodeId n = net.add_node(std::string("n").append(std::to_string(i)), {1, 0}, 10);
        net.set_handler(n, [](const Message&) {});
        net.send(Message{base, n, "k", to_bytes("x")});  // leave one in flight
        net.remove_node(n);
        // Pump occasionally, as a long-lived sim would.
        if (i % 10 == 9) sim.run();
    }
    sim.run();
    // Tombstones are compacted once in-flight deliveries drain: only the
    // base survives 1000 add/remove cycles.
    EXPECT_EQ(net.node_count(), 1u);
}

TEST(Network, RemoveNodeFromItsOwnHandlerIsSafe) {
    sim::Simulator sim;
    Network net(sim, quiet(), 1);
    NodeId a = net.add_node("a", {0, 0}, 10);
    NodeId b = net.add_node("b", {1, 0}, 10);
    int got = 0;
    net.set_handler(b, [&](const Message&) {
        ++got;
        net.remove_node(b);  // node removes itself while handling a message
    });
    net.send(Message{a, b, "k", to_bytes("x")});
    net.send(Message{a, b, "k", to_bytes("x")});
    sim.run();
    EXPECT_EQ(got, 1);
    EXPECT_EQ(net.node_count(), 1u);
}

TEST(Router, ThrowingHandlerCostsOneMessageOnly) {
    sim::Simulator sim;
    Network net(sim, quiet(), 1);
    NodeId a = net.add_node("a", {0, 0}, 10);
    NodeId b = net.add_node("b", {1, 0}, 10);
    MessageRouter ra(net, a);
    MessageRouter rb(net, b);
    int got = 0;
    rb.route("boom", [&](const Message&) -> void {
        throw std::runtime_error("not an Error subclass");
    });
    rb.route("ok", [&](const Message&) { ++got; });
    ra.send(b, "boom", {});
    ra.send(b, "ok", {});
    EXPECT_NO_THROW(sim.run());  // the throw must not unwind the sim loop
    EXPECT_EQ(got, 1);
}

TEST(Router, UnrouteStopsDelivery) {
    sim::Simulator sim;
    Network net(sim, quiet(), 1);
    NodeId a = net.add_node("a", {0, 0}, 10);
    NodeId b = net.add_node("b", {1, 0}, 10);
    MessageRouter ra(net, a);
    MessageRouter rb(net, b);
    int got = 0;
    rb.route("k", [&](const Message&) { ++got; });
    ra.send(b, "k", {});
    sim.run();
    rb.unroute("k");
    ra.send(b, "k", {});
    sim.run();
    EXPECT_EQ(got, 1);
}

}  // namespace
}  // namespace pmp::net
