// Federation-scale machinery: consistent-hash sharded discovery with live
// lease migration, the deterministic renewal jitter, and the cell-level
// batched lease protocol (one delta-encoded frame per cell per period; see
// midas/cell.h and docs/federation.md). The batched path carries the same
// promises as the direct one — healthy nodes never lose a lease, breaker /
// epoch / failure-ledger semantics are unchanged — and a chaos band checks
// them under dropped, duplicated and reordered frames across many seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/hash.h"
#include "disco/shard.h"
#include "midas/node.h"
#include "net/fault.h"
#include "obs/metrics.h"

namespace pmp::midas {
namespace {

using rt::Value;

ExtensionPackage policy_pkg(const std::string& name,
                            const std::string& body = "fun onEntry() { }") {
    ExtensionPackage pkg;
    pkg.name = name;
    pkg.script = body;
    pkg.bindings = {{prose::AdviceKind::kBefore, "call(* Motor.*(..))", "onEntry", 0}};
    return pkg;
}

std::uint64_t counter_now(const std::string& name, const std::string& label = "") {
    return obs::Registry::global().counter(name, label).value();
}

// ------------------------------------------------------------ hash ring ----

TEST(HashRing, OwnershipIsDeterministicAndCoversAllShards) {
    disco::HashRing a;
    a.add("s0", NodeId{10});
    a.add("s1", NodeId{11});
    a.add("s2", NodeId{12});
    a.add("s3", NodeId{13});

    // Same membership added in another order: identical owners — every
    // party that knows the ring routes identically with no coordination.
    disco::HashRing b;
    b.add("s3", NodeId{13});
    b.add("s1", NodeId{11});
    b.add("s0", NodeId{10});
    b.add("s2", NodeId{12});

    std::set<std::uint64_t> owners_seen;
    for (int i = 0; i < 256; ++i) {
        std::string key = "service/type/" + std::to_string(i);
        NodeId owner = a.owner(key);
        EXPECT_EQ(owner, b.owner(key)) << key;
        ASSERT_NE(owner.value, 0u) << key;
        owners_seen.insert(owner.value);
        const std::string* shard = a.owner_shard(key);
        ASSERT_NE(shard, nullptr);
        EXPECT_EQ(a.node_of(*shard), owner);
    }
    // 64 vnodes per shard spread 256 keys over every shard.
    EXPECT_EQ(owners_seen.size(), 4u);
}

TEST(HashRing, JoinMovesOnlyKeysBoundForTheNewShard) {
    disco::HashRing ring;
    ring.add("s0", NodeId{10});
    ring.add("s1", NodeId{11});
    ring.add("s2", NodeId{12});
    ring.add("s3", NodeId{13});

    std::map<std::string, NodeId> before;
    for (int i = 0; i < 512; ++i) {
        std::string key = std::string("k").append(std::to_string(i));
        before[key] = ring.owner(key);
    }
    ring.add("s4", NodeId{14});

    std::size_t moved = 0;
    for (const auto& [key, old_owner] : before) {
        NodeId now = ring.owner(key);
        if (now != old_owner) {
            ++moved;
            // Consistent hashing's defining property: a join only pulls
            // keys toward the joiner; no key moves between old shards.
            EXPECT_EQ(now, NodeId{14}) << key;
        }
    }
    EXPECT_GT(moved, 0u);
    EXPECT_LT(moved, 512u / 2);  // ~1/5 expected; far from full reshuffle

    ring.remove("s4");
    for (const auto& [key, old_owner] : before) {
        EXPECT_EQ(ring.owner(key), old_owner) << key;
    }
}

// ------------------------------------------------------- renewal jitter ----

TEST(RenewalJitter, SpreadIsBoundedDeterministicAndWide) {
    const Duration lease = seconds(2);
    const std::int64_t lo = lease.count() * 3 / 8;
    const std::int64_t hi = lease.count() * 5 / 8;
    std::set<std::int64_t> phases;
    std::int64_t min_seen = lease.count();
    std::int64_t max_seen = 0;
    for (std::uint64_t l = 1; l <= 256; ++l) {
        Duration p = disco::lease_renewal_phase(NodeId{42}, LeaseId{l}, lease);
        // Replay-stable: the phase is a pure function of (registrar, lease).
        EXPECT_EQ(p, disco::lease_renewal_phase(NodeId{42}, LeaseId{l}, lease));
        // Bounded: worst case (renew at 5/8·d, lost and timed out at
        // 7/8·d, retried d/16 later) still lands at 15/16·d, inside the
        // lease.
        EXPECT_GE(p.count(), lo) << "lease " << l;
        EXPECT_LE(p.count(), hi) << "lease " << l;
        phases.insert(p.count());
        min_seen = std::min(min_seen, p.count());
        max_seen = std::max(max_seen, p.count());
    }
    // The regression this guards: 256 leases granted in the same instant
    // must NOT renew in the same instant forever (the pre-fix behavior —
    // every phase was exactly duration/2, one thundering herd per period).
    EXPECT_GT(phases.size(), 64u);
    EXPECT_LT(min_seen, lease.count() / 2 - lease.count() / 16);
    EXPECT_GT(max_seen, lease.count() / 2 + lease.count() / 16);
}

TEST(RenewalJitter, LostRenewRetriesPromptlyInsideTheLease) {
    // One registrar, one client, 16 leases with first-renewal phases
    // spread over [3/8·d, 5/8·d] (d = 2 s). A 660 ms partition swallows
    // every first renewal — each fails fast with *unreachable* (the
    // network refuses the send), so the lease still has over half its
    // life left when the failure lands. The holder must keep retrying on
    // the d/16 cadence until the granted budget is gone: the window lifts
    // well before any lease expires, so every one must recover. The
    // regression this guards is the old fixed single retry, which landed
    // back inside the partition and tore down all 16 leases over a blip
    // a third the length of the lease.
    sim::Simulator sim;
    net::Network net(sim, net::NetworkConfig{}, 808);
    NodeStack host(net, "reg", net::Position{0, 0}, 200.0);
    disco::Registrar registrar(host.router(), host.rpc());
    NodeStack client(net, "client", net::Position{10, 0}, 200.0);
    sim.run_for(seconds(1));

    int registered = 0;
    int lost = 0;
    std::vector<std::shared_ptr<disco::LeasedResource>> handles;
    SimTime t_issue = sim.now();
    for (int i = 0; i < 16; ++i) {
        client.discovery().register_service(
            host.id(), "svc/" + std::to_string(i), rt::Dict{}, [&lost] { ++lost; },
            [&](std::shared_ptr<disco::LeasedResource> h, std::exception_ptr e) {
                ASSERT_FALSE(e);
                handles.push_back(std::move(h));
                ++registered;
            });
    }
    SimTime deadline = sim.now() + seconds(2);
    while (sim.now() < deadline && registered < 16) {
        sim.run_until(sim.now() + milliseconds(10));
    }
    ASSERT_EQ(registered, 16);
    // The window math below assumes all grants happened within this slop.
    ASSERT_LT(sim.now() - t_issue, milliseconds(100));

    // First renewals fire in [750 ms, 1250 ms] after each grant. Black out
    // the registrar across that whole band; every lease's expiry (grant +
    // 2 s) falls safely after the window lifts, so the retry loop always
    // gets at least one attempt on a healed network.
    net::FaultPlan plan;
    plan.partitions.push_back(net::PartitionWindow{
        t_issue + milliseconds(700), t_issue + milliseconds(1360), {host.id()}, {}});
    net.set_fault_plan(plan, 1);

    sim.run_for(seconds(4));  // two lease lifetimes
    EXPECT_EQ(lost, 0);
    for (auto& h : handles) EXPECT_TRUE(h->alive());
    EXPECT_EQ(registrar.registration_count(), 16u);
}

// --------------------------------------------- sharded discovery (live) ----

/// Three registrar hosts plus one client, all in mutual radio range. The
/// client routes by key through a ShardedLookup instead of picking one
/// registrar.
struct ShardWorld {
    sim::Simulator sim;
    net::Network net;
    std::vector<std::unique_ptr<NodeStack>> hosts;
    std::vector<std::unique_ptr<disco::Registrar>> registrars;
    std::unique_ptr<NodeStack> client;
    std::unique_ptr<disco::ShardedLookup> route;

    explicit ShardWorld(std::uint64_t seed, int shards = 3)
        : net(sim, net::NetworkConfig{}, seed) {
        for (int i = 0; i < shards; ++i) {
            auto host = std::make_unique<NodeStack>(
                net, "shard" + std::to_string(i), net::Position{double(i) * 10, 0}, 200.0);
            registrars.push_back(
                std::make_unique<disco::Registrar>(host->router(), host->rpc()));
            hosts.push_back(std::move(host));
        }
        client = std::make_unique<NodeStack>(net, "client", net::Position{5, 5}, 200.0);
        route = std::make_unique<disco::ShardedLookup>(client->discovery());
        for (int i = 0; i < shards; ++i) {
            route->ring().add("shard" + std::to_string(i), hosts[i]->id());
        }
        sim.run_for(seconds(1));  // beacons out, registrars discovered
    }

    bool run_until(const std::function<bool()>& pred, Duration timeout = seconds(30)) {
        SimTime deadline = sim.now() + timeout;
        while (sim.now() < deadline) {
            if (pred()) return true;
            sim.run_until(sim.now() + milliseconds(50));
        }
        return pred();
    }
};

TEST(ShardedDiscovery, RegistrationsAndLookupsRouteToTheOwningShard) {
    ShardWorld w(101);
    std::vector<std::string> types;
    for (int i = 0; i < 12; ++i) types.push_back("svc/type" + std::to_string(i));

    int registered = 0;
    std::vector<std::shared_ptr<disco::LeasedResource>> handles;
    for (const std::string& type : types) {
        w.route->register_service(
            type, rt::Dict{{"node", Value{"client"}}}, /*on_lost=*/[] {},
            [&](std::shared_ptr<disco::LeasedResource> h, std::exception_ptr e) {
                ASSERT_FALSE(e);
                handles.push_back(std::move(h));
                ++registered;
            });
    }
    ASSERT_TRUE(w.run_until([&] { return registered == 12; }));

    // Each registration physically lives on the shard the ring names as
    // the key's owner — and on no other.
    for (const std::string& type : types) {
        NodeId owner = w.route->registrar_for(type);
        for (std::size_t i = 0; i < w.hosts.size(); ++i) {
            std::size_t n = w.registrars[i]->lookup(type).size();
            EXPECT_EQ(n, w.hosts[i]->id() == owner ? 1u : 0u)
                << type << " on shard" << i;
        }
    }

    // Routed lookup finds every one of them.
    int found = 0;
    for (const std::string& type : types) {
        w.route->lookup(type, [&](std::vector<disco::ServiceItem> items,
                                  std::exception_ptr e) {
            ASSERT_FALSE(e);
            ASSERT_EQ(items.size(), 1u);
            EXPECT_EQ(items[0].type, *std::find(types.begin(), types.end(), items[0].type));
            ++found;
        });
    }
    ASSERT_TRUE(w.run_until([&] { return found == 12; }));
}

TEST(ShardedDiscovery, RebalanceMigratesLeasesAndRenewalsFollowTheMove) {
    // Start with a 2-shard ring; the third registrar exists but owns
    // nothing yet.
    ShardWorld w(202);
    w.route->ring().remove("shard2");

    int registered = 0;
    int lost = 0;
    std::vector<std::shared_ptr<disco::LeasedResource>> handles;
    for (int i = 0; i < 16; ++i) {
        w.route->register_service(
            "svc/type" + std::to_string(i), rt::Dict{{"node", Value{"client"}}},
            /*on_lost=*/[&] { ++lost; },
            [&](std::shared_ptr<disco::LeasedResource> h, std::exception_ptr e) {
                ASSERT_FALSE(e);
                handles.push_back(std::move(h));
                ++registered;
            });
    }
    ASSERT_TRUE(w.run_until([&] { return registered == 16; }));
    std::size_t on01 =
        w.registrars[0]->registration_count() + w.registrars[1]->registration_count();
    ASSERT_EQ(on01, 16u);

    // shard2 joins: both old homes rebalance against the new ring and ship
    // every lease whose key now hashes to shard2 — one batched RPC per
    // target, remaining lease durations intact.
    w.route->ring().add("shard2", w.hosts[2]->id());
    w.registrars[0]->rebalance(w.route->ring());
    w.registrars[1]->rebalance(w.route->ring());
    ASSERT_TRUE(w.run_until([&] {
        return w.registrars[2]->registration_count() > 0 &&
               w.registrars[0]->shard_stats().migrated_out +
                       w.registrars[1]->shard_stats().migrated_out ==
                   w.registrars[2]->shard_stats().migrated_in;
    }));
    std::uint64_t migrated = w.registrars[2]->shard_stats().migrated_in;
    EXPECT_GT(migrated, 0u);
    // Nothing was lost in transit: every registration still lives somewhere.
    EXPECT_EQ(w.registrars[0]->registration_count() +
                  w.registrars[1]->registration_count() +
                  w.registrars[2]->registration_count(),
              16u);
    // And it landed where the ring says it belongs.
    for (int i = 0; i < 16; ++i) {
        std::string type = "svc/type" + std::to_string(i);
        NodeId owner = w.route->registrar_for(type);
        for (std::size_t s = 0; s < w.hosts.size(); ++s) {
            EXPECT_EQ(w.registrars[s]->lookup(type).size(),
                      w.hosts[s]->id() == owner ? 1u : 0u)
                << type << " on shard" << s;
        }
    }

    // The clients were never told. Their next renewal against the old home
    // is answered with a forward (moved_redirects), the LeasedResource
    // re-homes itself, and several lease lifetimes later nothing has
    // lapsed: no renewal is ever silently dropped by a move.
    w.sim.run_for(seconds(6));  // 3 lease durations (default 2s, renew at ~1s)
    EXPECT_EQ(lost, 0);
    EXPECT_GT(w.registrars[0]->shard_stats().moved_redirects +
                  w.registrars[1]->shard_stats().moved_redirects,
              0u);
    EXPECT_EQ(w.registrars[0]->registration_count() +
                  w.registrars[1]->registration_count() +
                  w.registrars[2]->registration_count(),
              16u);
    for (auto& h : handles) EXPECT_TRUE(h->alive());
}

TEST(ShardedDiscovery, RebalanceMigratesWatchesAndEventsFollowTheMove) {
    // Start with a 2-shard ring; shard2 joins later.
    ShardWorld w(505);
    w.route->ring().remove("shard2");

    const int kTypes = 12;
    std::map<std::string, int> appeared;
    int watching = 0;
    int lost = 0;
    std::vector<std::shared_ptr<disco::LeasedResource>> watch_handles;
    for (int i = 0; i < kTypes; ++i) {
        std::string type = "svc/type" + std::to_string(i);
        w.route->watch(
            type,
            [&appeared, type](const disco::ServiceItem&, bool is_appear) {
                if (is_appear) ++appeared[type];
            },
            /*on_lost=*/[&lost] { ++lost; },
            [&](std::shared_ptr<disco::LeasedResource> h, std::exception_ptr e) {
                ASSERT_FALSE(e);
                watch_handles.push_back(std::move(h));
                ++watching;
            });
    }
    ASSERT_TRUE(w.run_until([&] { return watching == kTypes; }));

    // shard2 joins and the old homes rebalance: the remote watches whose
    // type now hashes to shard2 must follow the registrations there. The
    // regression this guards: a watch left on the old owner keeps renewing
    // successfully — do_renew still finds it — yet new registrations of
    // its type route to the new owner, so it silently never fires again.
    w.route->ring().add("shard2", w.hosts[2]->id());
    w.registrars[0]->rebalance(w.route->ring());
    w.registrars[1]->rebalance(w.route->ring());
    ASSERT_TRUE(w.run_until([&] {
        return w.registrars[2]->shard_stats().watches_migrated_in > 0 &&
               w.registrars[0]->shard_stats().watches_migrated_out +
                       w.registrars[1]->shard_stats().watches_migrated_out ==
                   w.registrars[2]->shard_stats().watches_migrated_in;
    }));

    // Services of every type register through the new ring; every watcher
    // must hear of its type appearing, wherever its watch now lives.
    int registered = 0;
    std::vector<std::shared_ptr<disco::LeasedResource>> reg_handles;
    for (int i = 0; i < kTypes; ++i) {
        w.route->register_service(
            "svc/type" + std::to_string(i), rt::Dict{{"node", Value{"client"}}},
            /*on_lost=*/[] {},
            [&](std::shared_ptr<disco::LeasedResource> h, std::exception_ptr e) {
                ASSERT_FALSE(e);
                reg_handles.push_back(std::move(h));
                ++registered;
            });
    }
    ASSERT_TRUE(w.run_until([&] { return registered == kTypes; }));
    ASSERT_TRUE(w.run_until([&] {
        for (int i = 0; i < kTypes; ++i) {
            if (appeared["svc/type" + std::to_string(i)] < 1) return false;
        }
        return true;
    }));

    // The watchers were never told about the move. Their renewals against
    // the old home follow the moved forwarding entry exactly like service
    // leases, and several lease lifetimes later nothing has lapsed.
    w.sim.run_for(seconds(6));
    EXPECT_EQ(lost, 0);
    for (auto& h : watch_handles) EXPECT_TRUE(h->alive());
}

// -------------------------------------------------- receiver LRU caches ----

TEST(ReceiverCaches, CompileCacheIsBoundedAndEvictionsAreCounted) {
    sim::Simulator sim;
    net::Network net(sim, net::NetworkConfig{}, 7);
    BaseConfig bc;
    bc.issuer = "hall";
    BaseStation hall(net, "hall", net::Position{0, 0}, 120.0, bc);
    hall.keys().add_key("hall", to_bytes("k"));

    ReceiverConfig rc;
    rc.compile_cache_cap = 2;
    rc.pointcut_cache_cap = 2;
    MobileNode robot(net, "robot", net::Position{10, 0}, 120.0, rc);
    robot.trust().trust("hall", to_bytes("k"));

    const std::uint64_t evictions0 =
        counter_now("midas.receiver.cache_evictions", "robot");

    // Five distinct scripts -> five distinct compile-cache entries wanted;
    // a cap of 2 must evict at least three, and the counter must say so.
    for (int i = 0; i < 5; ++i) {
        hall.base().add_extension(
            policy_pkg("hall/p" + std::to_string(i),
                       "fun onEntry() { let x = " + std::to_string(i) + "; }"));
    }
    SimTime deadline = sim.now() + seconds(20);
    while (sim.now() < deadline && robot.receiver().installed_count() < 5) {
        sim.run_until(sim.now() + milliseconds(100));
    }
    ASSERT_EQ(robot.receiver().installed_count(), 5u);

    EXPECT_LE(robot.receiver().compile_cache_size(), 2u);
    EXPECT_LE(robot.receiver().pointcut_cache_size(), 2u);
    EXPECT_GE(counter_now("midas.receiver.cache_evictions", "robot") - evictions0, 3u);

    // The caches are an optimization, not a correctness device: everything
    // still installed and stays alive past a lease lifetime.
    sim.run_for(seconds(3));
    EXPECT_EQ(robot.receiver().installed_count(), 5u);
    EXPECT_EQ(robot.receiver().stats().expirations, 0u);
}

// ------------------------------------------------- batched cell protocol ----

/// A far-away base, a cell anchor (registrar + relay) on the backhaul, and
/// `n` nodes that can reach only the cell anchor: base <-> anchor at
/// distance 100, nodes clustered past x=130 with 60 m radios. Everything
/// the base learns about the cell and everything it keeps alive flows
/// through one batch frame per period.
struct CellWorld {
    sim::Simulator sim;
    net::Network net;
    std::unique_ptr<BaseStation> hub;
    std::unique_ptr<CellStation> anchor;
    std::vector<std::unique_ptr<MobileNode>> nodes;

    explicit CellWorld(std::uint64_t seed, int n, BaseConfig bc = make_config())
        : net(sim, net::NetworkConfig{}, seed) {
        hub = std::make_unique<BaseStation>(net, "hub", net::Position{0, 0}, 120.0, bc);
        hub->keys().add_key("hub", to_bytes("hk"));
        anchor = std::make_unique<CellStation>(net, "cell-east",
                                               net::Position{100, 0}, 120.0);
        ReceiverConfig rc;
        rc.cell = "cell-east";
        for (int i = 0; i < n; ++i) {
            net::Position pos{130.0 + 5.0 * (i % 6), 5.0 * (i / 6)};
            auto node = std::make_unique<MobileNode>(
                net, std::string("n").append(std::to_string(i)), pos, 60.0, rc);
            node->trust().trust("hub", to_bytes("hk"));
            nodes.push_back(std::move(node));
        }
        hub->base().attach_cell("cell-east", anchor->id());
        hub->base().add_extension(policy_pkg("hub/policy"));
    }

    static BaseConfig make_config() {
        BaseConfig bc;
        bc.issuer = "hub";
        // Room for a couple of lost rounds before anything lapses — the
        // relay link is a backhaul, not a radio whisper.
        bc.extension_lease = seconds(4);
        bc.max_keepalive_failures = 4;
        return bc;
    }

    bool run_until(const std::function<bool()>& pred, Duration timeout = seconds(30)) {
        SimTime deadline = sim.now() + timeout;
        while (sim.now() < deadline) {
            if (pred()) return true;
            sim.run_until(sim.now() + milliseconds(100));
        }
        return pred();
    }

    bool converged() {
        for (auto& n : nodes) {
            if (n->receiver().installed_count() != 1) return false;
        }
        return true;
    }

    std::uint64_t expirations() {
        std::uint64_t total = 0;
        for (auto& n : nodes) total += n->receiver().stats().expirations;
        return total;
    }
};

TEST(CellBatch, OneFrameAndOneBlobPerPeriodAdaptsAWholeCell) {
    const int kNodes = 8;
    CellWorld w(303, kNodes);
    // The base never hears the nodes directly (they are out of its radio
    // range); membership arrives as join records through the relay, and
    // every install flows through the batch path.
    ASSERT_TRUE(w.run_until([&] { return w.converged(); }));
    EXPECT_EQ(w.hub->base().adapted_count(), static_cast<std::size_t>(kNodes));
    // The reply to frame N carries the results collected since frame N-1:
    // give the pipeline one more period to surface the install statuses.
    ASSERT_TRUE(w.run_until([&] {
        return w.hub->base().cell_stats("cell-east").statuses >=
               static_cast<std::uint64_t>(kNodes);
    }));

    ExtensionBase::CellStats cs = w.hub->base().cell_stats("cell-east");
    EXPECT_EQ(cs.joins, static_cast<std::uint64_t>(kNodes));
    // Content-hash policy sync: one policy, one blob on the wire — not one
    // per node.
    EXPECT_EQ(cs.blobs_sent, 1u);
    EXPECT_EQ(w.anchor->relay().roster_size(), static_cast<std::size_t>(kNodes));
    EXPECT_EQ(w.anchor->relay().cached_blobs(), 1u);

    // Steady state: frame cost per period is O(1) in the cell size. Over a
    // 4 s window (5 keep-alive periods at 800 ms) the base sends ~5 frames;
    // the direct path would have sent kNodes keep-alives per period.
    std::uint64_t frames0 = w.hub->base().cell_stats("cell-east").frames_sent;
    std::uint64_t fanout0 = w.anchor->relay().stats().fanout_calls;
    w.sim.run_for(seconds(4));
    std::uint64_t frames = w.hub->base().cell_stats("cell-east").frames_sent - frames0;
    std::uint64_t fanout = w.anchor->relay().stats().fanout_calls - fanout0;
    EXPECT_GE(frames, 4u);
    EXPECT_LE(frames, 7u);  // one per period, +slack for boundary ticks
    // The relay did the per-node work locally: ~kNodes keep-alives per
    // period left the anchor while ~1 frame per period crossed the backhaul.
    EXPECT_GE(fanout, frames * (kNodes - 1));
    // And nobody lapsed while batched keep-alives carried the cell.
    EXPECT_EQ(w.expirations(), 0u);
    EXPECT_EQ(w.hub->base().stats().nodes_dropped, 0u);

    // A policy change propagates through the same path: replacing the
    // package bumps the version, ships exactly one new blob to the cell,
    // and every node converges onto the replacement.
    std::uint64_t replaced0 = 0;
    for (auto& n : w.nodes) replaced0 += n->receiver().stats().replacements;
    w.hub->base().add_extension(policy_pkg("hub/policy", "fun onEntry() { let y = 1; }"));
    ASSERT_TRUE(w.run_until([&] {
        std::uint64_t replaced = 0;
        for (auto& n : w.nodes) replaced += n->receiver().stats().replacements;
        return replaced - replaced0 == kNodes;
    }));
    EXPECT_EQ(w.hub->base().cell_stats("cell-east").blobs_sent, 2u);
    EXPECT_EQ(w.expirations(), 0u);
}

TEST(CellBatch, RelayDeathDetachesTheCellAndNodesFallBackToDirect) {
    // Everything in mutual range this time: the nodes advertise to the
    // hub's registrar too (their advertisement carries attrs["cell"]), so
    // when the relay dies the direct per-node path can take over.
    sim::Simulator sim;
    net::Network net(sim, net::NetworkConfig{}, 404);
    BaseConfig bc = CellWorld::make_config();
    // The fallback window must fit inside a lease: with the default
    // threshold the base detaches ~3 periods after the relay dies and the
    // very next tick renews directly, comfortably under a 5 s lease.
    bc.extension_lease = seconds(5);
    bc.max_keepalive_failures = 2;
    BaseStation hub(net, "hub", net::Position{0, 0}, 150.0, bc);
    hub.keys().add_key("hub", to_bytes("hk"));
    auto anchor = std::make_unique<CellStation>(net, "cell-east",
                                                net::Position{40, 0}, 150.0);
    ReceiverConfig rc;
    rc.cell = "cell-east";
    std::vector<std::unique_ptr<MobileNode>> nodes;
    for (int i = 0; i < 4; ++i) {
        auto node = std::make_unique<MobileNode>(
            net, std::string("n").append(std::to_string(i)), net::Position{20.0 + 10 * i, 20}, 150.0, rc);
        node->trust().trust("hub", to_bytes("hk"));
        nodes.push_back(std::move(node));
    }
    hub.base().attach_cell("cell-east", anchor->id());
    hub.base().add_extension(policy_pkg("hub/policy"));

    auto run_until = [&](const std::function<bool()>& pred, Duration timeout) {
        SimTime deadline = sim.now() + timeout;
        while (sim.now() < deadline) {
            if (pred()) return true;
            sim.run_until(sim.now() + milliseconds(100));
        }
        return pred();
    };
    auto converged = [&] {
        return std::all_of(nodes.begin(), nodes.end(), [](auto& n) {
            return n->receiver().installed_count() == 1;
        });
    };
    ASSERT_TRUE(run_until(converged, seconds(30)));
    // Batching is in effect.
    ASSERT_GT(hub.base().cell_stats("cell-east").frames_sent, 0u);

    // The anchor dies. Frames start failing; past max_keepalive_failures
    // consecutive failures the base detaches the cell and the members fall
    // back to direct keep-alives — without any node losing its lease
    // (frame failures say nothing about member health, so no failure
    // ledger moves).
    net.remove_node(anchor->id());
    ASSERT_TRUE(run_until(
        [&] { return hub.base().cell_stats("cell-east").frames_sent == 0; },
        seconds(15)));  // detached cells read back as zeros

    sim.run_for(seconds(8));  // two lease lifetimes on the direct path
    EXPECT_TRUE(converged());
    for (auto& n : nodes) {
        EXPECT_EQ(n->receiver().stats().expirations, 0u) << n->label();
    }
    EXPECT_EQ(hub.base().stats().nodes_dropped, 0u);
    EXPECT_EQ(hub.base().adapted_count(), 4u);
    // Direct keep-alives are flowing again (counted per (node, ext) per
    // period once the cell no longer swallows them into frames).
    std::uint64_t ka0 = hub.base().stats().keepalives_sent;
    sim.run_for(seconds(2));
    EXPECT_GT(hub.base().stats().keepalives_sent, ka0);
}

TEST(CellBatch, NeedBlobOnSyncedRosterForcesPutResendWithBlob) {
    // A scripted relay stands in for a real one so the protocol corner is
    // deterministic: the roster reaches full sync (no ops flowing), the
    // blob was delivered — and THEN the relay claims it lost its blob
    // cache (a restart), via a kNeedBlob status. Blobs only ride frames
    // next to put ops, so erasing relay_has alone is not enough: the base
    // must also un-sync the entries naming that hash, or no op is ever
    // generated again and the install stalls forever.
    sim::Simulator sim;
    net::Network net(sim, net::NetworkConfig{}, 606);
    BaseConfig bc = CellWorld::make_config();
    BaseStation hub(net, "hub", net::Position{0, 0}, 200.0, bc);
    hub.keys().add_key("hub", to_bytes("hk"));
    NodeStack relayhost(net, "relayhost", net::Position{50, 0}, 200.0);
    NodeStack member(net, "m0", net::Position{60, 0}, 200.0);

    struct ScriptState {
        std::uint64_t member = 0;
        bool sent_join = false;
        bool blob_delivered = false;
        bool reported_need_blob = false;
        bool reblobbed = false;  // a frame carried the blob again after the report
    } script;
    script.member = member.id().value;

    auto& runtime = relayhost.rpc().runtime();
    auto type =
        rt::TypeInfo::Builder("ScriptedCellRelay")
            .method("batch", rt::TypeKind::kDict, {{"frame", rt::TypeKind::kDict}},
                    [&script](rt::ServiceObject&, rt::List& args) -> Value {
                        const rt::Dict& frame = args[0].as_dict();
                        std::int64_t seq = frame.at("seq").as_int();
                        bool has_ops = !frame.at("ops").as_list().empty();
                        bool has_blob = !frame.at("blobs").as_dict().empty();
                        if (has_blob) {
                            if (script.reported_need_blob) script.reblobbed = true;
                            script.blob_delivered = true;
                        }
                        rt::List statuses;
                        rt::List joins;
                        if (!script.sent_join) {
                            script.sent_join = true;
                            joins.push_back(Value{rt::Dict{
                                {"id", Value{std::int64_t{1}}},
                                {"node",
                                 Value{static_cast<std::int64_t>(script.member)}},
                                {"label", Value{std::string("m0")}}}});
                        } else if (script.blob_delivered && !has_ops &&
                                   !script.reported_need_blob) {
                            script.reported_need_blob = true;
                            statuses.push_back(Value{rt::Dict{
                                {"id", Value{std::int64_t{2}}},
                                {"node",
                                 Value{static_cast<std::int64_t>(script.member)}},
                                {"name", Value{std::string("hub/policy")}},
                                {"code",
                                 Value{std::int64_t{cellproto::kNeedBlob}}},
                                {"ext", Value{std::int64_t{0}}}}});
                        }
                        return Value{rt::Dict{
                            {"applied", Value{seq}},
                            {"resync", Value{false}},
                            {"bitmap_seq", Value{seq}},
                            {"ok", Value{Bytes{}}},
                            {"statuses", Value{std::move(statuses)}},
                            {"joins", Value{std::move(joins)}}}};
                    })
            .build();
    runtime.register_type(type);
    auto relay_object = runtime.create("ScriptedCellRelay", "midas.cell");
    relayhost.rpc().export_object("midas.cell");

    hub.base().attach_cell("cell-x", relayhost.id());
    hub.base().add_extension(policy_pkg("hub/policy"));

    SimTime deadline = sim.now() + seconds(20);
    while (sim.now() < deadline && !script.reblobbed) {
        sim.run_until(sim.now() + milliseconds(100));
    }
    EXPECT_TRUE(script.reported_need_blob);
    // The regression: without the un-sync, desired == synced after the
    // report, no frame ever carries an op again, and the blob never comes.
    EXPECT_TRUE(script.reblobbed);
}

TEST(CellBatch, ReattachToSurvivingRelayResyncsInOneRound) {
    // The relay outlives a detach/re-attach (e.g. a transient backhaul
    // partition makes the base give up on the cell, then re-adopt it).
    // The fresh CellState restarts at seq 0 while the relay still holds
    // its applied high-water mark — the base must adopt it from the first
    // resync reply. The regression: counting up one seq per period until
    // it passes the relay's mark, with no fan-out the whole time, which
    // outlasts the 4 s extension lease and expires every healthy member.
    CellWorld w(707, 6);
    ASSERT_TRUE(w.run_until([&] { return w.converged(); }));
    // Let the relay's applied_seq_ climb well past lease/period.
    w.sim.run_for(seconds(8));
    ASSERT_EQ(w.expirations(), 0u);
    std::uint64_t resyncs0 = w.anchor->relay().stats().resyncs;

    w.hub->base().detach_cell("cell-east");
    w.hub->base().attach_cell("cell-east", w.anchor->id());

    w.sim.run_for(seconds(6));
    EXPECT_TRUE(w.converged());
    EXPECT_EQ(w.expirations(), 0u);
    EXPECT_EQ(w.hub->base().stats().nodes_dropped, 0u);
    // Recovery cost one resync round (plus slack for a boundary tick),
    // not applied_seq_ rounds.
    EXPECT_LE(w.anchor->relay().stats().resyncs - resyncs0, 2u);
}

TEST(CellBatch, StaleFrameLeavesRelayEpochAndLeaseUntouched) {
    CellWorld w(808, 4);
    ASSERT_TRUE(w.run_until([&] { return w.converged(); }));
    std::uint64_t epoch0 = w.anchor->relay().epoch();
    std::int64_t lease0 = w.anchor->relay().lease_ms();
    ASSERT_GT(lease0, 0);
    std::uint64_t resyncs0 = w.anchor->relay().stats().resyncs;

    // A late-delivered old frame (possible when a timeout makes the base
    // pipeline a newer frame behind a delayed one): stale seq, a
    // rolled-back epoch and a poisonous 1 ms lease. It must be refused
    // with resync AND leave the relay's adopted epoch/lease untouched —
    // the regression assigned them before the staleness check, handing
    // the next fan-out round stale values for every receiver.
    rt::Dict frame{{"seq", Value{std::int64_t{1}}},
                   {"base", Value{std::int64_t{0}}},
                   {"epoch", Value{std::int64_t{4242}}},
                   {"lease_ms", Value{std::int64_t{1}}},
                   {"ack", Value{std::int64_t{0}}},
                   {"pause", Value{rt::List{}}},
                   {"ops", Value{rt::List{}}},
                   {"blobs", Value{rt::Dict{}}}};
    bool replied = false;
    bool resync = false;
    w.hub->rpc().call_async(w.anchor->id(), "midas.cell", "batch",
                            {Value{std::move(frame)}},
                            [&](Value result, std::exception_ptr error) {
                                ASSERT_FALSE(error);
                                replied = true;
                                resync = result.as_dict().at("resync").as_bool();
                            });
    ASSERT_TRUE(w.run_until([&] { return replied; }, seconds(5)));
    EXPECT_TRUE(resync);
    EXPECT_EQ(w.anchor->relay().stats().resyncs, resyncs0 + 1);
    EXPECT_EQ(w.anchor->relay().epoch(), epoch0);
    EXPECT_EQ(w.anchor->relay().lease_ms(), lease0);

    // And the cell rides on unharmed.
    w.sim.run_for(seconds(3));
    EXPECT_TRUE(w.converged());
    EXPECT_EQ(w.expirations(), 0u);
}

// -------------------------------------------------- batched-frame chaos ----

/// The CellWorld under a hostile backhaul and radio: loss, heavy
/// duplication, reordering, delay jitter, plus a scheduled 1.2 s blackout
/// of the hub (shorter than the extension lease). The protocol's promise:
/// no duplicated/reordered/replayed frame or reply ever double-applies a
/// renewal or counts a phantom failure — so across the whole band, zero
/// healthy-node expirations and zero drops.
struct CellChaosWorld : CellWorld {
    explicit CellChaosWorld(std::uint64_t seed, int n = 6)
        : CellWorld(seed, n) {
        net::FaultPlan plan;
        plan.loss = 0.02;
        plan.delay_jitter = milliseconds(5);
        plan.duplicate = 0.15;  // the interesting hazard for a seq protocol
        plan.reorder = 0.10;
        plan.partitions.push_back(net::PartitionWindow{
            SimTime::zero() + seconds(6), SimTime::zero() + milliseconds(7200),
            {hub->id()},
            {}});
        net.set_fault_plan(plan, seed * 1000003ULL + 17);
    }
};

TEST(CellChaos, BatchedFramesSurviveLossDupAndReorderAcrossSeeds) {
    std::uint64_t total_resyncs = 0;
    std::uint64_t total_dups = 0;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        CellChaosWorld w(seed);
        // Ride through the fault band including the hub blackout.
        w.sim.run_for(seconds(12));
        ASSERT_TRUE(w.run_until([&] { return w.converged(); })) << "seed " << seed;
        // Hold: the batched keep-alive stream outruns the ongoing faults.
        w.sim.run_for(seconds(5));
        ASSERT_TRUE(w.run_until([&] { return w.converged(); })) << "seed " << seed;

        // The core acceptance bar: a healthy node never pays for a dropped,
        // duplicated or reordered *frame* — no expirations, no drops, every
        // member still adapted, exactly one install per node (duplicates
        // never double-applied).
        EXPECT_EQ(w.expirations(), 0u) << "seed " << seed;
        EXPECT_EQ(w.hub->base().stats().nodes_dropped, 0u) << "seed " << seed;
        EXPECT_EQ(w.hub->base().adapted_count(), w.nodes.size()) << "seed " << seed;
        for (auto& n : w.nodes) {
            EXPECT_EQ(n->receiver().stats().installs, 1u)
                << "seed " << seed << " " << n->label();
        }

        net::NetworkStats s = w.net.stats();
        // Duplication inflates deliveries past sends; the books balance
        // once the duplicated frames are counted.
        EXPECT_LE(s.delivered, s.sent + s.fault_duplicated) << "seed " << seed;
        EXPECT_GT(s.fault_dropped_partition, 0u) << "seed " << seed;
        total_dups += s.fault_duplicated;
        total_resyncs += w.hub->base().cell_stats("cell-east").resyncs;
    }
    // The band actually exercised the machinery it certifies: duplicated
    // frames were injected, and lost replies forced full-roster resyncs.
    EXPECT_GT(total_dups, 0u);
    EXPECT_GT(total_resyncs, 0u);
}

TEST(CellChaos, SameSeedReplaysIdentically) {
    auto fingerprint = [](std::uint64_t seed) {
        CellChaosWorld w(seed);
        w.sim.run_for(seconds(15));
        net::NetworkStats s = w.net.stats();
        ExtensionBase::CellStats cs = w.hub->base().cell_stats("cell-east");
        return std::tuple{s.sent,
                          s.delivered,
                          s.fault_dropped_loss,
                          s.fault_dropped_partition,
                          s.fault_duplicated,
                          s.fault_delayed,
                          s.fault_reordered,
                          cs.frames_sent,
                          cs.frame_failures,
                          cs.resyncs,
                          cs.statuses,
                          cs.joins,
                          w.anchor->relay().stats().frames,
                          w.anchor->relay().stats().fanout_calls,
                          w.anchor->relay().stats().resyncs,
                          w.nodes[0]->receiver().stats().installs,
                          w.nodes[1]->receiver().stats().refreshes};
    };
    EXPECT_EQ(fingerprint(7), fingerprint(7));
    EXPECT_NE(fingerprint(7), fingerprint(8));
}

}  // namespace
}  // namespace pmp::midas
