// Tests for the Jini-like lookup substrate: registration leases, lookup,
// watches with remote events, discovery probes, and lease-loss handling.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "disco/lookup.h"
#include "net/router.h"

namespace pmp::disco {
namespace {

using rt::Dict;
using rt::Value;

/// One node with router+runtime+rpc, optionally a registrar and/or client.
struct TestNode {
    TestNode(net::Network& net, const std::string& name, net::Position pos, double range)
        : id(net.add_node(name, pos, range)),
          router(net, id),
          runtime(name),
          rpc(router, runtime) {}

    NodeId id;
    net::MessageRouter router;
    rt::Runtime runtime;
    rt::RpcEndpoint rpc;
};

class DiscoTest : public ::testing::Test {
protected:
    DiscoTest()
        : net_(sim_, net::NetworkConfig{}, 11),
          base_(net_, "base", {0, 0}, 100),
          mobile_(net_, "mobile", {10, 0}, 100) {
        RegistrarConfig rc;
        rc.max_lease = seconds(2);
        registrar_ = std::make_unique<Registrar>(base_.router, base_.rpc, rc);
        client_ = std::make_unique<DiscoveryClient>(mobile_.router, mobile_.rpc);
    }

    sim::Simulator sim_;
    net::Network net_;
    TestNode base_, mobile_;
    std::unique_ptr<Registrar> registrar_;
    std::unique_ptr<DiscoveryClient> client_;
};

TEST_F(DiscoTest, ClientDiscoversRegistrarInRange) {
    sim_.run_for(seconds(2));
    auto found = client_->registrars();
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0], base_.id);
}

TEST_F(DiscoTest, RegistrarCallbackFiresOnAppearAndLoss) {
    std::vector<std::pair<NodeId, bool>> events;
    client_->on_registrar([&](NodeId node, bool ok) { events.emplace_back(node, ok); });
    sim_.run_for(seconds(2));
    ASSERT_GE(events.size(), 1u);
    EXPECT_TRUE(events[0].second);

    // Roam out of range: beacons stop arriving, timeout declares loss.
    net_.move_node(mobile_.id, {1000, 0});
    sim_.run_for(seconds(6));
    ASSERT_GE(events.size(), 2u);
    EXPECT_FALSE(events.back().second);
    EXPECT_TRUE(client_->registrars().empty());
}

TEST_F(DiscoTest, RegisterAndLookup) {
    sim_.run_for(seconds(1));
    std::shared_ptr<LeasedResource> handle;
    client_->register_service(
        base_.id, "drawing", Dict{{"node", Value{"robot:1"}}}, []() {},
        [&](std::shared_ptr<LeasedResource> h, std::exception_ptr e) {
            ASSERT_FALSE(e);
            handle = std::move(h);
        });
    sim_.run_for(seconds(1));
    ASSERT_NE(handle, nullptr);
    EXPECT_TRUE(handle->alive());

    auto items = registrar_->lookup("drawing");
    ASSERT_EQ(items.size(), 1u);
    EXPECT_EQ(items[0].provider, mobile_.id);
    EXPECT_EQ(items[0].attributes.at("node").as_str(), "robot:1");
    EXPECT_TRUE(registrar_->lookup("unknown-type").empty());
}

TEST_F(DiscoTest, RemoteLookup) {
    sim_.run_for(seconds(1));
    std::shared_ptr<LeasedResource> handle;
    client_->register_service(base_.id, "printing", {}, []() {},
                              [&](std::shared_ptr<LeasedResource> h, std::exception_ptr) {
                                  handle = std::move(h);
                              });
    sim_.run_for(seconds(1));

    std::vector<ServiceItem> found;
    client_->lookup(base_.id, "printing",
                    [&](std::vector<ServiceItem> items, std::exception_ptr e) {
                        ASSERT_FALSE(e);
                        found = std::move(items);
                    });
    sim_.run_for(seconds(1));
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0].type, "printing");
}

TEST_F(DiscoTest, LeaseRenewalKeepsRegistrationAlive) {
    sim_.run_for(seconds(1));
    std::shared_ptr<LeasedResource> handle;
    bool lost = false;
    client_->register_service(base_.id, "svc", {}, [&]() { lost = true; },
                              [&](std::shared_ptr<LeasedResource> h, std::exception_ptr) {
                                  handle = std::move(h);
                              });
    // Run far beyond the lease duration: auto-renewal must keep it alive.
    sim_.run_for(seconds(20));
    EXPECT_FALSE(lost);
    ASSERT_NE(handle, nullptr);
    EXPECT_TRUE(handle->alive());
    EXPECT_EQ(registrar_->lookup("svc").size(), 1u);
}

TEST_F(DiscoTest, RegistrationExpiresWhenNodeLeaves) {
    sim_.run_for(seconds(1));
    std::shared_ptr<LeasedResource> handle;
    bool lost = false;
    client_->register_service(base_.id, "svc", {}, [&]() { lost = true; },
                              [&](std::shared_ptr<LeasedResource> h, std::exception_ptr) {
                                  handle = std::move(h);
                              });
    sim_.run_for(seconds(1));
    ASSERT_EQ(registrar_->lookup("svc").size(), 1u);

    // The node roams away: renewals fail, the registrar expires the entry,
    // and the holder learns the lease was lost.
    net_.move_node(mobile_.id, {1000, 0});
    sim_.run_for(seconds(10));
    EXPECT_TRUE(registrar_->lookup("svc").empty());
    EXPECT_TRUE(lost);
    EXPECT_FALSE(handle->alive());
}

TEST_F(DiscoTest, CancelRemovesRegistration) {
    sim_.run_for(seconds(1));
    std::shared_ptr<LeasedResource> handle;
    client_->register_service(base_.id, "svc", {}, []() {},
                              [&](std::shared_ptr<LeasedResource> h, std::exception_ptr) {
                                  handle = std::move(h);
                              });
    sim_.run_for(seconds(1));
    handle->cancel();
    sim_.run_for(seconds(1));
    EXPECT_TRUE(registrar_->lookup("svc").empty());
    EXPECT_FALSE(handle->alive());
}

TEST_F(DiscoTest, OnlyTheHolderCanRenewOrCancelALease) {
    // Lease ids are small sequential integers, so any node in range can
    // guess one. A permanent registration (as the extension base makes for
    // its catch-up service) is the first thing this registrar grants.
    registrar_->register_permanent("infra", {});
    sim_.run_for(seconds(1));
    bool reg_lost = false;
    bool watch_lost = false;
    int appeared = 0;
    std::shared_ptr<LeasedResource> reg, watch;
    client_->register_service(base_.id, "svc", {}, [&]() { reg_lost = true; },
                              [&](std::shared_ptr<LeasedResource> h, std::exception_ptr) {
                                  reg = std::move(h);
                              });
    client_->watch(
        base_.id, "svc", [&](const ServiceItem&, bool ok) { appeared += ok ? 1 : 0; },
        [&]() { watch_lost = true; },
        [&](std::shared_ptr<LeasedResource> h, std::exception_ptr) { watch = std::move(h); });
    sim_.run_for(seconds(1));
    ASSERT_NE(reg, nullptr);
    ASSERT_NE(watch, nullptr);
    ASSERT_EQ(appeared, 1);

    // A third node in radio range tries every lease id the registrar has
    // granted: renew to 1 ms, then cancel. Each is answered like an
    // unknown lease.
    TestNode stranger(net_, "stranger", {20, 0}, 100);
    std::uint64_t last = std::max(reg->lease().value, watch->lease().value);
    for (std::uint64_t lease = 1; lease <= last; ++lease) {
        Value lid{static_cast<std::int64_t>(lease)};
        Value renewed = stranger.rpc.call_sync(base_.id, "registrar", "renew",
                                               {lid, Value{std::int64_t{1}}});
        EXPECT_FALSE(renewed.as_dict().at("ok").as_bool()) << "lease " << lease;
        Value cancelled = stranger.rpc.call_sync(base_.id, "registrar", "cancel", {lid});
        EXPECT_FALSE(cancelled.as_bool()) << "lease " << lease;
    }
    // Not even the registrar's own node reaches the permanent one's lease.
    auto self = base_.runtime.find_object("registrar");
    EXPECT_FALSE(self->call("renew", {Value{std::int64_t{1}}, Value{std::int64_t{1}}})
                     .as_dict()
                     .at("ok")
                     .as_bool());
    EXPECT_FALSE(self->call("cancel", {Value{std::int64_t{1}}}).as_bool());

    // Three lease periods later the holder still holds both leases, the
    // watch still fires, and the permanent registration is still there.
    sim_.run_for(seconds(6));
    EXPECT_FALSE(reg_lost);
    EXPECT_FALSE(watch_lost);
    EXPECT_TRUE(reg->alive());
    EXPECT_TRUE(watch->alive());
    EXPECT_EQ(registrar_->lookup("svc").size(), 1u);
    EXPECT_EQ(registrar_->lookup("infra").size(), 1u);
    std::shared_ptr<LeasedResource> second;
    client_->register_service(base_.id, "svc", {}, []() {},
                              [&](std::shared_ptr<LeasedResource> h, std::exception_ptr) {
                                  second = std::move(h);
                              });
    sim_.run_for(seconds(1));
    EXPECT_EQ(appeared, 2);

    // The holder itself can still give its lease up.
    reg->cancel();
    sim_.run_for(seconds(1));
    EXPECT_EQ(registrar_->lookup("svc").size(), 1u);
}

TEST_F(DiscoTest, LocalWatchSeesAppearAndExpire) {
    std::vector<std::pair<std::string, bool>> events;
    registrar_->watch_local("svc", [&](const ServiceItem& item, bool appeared) {
        events.emplace_back(item.type, appeared);
    });

    sim_.run_for(seconds(1));
    std::shared_ptr<LeasedResource> handle;
    client_->register_service(base_.id, "svc", {}, []() {},
                              [&](std::shared_ptr<LeasedResource> h, std::exception_ptr) {
                                  handle = std::move(h);
                              });
    sim_.run_for(seconds(1));
    ASSERT_EQ(events.size(), 1u);
    EXPECT_TRUE(events[0].second);

    net_.move_node(mobile_.id, {1000, 0});
    sim_.run_for(seconds(10));
    ASSERT_EQ(events.size(), 2u);
    EXPECT_FALSE(events[1].second);
}

TEST_F(DiscoTest, LocalWatchCatchesUpOnExistingServices) {
    sim_.run_for(seconds(1));
    std::shared_ptr<LeasedResource> handle;
    client_->register_service(base_.id, "svc", {}, []() {},
                              [&](std::shared_ptr<LeasedResource> h, std::exception_ptr) {
                                  handle = std::move(h);
                              });
    sim_.run_for(seconds(1));

    int appeared = 0;
    registrar_->watch_local("svc", [&](const ServiceItem&, bool ok) {
        if (ok) ++appeared;
    });
    EXPECT_EQ(appeared, 1);  // synchronous catch-up
}

TEST_F(DiscoTest, RemoteWatchDeliversEvents) {
    sim_.run_for(seconds(1));
    // A second mobile node watches for "drawing" services at the base.
    TestNode watcher(net_, "watcher", {20, 0}, 100);
    DiscoveryClient watcher_client(watcher.router, watcher.rpc);
    sim_.run_for(seconds(1));

    std::vector<std::pair<std::string, bool>> events;
    std::shared_ptr<LeasedResource> watch_handle;
    watcher_client.watch(
        base_.id, "drawing",
        [&](const ServiceItem& item, bool appeared) {
            const Value* label = item.attributes.find("node");
            events.emplace_back(label ? label->as_str() : "?", appeared);
        },
        []() {},
        [&](std::shared_ptr<LeasedResource> h, std::exception_ptr e) {
            ASSERT_FALSE(e);
            watch_handle = std::move(h);
        });
    sim_.run_for(seconds(1));
    ASSERT_NE(watch_handle, nullptr);

    std::shared_ptr<LeasedResource> reg_handle;
    client_->register_service(base_.id, "drawing", Dict{{"node", Value{"robot:9"}}},
                              []() {},
                              [&](std::shared_ptr<LeasedResource> h, std::exception_ptr) {
                                  reg_handle = std::move(h);
                              });
    sim_.run_for(seconds(1));
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0], (std::pair<std::string, bool>{"robot:9", true}));

    // Provider leaves: watcher gets the disappearance event.
    net_.move_node(mobile_.id, {1000, 0});
    sim_.run_for(seconds(10));
    ASSERT_GE(events.size(), 2u);
    EXPECT_FALSE(events.back().second);
}

TEST_F(DiscoTest, RemoteWatchCatchesUpOnExistingService) {
    sim_.run_for(seconds(1));
    std::shared_ptr<LeasedResource> reg_handle;
    client_->register_service(base_.id, "drawing", {}, []() {},
                              [&](std::shared_ptr<LeasedResource> h, std::exception_ptr) {
                                  reg_handle = std::move(h);
                              });
    sim_.run_for(seconds(1));

    int appeared = 0;
    std::shared_ptr<LeasedResource> watch_handle;
    client_->watch(
        base_.id, "drawing", [&](const ServiceItem&, bool ok) { appeared += ok ? 1 : 0; },
        []() {},
        [&](std::shared_ptr<LeasedResource> h, std::exception_ptr) {
            watch_handle = std::move(h);
        });
    sim_.run_for(seconds(1));
    EXPECT_EQ(appeared, 1);
}

TEST_F(DiscoTest, PermanentRegistrationNeverExpires) {
    registrar_->register_permanent("infra", rt::Dict{{"kind", Value{"tspace"}}});
    // Far beyond max_lease (2s in this fixture): still there, locally and
    // remotely.
    sim_.run_for(seconds(20));
    ASSERT_EQ(registrar_->lookup("infra").size(), 1u);
    std::vector<ServiceItem> found;
    client_->lookup(base_.id, "infra",
                    [&](std::vector<ServiceItem> items, std::exception_ptr) {
                        found = std::move(items);
                    });
    sim_.run_for(seconds(1));
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0].provider, base_.id);
    EXPECT_EQ(found[0].attributes.at("kind").as_str(), "tspace");
}

TEST_F(DiscoTest, PermanentRegistrationFiresLocalWatch) {
    int appeared = 0;
    registrar_->watch_local("infra", [&](const ServiceItem&, bool ok) {
        appeared += ok ? 1 : 0;
    });
    registrar_->register_permanent("infra", {});
    EXPECT_EQ(appeared, 1);
}

TEST_F(DiscoTest, AnnounceAloneDiscoversRegistrar) {
    // A passive client that never probes still finds the registrar through
    // its periodic beacon.
    TestNode passive(net_, "passive", {15, 0}, 100);
    // Do not create a DiscoveryClient; listen for the beacon directly.
    bool heard = false;
    passive.router.route("disco.here", [&](const net::Message&) { heard = true; });
    sim_.run_for(seconds(3));
    EXPECT_TRUE(heard);
}

TEST_F(DiscoTest, CancelledWatchStopsEvents) {
    sim_.run_for(seconds(1));
    int events = 0;
    std::shared_ptr<LeasedResource> watch_handle;
    client_->watch(
        base_.id, "svc", [&](const ServiceItem&, bool) { ++events; }, []() {},
        [&](std::shared_ptr<LeasedResource> h, std::exception_ptr) {
            watch_handle = std::move(h);
        });
    sim_.run_for(seconds(1));
    ASSERT_NE(watch_handle, nullptr);
    watch_handle->cancel();
    sim_.run_for(seconds(1));

    std::shared_ptr<LeasedResource> reg_handle;
    client_->register_service(base_.id, "svc", {}, []() {},
                              [&](std::shared_ptr<LeasedResource> h, std::exception_ptr) {
                                  reg_handle = std::move(h);
                              });
    sim_.run_for(seconds(2));
    EXPECT_EQ(events, 0);
}

TEST_F(DiscoTest, LeaseGrantsAreClamped) {
    sim_.run_for(seconds(1));
    // Ask for a day; the registrar grants at most its max (2s in this
    // fixture) — visible through the granted duration in the reply.
    Value reply = mobile_.rpc.call_sync(
        base_.id, "registrar", "register",
        {Value{"svc"}, Value{Dict{}}, Value{std::int64_t{24 * 3600 * 1000}}});
    EXPECT_LE(reply.as_dict().at("duration_ms").as_int(), 2000);
}

TEST_F(DiscoTest, RenewUnknownLeaseFails) {
    sim_.run_for(seconds(1));
    Value reply = mobile_.rpc.call_sync(base_.id, "registrar", "renew",
                                        {Value{9999}, Value{1000}});
    EXPECT_FALSE(reply.as_dict().at("ok").as_bool());
}

// ---- find-then-listen discovery at hall scale -----------------------------

constexpr std::size_t kResidents = 80;  // past the 64-label cap of per-node metrics

/// Resident i's spot on a 5 m grid whose corner is at (x0, 0).
net::Position spot(std::size_t i, double x0 = 0) {
    return {x0 + static_cast<double>(i % 10) * 5.0, static_cast<double>(i / 10) * 5.0};
}

/// A registrar and kResidents discovery clients in its radio range. A tap
/// records when each "disco.probe" reaches one chosen node, by sender.
struct ProbeHall {
    explicit ProbeHall(std::uint64_t seed = 17)
        : net(sim, net::NetworkConfig{}, seed), base(net, "base", {0, 0}, 200) {
        registrar = std::make_unique<Registrar>(base.router, base.rpc);
        for (std::size_t i = 0; i < kResidents; ++i) {
            nodes.push_back(std::make_unique<TestNode>(
                net, std::string("resident").append(std::to_string(i)), spot(i), 200));
            clients.push_back(
                std::make_unique<DiscoveryClient>(nodes.back()->router, nodes.back()->rpc));
        }
    }

    void tap(NodeId at) {
        net.set_tap(at, [this](const net::Message& msg) {
            if (msg.kind == "disco.probe") probes[msg.from].push_back(sim.now());
        });
    }

    std::size_t knowing(NodeId registrar_node) const {
        std::size_t n = 0;
        for (const auto& c : clients) {
            auto found = c->registrars();
            n += std::ranges::find(found, registrar_node) != found.end() ? 1 : 0;
        }
        return n;
    }

    sim::Simulator sim;
    net::Network net;
    TestNode base;
    std::unique_ptr<Registrar> registrar;
    std::vector<std::unique_ptr<TestNode>> nodes;
    std::vector<std::unique_ptr<DiscoveryClient>> clients;
    std::map<NodeId, std::vector<SimTime>> probes;
};

TEST(FindThenListen, ResidentsThatHearARegistrarSendNoProbes) {
    ProbeHall h;
    h.tap(h.base.id);
    h.sim.run_for(seconds(2));
    ASSERT_EQ(h.knowing(h.base.id), kResidents);
    // Each resident probed once, at start-up, and stopped on the answer.
    ASSERT_EQ(h.probes.size(), kResidents);
    for (const auto& [_, at] : h.probes) EXPECT_EQ(at.size(), 1u);

    // Twenty seconds of residence: the registrar's beacons keep every
    // client's view fresh, and nobody asks.
    h.probes.clear();
    h.sim.run_for(seconds(20));
    EXPECT_TRUE(h.probes.empty());
    EXPECT_EQ(h.knowing(h.base.id), kResidents);
}

TEST(FindThenListen, ProbingResumesWithinTimeoutAfterBaseCrash) {
    ProbeHall h;
    h.tap(h.base.id);
    h.sim.run_for(seconds(5));
    h.probes.clear();

    // The lookup service dies; its node stays on the air, so the tap still
    // hears what the residents send.
    const SimTime crash = h.sim.now();
    h.registrar.reset();
    const DiscoveryConfig dc;
    const Duration announce = RegistrarConfig{}.announce_period;
    h.sim.run_until(crash + dc.registrar_timeout + dc.probe_period + milliseconds(10));

    ASSERT_EQ(h.probes.size(), kResidents);
    for (const auto& [from, at] : h.probes) {
        // Silent while the last beacon was still fresh; asking again as
        // soon as the registrar is declared lost.
        EXPECT_GT(at.front(), crash + dc.registrar_timeout - announce) << from.str();
    }
    EXPECT_EQ(h.knowing(h.base.id), 0u);
}

TEST(FindThenListen, ProbingResumesWithinTimeoutAfterWalkOut) {
    ProbeHall h;
    h.sim.run_for(seconds(5));
    // Everyone walks out to an empty stretch of floor; a bystander there
    // (no registrar) hears whatever they broadcast.
    TestNode bystander(h.net, "bystander", {5000, 0}, 200);
    h.tap(bystander.id);
    const SimTime left = h.sim.now();
    for (std::size_t i = 0; i < kResidents; ++i) h.net.move_node(h.nodes[i]->id, spot(i, 5000));
    const DiscoveryConfig dc;
    const Duration announce = RegistrarConfig{}.announce_period;
    h.sim.run_until(left + dc.registrar_timeout + dc.probe_period + milliseconds(10));

    ASSERT_EQ(h.probes.size(), kResidents);
    for (const auto& [from, at] : h.probes) {
        EXPECT_GT(at.front(), left + dc.registrar_timeout - announce) << from.str();
    }
    // Back in range: the next probe or beacon finds the registrar again.
    for (std::size_t i = 0; i < kResidents; ++i) h.net.move_node(h.nodes[i]->id, spot(i));
    h.sim.run_for(dc.probe_period + milliseconds(10));
    EXPECT_EQ(h.knowing(h.base.id), kResidents);
}

TEST(FindThenListen, DiscoveryConvergesUnderLossyAnnouncements) {
    ProbeHall h(23);
    // Three in ten frames lost, beacons and probe answers included: three
    // beacons in a row go missing now and then, a client declares the
    // registrar lost, probes, and finds it again.
    net::FaultPlan plan;
    plan.loss = 0.3;
    h.net.set_fault_plan(plan, 5);
    h.tap(h.base.id);
    h.sim.run_for(seconds(60));

    std::size_t probes = 0;
    for (const auto& [_, at] : h.probes) probes += at.size();
    // More than the start-up probes: clients did lose the registrar and
    // asked again. Lifelong probing would have sent 120 per client.
    EXPECT_GT(probes, kResidents);
    EXPECT_LT(probes, kResidents * 6);

    SimTime deadline = h.sim.now() + seconds(10);
    while (h.sim.now() < deadline && h.knowing(h.base.id) < kResidents) {
        h.sim.run_for(milliseconds(100));
    }
    EXPECT_EQ(h.knowing(h.base.id), kResidents);
}

}  // namespace
}  // namespace pmp::disco
