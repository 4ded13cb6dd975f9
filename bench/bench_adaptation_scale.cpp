// E10 (paper §2.1, §3.2): adaptation at scale.
//
// A proactive environment must adapt whole communities of devices. We
// measure, in virtual time:
//
//   (a) time-to-adapt vs number of nodes entering the hall simultaneously
//   (b) time-to-adapt one node vs number of policy extensions
//   (c) install latency vs extension package size (the radio is the
//       bottleneck: bigger scripts take longer to ship)
//   (d) control-plane frames over the base's backhaul at fleet scale,
//       per-(node, extension) keep-alives vs one batched frame per cell
//       per period (midas/cell.h, docs/federation.md) — measured to 10^4
//       nodes, modeled to 10^6 from the measured per-cell constants
//   (e) the base's per-tick adoption scan: the old allocating lookup()
//       vs the in-place for_each() it was replaced with (wall time)
//   (f) staged canary rollout at fleet scale (midas/rollout.h): time for
//       a healthy canary to walk the 1%/10%/50%/100% ladder, and — for a
//       poisoned canary — the rollback blast radius (nodes that ever ran
//       the canary vs fleet size) and time-to-rollback
#include <benchmark/benchmark.h>

#include "smoke.h"

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "midas/node.h"
#include "robot/devices.h"

namespace {

using namespace pmp;
using midas::BaseConfig;
using midas::BaseStation;
using midas::ExtensionPackage;
using midas::MobileNode;

ExtensionPackage noop_package(const std::string& name, std::size_t script_padding = 0) {
    ExtensionPackage pkg;
    pkg.name = name;
    pkg.script = "fun onEntry() { }\n";
    if (script_padding > 0) {
        // Realistic padding: helper functions the extension never calls.
        std::string chunk = "fun helper_X() { let a = 1; let b = 2; return a + b; }\n";
        std::string padded;
        int i = 0;
        while (padded.size() < script_padding) {
            std::string fn = chunk;
            fn.replace(fn.find('X'), 1, std::to_string(i++));
            padded += fn;
        }
        pkg.script += padded;
    }
    pkg.bindings = {{prose::AdviceKind::kBefore, "call(* Motor.*(..))", "onEntry", 0}};
    return pkg;
}

struct World {
    sim::Simulator sim;
    net::Network net{sim, net::NetworkConfig{}, 4242};
    std::unique_ptr<BaseStation> hall;
    std::vector<std::unique_ptr<MobileNode>> nodes;

    World() {
        BaseConfig bc;
        bc.issuer = "hall";
        hall = std::make_unique<BaseStation>(net, "hall", net::Position{0, 0}, 200.0, bc);
        hall->keys().add_key("hall", to_bytes("k"));
    }

    MobileNode& add_node(int i) {
        auto node = std::make_unique<MobileNode>(
            net, "node:" + std::to_string(i),
            net::Position{10.0 + static_cast<double>(i % 10), static_cast<double>(i / 10)},
            200.0);
        node->trust().trust("hall", to_bytes("k"));
        node->receiver().allow_capabilities("hall", {});
        robot::make_motor(node->runtime(), "motor:" + std::to_string(i));
        nodes.push_back(std::move(node));
        return *nodes.back();
    }

    bool run_until(const std::function<bool()>& pred, Duration timeout = seconds(120)) {
        SimTime deadline = sim.now() + timeout;
        while (sim.now() < deadline) {
            if (pred()) return true;
            sim.run_until(sim.now() + milliseconds(1));
        }
        return pred();
    }
};

// ------------------------------------------------- fleet worlds (d, e) ----

/// Messages crossing the base's backhaul during the measurement window.
struct Traffic {
    std::uint64_t msgs = 0;
    std::uint64_t bytes = 0;
};

/// Discovery beacons are broadcast chatter, not per-node lease traffic;
/// they are excluded from BOTH arms so the comparison is pure control
/// plane (this is conservative: it favours the un-batched baseline, whose
/// flat discovery scope broadcasts to the whole fleet).
bool control_plane(const net::Message& m) { return m.kind.rfind("disco.", 0) != 0; }

struct FleetNumbers {
    bool converged = false;
    double adapt_s = 0;             ///< time until every node holds the policy
    double frames_node_period = 0;  ///< backhaul msgs / node / keep-alive period
    double bytes_node_period = 0;
    double msgs_sec_node = 0;
    double scan_old_us = 0;  ///< registrar lookup() adoption scan (direct arm)
    double scan_new_us = 0;  ///< registrar for_each() adoption scan (direct arm)
};

/// One fleet, one arm. cell_size == 0 wires every node straight to the
/// base (the un-batched baseline: per-(node, extension) keep-alives cross
/// the backhaul). cell_size > 0 groups nodes into radio cells of that size,
/// each anchored by a CellStation wired to the base: only the batched
/// frames cross the backhaul, the fan-out stays cell-local.
FleetNumbers run_fleet(int n, int cell_size) {
    sim::Simulator sim;
    net::Network net{sim, net::NetworkConfig{}, 4242};

    // Nodes probe at power-on and stop once their cell's registrar answers
    // whatever the period. The stretch spaces the loss check, which this
    // fleet never needs: one timer event per node per half-second saved.
    disco::DiscoveryConfig quiet;
    quiet.probe_period = seconds(3600);

    BaseConfig bc;
    bc.issuer = "hall";
    bc.extension_lease = seconds(4);
    bc.max_keepalive_failures = 4;
    const double period_s =
        static_cast<double>(bc.keepalive_period.count()) / 1e9;
    const Duration window = bc.keepalive_period * 4;
    const double periods = 4.0;

    const bool direct = cell_size == 0;
    auto hub = std::make_unique<BaseStation>(net, "hall", net::Position{0, -5000}, 1.0,
                                             bc, disco::RegistrarConfig{}, nullptr, quiet);
    hub->keys().add_key("hall", to_bytes("k"));
    hub->base().add_extension(noop_package("hall/noop"));
    // The hub's admission gate defaults to one-hall sizing (~2000 calls/s);
    // at 10^4 direct nodes the renewal stream alone exceeds it and the gate
    // sheds forever — the very failure mode the batched arm removes. Open
    // it wide, identically for both arms: this section measures the wire
    // frames each design costs, not the governor.
    net::AdmissionConfig wide;
    wide.rate_per_sec = 1e6;
    wide.burst = 65536;
    wide.queue_cap = {65536, 65536, 65536};
    hub->router().admission().set_config(wide);

    std::vector<std::unique_ptr<midas::CellStation>> stations;
    const int cells = direct ? 0 : (n + cell_size - 1) / cell_size;
    for (int c = 0; c < cells; ++c) {
        auto st = std::make_unique<midas::CellStation>(
            net, "cell:" + std::to_string(c), net::Position{1000.0 * c, 0.0}, 120.0,
            midas::CellRelayConfig{}, disco::RegistrarConfig{}, quiet);
        net.add_wire(hub->id(), st->id());
        hub->base().attach_cell(st->label(), st->id());
        stations.push_back(std::move(st));
    }

    std::vector<std::unique_ptr<MobileNode>> nodes;
    nodes.reserve(static_cast<std::size_t>(n));
    SimTime start = sim.now();
    for (int i = 0; i < n; ++i) {
        midas::ReceiverConfig rc;
        net::Position pos;
        if (direct) {
            pos = {10.0 * (i % 100), 1000.0 + 10.0 * (i / 100)};
        } else {
            int c = i / cell_size, k = i % cell_size;
            rc.cell = "cell:" + std::to_string(c);
            pos = {1000.0 * c - 22.5 + 5.0 * (k % 10), -22.5 + 5.0 * (k / 10)};
        }
        auto node = std::make_unique<MobileNode>(net, "n" + std::to_string(i), pos,
                                                 direct ? 1.0 : 60.0, rc, nullptr, quiet);
        node->trust().trust("hall", to_bytes("k"));
        if (direct) net.add_wire(hub->id(), node->id());
        nodes.push_back(std::move(node));
        // Stagger power-on: ten thousand devices do not boot in the same
        // microsecond in any real hall, and the burst would only measure
        // the admission queue.
        if (i % 200 == 199) sim.run_until(sim.now() + milliseconds(20));
    }

    FleetNumbers out;
    std::vector<const midas::AdaptationService*> waiting;
    waiting.reserve(nodes.size());
    for (const auto& node : nodes) waiting.push_back(&node->receiver());
    SimTime deadline = sim.now() + seconds(120);
    while (sim.now() < deadline) {
        std::erase_if(waiting, [](const midas::AdaptationService* r) {
            return r->installed_count() >= 1;
        });
        if (waiting.empty()) break;
        sim.run_until(sim.now() + milliseconds(5));
    }
    out.converged = waiting.empty();
    out.adapt_s = static_cast<double>((sim.now() - start).count()) / 1e9;
    if (!out.converged) return out;

    // Tap the backhaul: everything delivered to the base, plus everything
    // the base sends to its wired peers (nodes or cell stations).
    Traffic bh;
    const NodeId hub_id = hub->id();
    net.set_tap(hub_id, [&bh](const net::Message& m) {
        if (control_plane(m)) {
            ++bh.msgs;
            bh.bytes += m.wire_size();
        }
    });
    auto from_hub = [&bh, hub_id](const net::Message& m) {
        if (m.from == hub_id && control_plane(m)) {
            ++bh.msgs;
            bh.bytes += m.wire_size();
        }
    };
    if (direct) {
        for (auto& node : nodes) net.set_tap(node->id(), from_hub);
    } else {
        for (auto& st : stations) net.set_tap(st->id(), from_hub);
    }

    sim.run_until(sim.now() + bc.keepalive_period);  // settle install replies
    Traffic t0 = bh;
    sim.run_until(sim.now() + window);
    const double dm = static_cast<double>(bh.msgs - t0.msgs);
    const double db = static_cast<double>(bh.bytes - t0.bytes);
    out.frames_node_period = dm / n / periods;
    out.bytes_node_period = db / n / periods;
    out.msgs_sec_node = dm / n / (periods * period_s);

    if (direct) {
        // (e) the per-tick adoption scan over n live registrations: the old
        // vector-building lookup() against the in-place for_each() that
        // replaced it in ExtensionBase::keepalive_tick().
        auto& reg = hub->registrar();
        constexpr int kReps = 5;
        auto t_old = std::chrono::steady_clock::now();
        for (int r = 0; r < kReps; ++r) {
            auto items = reg.lookup("midas.adaptation");
            benchmark::DoNotOptimize(items);
        }
        auto t_mid = std::chrono::steady_clock::now();
        std::size_t seen = 0;
        for (int r = 0; r < kReps; ++r) {
            reg.for_each("midas.adaptation",
                         [&seen](const disco::ServiceItem&) { ++seen; });
        }
        auto t_end = std::chrono::steady_clock::now();
        benchmark::DoNotOptimize(seen);
        out.scan_old_us =
            std::chrono::duration<double, std::micro>(t_mid - t_old).count() / kReps;
        out.scan_new_us =
            std::chrono::duration<double, std::micro>(t_end - t_mid).count() / kReps;
    }
    return out;
}

// ------------------------------------------------- rollout at scale (f) ----

struct RolloutNumbers {
    bool converged = false;  ///< incumbent reached every node
    bool completed = false;  ///< healthy arm: canary graduated
    bool aborted = false;    ///< poison arm: rollout aborted
    double adapt_s = 0;      ///< incumbent convergence time
    double rollout_s = 0;    ///< begin_rollout -> complete (healthy arm)
    double rollback_s = 0;   ///< abort -> whole fleet back on incumbent
    std::size_t cohort = 0;  ///< stage-0 cohort size
    std::size_t blast = 0;   ///< nodes that ever held the canary
    std::size_t escapes = 0; ///< canary sightings outside the cohort
};

/// One direct-wired fleet, one canary incident. poison == false walks a
/// healthy canary through the full ladder; poison == true ships a canary
/// whose advice throws, drives motor traffic on the cohort until the
/// quarantine gate aborts, then times the fleet-wide rollback.
RolloutNumbers run_rollout_fleet(int n, bool poison) {
    sim::Simulator sim;
    net::Network net{sim, net::NetworkConfig{}, 4242};
    disco::DiscoveryConfig quiet;
    quiet.probe_period = seconds(3600);

    BaseConfig bc;
    bc.issuer = "hall";
    bc.rollout.stages = {0.01, 0.10, 0.50, 1.0};
    bc.rollout.stage_window = seconds(1);
    bc.rollout.tick_period = milliseconds(200);
    auto hub = std::make_unique<BaseStation>(net, "hall", net::Position{0, -5000}, 1.0,
                                             bc, disco::RegistrarConfig{}, nullptr, quiet);
    hub->keys().add_key("hall", to_bytes("k"));
    // Same wide-open admission gate as (d), for the same reason.
    net::AdmissionConfig wide;
    wide.rate_per_sec = 1e6;
    wide.burst = 65536;
    wide.queue_cap = {65536, 65536, 65536};
    hub->router().admission().set_config(wide);
    hub->base().add_extension(noop_package("hall/policy"));

    std::vector<std::unique_ptr<MobileNode>> nodes;
    std::vector<std::shared_ptr<rt::ServiceObject>> motors;
    nodes.reserve(static_cast<std::size_t>(n));
    SimTime start = sim.now();
    for (int i = 0; i < n; ++i) {
        auto node = std::make_unique<MobileNode>(
            net, "n" + std::to_string(i),
            net::Position{10.0 * (i % 100), 1000.0 + 10.0 * (i / 100)}, 1.0,
            midas::ReceiverConfig{}, nullptr, quiet);
        node->trust().trust("hall", to_bytes("k"));
        motors.push_back(robot::make_motor(node->runtime(), "motor:" + std::to_string(i)));
        net.add_wire(hub->id(), node->id());
        nodes.push_back(std::move(node));
        if (i % 200 == 199) sim.run_until(sim.now() + milliseconds(20));
    }

    auto count_on = [&](std::uint32_t version) {
        std::size_t c = 0;
        for (const auto& node : nodes) {
            for (const auto& info : node->receiver().installed()) {
                if (info.name == "hall/policy" && info.version == version) ++c;
            }
        }
        return c;
    };
    RolloutNumbers out;
    SimTime deadline = sim.now() + seconds(300);
    while (sim.now() < deadline && count_on(1) < static_cast<std::size_t>(n)) {
        sim.run_until(sim.now() + milliseconds(50));
    }
    out.converged = count_on(1) == static_cast<std::size_t>(n);
    out.adapt_s = static_cast<double>((sim.now() - start).count()) / 1e9;
    if (!out.converged) return out;

    const char* body = poison ? "fun onEntry() { throw \"poison\"; }"
                              : "fun onEntry() { let x = 1; }";
    ExtensionPackage canary = noop_package("hall/policy");
    canary.script = body;
    SimTime begin = sim.now();
    std::uint32_t v2 = hub->base().begin_rollout(canary);
    const midas::RolloutController& rc = hub->base().rollout();
    std::vector<std::size_t> cohort;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (rc.selects_canary("hall/policy", nodes[i]->label())) cohort.push_back(i);
    }
    out.cohort = cohort.size();

    std::vector<bool> saw_v2(nodes.size(), false);
    deadline = sim.now() + seconds(120);
    while (sim.now() < deadline) {
        auto v = rc.view("hall/policy");
        if (!v || v->status != midas::RolloutController::Status::kActive) break;
        if (poison) {
            // Only the cohort holds the canary; its advice throws on every
            // motor call and the quarantine gate does the rest.
            for (std::size_t i : cohort) {
                try {
                    motors[i]->call("rotate", {rt::Value{1.0}});
                } catch (const std::exception&) {
                }
            }
        }
        for (std::size_t i = 0; i < nodes.size(); ++i) {
            for (const auto& info : nodes[i]->receiver().installed()) {
                if (info.name == "hall/policy" && info.version == v2) saw_v2[i] = true;
            }
        }
        sim.run_until(sim.now() + milliseconds(100));
    }
    auto v = rc.view("hall/policy");
    out.completed = v && v->status == midas::RolloutController::Status::kComplete;
    out.aborted = v && v->status == midas::RolloutController::Status::kAborted;
    out.rollout_s = static_cast<double>((sim.now() - begin).count()) / 1e9;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (!saw_v2[i]) continue;
        ++out.blast;
        bool in_cohort = false;
        for (std::size_t c : cohort) in_cohort |= (c == i);
        if (!in_cohort) ++out.escapes;
    }
    if (out.aborted) {
        SimTime rb = sim.now();
        deadline = sim.now() + seconds(120);
        while (sim.now() < deadline && count_on(1) < static_cast<std::size_t>(n)) {
            sim.run_until(sim.now() + milliseconds(100));
        }
        out.rollback_s = static_cast<double>((sim.now() - rb).count()) / 1e9;
    }
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    const bool smoke = pmp::bench::strip_smoke(argc, argv);
    printf("=== E10: adaptation at scale (virtual time) ===\n\n");

    printf("(a) time to adapt N nodes entering simultaneously (1 extension):\n");
    printf("%8s %16s %16s\n", "nodes", "all adapted", "per node");
    for (int n : smoke ? std::vector<int>{2} : std::vector<int>{1, 2, 5, 10, 20, 50}) {
        World w;
        w.hall->base().add_extension(noop_package("hall/noop"));
        for (int i = 0; i < n; ++i) w.add_node(i);
        SimTime start = w.sim.now();
        bool ok = w.run_until([&] {
            for (const auto& node : w.nodes) {
                if (node->receiver().installed_count() != 1) return false;
            }
            return true;
        });
        double total_ms = static_cast<double>((w.sim.now() - start).count()) / 1e6;
        printf("%8d %13.1f ms %13.2f ms\n", n, ok ? total_ms : -1.0,
               ok ? total_ms / n : -1.0);
    }

    printf("\n(b) time to adapt one node vs number of policy extensions:\n");
    printf("%12s %16s %16s\n", "extensions", "fully adapted", "per extension");
    for (int k : smoke ? std::vector<int>{2} : std::vector<int>{1, 2, 5, 10, 20}) {
        World w;
        for (int i = 0; i < k; ++i) {
            w.hall->base().add_extension(noop_package("hall/ext" + std::to_string(i)));
        }
        w.add_node(0);
        SimTime start = w.sim.now();
        bool ok = w.run_until([&] {
            return w.nodes[0]->receiver().installed_count() == static_cast<std::size_t>(k);
        });
        double total_ms = static_cast<double>((w.sim.now() - start).count()) / 1e6;
        printf("%12d %13.1f ms %13.2f ms\n", k, ok ? total_ms : -1.0,
               ok ? total_ms / k : -1.0);
    }

    printf("\n(c) install latency vs package size (1 node, 1 extension):\n");
    printf("%14s %14s %16s\n", "script bytes", "wire bytes", "adapt latency");
    for (std::size_t padding : smoke ? std::vector<std::size_t>{1'000u}
                                     : std::vector<std::size_t>{0u, 1'000u, 10'000u,
                                                                100'000u}) {
        World w;
        ExtensionPackage pkg = noop_package("hall/sized", padding);
        std::size_t wire = pkg.wire_size();
        w.hall->base().add_extension(pkg);
        w.add_node(0);
        SimTime start = w.sim.now();
        bool ok =
            w.run_until([&] { return w.nodes[0]->receiver().installed_count() == 1; });
        printf("%14zu %14zu %13.1f ms\n", pkg.script.size(), wire,
               ok ? static_cast<double>((w.sim.now() - start).count()) / 1e6 : -1.0);
    }

    const int kCell = 100;
    printf("\n(d) control-plane frames over the base's backhaul, direct vs batched\n"
           "    (keep-alive period 800 ms, lease 4 s, cells of %d, discovery\n"
           "    beacons excluded from both arms):\n", kCell);
    printf("%8s %8s %12s %18s %17s %14s\n", "nodes", "arm", "adapted in",
           "frames/node/period", "bytes/node/period", "msgs/s/node");
    struct FleetRow {
        int n;
        FleetNumbers direct, cell;
    };
    std::vector<FleetRow> fleet;
    for (int n : smoke ? std::vector<int>{10'000} : std::vector<int>{1'000, 10'000}) {
        FleetRow row{n, run_fleet(n, 0), run_fleet(n, kCell)};
        for (auto [arm, r] : {std::pair{"direct", &row.direct}, {"cells", &row.cell}}) {
            if (r->converged) {
                printf("%8d %8s %10.1f s %18.3f %15.0f B %14.2f\n", n, arm,
                       r->adapt_s, r->frames_node_period, r->bytes_node_period,
                       r->msgs_sec_node);
            } else {
                printf("%8d %8s %12s\n", n, arm, "DID NOT CONVERGE");
            }
        }
        fleet.push_back(row);
    }
    for (const FleetRow& row : fleet) {
        if (!row.direct.converged || !row.cell.converged) continue;
        printf("    %d nodes: %.0fx fewer backhaul frames per node per period "
               "(batched vs direct)\n",
               row.n, row.direct.frames_node_period / row.cell.frames_node_period);
    }

    if (!fleet.empty() && fleet.back().direct.converged && fleet.back().cell.converged) {
        // Cells are independent radio neighbourhoods, so base-side load is
        // linear in cell count; extrapolate from the largest measured tier.
        const FleetNumbers& d = fleet.back().direct;
        const FleetNumbers& c = fleet.back().cell;
        const double per_cell_frames = c.frames_node_period * kCell;
        printf("\n    MODELED from the measured constants above (not simulated):\n");
        printf("%12s %22s %22s\n", "nodes", "direct: frames/s", "batched: frames/s");
        for (double n : {1e5, 1e6}) {
            printf("%12.0f %22.3g %22.3g\n", n, n * d.frames_node_period / 0.8,
                   (n / kCell) * per_cell_frames / 0.8);
        }
    }

    printf("\n(e) base per-tick adoption scan over N live registrations,\n"
           "    old allocating lookup() vs the in-place for_each() that\n"
           "    replaced it (wall time, direct world's registrar):\n");
    printf("%8s %16s %16s\n", "nodes", "lookup() scan", "for_each scan");
    for (const FleetRow& row : fleet) {
        if (!row.direct.converged) continue;
        printf("%8d %13.1f us %13.1f us\n", row.n, row.direct.scan_old_us,
               row.direct.scan_new_us);
    }

    printf("\n(f) staged canary rollout at fleet scale (stages 1%%/10%%/50%%/100%%,\n"
           "    window 1 s; poison arm aborts on the first cohort quarantine):\n");
    printf("%8s %8s %12s %14s %18s %12s\n", "nodes", "arm", "adapted in",
           "rollout done", "blast radius", "rollback");
    for (int n : smoke ? std::vector<int>{100} : std::vector<int>{1'000, 10'000}) {
        RolloutNumbers healthy = run_rollout_fleet(n, false);
        if (healthy.converged && healthy.completed) {
            printf("%8d %8s %10.1f s %12.1f s %11zu/%zu %12s\n", n, "healthy",
                   healthy.adapt_s, healthy.rollout_s, healthy.blast,
                   static_cast<std::size_t>(n), "-");
        } else {
            printf("%8d %8s %12s\n", n, "healthy",
                   healthy.converged ? "DID NOT COMPLETE" : "DID NOT CONVERGE");
        }
        RolloutNumbers bad = run_rollout_fleet(n, true);
        if (bad.converged && bad.aborted) {
            printf("%8d %8s %10.1f s %12s %8zu/%zu (%zu) %10.1f s\n", n, "poison",
                   bad.adapt_s, "aborted", bad.blast, static_cast<std::size_t>(n),
                   bad.cohort, bad.rollback_s);
            if (bad.escapes > 0) {
                printf("    WARNING: %zu canary sighting(s) OUTSIDE the cohort\n",
                       bad.escapes);
            }
        } else {
            printf("%8d %8s %12s\n", n, "poison",
                   bad.converged ? "DID NOT ABORT" : "DID NOT CONVERGE");
        }
    }

    printf("\nshape to check: (a) per-node cost stays roughly flat (the base\n"
           "pipelines installs); (b) per-extension cost is roughly constant;\n"
           "(c) latency grows with package size once serialization dominates\n"
           "the fixed discovery+rpc cost; (d) batched backhaul frames per node\n"
           "per period sit >=10x below direct and stay flat as cells are added;\n"
           "(e) for_each stays well under the allocating lookup() scan;\n"
           "(f) healthy rollout time is dominated by the 4 stage windows, not\n"
           "fleet size; poison blast radius stays ~1%% of the fleet (the stage-0\n"
           "cohort) with zero escapes, and rollback is a couple of keep-alive\n"
           "periods.\n");
    return 0;
}
