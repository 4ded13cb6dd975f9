// fleet_readapt: 10^4 nodes in cells of 100 behind CellStations, leased
// through the batched cell protocol. The fleet converges once (set-up);
// then the hall pushes successive versions of one policy, each a replace
// (withdraw plus weave) on every node delivered through cell frames, with
// steady leasing periods between them. The only workload that loads the
// midas base, cell batching, the backhaul and the sim event queue at fleet
// size; it uses the weave path as replace, where hall_entry installs fresh.
#include "harness.h"
#include "robot/devices.h"

namespace adaptbench {
namespace {

constexpr int kNodes = 10'000;
constexpr int kCell = 100;
/// Policy versions pushed per repetition, each followed by one keep-alive
/// period of leasing. One round's host time varies by some 20% from the
/// next on a shared host, so a run needs many.
constexpr int kRounds = 8;
/// The same in the traced run, which makes three repetitions and must
/// still end well inside the run time limit.
constexpr int kTracedRounds = 4;
const std::string kPolicy = "fleet/policy";

/// Version `v` of the policy. Each version ships a distinct script, so a
/// replace compiles on every node.
midas::ExtensionPackage policy(int v) {
    midas::ExtensionPackage pkg;
    pkg.name = kPolicy;
    pkg.script = "let version = " + std::to_string(v) +
                 ";\nlet calls = 0;\nfun onEntry() { calls = calls + 1; }\n";
    pkg.bindings = {{prose::AdviceKind::kBefore, "call(* Motor.*(..))", "onEntry", 0}};
    return pkg;
}

void make_motor(rt::Runtime& runtime) { robot::make_motor(runtime, "motor"); }

bool control_plane(const net::Message& m) { return m.kind.rfind("disco.", 0) != 0; }

struct Fleet {
    sim::Simulator sim;
    net::Network net;
    midas::BaseConfig bc;
    std::unique_ptr<midas::BaseStation> hub;
    std::vector<std::unique_ptr<midas::CellStation>> stations;
    std::vector<std::unique_ptr<midas::MobileNode>> nodes;
    std::vector<InstallTally> tally;
    std::vector<SimTime> landed;          ///< when that version landed
    std::uint32_t target = 0;
    std::size_t on_target = 0;
    std::uint64_t disco_frames = 0, backhaul_frames = 0;
    std::uint64_t events = 0;
    HostSpeed& speed;  ///< sampled while the fleet runs (harness.h)

    Fleet(std::uint64_t seed, bool tap, HostSpeed& host_speed)
        : net(sim, net::NetworkConfig{}, seed), speed(host_speed) {
        // One probe at power-on: at fleet size the periodic probe broadcast
        // is a control-plane storm of its own (registrar beacons keep
        // liveness fresh without it).
        disco::DiscoveryConfig quiet;
        quiet.probe_period = seconds(3600);
        bc.issuer = "hall";
        bc.extension_lease = seconds(4);
        bc.max_keepalive_failures = 4;
        hub = std::make_unique<midas::BaseStation>(net, "hall", net::Position{0, -5000}, 1.0,
                                                   bc, disco::RegistrarConfig{}, nullptr, quiet);
        hub->keys().add_key("hall", to_bytes("k"));
        // The hub's admission gate is sized for one hall; open it for the
        // fleet's install burst.
        net::AdmissionConfig wide;
        wide.rate_per_sec = 1e6;
        wide.burst = 65536;
        wide.queue_cap = {65536, 65536, 65536};
        hub->router().admission().set_config(wide);
        hub->base().add_extension(policy(1));
        target = 1;
        const NodeId hub_id = hub->id();
        if (tap) {
            net.set_tap(hub_id, [this](const net::Message& m) {
                if (control_plane(m)) ++backhaul_frames;
                else ++disco_frames;
            });
        }
        for (int c = 0; c < kNodes / kCell; ++c) {
            auto st = std::make_unique<midas::CellStation>(
                net, "cell:" + std::to_string(c), net::Position{1000.0 * c, 0.0}, 120.0,
                midas::CellRelayConfig{}, disco::RegistrarConfig{}, quiet);
            net.add_wire(hub_id, st->id());
            hub->base().attach_cell(st->label(), st->id());
            if (tap) {
                net.set_tap(st->id(), [this, hub_id](const net::Message& m) {
                    if (!control_plane(m)) ++disco_frames;
                    else if (m.from == hub_id) ++backhaul_frames;
                });
            }
            stations.push_back(std::move(st));
        }
        tally.resize(kNodes);
        landed.assign(kNodes, SimTime::zero());
        for (int i = 0; i < kNodes; ++i) {
            midas::ReceiverConfig rc;
            const int c = i / kCell, k = i % kCell;
            rc.cell = "cell:" + std::to_string(c);
            auto node = std::make_unique<midas::MobileNode>(
                net, "n" + std::to_string(i),
                net::Position{1000.0 * c - 22.5 + 5.0 * (k % 10), -22.5 + 5.0 * (k / 10)}, 60.0,
                rc, nullptr, quiet);
            node->trust().trust("hall", to_bytes("k"));
            make_motor(node->runtime());
            node->receiver().on_event([this, i](const std::string& ev, const auto& e) {
                tally[static_cast<std::size_t>(i)].on(ev, e);
                // A replace arrives as "install" after the old version's
                // "withdraw".
                if (ev == "install" && e.name == kPolicy) {
                    landed[static_cast<std::size_t>(i)] = sim.now();
                    if (e.version == target) ++on_target;
                }
            });
            if (tap) {
                net.set_tap(node->id(), [this](const net::Message& m) {
                    if (!control_plane(m)) ++disco_frames;
                });
            }
            nodes.push_back(std::move(node));
            // Power-on is staggered: ten thousand devices do not boot in
            // the same microsecond.
            if (i % 200 == 199) events += advance(sim, sim.now() + milliseconds(20));
            if (i % 1000 == 999) speed.sample();
        }
    }

    /// Run until every node holds `target` (or the deadline); true if so.
    bool converge(Duration timeout) {
        const SimTime deadline = sim.now() + timeout;
        for (int step = 1; on_target < nodes.size() && sim.now() < deadline; ++step) {
            events += advance(sim, sim.now() + milliseconds(5));
            if (step % 40 == 0) speed.sample();
        }
        return on_target == nodes.size();
    }

    /// Every node holds exactly one version of the policy, the target.
    std::size_t off_target() const {
        std::size_t bad = 0;
        for (const auto& node : nodes) {
            auto held = node->receiver().installed();
            if (held.size() != 1 || held[0].name != kPolicy || held[0].version != target) ++bad;
        }
        return bad;
    }
};

struct Round {
    SimTime pushed;
    double complete_s = 0;           ///< virtual: push -> every node holds it
    std::vector<double> node_us;     ///< virtual: push -> each node holds it
    double host_s = 0;               ///< raw; the run normalises the median
    std::uint64_t events = 0;
    double lease_host_ms = 0;        ///< per keep-alive period after the round, raw
};

struct Rep {
    double setup_s = 0;
    std::vector<Round> rounds;
    Counts counts;                   ///< over the rounds
    std::uint64_t verifies = 0, compiles = 0, disco_frames = 0;
    double backhaul_per_node_period = 0;
    double scan_us = 0;
    std::uint64_t attempted = 0, failed = 0;

    bool same_virtual(const Rep& o) const {
        if (rounds.size() != o.rounds.size()) return false;
        for (std::size_t r = 0; r < rounds.size(); ++r) {
            if (rounds[r].node_us != o.rounds[r].node_us ||
                rounds[r].events != o.rounds[r].events) {
                return false;
            }
        }
        return counts.net_delivered == o.counts.net_delivered &&
               counts.rpc_calls == o.counts.rpc_calls &&
               counts.installs_sent == o.counts.installs_sent;
    }
};

/// One repetition. Its host times are raw; `speed` is sampled all through
/// it, so the caller can normalise them by the run's host speed.
Rep run_rep(std::uint64_t seed, bool traced, int rounds, HostSpeed& speed, SpanLog& log,
            Result& res) {
    std::unique_ptr<obs::TraceBuffer> program_trace;
    std::unique_ptr<obs::TraceBuffer::Redirect> redirect;
    if (traced) {
        program_trace = std::make_unique<obs::TraceBuffer>(1 << 16);
        redirect = std::make_unique<obs::TraceBuffer::Redirect>(*program_trace);
    }
    Rep rep;
    SpanLog::Scope rep_span(log, "fleet.rep");
    const HostSpeed::Mark t0 = speed.mark();
    std::unique_ptr<Fleet> f;
    {
        SpanLog::Scope span(log, "fleet.setup");
        f = std::make_unique<Fleet>(seed, traced, speed);
        res.check(f->converge(seconds(120)), "fleet_readapt: fleet did not converge");
        f->events += advance(f->sim, f->sim.now() + f->bc.keepalive_period);
        speed.sample();
    }
    rep.setup_s = speed.raw_ns(t0) / 1e9;

    const Counts c0 = Counts::take(f->net, f->hub->base());
    std::uint64_t verifies0 = 0, compiles0 = 0;
    for (const auto& t : f->tally) {
        verifies0 += t.verifies;
        compiles0 += t.compiles;
    }
    const std::uint64_t disco0 = f->disco_frames;
    std::uint64_t lease_frames = 0;
    for (int r = 0; r < rounds; ++r) {
        Round round;
        SpanLog::Scope span(log, "fleet.round");
        const HostSpeed::Mark h0 = speed.mark();
        const std::uint64_t e0 = f->events;
        round.pushed = f->sim.now();
        f->target = static_cast<std::uint32_t>(r + 2);  // the base bumps past v1
        f->on_target = 0;
        f->hub->base().add_extension(policy(r + 2));
        const bool done = f->converge(seconds(60));
        speed.sample();
        round.host_s = speed.raw_ns(h0) / 1e9;
        round.events = f->events - e0;
        SimTime last = round.pushed;
        for (std::size_t i = 0; i < f->nodes.size(); ++i) {
            // A node the round never reached counts as waiting until the
            // round gave up (a lower bound); the round has failed anyway.
            const SimTime at = f->landed[i] < round.pushed ? f->sim.now() : f->landed[i];
            round.node_us.push_back(static_cast<double>((at - round.pushed).count()) / 1e3);
            last = std::max(last, at);
        }
        round.complete_s = static_cast<double>((last - round.pushed).count()) / 1e9;
        const std::size_t bad = done ? f->off_target() : f->nodes.size();
        rep.attempted += f->nodes.size();
        rep.failed += bad;
        res.check(bad == 0, "fleet_readapt: round " + std::to_string(r) + ": " +
                                std::to_string(bad) + " nodes not on version " +
                                std::to_string(f->target) + " alone");

        // Steady leasing until the next push.
        SpanLog::Scope lease_span(log, "fleet.lease");
        const std::uint64_t b0 = f->backhaul_frames;
        const HostSpeed::Mark l0 = speed.mark();
        f->events += advance(f->sim, f->sim.now() + f->bc.keepalive_period);
        speed.sample();
        round.lease_host_ms = speed.raw_ns(l0) / 1e6;
        lease_frames += f->backhaul_frames - b0;
        rep.rounds.push_back(std::move(round));
    }
    rep.counts = Counts::take(f->net, f->hub->base()) - c0;
    for (const auto& t : f->tally) {
        rep.verifies += t.verifies;
        rep.compiles += t.compiles;
    }
    rep.verifies -= verifies0;
    rep.compiles -= compiles0;
    rep.disco_frames = f->disco_frames - disco0;
    rep.backhaul_per_node_period =
        static_cast<double>(lease_frames) / kNodes / rounds;
    if (traced) {
        std::vector<disco::Registrar*> regs{&f->hub->registrar()};
        for (auto& st : f->stations) regs.push_back(&st->registrar());
        rep.scan_us = scan_us(log, regs, "midas.adaptation");
    }
    {
        SpanLog::Scope span(log, "fleet.teardown");
        f.reset();
    }
    return rep;
}

}  // namespace

Result run_fleet_readapt(const Options& opt, SpanLog& log) {
    Result res;
    // Repetitions of the same seed until the time is spent, at least two.
    // The traced run makes one untraced and one traced repetition only
    // (each some 20 s of host time at kTracedRounds), then one with obs
    // off. Host times are normalised once, by the host's speed over all the
    // untraced repetitions: the host's slow spells last minutes, while
    // per-round probes would add their own noise (one probe differs from
    // the next by some 10%).
    std::vector<Rep> plain, traced, obs_off;
    HostSpeed speed, traced_speed, off_speed;
    const int rounds = opt.trace ? kTracedRounds : kRounds;
    const std::int64_t start = cpu_ns();
    const std::int64_t budget = static_cast<std::int64_t>(opt.seconds * 1e9);
    while (opt.trace ? traced.empty()
                     : plain.size() < 2 || cpu_ns() - start < budget) {
        const bool trace_this = opt.trace && !plain.empty();
        Rep rep = run_rep(opt.seed, trace_this, rounds, trace_this ? traced_speed : speed, log,
                          res);
        res.attempted += rep.attempted;
        res.failed += rep.failed;
        res.check(rep.same_virtual(plain.empty() ? rep : plain.front()),
                  "fleet_readapt: repetition is not deterministic");
        (trace_this ? traced : plain).push_back(std::move(rep));
    }
    if (opt.trace) {
        // Its counts are not comparable (obs keeps the rpc counters), but
        // the output checks hold.
        SpanLog::Scope span(log, "fleet.obs_off");
        ObsOff off;
        Rep rep = run_rep(opt.seed, false, rounds, off_speed, log, res);
        res.attempted += rep.attempted;
        res.failed += rep.failed;
        obs_off.push_back(std::move(rep));
    }

    auto pool = [](const std::vector<Rep>& reps, auto field) {
        std::vector<double> xs;
        for (const Rep& r : reps) {
            for (const Round& round : r.rounds) xs.push_back(round.*field);
        }
        return xs;
    };
    std::vector<double> setup_s;
    for (const Rep& r : plain) setup_s.push_back(r.setup_s);
    std::vector<double> node_us;
    for (const Round& round : plain.front().rounds) {
        node_us.insert(node_us.end(), round.node_us.begin(), round.node_us.end());
    }
    const double raw_round_s = median(pool(plain, &Round::host_s));
    const double round_host_s = raw_round_s / speed.factor();
    res.e2e = {{"latency_p50", percentile(node_us, 0.5), "us"},
               {"latency_p99", percentile(node_us, 0.99), "us"},
               {"host_us_per_op", round_host_s * 1e6 / kNodes, "us"},
               {"setup_s", median(setup_s) / speed.factor(), "s"}};
    if (!opt.trace) return res;

    const Rep& t = traced.front();
    LayerInputs in;
    std::vector<CallSite> sites = {{"motor", "rotate", {rt::Value{1.0}}}};
    const std::vector<midas::ExtensionPackage> pkgs = {policy(2)};
    in.dispatch = price_dispatch(log, pkgs, make_motor, sites);
    in.install = price_install(log, pkgs, to_bytes("k"), "hall", make_motor);
    in.per = static_cast<double>(kNodes) * rounds;
    in.host_us_per_node = raw_round_s * 1e6 / kNodes;
    in.verifies = t.verifies;
    in.compiles = t.compiles;
    in.disco_frames = t.disco_frames;
    in.counts = t.counts;
    std::uint64_t round_events = 0;
    for (const Round& round : t.rounds) round_events += round.events;
    in.events = round_events;
    in.sim_host_ns = raw_round_s * 1e9 * rounds;
    in.rounds = rounds;
    in.backhaul_per_node_period = t.backhaul_per_node_period;
    in.scan_us = t.scan_us;
    in.trace_overhead_frac =
        round_host_s / (median(pool(obs_off, &Round::host_s)) / off_speed.factor()) - 1.0;
    in.readapt_s_p50 = median(pool(plain, &Round::complete_s));
    in.readapt_host_s = raw_round_s;
    in.lease_host_ms_per_period = median(pool(plain, &Round::lease_host_ms));
    res.layer = layer_metrics(in);
    return res;
}

}  // namespace adaptbench
