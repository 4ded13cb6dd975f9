// hall_entry: open loop in virtual time. Visitors arrive at one hall as a
// seeded Poisson stream, stay a fixed residence, walk out of radio range and
// are then removed from the network. Each is adapted with the Fig 2 policy
// set (session; access, which implies session; a monitor advice with the
// net capability that posts to the hall collector), and the benchmark calls
// the visitor's motor once when the last extension lands: the first woven
// dispatch. The full adaptation pipeline runs once per visitor, install and
// withdraw included, while dispatch stays a tiny share.
#include <cmath>
#include <random>
#include <set>

#include "harness.h"
#include "robot/devices.h"

namespace adaptbench {
namespace {

constexpr double kRate = 20.0;           ///< arrivals per virtual second
constexpr int kWarmup = 120;             ///< arrivals before the window (set-up)
constexpr int kMeasured = 1000;          ///< arrivals inside the measured window
/// Set-ups timed besides each repetition's own: one takes some 0.1 s, too
/// short for one or two to give a steady median.
constexpr int kExtraSetups = 2;
constexpr Duration kResidence = seconds(5);
/// After walking out: the leases (2 s, renewed every 0.8 s) must lapse and
/// withdraw everything well inside this.
constexpr Duration kLapse = seconds(4);

std::vector<midas::ExtensionPackage> fig2_policies() {
    midas::ExtensionPackage session;
    session.name = "hall/session";
    session.script = "fun onEntry() { ctx.set_note(\"session\", sys.node()); }\n";
    session.bindings = {{prose::AdviceKind::kBefore, "call(* Motor.*(..))", "onEntry", -10}};

    midas::ExtensionPackage access;
    access.name = "hall/access";
    access.script =
        "fun onEntry() {\n"
        "  if (ctx.note(\"session\") == \"\") { ctx.deny(\"no session\"); }\n"
        "}\n";
    access.bindings = {{prose::AdviceKind::kBefore, "call(* Motor.*(..))", "onEntry", 0}};
    access.implies = {"hall/session"};

    midas::ExtensionPackage monitor;
    monitor.name = "hall/monitor";
    monitor.script =
        "fun onEntry() {\n"
        "  owner.post(\"collector\", \"post\", [sys.node(), {\"method\": ctx.method()}]);\n"
        "}\n";
    monitor.bindings = {{prose::AdviceKind::kBefore, "call(* Motor.*(..))", "onEntry", 10}};
    monitor.capabilities = {"net"};
    return {session, access, monitor};
}

void make_motor(rt::Runtime& runtime) { robot::make_motor(runtime, "motor"); }

struct Visitor {
    std::unique_ptr<midas::MobileNode> node;
    std::string label;
    SimTime arrived, dispatched;
    bool adapted = false;
    bool exact_policy = false;   ///< held exactly the Fig 2 set when adapted
    bool call_ok = false;        ///< the first woven dispatch was granted
    bool withdrawn = false;      ///< held nothing after leaving
    InstallTally tally;
};

/// One repetition: a fresh hall and the seeded arrival stream.
struct Hall {
    sim::Simulator sim;
    net::Network net;
    std::unique_ptr<midas::BaseStation> hall;
    std::vector<SimTime> arrival_at;
    std::vector<Visitor> visitors;
    FrameTally frames;
    bool tap;

    Hall(std::uint64_t seed, bool tap_frames)
        : net(sim, net::NetworkConfig{}, seed), tap(tap_frames) {
        midas::BaseConfig bc;
        bc.issuer = "hall";
        hall = std::make_unique<midas::BaseStation>(net, "hall", net::Position{0, 0}, 200.0, bc);
        hall->keys().add_key("hall", to_bytes("k"));
        for (auto& pkg : fig2_policies()) hall->base().add_extension(pkg);
        if (tap) frames.tap(net, hall->id());

        // The seeded Poisson stream, scheduled up front in virtual time: the
        // generator cannot run late.
        std::mt19937_64 rng(seed);
        std::uniform_real_distribution<double> unit(0.0, 1.0);
        const int total = kWarmup + kMeasured;
        visitors.resize(static_cast<std::size_t>(total));
        SimTime t = SimTime::zero() + milliseconds(100);
        for (int k = 0; k < total; ++k) {
            t += Duration{static_cast<std::int64_t>(-std::log(1.0 - unit(rng)) / kRate * 1e9)};
            arrival_at.push_back(t);
            const double x = unit(rng) * 100.0 - 50.0, y = unit(rng) * 100.0 - 50.0;
            sim.schedule_at(t, [this, k, x, y] { arrive(static_cast<std::size_t>(k), x, y); });
        }
    }

    void arrive(std::size_t k, double x, double y) {
        Visitor& v = visitors[k];
        v.label = "v" + std::to_string(k);
        v.arrived = sim.now();
        v.node = std::make_unique<midas::MobileNode>(net, v.label, net::Position{x, y}, 200.0);
        if (tap) frames.tap(net, v.node->id());
        v.node->trust().trust("hall", to_bytes("k"));
        v.node->receiver().allow_capabilities("hall", {"net"});
        make_motor(v.node->runtime());
        v.node->receiver().on_event([this, k](const std::string& ev, const auto& e) {
            Visitor& v = visitors[k];
            v.tally.on(ev, e);
            if (ev != "install" || v.adapted || v.node->receiver().installed_count() != 3) return;
            v.adapted = true;
            std::set<std::string> held;
            for (const auto& e : v.node->receiver().installed()) held.insert(e.name);
            v.exact_policy = held == std::set<std::string>{"hall/session", "hall/access",
                                                           "hall/monitor"};
            sim.schedule_after(Duration{0}, [this, k] { first_dispatch(k); });
        });
        sim.schedule_after(kResidence, [this, k] { leave(k); });
    }

    void first_dispatch(std::size_t k) {
        Visitor& v = visitors[k];
        v.dispatched = sim.now();
        try {
            v.node->runtime().find_object("motor")->call("rotate", {rt::Value{1.0}});
            v.call_ok = true;
        } catch (const std::exception&) {
        }
    }

    void leave(std::size_t k) {
        visitors[k].node->move_to(net::Position{1e6 + 100.0 * static_cast<double>(k), 0});
        sim.schedule_after(kLapse, [this, k] { remove(k); });
    }

    void remove(std::size_t k) {
        Visitor& v = visitors[k];
        v.withdrawn = v.node->receiver().installed_count() == 0;
        net.remove_node(v.node->id());
        // Destroyed on a later tick, never from inside its own event.
        sim.schedule_after(milliseconds(1), [this, k] { visitors[k].node.reset(); });
    }
};

/// Build a hall in `h` and run it through the warm-up arrivals, up to the
/// measured window. Returns the normalised host seconds that took.
double set_up(std::unique_ptr<Hall>& h, std::uint64_t seed, bool traced, SpanLog& log) {
    HostSpeed speed;
    SpanLog::Scope span(log, "hall.setup");
    const HostSpeed::Mark t0 = speed.mark();
    h = std::make_unique<Hall>(seed, traced);
    const SimTime until = h->arrival_at[kWarmup] - Duration{1};
    while (h->sim.now() < until) {
        advance(h->sim, std::min(until, h->sim.now() + seconds(1)));
        speed.sample();
    }
    return speed.normalized_ns(t0) / 1e9;
}

/// One repetition's outcome. Virtual-time results and counts must match
/// across repetitions of a seed.
struct Rep {
    double setup_s = 0;
    std::vector<double> slice_us_per_node;  ///< one per virtual second of the window
    std::vector<double> slice_raw_us_per_node;  ///< the same, not normalised
    std::vector<double> adapt_us;    ///< measured visitors, virtual
    std::uint64_t events = 0;
    Counts counts;
    std::uint64_t verifies = 0, compiles = 0, disco_frames = 0, records = 0;
    std::vector<PathSample> paths;
    std::uint64_t attempted = 0, failed = 0;
    double scan_us = 0;

    bool same_virtual(const Rep& o) const {
        return adapt_us == o.adapt_us && events == o.events &&
               counts.net_delivered == o.counts.net_delivered &&
               counts.net_bytes == o.counts.net_bytes &&
               counts.rpc_calls == o.counts.rpc_calls &&
               counts.installs_sent == o.counts.installs_sent && records == o.records;
    }
};

Rep run_rep(std::uint64_t seed, bool traced, SpanLog& log, Result& res) {
    std::unique_ptr<obs::TraceBuffer> program_trace;
    std::unique_ptr<obs::TraceBuffer::Redirect> redirect;
    if (traced) {
        program_trace = std::make_unique<obs::TraceBuffer>(1 << 20);
        redirect = std::make_unique<obs::TraceBuffer::Redirect>(*program_trace);
    }
    Rep rep;
    SpanLog::Scope rep_span(log, "hall.rep");
    std::unique_ptr<Hall> hall;
    rep.setup_s = set_up(hall, seed, traced, log);
    Hall& h = *hall;
    const SimTime window_open = h.arrival_at[kWarmup];
    const SimTime window_close = h.arrival_at.back();
    HostSpeed speed;

    const Counts c0 = Counts::take(h.net, h.hall->base());
    const std::uint64_t disco0 = h.frames.disco;
    const std::uint64_t records0 = h.hall->store().size();
    {
        // The window runs in one-second virtual slices. A slice's host CPU
        // over the arrivals a second brings on average prices a node,
        // normalised by the host's speed right after it.
        SpanLog::Scope span(log, "hall.window");
        const double per_second =
            kMeasured / (static_cast<double>((window_close - window_open).count()) / 1e9);
        while (h.sim.now() < window_close) {
            const SimTime until = std::min(window_close, h.sim.now() + seconds(1));
            const double slice_s = static_cast<double>((until - h.sim.now()).count()) / 1e9;
            speed.reset();
            const HostSpeed::Mark s0 = speed.mark();
            rep.events += advance(h.sim, until);
            speed.sample();
            const double nodes = per_second * slice_s;
            rep.slice_us_per_node.push_back(speed.normalized_ns(s0) / 1e3 / nodes);
            rep.slice_raw_us_per_node.push_back(speed.raw_ns(s0) / 1e3 / nodes);
        }
    }
    rep.counts = Counts::take(h.net, h.hall->base()) - c0;
    rep.disco_frames = h.frames.disco - disco0;
    rep.records = h.hall->store().size() - records0;
    if (traced) rep.scan_us = scan_us(log, {&h.hall->registrar()}, "midas.adaptation");

    // Drain: everyone leaves, lapses and is removed.
    {
        SpanLog::Scope span(log, "hall.drain");
        advance(h.sim, window_close + kResidence + kLapse + seconds(1));
    }

    std::map<std::string, NodeTimes> measured;
    for (std::size_t k = 0; k < h.visitors.size(); ++k) {
        const Visitor& v = h.visitors[k];
        const bool ok = v.adapted && v.exact_policy && v.call_ok && v.withdrawn && !v.node;
        ++rep.attempted;
        if (!ok) {
            ++rep.failed;
            res.check(false, "hall_entry: " + v.label + " adapted=" +
                                 std::to_string(v.adapted) + " exact=" +
                                 std::to_string(v.exact_policy) + " call=" +
                                 std::to_string(v.call_ok) + " withdrawn=" +
                                 std::to_string(v.withdrawn));
        }
        if (k < static_cast<std::size_t>(kWarmup)) continue;
        // A visitor never adapted waited its whole residence: that is its
        // sample (a lower bound), so a failed run still has every
        // percentile's tail and prints its result.
        const Duration waited = v.adapted ? v.dispatched - v.arrived : kResidence;
        rep.adapt_us.push_back(static_cast<double>(waited.count()) / 1e3);
        if (!v.adapted) continue;
        rep.verifies += v.tally.verifies;
        rep.compiles += v.tally.compiles;
        measured[v.label] = {v.arrived, v.dispatched};
    }
    // One monitor record per adapted visitor, from that visitor.
    std::size_t adapted = 0;
    for (const Visitor& v : h.visitors) adapted += v.adapted ? 1 : 0;
    res.check(h.hall->store().size() == adapted && h.hall->store().sources().size() == adapted,
              "hall_entry: the hall store holds " + std::to_string(h.hall->store().size()) +
                  " records from " + std::to_string(h.hall->store().sources().size()) +
                  " sources for " + std::to_string(adapted) + " adapted visitors");
    if (traced) rep.paths = install_paths(program_trace->events(), measured);
    return rep;
}

}  // namespace

Result run_hall_entry(const Options& opt, SpanLog& log) {
    Result res;
    // Repetitions of the same seed until the time is spent (at least two, so
    // the determinism check has something to compare). The traced run
    // alternates untraced and traced repetitions.
    std::vector<Rep> plain, traced;
    const std::int64_t start = cpu_ns();
    const std::int64_t budget = static_cast<std::int64_t>(opt.seconds * 1e9);
    std::vector<double> setup_s;
    while (plain.size() < 2 || (opt.trace && traced.size() < 1) || cpu_ns() - start < budget) {
        const bool trace_this = opt.trace && traced.size() < plain.size();
        for (int i = 0; i < kExtraSetups && !opt.trace; ++i) {
            std::unique_ptr<Hall> spare;
            setup_s.push_back(set_up(spare, opt.seed, false, log));
        }
        Rep rep = run_rep(opt.seed, trace_this, log, res);
        if (!trace_this) setup_s.push_back(rep.setup_s);
        res.attempted += rep.attempted;
        res.failed += rep.failed;
        const Rep& ref = plain.empty() ? rep : plain.front();
        res.check(rep.same_virtual(ref), "hall_entry: repetition is not deterministic");
        (trace_this ? traced : plain).push_back(std::move(rep));
    }
    std::vector<Rep> obs_off;
    if (opt.trace) {
        // Untraced like the plain repetitions. Its counts are not
        // comparable (obs keeps the rpc counters), but the output checks
        // hold.
        SpanLog::Scope span(log, "hall.obs_off");
        ObsOff off;
        Rep rep = run_rep(opt.seed, false, log, res);
        res.attempted += rep.attempted;
        res.failed += rep.failed;
        obs_off.push_back(std::move(rep));
    }

    const Rep& r = plain.front();
    auto slice_median = [](const std::vector<Rep>& reps, std::vector<double> Rep::*field) {
        std::vector<double> xs;
        for (const Rep& p : reps) xs.insert(xs.end(), (p.*field).begin(), (p.*field).end());
        return median(xs);
    };
    const double host_us = slice_median(plain, &Rep::slice_us_per_node);
    res.e2e = {{"latency_p50", percentile(r.adapt_us, 0.5), "us"},
               {"latency_p99", percentile(r.adapt_us, 0.99), "us"},
               {"host_us_per_op", host_us, "us"},
               {"setup_s", median(setup_s), "s"}};
    if (!opt.trace) return res;

    const Rep& t = traced.front();
    LayerInputs in;
    std::vector<CallSite> sites = {{"motor", "rotate", {rt::Value{1.0}}}};
    in.dispatch = price_dispatch(log, fig2_policies(), make_motor, sites);
    in.install = price_install(log, fig2_policies(), to_bytes("k"), "hall", make_motor);
    in.per = kMeasured;
    const double raw_us = slice_median(plain, &Rep::slice_raw_us_per_node);
    in.host_us_per_node = raw_us;
    in.verifies = t.verifies;
    in.compiles = t.compiles;
    in.disco_frames = t.disco_frames;
    in.db_records = t.records;
    in.counts = t.counts;
    in.events = t.events;
    in.sim_host_ns = raw_us * 1e3 * kMeasured;
    in.scan_us = t.scan_us;
    in.paths = t.paths;
    in.trace_overhead_frac = host_us / slice_median(obs_off, &Rep::slice_us_per_node) - 1.0;
    res.layer = layer_metrics(in);
    return res;
}

}  // namespace adaptbench
