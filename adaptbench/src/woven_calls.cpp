// woven_calls: closed loop, one client. A hall adapts one robot over the
// radio with three light script extensions, then the radio goes quiet and
// the robot's application calls a seeded mix of its local service methods:
// half un-woven, half woven with one to three advices (before, after,
// around). Dispatch-bound: loads rt, core, script and obs; net, disco,
// crypto and midas run only during set-up.
#include <random>

#include "harness.h"

namespace adaptbench {
namespace {

constexpr int kCopies = 256;      ///< each method appears this often in one pass
constexpr int kBatch = 1024;      ///< calls per timed batch
constexpr int kSetupEvery = 64;   ///< passes of the mix between two timed world builds
constexpr int kSpeedEvery = 8;    ///< passes of the mix between two host-speed samples
constexpr int kSpeedWindow = 5;   ///< samples the speed factor is the median of

/// Method names encode the advice set: u* nothing, b* before, ba* before +
/// after, bar* before + after + around.
const std::vector<std::string>& method_names() {
    static const std::vector<std::string> names = {
        "u0", "u1", "u2", "u3", "u4", "u5", "u6", "u7",
        "b0", "b1", "b2", "ba0", "ba1", "ba2", "bar0", "bar1"};
    return names;
}

int advices_of(const std::string& m) {
    if (m[0] == 'u') return 0;
    if (m.rfind("bar", 0) == 0) return 3;
    if (m.rfind("ba", 0) == 0) return 2;
    return 1;
}

std::int64_t body(std::size_t i, std::int64_t x) {
    return x * static_cast<std::int64_t>(i + 3) + static_cast<std::int64_t>(i);
}

void make_service(rt::Runtime& runtime) {
    rt::TypeInfo::Builder b("Svc");
    for (std::size_t i = 0; i < method_names().size(); ++i) {
        b.method(method_names()[i], rt::TypeKind::kInt, {{"x", rt::TypeKind::kInt}},
                 [i](rt::ServiceObject&, rt::List& args) -> rt::Value {
                     return rt::Value{body(i, args[0].as_int())};
                 });
    }
    runtime.register_type(b.build());
    runtime.create("Svc", "svc");
}

std::vector<midas::ExtensionPackage> light_extensions() {
    midas::ExtensionPackage note;
    note.name = "hall/note";
    note.script = "fun onEntry() { ctx.set_note(\"seen\", ctx.arg(0)); }\n";
    note.bindings = {{prose::AdviceKind::kBefore, "call(* Svc.b*(..))", "onEntry", 0}};

    midas::ExtensionPackage check;
    check.name = "hall/check";
    check.script =
        "let over = 0;\n"
        "fun onExit() { if (ctx.result() < 0) { over = over + 1; } }\n";
    check.bindings = {{prose::AdviceKind::kAfter, "call(* Svc.ba*(..))", "onExit", 0}};

    midas::ExtensionPackage count;
    count.name = "hall/count";
    count.script =
        "let calls = 0;\n"
        "fun onAround() { calls = calls + 1; return ctx.proceed(); }\n";
    count.bindings = {{prose::AdviceKind::kAround, "call(* Svc.bar*(..))", "onAround", 0}};
    return {note, check, count};
}

/// One world: the hall, the robot, and the robot adapted over the radio.
struct World {
    sim::Simulator sim;
    net::Network net;
    std::unique_ptr<midas::BaseStation> hall;
    std::unique_ptr<midas::MobileNode> robot;
    FrameTally frames;
    InstallTally tally;

    // Adaptation outcome (virtual time, counts, host cost).
    bool adapted = false;
    SimTime arrived, dispatched;
    std::uint64_t events = 0;
    Counts counts;
    std::uint64_t disco_frames = 0;
    std::int64_t adapt_host_ns = 0;

    World(std::uint64_t seed, bool tap) : net(sim, net::NetworkConfig{}, seed) {
        midas::BaseConfig bc;
        bc.issuer = "hall";
        hall = std::make_unique<midas::BaseStation>(net, "hall", net::Position{0, 0}, 200.0, bc);
        hall->keys().add_key("hall", to_bytes("k"));
        for (auto& pkg : light_extensions()) hall->base().add_extension(pkg);
        if (tap) frames.tap(net, hall->id());
        sim.run_until(sim.now() + milliseconds(100));  // the hall is up before anyone walks in

        Counts c0 = Counts::take(net, hall->base());
        std::int64_t t0 = cpu_ns();
        arrived = sim.now();
        robot = std::make_unique<midas::MobileNode>(net, "robot", net::Position{20, 0}, 200.0);
        if (tap) frames.tap(net, robot->id());
        robot->trust().trust("hall", to_bytes("k"));
        make_service(robot->runtime());
        robot->receiver().on_event([this](const std::string& ev, const auto& e) {
            tally.on(ev, e);
            if (ev != "install" || robot->receiver().installed_count() != 3) return;
            // The application's first call right after the last extension
            // lands: the first woven dispatch.
            sim.schedule_after(Duration{0}, [this] {
                auto svc = robot->runtime().find_object("svc");
                svc->call("b0", {rt::Value{std::int64_t{1}}});
                dispatched = sim.now();
                adapted = true;
            });
        });
        const SimTime deadline = sim.now() + seconds(20);
        while (!adapted && sim.now() < deadline) {
            events += advance(sim, sim.now() + milliseconds(1));
        }
        // Let the last install replies reach the hall.
        events += advance(sim, sim.now() + milliseconds(20));
        adapt_host_ns = cpu_ns() - t0;
        counts = Counts::take(net, hall->base()) - c0;
        disco_frames = frames.disco;
        // The radio goes quiet: nothing advances the simulator from here on.
    }
};

/// The seeded call mix: every method kCopies times, shuffled, with seeded
/// arguments. The shape (half woven, 15/8 advices per woven call) is the
/// same for every seed; the order and arguments are not.
struct Mix {
    std::vector<std::size_t> method;
    std::vector<std::int64_t> arg;
    std::uint64_t checksum = 0;   ///< sum of expected results over one pass
    std::uint64_t advices = 0;    ///< advice executions over one pass

    explicit Mix(std::uint64_t seed) {
        std::mt19937_64 rng(seed);
        for (std::size_t i = 0; i < method_names().size(); ++i) {
            for (int k = 0; k < kCopies; ++k) method.push_back(i);
        }
        for (std::size_t i = method.size() - 1; i > 0; --i) {
            std::swap(method[i], method[rng() % (i + 1)]);
        }
        for (std::size_t i = 0; i < method.size(); ++i) {
            arg.push_back(static_cast<std::int64_t>(rng() % 100'000));
            checksum += static_cast<std::uint64_t>(body(method[i], arg.back()));
            advices += static_cast<std::uint64_t>(advices_of(method_names()[method[i]]));
        }
    }
};

struct CallPhase {
    std::vector<double> batch_ns;  ///< mean host ns per call, per batch
    std::vector<double> pass_ns;   ///< host ns per call, per checked pass
    std::uint64_t calls = 0;
    std::uint64_t failed = 0;
};

/// Call passes of the mix on the adapted robot until `seconds` of host CPU
/// have gone by. Each pass is checked: the checksum of its return values
/// and, while obs is on, the advice executions the program's profiler
/// counted. Every kSpeedEvery passes the host's speed is sampled and the
/// passes' timings normalised by it; every kSetupEvery passes, outside any
/// timed batch, `between` runs. Either leaves the caches cold, so an
/// untimed batch of the mix follows before timing resumes.
CallPhase call_phase(World& w, const Mix& mix, double seconds, Result& res, HostSpeed& speed,
                     const std::function<void()>& between) {
    auto svc = w.robot->runtime().find_object("svc");
    std::vector<rt::Method*> methods;
    for (const auto& m : method_names()) methods.push_back(svc->type().method(m));
    CallPhase out;
    const std::int64_t start = cpu_ns();
    const std::int64_t budget = static_cast<std::int64_t>(seconds * 1e9);
    const std::size_t n = mix.method.size();
    const bool metered = obs::enabled();
    std::size_t batch0 = 0, pass0 = 0;  // first timings not yet normalised
    auto rewarm = [&] {
        for (std::size_t i = 0; i < kBatch; ++i) {
            methods[mix.method[i]]->invoke(*svc, {rt::Value{mix.arg[i]}});
        }
    };
    while (cpu_ns() - start < budget) {
        const std::int64_t p0 = cpu_ns();
        std::uint64_t sum = 0;
        const std::uint64_t advices0 = family_sum("profile.advice_calls");
        for (std::size_t b0 = 0; b0 < n; b0 += kBatch) {
            const std::int64_t t0 = cpu_ns();
            for (std::size_t i = b0; i < b0 + kBatch; ++i) {
                rt::Value r = methods[mix.method[i]]->invoke(*svc, {rt::Value{mix.arg[i]}});
                sum += static_cast<std::uint64_t>(r.as_int());
            }
            out.batch_ns.push_back(static_cast<double>(cpu_ns() - t0) / kBatch);
        }
        const std::uint64_t advices = family_sum("profile.advice_calls") - advices0;
        out.pass_ns.push_back(static_cast<double>(cpu_ns() - p0) / static_cast<double>(n));
        out.calls += n;
        if (out.pass_ns.size() % kSpeedEvery == 0) {
            speed.sample();
            speed.keep_last(kSpeedWindow);
            for (; batch0 < out.batch_ns.size(); ++batch0) out.batch_ns[batch0] /= speed.factor();
            for (; pass0 < out.pass_ns.size(); ++pass0) out.pass_ns[pass0] /= speed.factor();
        }
        if (out.pass_ns.size() % kSetupEvery == 0) between();
        if (out.pass_ns.size() % kSpeedEvery == 0) rewarm();
        if (sum != mix.checksum || (metered && advices != mix.advices)) {
            out.failed += n;
            res.check(false, "woven_calls: pass checksum " + std::to_string(sum) + " vs " +
                                 std::to_string(mix.checksum) + ", advices " +
                                 std::to_string(advices) + " vs " +
                                 std::to_string(mix.advices));
        }
    }
    // Timings after the last sample are dropped rather than left raw.
    out.batch_ns.resize(batch0);
    out.pass_ns.resize(pass0);
    return out;
}

}  // namespace

Result run_woven_calls(const Options& opt, SpanLog& log) {
    Result res;
    const Mix mix(opt.seed);

    // The traced run keeps the program's own spans in a buffer of ours; it
    // must be installed before the world's simulator binds its clock.
    std::unique_ptr<obs::TraceBuffer> program_trace;
    std::unique_ptr<obs::TraceBuffer::Redirect> redirect;
    if (opt.trace) {
        program_trace = std::make_unique<obs::TraceBuffer>(1 << 16);
        redirect = std::make_unique<obs::TraceBuffer::Redirect>(*program_trace);
    }

    // Set-up: build the world and adapt the robot over the radio. It is
    // timed again every kSetupEvery passes of the call phase, so the
    // reported median samples the whole run, and normalised by the latest
    // host-speed sample; every build must replay the same virtual outcome.
    std::vector<double> setup_s, adapt_host_ns;  // adapt_host_ns stays raw
    std::unique_ptr<World> world;
    HostSpeed speed;
    speed.sample();
    auto build = [&]() {
        SpanLog::Scope span(log, "setup");
        const std::int64_t t0 = cpu_ns();
        auto w = std::make_unique<World>(opt.seed, opt.trace);
        setup_s.push_back(static_cast<double>(cpu_ns() - t0) / 1e9 / speed.factor());
        adapt_host_ns.push_back(static_cast<double>(w->adapt_host_ns));
        res.check(w->adapted, "woven_calls: robot not adapted within 20 s");
        if (world) {
            res.check(w->dispatched - w->arrived == world->dispatched - world->arrived &&
                          w->events == world->events &&
                          w->counts.net_delivered == world->counts.net_delivered &&
                          w->counts.rpc_calls == world->counts.rpc_calls,
                      "woven_calls: set-up is not deterministic");
        }
        return w;
    };
    world = build();
    std::vector<PathSample> paths;
    if (program_trace) {
        paths = install_paths(program_trace->events(),
                              {{"robot", {world->arrived, world->dispatched}}});
    }
    auto rebuild = [&]() { build(); };
    World& w = *world;
    res.check(w.robot->receiver().installed_count() == 3,
              "woven_calls: robot holds " +
                  std::to_string(w.robot->receiver().installed_count()) +
                  " extensions, not 3");

    // The measured phase. The traced run splits its time between a half
    // with obs on and a half with obs off, both without world rebuilds, to
    // price the program's tracing and metering.
    auto no_rebuild = [] {};
    CallPhase calls;
    if (!opt.trace) {
        calls = call_phase(w, mix, opt.seconds, res, speed, rebuild);
    } else {
        SpanLog::Scope span(log, "calls.obs_on");
        calls = call_phase(w, mix, opt.seconds / 2, res, speed, no_rebuild);
    }
    res.attempted = calls.calls;
    res.failed = calls.failed;
    std::vector<double> us;
    for (double ns : calls.batch_ns) us.push_back(ns / 1e3);
    res.e2e = {{"latency_p50", percentile(us, 0.5), "us"},
               {"latency_p99", percentile(us, 0.99), "us"},
               {"host_us_per_op", median(calls.pass_ns) / 1e3, "us"},
               {"setup_s", median(setup_s), "s"}};
    if (!opt.trace) return res;

    CallPhase obs_off;
    {
        SpanLog::Scope span(log, "calls.obs_off");
        ObsOff off;
        obs_off = call_phase(w, mix, opt.seconds / 2, res, speed, no_rebuild);
    }
    res.attempted += obs_off.calls;
    res.failed += obs_off.failed;

    std::vector<CallSite> sites;
    for (std::size_t i = 0; i < mix.method.size(); ++i) {
        sites.push_back({"svc", method_names()[mix.method[i]], {rt::Value{mix.arg[i]}}});
    }
    const std::vector<midas::ExtensionPackage> pkgs = light_extensions();
    LayerInputs in;
    in.dispatch = price_dispatch(log, pkgs, make_service, sites);
    in.install = price_install(log, pkgs, to_bytes("k"), "hall", make_service);
    in.per = 1;
    in.host_us_per_node = median(adapt_host_ns) / 1e3;
    in.verifies = w.tally.verifies;
    in.compiles = w.tally.compiles;
    in.disco_frames = w.disco_frames;
    in.counts = w.counts;
    in.events = w.events;
    in.sim_host_ns = median(adapt_host_ns);
    in.scan_us = scan_us(log, {&w.hall->registrar()}, "midas.adaptation");
    in.paths = paths;
    in.trace_overhead_frac = median(calls.pass_ns) / median(obs_off.pass_ns) - 1.0;
    res.layer = layer_metrics(in);
    return res;
}

}  // namespace adaptbench
