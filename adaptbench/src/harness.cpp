#include "harness.h"

#include <fcntl.h>
#include <sched.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <climits>
#include <ctime>
#include <fstream>
#include <map>
#include <stdexcept>

extern char** environ;

#include "core/script_aspect.h"
#include "obs/profile.h"
#include "script/check.h"
#include "script/compile.h"
#include "script/parser.h"

namespace adaptbench {

std::int64_t cpu_ns() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

namespace {

/// The probe kernel's time on the idle 4-CPU host the benchmark was built
/// on (RelWithDebInfo). Only a scale: normalised host times read as host
/// time at that speed.
constexpr double kProbeNominalNs = 1.7e6;

/// The probe program, built next to this binary.
const std::string& probe_path() {
    static const std::string path = [] {
        char buf[PATH_MAX];
        const ssize_t n = readlink("/proc/self/exe", buf, sizeof buf - 1);
        if (n <= 0) throw std::runtime_error("host speed: cannot find this binary");
        std::string self(buf, static_cast<std::size_t>(n));
        return self.substr(0, self.rfind('/') + 1) + "adaptbench_hostspeed";
    }();
    return path;
}

}  // namespace

void HostSpeed::sample() {
    const std::int64_t t0 = cpu_ns();
    int fds[2];
    if (pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("host speed: pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    const std::string cpu = std::to_string(std::max(sched_getcpu(), 0));
    char* argv[] = {const_cast<char*>(probe_path().c_str()), const_cast<char*>(cpu.c_str()),
                    nullptr};
    pid_t pid = 0;
    const int err = posix_spawn(&pid, argv[0], &actions, nullptr, argv, environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    std::string out;
    if (err == 0) {
        char buf[128];
        for (ssize_t n; (n = read(fds[0], buf, sizeof buf)) != 0;) {
            if (n > 0) out.append(buf, static_cast<std::size_t>(n));
            else if (errno != EINTR) break;
        }
    }
    close(fds[0]);
    int status = 0;
    if (err == 0) {
        while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
        }
    }
    if (err != 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0 || out.empty()) {
        throw std::runtime_error("host speed: probe " + probe_path() + " failed");
    }
    samples_.push_back(std::stod(out));
    spent_ns_ += cpu_ns() - t0;
}

double HostSpeed::factor() const {
    return samples_.empty() ? 1.0 : median(samples_) / kProbeNominalNs;
}

SpanLog::Scope::Scope(SpanLog& log, std::string name, obs::KeyValues kv) : log_(log) {
    if (!log_.on_) return;
    span_ = log_.buf_.begin_span_at(log_.host_now(), "bench", std::move(name), std::move(kv));
    ctx_ = std::make_unique<obs::TraceBuffer::ContextScope>(log_.buf_,
                                                            log_.buf_.context_of(span_));
}

SpanLog::Scope::~Scope() {
    if (!log_.on_) return;
    ctx_.reset();
    log_.buf_.end_span_at(log_.host_now(), span_);
}

bool SpanLog::write(const std::string& path) const {
    std::ofstream out(path);
    out << obs::to_chrome_trace(buf_.events());
    return static_cast<bool>(out);
}

std::uint64_t global_count(const std::string& name) {
    return obs::Registry::global().counter(name).value();
}

void InstallTally::on(const std::string& event,
                      const midas::AdaptationService::Installed& e) {
    if (event != "install" && event != "refresh") return;
    ++verifies;
    if (event != "refresh" && seen_.insert({e.name, e.version}).second) ++compiles;
}

std::uint64_t family_sum(const std::string& name) {
    std::uint64_t sum = 0;
    obs::Registry::global().visit_counters(
        [&](const std::string& n, const std::string&, const obs::Counter& c) {
            if (n == name) sum += c.value();
        });
    return sum;
}

Counts Counts::take(const net::Network& net, const midas::ExtensionBase& base) {
    Counts c;
    c.rpc_calls = global_count("rpc.calls_sent");
    c.rpc_replies = global_count("rpc.replies_received");
    c.rpc_retries = global_count("rpc.retries");
    c.weaves = global_count("weaver.weaves");
    c.withdrawals = global_count("weaver.withdrawals");
    net::NetworkStats s = net.stats();
    c.net_delivered = s.delivered;
    c.net_bytes = s.bytes_delivered;
    c.net_range_drops = s.dropped_out_of_range;
    c.installs_sent = base.stats().installs_sent;
    return c;
}

Counts Counts::operator-(const Counts& o) const {
    Counts d;
    d.rpc_calls = rpc_calls - o.rpc_calls;
    d.rpc_replies = rpc_replies - o.rpc_replies;
    d.rpc_retries = rpc_retries - o.rpc_retries;
    d.weaves = weaves - o.weaves;
    d.withdrawals = withdrawals - o.withdrawals;
    d.net_delivered = net_delivered - o.net_delivered;
    d.net_bytes = net_bytes - o.net_bytes;
    d.net_range_drops = net_range_drops - o.net_range_drops;
    d.installs_sent = installs_sent - o.installs_sent;
    return d;
}

void FrameTally::tap(net::Network& net, NodeId node) {
    net.set_tap(node, [this](const net::Message& m) {
        if (m.kind.rfind("disco.", 0) == 0) ++disco;
    });
}

namespace {

/// The builtins a receiver gives an extension, with the node-side effects
/// stubbed out: pricing must not send anything.
script::BuiltinRegistry stub_builtins() {
    script::BuiltinRegistry reg = script::BuiltinRegistry::with_core();
    auto none = [](rt::List&) -> rt::Value { return rt::Value{}; };
    reg.add("owner.post", "net", none);
    reg.add("rpc.set_channel", "rpc", none);
    reg.add("log.info", "log", none);
    reg.add("sys.now_ms", "", [](rt::List&) { return rt::Value{std::int64_t{0}}; });
    reg.add("sys.node", "", [](rt::List&) { return rt::Value{std::string("price")}; });
    reg.add("sys.caller", "", [](rt::List&) { return rt::Value{std::string()}; });
    return reg;
}

std::vector<prose::ScriptBinding> script_bindings(const midas::ExtensionPackage& pkg) {
    std::vector<prose::ScriptBinding> out;
    for (const midas::PackageBinding& b : pkg.bindings) {
        out.push_back({b.kind, b.pointcut, b.function, b.priority, {}});
    }
    return out;
}

script::Sandbox sandbox_for(const midas::ExtensionPackage& pkg) {
    script::Sandbox sb;
    sb.capabilities.insert(pkg.capabilities.begin(), pkg.capabilities.end());
    return sb;
}

std::shared_ptr<prose::ScriptAspect> script_aspect(const midas::ExtensionPackage& pkg,
                                                   const script::BuiltinRegistry& builtins) {
    return std::make_shared<prose::ScriptAspect>(pkg.name, pkg.script, script_bindings(pkg),
                                                 sandbox_for(pkg), builtins, pkg.config);
}

/// The same bindings as `pkg`, as native advice that does nothing.
std::shared_ptr<prose::Aspect> native_noop(const midas::ExtensionPackage& pkg) {
    auto a = std::make_shared<prose::Aspect>(pkg.name + "#native");
    for (const midas::PackageBinding& b : pkg.bindings) {
        switch (b.kind) {
            case prose::AdviceKind::kBefore:
                a->before(b.pointcut, [](rt::CallFrame&) {}, b.priority);
                break;
            case prose::AdviceKind::kAfter:
                a->after(b.pointcut, [](rt::CallFrame&) {}, b.priority);
                break;
            case prose::AdviceKind::kAround:
                a->around(
                    b.pointcut,
                    [](rt::CallFrame&, const std::function<rt::Value()>& proceed) {
                        return proceed();
                    },
                    b.priority);
                break;
            default:
                throw std::invalid_argument("native_noop: unsupported advice kind");
        }
    }
    return a;
}

/// A runtime with the node's services and a weaver over it.
struct Host {
    rt::Runtime runtime{"price"};
    prose::Weaver weaver{runtime};
    struct Bound {
        rt::ServiceObject* obj;
        rt::Method* method;
        const rt::List* args;
    };
    std::vector<Bound> mix;

    Host(const std::function<void(rt::Runtime&)>& make_host, const std::vector<CallSite>& calls) {
        make_host(runtime);
        for (const CallSite& c : calls) {
            auto obj = runtime.find_object(c.object);
            if (!obj) throw std::invalid_argument("price: no object " + c.object);
            rt::Method* m = obj->type().method(c.method);
            if (!m) throw std::invalid_argument("price: no method " + c.method);
            mix.push_back({obj.get(), m, &c.args});
        }
    }

    /// Mean host ns per call over the mix, median of batches.
    template <class Call>
    double mix_ns(SpanLog& log, const std::string& name, Call call) {
        const int reps = std::max<int>(1, 40'000 / static_cast<int>(mix.size()));
        double per_pass = time_per_call(log, name, 7, reps, [&] {
            for (const Bound& b : mix) call(b);
        });
        return per_pass / static_cast<double>(mix.size());
    }
};

}  // namespace

InstallPrices price_install(SpanLog& log, const std::vector<midas::ExtensionPackage>& pkgs,
                            const Bytes& key, const std::string& issuer,
                            const std::function<void(rt::Runtime&)>& make_host) {
    SpanLog::Scope phase(log, "price.install");
    crypto::KeyStore keys;
    keys.add_key(issuer, key);
    InstallPrices p;
    const double n = static_cast<double>(pkgs.size());

    std::vector<Bytes> sealed;
    for (const auto& pkg : pkgs) sealed.push_back(pkg.seal(keys, issuer));
    crypto::TrustStore trust;
    trust.trust(issuer, key);
    p.verify_us = time_per_call(log, "layer.crypto.verify", 7, 40, [&] {
        for (const Bytes& b : sealed) {
            auto [pkg, sig] = midas::ExtensionPackage::open(std::span<const std::uint8_t>(b));
            trust.verify(std::span<const std::uint8_t>(pkg.signed_payload()), sig);
        }
    }) / n / 1e3;

    script::BuiltinRegistry builtins = stub_builtins();
    script::BuiltinRegistry checkable = builtins;
    for (const auto& [name, capability] : prose::ctx_builtin_names()) {
        checkable.add(name, capability, [](rt::List&) -> rt::Value { return rt::Value{}; });
    }
    p.compile_us = time_per_call(log, "layer.script.compile", 7, 40, [&] {
        for (const auto& pkg : pkgs) {
            auto program = std::make_shared<const script::Program>(script::parse(pkg.script));
            if (!script::check(*program, checkable).empty()) {
                throw std::runtime_error("price: static check rejects " + pkg.name);
            }
            auto unit = script::compile(std::move(program));
            if (!unit) throw std::runtime_error("price: compile failed");
        }
    }) / n / 1e3;

    rt::Runtime runtime{"price"};
    make_host(runtime);
    prose::Weaver weaver{runtime};
    std::vector<double> weave_ns, withdraw_ns;
    for (int b = 0; b < 7; ++b) {
        std::vector<std::shared_ptr<prose::ScriptAspect>> aspects;
        for (int r = 0; r < 20; ++r) {
            for (const auto& pkg : pkgs) aspects.push_back(script_aspect(pkg, builtins));
        }
        std::vector<AspectId> ids;
        std::int64_t t0, t1, t2;
        {
            SpanLog::Scope span(log, "layer.core.weave");
            t0 = cpu_ns();
            for (const auto& a : aspects) ids.push_back(weaver.weave(a->aspect()));
            t1 = cpu_ns();
        }
        {
            SpanLog::Scope span(log, "layer.core.withdraw");
            for (AspectId id : ids) weaver.withdraw(id);
            t2 = cpu_ns();
        }
        weave_ns.push_back(static_cast<double>(t1 - t0) / static_cast<double>(ids.size()));
        withdraw_ns.push_back(static_cast<double>(t2 - t1) / static_cast<double>(ids.size()));
    }
    p.weave_us = median(weave_ns) / 1e3;
    p.withdraw_us = median(withdraw_ns) / 1e3;
    return p;
}

DispatchPrices price_dispatch(SpanLog& log, const std::vector<midas::ExtensionPackage>& pkgs,
                              const std::function<void(rt::Runtime&)>& make_host,
                              const std::vector<CallSite>& calls) {
    SpanLog::Scope phase(log, "price.dispatch");
    script::BuiltinRegistry builtins = stub_builtins();
    Host plain(make_host, calls), native(make_host, calls), scripted(make_host, calls);
    std::vector<std::shared_ptr<prose::ScriptAspect>> keep;
    for (const auto& pkg : pkgs) {
        native.weaver.weave(native_noop(pkg));
        keep.push_back(script_aspect(pkg, builtins));
        scripted.weaver.weave(keep.back()->aspect());
    }
    auto invoke = [](const Host::Bound& b) { b.method->invoke(*b.obj, *b.args); };

    // Advice executions per call of the mix, counted by the program's own
    // per-site meter over one pass.
    std::uint64_t before = family_sum("profile.advice_calls");
    for (const auto& b : scripted.mix) invoke(b);
    const double advices = static_cast<double>(family_sum("profile.advice_calls") - before) /
                           static_cast<double>(scripted.mix.size());

    DispatchPrices p;
    p.unhooked_ns = plain.mix_ns(log, "layer.rt.unhooked", [](const Host::Bound& b) {
        b.method->invoke_unhooked(*b.obj, *b.args);
    });
    p.unwoven_ns = plain.mix_ns(log, "layer.rt.unwoven", invoke);
    const double native_ns = native.mix_ns(log, "layer.core.native_woven", invoke);
    const double script_ns = scripted.mix_ns(log, "layer.script.woven", invoke);
    obs::set_enabled(false);
    const double script_off_ns = scripted.mix_ns(log, "layer.obs.off", invoke);
    obs::set_enabled(true);
    if (advices > 0) {
        p.advice_overhead_ns = (native_ns - p.unwoven_ns) / advices;
        p.script_advice_ns = (script_ns - native_ns) / advices;
    }
    p.meter_ns_per_call = script_ns - script_off_ns;
    return p;
}

std::vector<PathSample> install_paths(const std::vector<obs::TraceEvent>& events,
                                      const std::map<std::string, NodeTimes>& nodes) {
    // A node's registration roots the trace its installs join: register ->
    // the base adopts it -> pkg.push per extension -> rpc.serve on the node
    // (verify, weave). The critical path runs through the push whose
    // install finished last.
    struct Hops {
        SimTime first_push = SimTime::max();
        SimTime last_serve = SimTime::zero();
    };
    std::map<std::string, Hops> by_node;
    for (const obs::TraceTree& tree : obs::build_trace_trees(events)) {
        const std::vector<obs::CriticalHop> path = obs::critical_path(tree);
        SimTime push = SimTime::max(), serve = SimTime::max();
        std::string node;
        for (const obs::CriticalHop& hop : path) {
            const obs::SpanNode* s = nullptr;
            for (const obs::SpanNode& candidate : tree.spans) {
                if (candidate.span == hop.span) s = &candidate;
            }
            if (hop.name == "pkg.push") push = s->begin;
            if (hop.name == "rpc.serve" && push != SimTime::max()) {
                serve = s->begin;
                for (std::size_t c : s->children) {
                    if (tree.spans[c].name != "pkg.verify") continue;
                    for (const auto& [k, v] : tree.spans[c].kv) {
                        if (k == "node") node = v;
                    }
                }
            }
        }
        if (node.empty() || serve == SimTime::max()) continue;
        Hops& h = by_node[node];
        // Earlier pushes of the same adoption are siblings off the critical
        // path; the first one began when the base adopted the node.
        for (const obs::SpanNode& s : tree.spans) {
            if (s.name == "pkg.push") h.first_push = std::min(h.first_push, s.begin);
        }
        h.last_serve = std::max(h.last_serve, serve);
    }
    std::vector<PathSample> out;
    for (const auto& [label, t] : nodes) {
        auto it = by_node.find(label);
        if (it == by_node.end()) continue;
        out.push_back({ms_of(it->second.first_push - t.arrived),
                       ms_of(it->second.last_serve - it->second.first_push),
                       ms_of(t.dispatched - it->second.last_serve)});
    }
    return out;
}

double scan_us(SpanLog& log, const std::vector<disco::Registrar*>& registrars,
               const std::string& type) {
    std::size_t seen = 0;
    double ns = time_per_call(log, "layer.disco.scan", 7, 20, [&] {
        for (disco::Registrar* r : registrars) {
            r->for_each(type, [&seen](const disco::ServiceItem&) { ++seen; });
        }
    });
    if (seen == 0) throw std::runtime_error("scan: no registrations of " + type);
    return ns / 1e3;
}

std::vector<Metric> layer_metrics(const LayerInputs& in) {
    const double per = in.per > 0 ? in.per : 1;
    const Counts& c = in.counts;
    auto frac = [](double num, double den) { return den > 0 ? num / den : 0.0; };
    auto path_p50 = [&](double PathSample::*field) {
        std::vector<double> xs;
        for (const PathSample& p : in.paths) xs.push_back(p.*field);
        return xs.empty() ? 0.0 : median(xs);
    };
    Ledger ledger{in.host_us_per_node,
                  {{"crypto", in.install.verify_us, static_cast<double>(in.verifies) / per},
                   {"script", in.install.compile_us, static_cast<double>(in.compiles) / per},
                   {"weave", in.install.weave_us, static_cast<double>(c.weaves) / per},
                   {"withdraw", in.install.withdraw_us, static_cast<double>(c.withdrawals) / per}}};
    return {
        {"rt.unhooked_ns", in.dispatch.unhooked_ns, "ns"},
        {"rt.unwoven_ns", in.dispatch.unwoven_ns, "ns"},
        {"core.advice_overhead_ns", in.dispatch.advice_overhead_ns, "ns"},
        {"script.advice_ns", in.dispatch.script_advice_ns, "ns"},
        {"obs.meter_ns_per_call", in.dispatch.meter_ns_per_call, "ns"},
        {"crypto.verify_us", in.install.verify_us, "us"},
        {"script.compile_us", in.install.compile_us, "us"},
        {"core.weave_us", in.install.weave_us, "us"},
        {"core.withdraw_us", in.install.withdraw_us, "us"},
        {"crypto.verifies", static_cast<double>(in.verifies) / per, "count"},
        {"script.compiles", static_cast<double>(in.compiles) / per, "count"},
        {"core.weaves", static_cast<double>(c.weaves) / per, "count"},
        {"ledger.host_us_per_node", ledger.total_us, "us"},
        {"ledger.crypto_us", ledger.parts[0].us(), "us"},
        {"ledger.script_us", ledger.parts[1].us(), "us"},
        {"ledger.core_us", ledger.parts[2].us() + ledger.parts[3].us(), "us"},
        {"ledger.rest_us", ledger.rest_us(), "us"},
        {"sim.events_per_node", static_cast<double>(in.events) / per, "count"},
        {"sim.events_per_round", frac(static_cast<double>(in.events), in.rounds), "count"},
        {"sim.ns_per_event", frac(in.sim_host_ns, static_cast<double>(in.events)), "ns"},
        {"net.msgs_per_node", static_cast<double>(c.net_delivered) / per, "count"},
        {"net.bytes_per_node", static_cast<double>(c.net_bytes) / per, "B"},
        {"net.broadcast_useful_frac",
         frac(static_cast<double>(c.net_delivered),
              static_cast<double>(c.net_delivered + c.net_range_drops)),
         "frac"},
        {"disco.msgs_per_node", static_cast<double>(in.disco_frames) / per, "count"},
        {"disco.scan_us", in.scan_us, "us"},
        {"net.backhaul_frames_per_node_period", in.backhaul_per_node_period, "count"},
        {"rt.rpc_calls_per_node", static_cast<double>(c.rpc_calls) / per, "count"},
        {"rt.rpc_retries", static_cast<double>(c.rpc_retries), "count"},
        {"rt.rpc_useful_frac",
         frac(static_cast<double>(c.rpc_replies), static_cast<double>(c.rpc_calls)), "frac"},
        {"midas.install_rpcs_per_node", static_cast<double>(c.installs_sent) / per, "count"},
        {"midas.install_useful_frac",
         frac(static_cast<double>(c.weaves), static_cast<double>(c.installs_sent)), "frac"},
        {"path.discovery_ms", path_p50(&PathSample::discovery_ms), "ms"},
        {"path.push_ms", path_p50(&PathSample::push_ms), "ms"},
        {"path.install_ms", path_p50(&PathSample::install_ms), "ms"},
        {"db.records_per_node", static_cast<double>(in.db_records) / per, "count"},
        {"obs.trace_overhead_frac", in.trace_overhead_frac, "frac"},
        {"midas.readapt_s_p50", in.readapt_s_p50, "s"},
        {"midas.readapt_host_s", in.readapt_host_s, "s"},
        {"midas.lease_host_ms_per_period", in.lease_host_ms_per_period, "ms"},
    };
}

}  // namespace adaptbench
