// Shared pieces of the three workloads: the host clock, an event-counting
// simulator stepper, the benchmark's own layer spans, the registry counts the
// ledger joins on, and the per-layer pricing of the install and dispatch
// paths (each layer timed through its public functions on the workload's
// own inputs).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "midas/node.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats.h"

namespace adaptbench {

using namespace pmp;

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string trace_out;  ///< where the traced run writes its spans
};

/// What a workload hands back to main(): the output check tallies, the
/// end-to-end metrics (untraced run) and the per-layer metrics (traced run).
struct Result {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;  ///< failed checks, printed to stderr
    std::vector<Metric> e2e;
    std::vector<Metric> layer;

    void check(bool ok, const std::string& what) {
        if (!ok) errors.push_back(what);
    }
};

/// Process CPU time in nanoseconds (the benchmark's host clock).
std::int64_t cpu_ns();

/// How fast the host runs right now, from a fixed kernel of the
/// benchmark's own (hash-map inserts, lookups and frees; no platform code)
/// run by the probe program `adaptbench_hostspeed` next to this binary.
/// Other tenants of a shared host slow every process on it for minutes at
/// a time; dividing a host-time measurement by the kernel's slowdown,
/// sampled beside it, takes that out. The probe runs in a process of its
/// own, pinned to this process's CPU, so nothing the benchmark's program
/// does to its own heap or caches moves the divisor. `factor()` is the
/// median probe time since the last reset over a fixed nominal time.
class HostSpeed {
public:
    /// Run the probe once and record its kernel's host time.
    void sample();
    double factor() const;
    void reset() { samples_.clear(); }
    /// Forget all but the latest `n` samples (a rolling window).
    void keep_last(std::size_t n) {
        if (samples_.size() > n) samples_.erase(samples_.begin(), samples_.end() - n);
    }

    /// A point to time from. `raw_ns` is this process's host time since,
    /// less what starting and reading the probe cost it in between;
    /// `normalized_ns` divides it by factor().
    struct Mark {
        std::int64_t at = 0, spent = 0;
    };
    Mark mark() const { return {cpu_ns(), spent_ns_}; }
    double raw_ns(Mark m) const {
        return static_cast<double>(cpu_ns() - m.at - (spent_ns_ - m.spent));
    }
    double normalized_ns(Mark m) const { return raw_ns(m) / factor(); }

private:
    std::vector<double> samples_;
    std::int64_t spent_ns_ = 0;
};

/// Switches the program's obs layer off while alive: counters, the
/// profiler's meter and trace spans (the benchmark's own spans too). What
/// obs.trace_overhead_frac compares against.
struct ObsOff {
    ObsOff() { obs::set_enabled(false); }
    ~ObsOff() { obs::set_enabled(true); }
    ObsOff(const ObsOff&) = delete;
    ObsOff& operator=(const ObsOff&) = delete;
};

inline double ms_of(Duration d) { return static_cast<double>(d.count()) / 1e6; }

/// Run `sim` through `deadline` (inclusive, like run_until) and return the
/// number of events it executed.
inline std::uint64_t advance(sim::Simulator& sim, SimTime deadline) {
    std::uint64_t n = sim.run_window(deadline + Duration{1});
    sim.advance_to(deadline);
    return n;
}

/// The benchmark's own spans: one around every timed layer call and every
/// workload phase, stamped with host CPU time, kept in memory and written
/// (Chrome trace-event JSON) when the run ends. Inert unless enabled.
class SpanLog {
public:
    explicit SpanLog(bool on) : on_(on), buf_(on ? 1 << 16 : 1), t0_(cpu_ns()) {}

    /// RAII span; children opened while it lives nest under it.
    class Scope {
    public:
        Scope(SpanLog& log, std::string name, obs::KeyValues kv = {});
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        SpanLog& log_;
        std::uint64_t span_ = 0;
        std::unique_ptr<obs::TraceBuffer::ContextScope> ctx_;
    };

    /// Write the spans to `path`; returns false if the file cannot be written.
    bool write(const std::string& path) const;

private:
    SimTime host_now() const { return SimTime{cpu_ns() - t0_}; }

    bool on_;
    obs::TraceBuffer buf_;
    std::int64_t t0_;
};

/// Median host ns per call of `fn`, over `batches` batches of `iters`
/// calls, each batch one span named `name`.
template <class F>
double time_per_call(SpanLog& log, const std::string& name, int batches, int iters, F&& fn) {
    std::vector<double> per;
    per.reserve(static_cast<std::size_t>(batches));
    for (int b = 0; b < batches; ++b) {
        SpanLog::Scope span(log, name);
        std::int64_t t0 = cpu_ns();
        for (int i = 0; i < iters; ++i) fn();
        per.push_back(static_cast<double>(cpu_ns() - t0) / iters);
    }
    return median(per);
}

/// Unlabelled process-wide counter (e.g. "rpc.calls_sent", "weaver.weaves").
std::uint64_t global_count(const std::string& name);

/// One receiver's install path, tallied from its own events. Every
/// install or refresh opened and verified a sealed package (a replacement
/// arrives as an "install" event after the old version's "withdraw");
/// every install of a version the node had not held before compiled its
/// script (each version here ships a distinct script). The
/// receiver's own counters are labelled per node, and the registry folds
/// labels beyond its cardinality cap, so they cannot be read per node in a
/// fleet.
struct InstallTally {
    std::uint64_t verifies = 0;
    std::uint64_t compiles = 0;
    void on(const std::string& event, const midas::AdaptationService::Installed& e);

private:
    std::set<std::pair<std::string, std::uint32_t>> seen_;
};

/// Sum over every label of a counter family (e.g. "profile.advice_calls").
std::uint64_t family_sum(const std::string& name);

/// Process-wide protocol counts at one instant; differences between two
/// snapshots price a phase.
struct Counts {
    std::uint64_t rpc_calls = 0, rpc_replies = 0, rpc_retries = 0;
    std::uint64_t weaves = 0, withdrawals = 0;
    std::uint64_t net_delivered = 0, net_bytes = 0, net_range_drops = 0;
    std::uint64_t installs_sent = 0;

    static Counts take(const net::Network& net, const midas::ExtensionBase& base);
    Counts operator-(const Counts& o) const;
};

/// Counts delivered frames per protocol family by tapping nodes; used by
/// the traced run only (a tap costs a call per delivery).
struct FrameTally {
    std::uint64_t disco = 0;
    void tap(net::Network& net, NodeId node);
};

/// Unit host costs of the install path, timed on the workload's own sealed
/// packages: open + verify, parse + check + compile, weave and withdraw on
/// a fresh runtime that `make_host` populates with the node's services.
struct InstallPrices {
    double verify_us = 0;
    double compile_us = 0;
    double weave_us = 0;
    double withdraw_us = 0;
};
InstallPrices price_install(SpanLog& log, const std::vector<midas::ExtensionPackage>& pkgs,
                            const Bytes& key, const std::string& issuer,
                            const std::function<void(rt::Runtime&)>& make_host);

/// One application call of the dispatch ledger.
struct CallSite {
    std::string object;
    std::string method;
    rt::List args;
};

/// Unit host costs of the dispatch path for `calls` on a runtime built by
/// `make_host`, with `pkgs` woven as script advice (the installed shape)
/// and, for the ablation, as native no-op advice with the same bindings.
struct DispatchPrices {
    double unhooked_ns = 0;          ///< Method::invoke_unhooked
    double unwoven_ns = 0;           ///< Method::invoke, nothing woven
    double advice_overhead_ns = 0;   ///< (native no-op woven - unwoven) / advice
    double script_advice_ns = 0;     ///< (script woven - native woven) / advice
    double meter_ns_per_call = 0;    ///< script woven, obs on - obs off
};
DispatchPrices price_dispatch(SpanLog& log, const std::vector<midas::ExtensionPackage>& pkgs,
                              const std::function<void(rt::Runtime&)>& make_host,
                              const std::vector<CallSite>& calls);

/// Install-chain decomposition read from the program's own spans:
/// arrival -> first pkg.push (discovery), -> the last install served on the
/// node (push), -> first woven dispatch (install).
struct PathSample {
    double discovery_ms = 0;
    double push_ms = 0;
    double install_ms = 0;
};
struct NodeTimes {
    SimTime arrived;
    SimTime dispatched;
};
std::vector<PathSample> install_paths(const std::vector<obs::TraceEvent>& events,
                                      const std::map<std::string, NodeTimes>& nodes);

/// Everything the per-layer metrics are computed from. `per` is the number
/// of node adaptations (installs or replacements) the counts cover.
struct LayerInputs {
    DispatchPrices dispatch;
    InstallPrices install;
    double per = 1;
    double host_us_per_node = 0;   ///< the end-to-end cost the ledger splits
    std::uint64_t verifies = 0, compiles = 0, disco_frames = 0, db_records = 0;
    Counts counts;                 ///< protocol counts over the same span
    std::uint64_t events = 0;      ///< simulator events over the same span
    double sim_host_ns = 0;        ///< host time spent running those events
    double rounds = 0;             ///< re-adaptation rounds (fleet only)
    double backhaul_per_node_period = 0;
    double scan_us = 0;
    std::vector<PathSample> paths;
    double trace_overhead_frac = 0;
    double readapt_s_p50 = 0, readapt_host_s = 0, lease_host_ms_per_period = 0;
};

/// The per-layer metrics, every one of them, in a fixed order. Their host
/// times are raw process CPU time, not normalised, so the ledger's total
/// and its unit prices (timed minutes apart) are the same kind of figure.
std::vector<Metric> layer_metrics(const LayerInputs& in);

/// Median host us of one Registrar::for_each pass over the registrations of
/// `type` at each registrar.
double scan_us(SpanLog& log, const std::vector<disco::Registrar*>& registrars,
               const std::string& type);

Result run_woven_calls(const Options& opt, SpanLog& log);
Result run_hall_entry(const Options& opt, SpanLog& log);
Result run_fleet_readapt(const Options& opt, SpanLog& log);

}  // namespace adaptbench
