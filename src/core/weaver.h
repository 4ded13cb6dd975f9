// The run-time weaver (paper Fig 1).
//
// Weaving attaches an aspect's advice to every join point its pointcuts
// select, across every class registered in the node's Runtime — without
// stopping the application. Classes registered *after* weaving are
// instrumented on arrival (the JIT analogy: code compiled later still gets
// the hooks). Withdrawing restores the original dispatch exactly.
#pragma once

#include <map>
#include <atomic>
#include <memory>

#include "common/ids.h"
#include "core/aspect.h"
#include "core/matchplan.h"
#include "obs/trace.h"
#include "rt/runtime.h"

namespace pmp::prose {

/// How many join points a weave touched — used by tests, the weaving bench
/// (DESIGN.md E1) and MIDAS logging.
struct WeaveReport {
    std::size_t methods_matched = 0;
    std::size_t fields_matched = 0;
};

class Weaver {
public:
    explicit Weaver(rt::Runtime& runtime);
    ~Weaver();

    Weaver(const Weaver&) = delete;
    Weaver& operator=(const Weaver&) = delete;

    /// Weave an aspect into the runtime. The weaver keeps the aspect alive
    /// until withdrawal.
    AspectId weave(std::shared_ptr<Aspect> aspect);

    /// Run the aspect's shutdown procedure, then detach all of its advice.
    /// Returns false if the id is unknown (already withdrawn).
    bool withdraw(AspectId id, WithdrawReason reason = WithdrawReason::kExplicit);

    /// Withdraw everything (also runs from the destructor with kExplicit).
    void withdraw_all(WithdrawReason reason = WithdrawReason::kExplicit);

    std::shared_ptr<Aspect> find(AspectId id) const;
    const WeaveReport* report(AspectId id) const;
    std::size_t woven_count() const { return woven_.size(); }

    /// Per-advice outcome observer: fires with the escaping exception on
    /// every advice failure (the exception then propagates unchanged), and
    /// with nullptr on the first success of an aspect after a failure —
    /// the success that ends a failure streak. Successes that follow
    /// successes are not reported, so a healthy aspect never reaches the
    /// observer. One observer per weaver — the adaptation service uses it
    /// to quarantine extensions whose advice keeps crashing. Pass nullptr
    /// to detach. Applies to hooks woven after the call as well as
    /// existing ones (hooks capture the weaver, which outlives them in the
    /// node stack).
    using AdviceObserver = std::function<void(AspectId, const std::exception*)>;
    void set_advice_observer(AdviceObserver fn) { advice_observer_ = std::move(fn); }

    /// Per-dispatch gate: consulted before running any advice of an aspect.
    /// Returning false skips the advice for this join point — before/after/
    /// error/field hooks become no-ops and around advice passes straight
    /// through to proceed(), so the application call itself is untouched.
    /// One gate per weaver; the MIDAS receiver's resource governor uses it
    /// to suspend an over-budget extension without unweaving it (withdrawal
    /// runs shutdown advice and loses extension state — too heavy for a
    /// condition that clears at the next lease window). Pass nullptr to
    /// detach. Cost on the hot path when unset: one empty-function check.
    using DispatchGate = std::function<bool(AspectId)>;
    void set_dispatch_gate(DispatchGate fn) { dispatch_gate_ = std::move(fn); }

    rt::Runtime& runtime() { return runtime_; }

    /// The weaver's pointcut-match cache (diagnostics, tests).
    const MatchPlan& plan() const { return plan_; }

private:
    struct Woven {
        std::shared_ptr<Aspect> aspect;
        WeaveReport report;
        /// Every member this aspect hooked — withdraw walks exactly these
        /// instead of sweeping every member of every type.
        std::vector<rt::Method*> hooked_methods;
        std::vector<rt::Field*> hooked_fields;
        /// Causal position of the weave span. The first advice execution
        /// emits an `advice.first_dispatch` instant under this context, so
        /// install → verify → weave → first dispatch reads as one tree even
        /// though the dispatch happens on an unrelated application call.
        obs::TraceContext weave_ctx;
        /// Dispatch may run on many shard workers at once; exactly one of
        /// them wins the right to record the first-dispatch instant.
        std::atomic<bool> first_dispatched{false};
        /// The last advice execution of this aspect failed: the next
        /// success is reported to the advice observer.
        std::atomic<bool> failing{false};
    };

    void weave_into_type(rt::TypeInfo& type, AspectId id, Woven& woven);
    void on_type_registered(rt::TypeInfo& type);
    bool allows(AspectId id) const { return !dispatch_gate_ || dispatch_gate_(id); }

    rt::Runtime& runtime_;
    rt::Runtime::ObserverId observer_;
    MatchPlan plan_;
    IdGenerator<AspectId> ids_;
    /// Woven entries are heap-pinned: installed hooks capture a raw
    /// pointer to their Woven, and a withdrawn entry is *retired* through
    /// rt::EpochDomain rather than deleted — a reader on another shard may
    /// still be walking a superseded hook-table snapshot whose closures
    /// dereference it until the grace period passes.
    std::map<AspectId, std::unique_ptr<Woven>> woven_;
    AdviceObserver advice_observer_;
    DispatchGate dispatch_gate_;
};

}  // namespace pmp::prose
