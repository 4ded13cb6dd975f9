// The AdviceScript execution-engine contract.
//
// Two engines implement it: the tree-walking Interpreter (the reference
// semantics) and the bytecode Vm (the compiled hot path). They are
// observably identical — same results, same typed errors with the same
// messages, same step accounting — which the differential property suite
// enforces. Hosts (ScriptAspect, the MIDAS receiver, tests) program
// against this interface so the engine is a deployment choice, not an
// API fork.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "common/error.h"
#include "rt/value.h"
#include "script/sandbox.h"

namespace pmp::script {

/// Which engine a host should construct for a program.
enum class EngineMode {
    kVm,           ///< compiled bytecode (default; the hot path)
    kInterpreter,  ///< tree-walking reference implementation
};

class Engine {
public:
    virtual ~Engine() = default;

    /// Execute top-level statements (global `let`s etc.). Call once.
    virtual void run_top_level() = 0;

    virtual bool has_function(std::string_view name) const = 0;

    /// A script function resolved once by name, so a host that calls the
    /// same function again and again (advice) skips the by-name lookup.
    /// Opaque: valid for the engine that resolved it, for that engine's
    /// lifetime. Empty when no such function exists.
    struct FunctionRef {
        const void* impl = nullptr;
        explicit operator bool() const { return impl != nullptr; }
    };
    virtual FunctionRef resolve(std::string_view name) const = 0;

    /// Invoke a resolved function. Throws ScriptError for script faults,
    /// AccessDenied for capability violations, ResourceExhausted for
    /// budget overruns, DeadlineExceeded for watchdog overruns.
    virtual rt::Value call(FunctionRef fn, rt::List args) = 0;

    /// Invoke a named function (resolve + call); ScriptError if the
    /// program defines no such function.
    rt::Value call(std::string_view name, rt::List args) {
        FunctionRef fn = resolve(name);
        if (!fn) throw ScriptError("no function '" + std::string(name) + "'");
        return call(fn, std::move(args));
    }

    /// Read/write a global (tests and host glue).
    virtual const rt::Value* global(const std::string& name) const = 0;
    virtual void set_global(const std::string& name, rt::Value value) = 0;

    virtual const Sandbox& sandbox() const = 0;

    /// Fired once per *outermost* call() with the number of steps that
    /// invocation consumed — including on throw, so runaway invocations
    /// are charged too. The MIDAS receiver's resource governor hangs its
    /// cumulative per-lease-window accounting here. The observer runs
    /// inside the engine's unwind path and must not throw.
    using StepObserver = std::function<void(std::uint64_t steps)>;
    virtual void set_step_observer(StepObserver fn) = 0;

    /// Steps consumed by the most recent outermost call().
    virtual std::uint64_t last_call_steps() const = 0;
};

}  // namespace pmp::script
