// Script-backed aspects: the bridge between PROSE and AdviceScript.
//
// This is how behaviour the device has never seen gets in: a MIDAS package
// carries AdviceScript source plus bindings mapping advice kinds/pointcuts
// to script functions. On arrival the source is compiled, its top level runs
// once (initialising extension globals from the shipped `config`), and each
// binding becomes native advice that invokes the corresponding script
// function inside the sandbox. During advice execution the script sees the
// current join point through the `ctx.*` builtins:
//
//   ctx.type() / ctx.target() / ctx.method()    what was intercepted
//   ctx.arg(i) / ctx.args() / ctx.set_arg(i,v)  call arguments
//   ctx.result() / ctx.set_result(v)            after / around
//   ctx.proceed()                               around only
//   ctx.error()                                 after-throwing
//   ctx.field() / ctx.oldval() / ctx.newval() / ctx.set_newval(v)   field advice
//   ctx.deny(msg)                               veto -> AccessDenied at caller
//   ctx.get_field(n) / ctx.set_field(n, v)      target state   [capability "target"]
//
// The shutdown procedure is the script function `onShutdown(reason)`, run
// when the aspect is withdrawn (lease expiry, replacement, or explicit).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/aspect.h"
#include "script/compile.h"
#include "script/engine.h"
#include "script/interp.h"
#include "script/parser.h"
#include "script/vm.h"

namespace pmp::prose {

/// Names and required capabilities of the ctx.* join-point builtins that
/// every script aspect gets. Static checkers (which run before any join
/// point exists) declare these as known functions. install_ctx_builtins
/// verifies at aspect build time that the list is complete.
const std::vector<std::pair<std::string, std::string>>& ctx_builtin_names();

/// Binds one advice kind + pointcut to a script function.
struct ScriptBinding {
    AdviceKind kind;
    std::string pointcut;
    std::string function;
    int priority = 0;
    /// Optionally pre-parsed (the MIDAS receiver caches Pointcuts by
    /// source string); when set, `pointcut` is not parsed again.
    std::optional<Pointcut> parsed{};
};

/// Compiles script source into a weavable Aspect.
///
/// The advice hot path executes on the bytecode VM by default; the
/// tree-walking Interpreter remains available as the reference engine
/// (differential testing, debugging) via EngineMode::kInterpreter. Both
/// engines are observably identical — results, typed errors, step counts.
class ScriptAspect {
public:
    /// Throws ParseError on bad source, ScriptError if a bound function is
    /// missing, and whatever the top-level raises when it runs.
    ///
    /// `host_builtins` supplies node facilities (log.*, net.*, db.*, ...)
    /// on top of the core library; the sandbox decides which of those the
    /// extension may actually use. `config` is exposed to the script as the
    /// global `config` before the top level runs.
    ScriptAspect(std::string name, const std::string& source,
                 std::vector<ScriptBinding> bindings, script::Sandbox sandbox,
                 const script::BuiltinRegistry& host_builtins, rt::Value config = rt::Value{},
                 script::EngineMode mode = script::EngineMode::kVm);

    /// Build from an already-compiled unit (the MIDAS receiver caches one
    /// CompiledUnit per distinct script hash and shares it across installs;
    /// compilation happens once, not per aspect instance).
    ScriptAspect(std::string name, std::shared_ptr<const script::CompiledUnit> unit,
                 std::vector<ScriptBinding> bindings, script::Sandbox sandbox,
                 const script::BuiltinRegistry& host_builtins, rt::Value config = rt::Value{},
                 script::EngineMode mode = script::EngineMode::kVm);

    /// The weavable product. One instance per ScriptAspect.
    const std::shared_ptr<Aspect>& aspect() const { return aspect_; }

    /// Direct access to the extension's engine (tests, diagnostics).
    script::Engine& engine();

private:
    struct State;

    static void install_ctx_builtins(script::BuiltinRegistry& reg,
                                     const std::shared_ptr<State>& state);

    std::shared_ptr<State> state_;
    std::shared_ptr<Aspect> aspect_;
};

}  // namespace pmp::prose
