// AdviceScript tree-walking interpreter — the reference implementation.
//
// The bytecode Vm (script/vm.h) is the hot path used in production; this
// interpreter defines the semantics the Vm must reproduce bit-for-bit
// (results, typed errors, step accounting). It stays wired behind the
// differential-testing flag (EngineMode::kInterpreter) and the property
// suite compares the two on random programs every build.
//
// The Sandbox / BuiltinRegistry contract lives in script/sandbox.h and is
// shared by both engines; the shared runtime semantics live in
// script/ops.h.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "script/ast.h"
#include "script/engine.h"
#include "script/sandbox.h"

namespace pmp::script {

/// Tree-walking evaluator over one Program.
///
/// The top-level statements run once (run_top_level) and populate the
/// extension's global state; advice entry points are then invoked with
/// call(). Globals persist across calls — that is how, e.g., the
/// monitoring extension accumulates a local buffer between interceptions.
class Interpreter final : public Engine {
public:
    Interpreter(std::shared_ptr<const Program> program, Sandbox sandbox,
                std::shared_ptr<const BuiltinRegistry> builtins);

    /// Execute top-level statements (global `let`s etc.). Call once.
    void run_top_level() override;

    bool has_function(std::string_view name) const override {
        return program_->find_function(name) != nullptr;
    }

    /// Invoke a named function. Throws ScriptError for script faults,
    /// AccessDenied for capability violations, ResourceExhausted for
    /// budget overruns.
    FunctionRef resolve(std::string_view name) const override {
        return FunctionRef{program_->find_function(name)};
    }
    using Engine::call;
    rt::Value call(FunctionRef fn, rt::List args) override;

    /// Read/write a global (tests and host glue).
    const rt::Value* global(const std::string& name) const override;
    void set_global(const std::string& name, rt::Value value) override;

    const Sandbox& sandbox() const override { return sandbox_; }

    void set_step_observer(StepObserver fn) override { step_observer_ = std::move(fn); }

    /// Steps consumed by the most recent outermost call().
    std::uint64_t last_call_steps() const override { return last_call_steps_; }

private:
    struct Scope {
        std::unordered_map<std::string, rt::Value> vars;
    };

    // Control-flow signals (internal).
    struct ReturnSignal {
        rt::Value value;
    };
    struct BreakSignal {};
    struct ContinueSignal {};

    void tick(int line);
    rt::Value* find_var(const std::string& name);

    void exec_block(const std::vector<StmtPtr>& body);
    void exec(const Stmt& stmt);
    rt::Value eval(const Expr& expr);
    rt::Value eval_binary(const Expr& expr);
    rt::Value eval_call(const Expr& expr);
    rt::Value* resolve_lvalue(const Expr& target);
    rt::Value call_function(const FunctionDecl& fn, rt::List args);

    std::shared_ptr<const Program> program_;
    Sandbox sandbox_;
    std::shared_ptr<const BuiltinRegistry> builtins_;

    Scope globals_;
    std::vector<Scope> scopes_;  // current frame's lexical scopes
    std::uint64_t steps_ = 0;
    std::uint64_t total_steps_ = 0;  ///< lifetime; never reset (accounting)
    std::uint64_t last_call_steps_ = 0;
    int call_nesting_ = 0;
    int depth_ = 0;
    StepObserver step_observer_;
};

}  // namespace pmp::script
