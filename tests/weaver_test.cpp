// Tests for the run-time weaver: matching, firing, withdrawal restoring the
// baseline, weaving into late-registered classes, and shutdown notification.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.h"
#include "core/weaver.h"

namespace pmp::prose {
namespace {

using rt::CallFrame;
using rt::List;
using rt::ServiceObject;
using rt::TypeKind;
using rt::Value;

std::shared_ptr<rt::TypeInfo> motor_type() {
    return rt::TypeInfo::Builder("Motor")
        .field("position", TypeKind::kReal, Value{0.0})
        .method("rotate", TypeKind::kInt, {{"degrees", TypeKind::kReal}},
                [](ServiceObject& self, List& args) -> Value {
                    self.set("position",
                             Value{self.peek("position").as_real() + args[0].as_real()});
                    return Value{std::int64_t{10}};
                })
        .method("stop", TypeKind::kVoid, {},
                [](ServiceObject&, List&) -> Value { return Value{}; })
        .build();
}

std::shared_ptr<rt::TypeInfo> sensor_type() {
    return rt::TypeInfo::Builder("Sensor")
        .method("read", TypeKind::kInt, {},
                [](ServiceObject&, List&) -> Value { return Value{7}; })
        .build();
}

class WeaverTest : public ::testing::Test {
protected:
    WeaverTest() : runtime_("node"), weaver_(runtime_) {
        runtime_.register_type(motor_type());
        runtime_.register_type(sensor_type());
        motor_ = runtime_.create("Motor", "motor:x");
        sensor_ = runtime_.create("Sensor", "sensor:t");
    }

    rt::Runtime runtime_;
    Weaver weaver_;
    std::shared_ptr<ServiceObject> motor_, sensor_;
};

TEST_F(WeaverTest, BeforeAdviceFiresOnMatchedMethodsOnly) {
    int fired = 0;
    auto aspect = std::make_shared<Aspect>("count-motor");
    aspect->before("call(* Motor.*(..))", [&](CallFrame&) { ++fired; });
    weaver_.weave(aspect);

    motor_->call("rotate", {Value{30.0}});
    motor_->call("stop", {});
    sensor_->call("read", {});
    EXPECT_EQ(fired, 2);
}

TEST_F(WeaverTest, WeaveReportCountsJoinPoints) {
    auto aspect = std::make_shared<Aspect>("a");
    aspect->before("call(* Motor.*(..))", [](CallFrame&) {});
    aspect->on_field_set("fieldset(Motor.position)",
                         [](ServiceObject&, const rt::FieldDecl&, const Value&, Value&) {});
    AspectId id = weaver_.weave(aspect);
    const WeaveReport* report = weaver_.report(id);
    ASSERT_NE(report, nullptr);
    EXPECT_EQ(report->methods_matched, 2u);  // rotate + stop
    EXPECT_EQ(report->fields_matched, 1u);
}

TEST_F(WeaverTest, WithdrawRestoresBaseline) {
    auto aspect = std::make_shared<Aspect>("boost");
    aspect->before("call(* Motor.rotate(..))",
                   [](CallFrame& f) { f.args[0] = Value{f.args[0].as_real() * 2}; });
    AspectId id = weaver_.weave(aspect);
    motor_->call("rotate", {Value{10.0}});
    EXPECT_DOUBLE_EQ(motor_->peek("position").as_real(), 20.0);

    EXPECT_TRUE(weaver_.withdraw(id));
    motor_->call("rotate", {Value{10.0}});
    EXPECT_DOUBLE_EQ(motor_->peek("position").as_real(), 30.0);
    EXPECT_FALSE(motor_->type().method("rotate")->woven());
    EXPECT_FALSE(weaver_.withdraw(id));  // already gone
}

TEST_F(WeaverTest, WeaveWithdrawIsIdempotentOnDispatchState) {
    // Property: weaving then withdrawing N times leaves dispatch unwoven.
    for (int round = 0; round < 5; ++round) {
        auto aspect = std::make_shared<Aspect>("tmp");
        aspect->before("call(* Motor.*(..))", [](CallFrame&) {});
        AspectId id = weaver_.weave(aspect);
        EXPECT_TRUE(motor_->type().method("rotate")->woven());
        weaver_.withdraw(id);
        EXPECT_FALSE(motor_->type().method("rotate")->woven());
        EXPECT_FALSE(motor_->type().method("stop")->woven());
    }
}

TEST_F(WeaverTest, LateRegisteredTypeGetsWoven) {
    int fired = 0;
    auto aspect = std::make_shared<Aspect>("all-rotate");
    aspect->before("call(* *.rotate(..))", [&](CallFrame&) { ++fired; });
    AspectId id = weaver_.weave(aspect);

    // A class that appears after weaving (the JIT "class loaded later" case).
    runtime_.register_type(
        rt::TypeInfo::Builder("Wheel")
            .method("rotate", TypeKind::kVoid, {{"deg", TypeKind::kReal}},
                    [](ServiceObject&, List&) -> Value { return Value{}; })
            .build());
    auto wheel = runtime_.create("Wheel", "wheel:1");
    wheel->call("rotate", {Value{5.0}});
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(weaver_.report(id)->methods_matched, 2u);  // Motor.rotate + Wheel.rotate
}

TEST_F(WeaverTest, FieldAdviceFiresThroughWeaver) {
    std::vector<double> observed;
    auto aspect = std::make_shared<Aspect>("qc");
    aspect->on_field_set("fieldset(Motor.position)",
                         [&](ServiceObject&, const rt::FieldDecl&, const Value&,
                             Value& new_v) { observed.push_back(new_v.as_real()); });
    weaver_.weave(aspect);
    motor_->call("rotate", {Value{15.0}});
    motor_->call("rotate", {Value{5.0}});
    EXPECT_EQ(observed, (std::vector<double>{15.0, 20.0}));
}

TEST_F(WeaverTest, MultipleAspectsCoexistAndWithdrawIndependently) {
    std::vector<std::string> order;
    auto first = std::make_shared<Aspect>("first");
    first->before("call(* Motor.rotate(..))", [&](CallFrame&) { order.push_back("first"); },
                  /*priority=*/0);
    auto second = std::make_shared<Aspect>("second");
    second->before("call(* Motor.rotate(..))", [&](CallFrame&) { order.push_back("second"); },
                   /*priority=*/-1);

    AspectId id1 = weaver_.weave(first);
    weaver_.weave(second);
    motor_->call("rotate", {Value{1.0}});
    EXPECT_EQ(order, (std::vector<std::string>{"second", "first"}));  // priority order

    order.clear();
    weaver_.withdraw(id1);
    motor_->call("rotate", {Value{1.0}});
    EXPECT_EQ(order, (std::vector<std::string>{"second"}));
}

TEST_F(WeaverTest, AroundAdviceThroughWeaver) {
    auto aspect = std::make_shared<Aspect>("limiter");
    aspect->around("call(* Motor.rotate(..))",
                   [](CallFrame& f, const std::function<Value()>& proceed) -> Value {
                       if (f.args[0].as_real() > 90.0) {
                           throw AccessDenied("rotation too large");
                       }
                       return proceed();
                   });
    weaver_.weave(aspect);
    EXPECT_NO_THROW(motor_->call("rotate", {Value{45.0}}));
    EXPECT_THROW(motor_->call("rotate", {Value{120.0}}), AccessDenied);
    EXPECT_DOUBLE_EQ(motor_->peek("position").as_real(), 45.0);
}

TEST_F(WeaverTest, AfterThrowingAdvice) {
    runtime_.register_type(
        rt::TypeInfo::Builder("Flaky")
            .method("boom", TypeKind::kVoid, {},
                    [](ServiceObject&, List&) -> Value { throw Error("kaput"); })
            .build());
    auto flaky = runtime_.create("Flaky", "flaky");

    std::string caught;
    auto aspect = std::make_shared<Aspect>("watcher");
    aspect->after_throwing("call(* Flaky.*(..))",
                           [&](CallFrame&, std::exception_ptr e) {
                               try {
                                   std::rethrow_exception(e);
                               } catch (const Error& err) {
                                   caught = err.what();
                               }
                           });
    weaver_.weave(aspect);
    EXPECT_THROW(flaky->call("boom", {}), Error);
    EXPECT_EQ(caught, "kaput");
}

TEST_F(WeaverTest, WithdrawNotifiesShutdownWithReason) {
    WithdrawReason seen{};
    bool notified = false;
    auto aspect = std::make_shared<Aspect>("with-shutdown");
    aspect->before("call(* Motor.*(..))", [](CallFrame&) {});
    aspect->on_withdraw([&](WithdrawReason reason) {
        notified = true;
        seen = reason;
    });
    AspectId id = weaver_.weave(aspect);
    weaver_.withdraw(id, WithdrawReason::kLeaseExpired);
    EXPECT_TRUE(notified);
    EXPECT_EQ(seen, WithdrawReason::kLeaseExpired);
}

TEST_F(WeaverTest, DestructorWithdrawsEverything) {
    int shutdowns = 0;
    {
        Weaver scoped(runtime_);
        for (int i = 0; i < 3; ++i) {
            auto aspect = std::make_shared<Aspect>("a" + std::to_string(i));
            aspect->before("call(* Motor.*(..))", [](CallFrame&) {});
            aspect->on_withdraw([&](WithdrawReason) { ++shutdowns; });
            scoped.weave(aspect);
        }
        EXPECT_TRUE(motor_->type().method("rotate")->woven());
    }
    EXPECT_EQ(shutdowns, 3);
    EXPECT_FALSE(motor_->type().method("rotate")->woven());
}

TEST_F(WeaverTest, FindAndCount) {
    auto aspect = std::make_shared<Aspect>("named");
    aspect->before("call(* Motor.*(..))", [](CallFrame&) {});
    AspectId id = weaver_.weave(aspect);
    EXPECT_EQ(weaver_.woven_count(), 1u);
    ASSERT_NE(weaver_.find(id), nullptr);
    EXPECT_EQ(weaver_.find(id)->name(), "named");
    EXPECT_EQ(weaver_.find(AspectId{999}), nullptr);
}

TEST_F(WeaverTest, BadPointcutThrowsAtConstruction) {
    auto aspect = std::make_shared<Aspect>("bad");
    EXPECT_THROW(aspect->before("call(", [](CallFrame&) {}), ParseError);
}

TEST_F(WeaverTest, MatchPlanCachesPointcutMatchesAcrossWeaves) {
    auto make = [] {
        auto aspect = std::make_shared<Aspect>("cached");
        aspect->before("call(* Motor.*(..))", [](CallFrame&) {});
        return aspect;
    };
    AspectId first = weaver_.weave(make());
    std::size_t entries_after_first = weaver_.plan().cached_entries();
    EXPECT_GT(entries_after_first, 0u);

    // Same pointcut, new aspect: the plan serves the cached member lists —
    // no new entries, identical report.
    AspectId second = weaver_.weave(make());
    EXPECT_EQ(weaver_.plan().cached_entries(), entries_after_first);
    EXPECT_EQ(weaver_.report(first)->methods_matched,
              weaver_.report(second)->methods_matched);
    weaver_.withdraw(first);
    weaver_.withdraw(second);
}

TEST_F(WeaverTest, HundredAspectsWeaveIdenticallyAndWithdrawCleanly) {
    // Acceptance sweep for the MatchPlan refactor: 100 aspects with the
    // same bindings must produce identical WeaveReports (the plan must not
    // change what matches), and withdrawing all of them must restore
    // pristine dispatch.
    std::vector<AspectId> ids;
    for (int i = 0; i < 100; ++i) {
        auto aspect = std::make_shared<Aspect>(std::string("a").append(std::to_string(i)));
        aspect->before("call(* Motor.*(..))", [](CallFrame&) {});
        aspect->around("call(int Sensor.read())",
                       [](CallFrame&, const std::function<Value()>& proceed) -> Value {
                           return proceed();
                       });
        aspect->on_field_set("fieldset(Motor.position)",
                             [](ServiceObject&, const rt::FieldDecl&, const Value&,
                                Value&) {});
        ids.push_back(weaver_.weave(aspect));
    }
    const WeaveReport* first = weaver_.report(ids.front());
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first->methods_matched, 3u);  // Motor.rotate, Motor.stop, Sensor.read
    EXPECT_EQ(first->fields_matched, 1u);
    for (AspectId id : ids) {
        const WeaveReport* r = weaver_.report(id);
        ASSERT_NE(r, nullptr);
        EXPECT_EQ(r->methods_matched, first->methods_matched);
        EXPECT_EQ(r->fields_matched, first->fields_matched);
    }
    for (AspectId id : ids) EXPECT_TRUE(weaver_.withdraw(id));
    EXPECT_FALSE(motor_->type().method("rotate")->woven());
    EXPECT_FALSE(sensor_->type().method("read")->woven());
    EXPECT_EQ(weaver_.woven_count(), 0u);
}

// ------------------------------------------------ advice observer, gate ----

TEST_F(WeaverTest, ObserverHearsFailuresAndOnlyTheSuccessThatEndsThem) {
    // The receiver's quarantine input, replayed at the weaver: every
    // failure is reported, and of the successes only the first one after
    // a failure (the one that resets a streak). Healthy dispatch never
    // reaches the observer.
    bool fail = false;
    auto aspect = std::make_shared<Aspect>("flaky");
    aspect->before("call(* Motor.rotate(..))", [&](CallFrame&) {
        if (fail) throw ScriptError("advice broke");
    });
    AspectId id = weaver_.weave(aspect);
    std::vector<std::string> heard;
    int streak = 0, longest = 0;  // the receiver's consecutive-failure count
    weaver_.set_advice_observer([&](AspectId who, const std::exception* error) {
        EXPECT_EQ(who, id);
        heard.push_back(error ? "fail" : "ok");
        streak = error ? streak + 1 : 0;
        longest = std::max(longest, streak);
    });
    auto call = [&](bool fails) {
        fail = fails;
        if (fails) {
            EXPECT_THROW(motor_->call("rotate", {Value{1.0}}), ScriptError);
        } else {
            motor_->call("rotate", {Value{1.0}});
        }
    };

    for (int i = 0; i < 3; ++i) call(false);
    EXPECT_TRUE(heard.empty());
    // fail, fail, succeed, fail, fail: never three in a row.
    for (bool fails : {true, true, false, true, true}) call(fails);
    EXPECT_EQ(heard, (std::vector<std::string>{"fail", "fail", "ok", "fail", "fail"}));
    EXPECT_EQ(longest, 2);
    // The success after that run is heard once; further ones are not.
    call(false);
    call(false);
    EXPECT_EQ(heard.size(), 6u);
    EXPECT_EQ(heard.back(), "ok");
    // Three consecutive failures reach three.
    for (int i = 0; i < 3; ++i) call(true);
    EXPECT_EQ(longest, 3);
}

TEST_F(WeaverTest, ClosedGateSkipsAdviceAndIsNotAnOutcome) {
    int ran = 0, around = 0, outcomes = 0;
    auto aspect = std::make_shared<Aspect>("gated");
    aspect->before("call(* Motor.rotate(..))", [&](CallFrame&) {
        ++ran;
        throw ScriptError("would count toward quarantine");
    });
    aspect->around("call(int Sensor.read())",
                   [&](CallFrame&, const std::function<Value()>& proceed) -> Value {
                       ++around;
                       return proceed();
                   });
    AspectId id = weaver_.weave(aspect);
    weaver_.set_advice_observer([&](AspectId, const std::exception*) { ++outcomes; });
    bool open = false;  // a suspended extension
    weaver_.set_dispatch_gate([&](AspectId who) { return who != id || open; });

    EXPECT_EQ(motor_->call("rotate", {Value{1.0}}).as_int(), 10);
    EXPECT_EQ(sensor_->call("read", {}).as_int(), 7);  // around passes through
    EXPECT_EQ(ran, 0);
    EXPECT_EQ(around, 0);
    EXPECT_EQ(outcomes, 0);

    open = true;
    EXPECT_THROW(motor_->call("rotate", {Value{1.0}}), ScriptError);
    EXPECT_EQ(sensor_->call("read", {}).as_int(), 7);
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(around, 1);
    EXPECT_EQ(outcomes, 2);  // the failure, then the success after it
}

}  // namespace
}  // namespace pmp::prose
