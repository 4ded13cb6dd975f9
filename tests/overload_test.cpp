// Overload protection: admission control (bounded class-prioritized queues,
// load shedding with retry-after), caller-side circuit breakers, the
// receiver's per-extension resource governor (throttle -> suspend ->
// quarantine, plus the virtual-time advice watchdog), reply-cache bounds
// under duplication storms, and log-storm suppression.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.h"
#include "common/log.h"
#include "midas/node.h"
#include "net/fault.h"
#include "net/router.h"
#include "obs/metrics.h"
#include "robot/devices.h"
#include "rt/breaker.h"
#include "rt/rpc.h"
#include "sim/token_bucket.h"

namespace pmp {
namespace {

using midas::AdaptationService;
using midas::ExtensionPackage;
using midas::MobileNode;
using midas::PackageBinding;
using midas::ReceiverConfig;
using rt::Dict;
using rt::List;
using rt::ServiceObject;
using rt::TypeInfo;
using rt::TypeKind;
using rt::Value;

std::uint64_t counter_value(const char* name, const std::string& label = {}) {
    return obs::Registry::global().counter(name, label).value();
}

// ---------------------------------------------------------------------------
// Token bucket: pure virtual-time math.

TEST(TokenBucket, StartsFullAndRefillsWithVirtualTime) {
    sim::TokenBucket bucket(10.0, 2.0);  // 10 tokens/s, burst 2
    SimTime t0 = SimTime::zero();
    EXPECT_TRUE(bucket.try_take(t0));
    EXPECT_TRUE(bucket.try_take(t0));
    EXPECT_FALSE(bucket.try_take(t0));
    Duration wait = bucket.time_until(t0);
    EXPECT_GT(wait.count(), 0);
    EXPECT_LE(wait, milliseconds(101));
    EXPECT_TRUE(bucket.try_take(t0 + milliseconds(150)));
}

TEST(TokenBucket, NonPositiveRateMeansUnlimited) {
    sim::TokenBucket bucket(0.0, 0.0);
    for (int i = 0; i < 1000; ++i) {
        ASSERT_TRUE(bucket.try_take(SimTime::zero()));
    }
    EXPECT_EQ(bucket.time_until(SimTime::zero()).count(), 0);
}

// ---------------------------------------------------------------------------
// Admission queue.

TEST(Admission, FastPathRunsSynchronously) {
    sim::Simulator sim;
    net::AdmissionQueue q(sim, net::AdmissionConfig{});
    bool ran = false;
    auto d = q.offer(net::AdmitClass::kApp, [&] { ran = true; });
    EXPECT_TRUE(ran);
    EXPECT_TRUE(d.admitted);
    EXPECT_FALSE(d.queued);
    EXPECT_EQ(q.queued_total(), 0u);
}

TEST(Admission, DisabledAdmitsEverything) {
    sim::Simulator sim;
    net::AdmissionConfig cfg;
    cfg.enabled = false;
    cfg.rate_per_sec = 0.0001;  // would shed everything if enabled
    cfg.queue_cap = {0, 0, 0};
    net::AdmissionQueue q(sim, cfg);
    int ran = 0;
    for (int i = 0; i < 100; ++i) {
        EXPECT_TRUE(q.offer(net::AdmitClass::kApp, [&] { ++ran; }).admitted);
    }
    EXPECT_EQ(ran, 100);
}

TEST(Admission, DrainsQueuedWorkInClassPriorityOrder) {
    sim::Simulator sim;
    net::AdmissionConfig cfg;
    cfg.rate_per_sec = 10.0;
    cfg.burst = 1.0;
    net::AdmissionQueue q(sim, cfg);

    std::vector<std::string> order;
    // Burn the single token.
    q.offer(net::AdmitClass::kApp, [&] { order.push_back("first"); });
    // These queue — note offer order is the *reverse* of priority order.
    q.offer(net::AdmitClass::kApp, [&] { order.push_back("app"); });
    q.offer(net::AdmitClass::kInstall, [&] { order.push_back("install"); });
    q.offer(net::AdmitClass::kControl, [&] { order.push_back("control"); });
    EXPECT_EQ(q.queued_total(), 3u);

    sim.run_for(seconds(1));
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[0], "first");
    EXPECT_EQ(order[1], "control");
    EXPECT_EQ(order[2], "install");
    EXPECT_EQ(order[3], "app");
    EXPECT_EQ(q.queued_total(), 0u);
}

TEST(Admission, ShedsWhenClassQueueFullWithRetryAfterHint) {
    sim::Simulator sim;
    net::AdmissionConfig cfg;
    cfg.rate_per_sec = 10.0;
    cfg.burst = 1.0;
    cfg.queue_cap = {4, 4, 1};
    net::AdmissionQueue q(sim, cfg);

    int ran = 0;
    q.offer(net::AdmitClass::kApp, [&] { ++ran; });  // token gone
    auto queued = q.offer(net::AdmitClass::kApp, [&] { ++ran; });
    EXPECT_TRUE(queued.queued);
    auto shed = q.offer(net::AdmitClass::kApp, [&] { ++ran; });
    EXPECT_FALSE(shed.admitted);
    EXPECT_FALSE(shed.queued);
    // The hint covers the backlog ahead of the shed call: ~2 tokens at
    // 10/s.
    EXPECT_GT(shed.retry_after.count(), 0);
    EXPECT_LE(shed.retry_after, milliseconds(500));

    sim.run_for(seconds(1));
    EXPECT_EQ(ran, 2);  // shed work never runs
}

// ---------------------------------------------------------------------------
// RPC + admission: typed Overloaded error, retry-after, control bypass.

class OverloadRpcTest : public ::testing::Test {
protected:
    OverloadRpcTest()
        : net_(sim_, net::NetworkConfig{}, 7),
          a_id_(net_.add_node("client", {0, 0}, 50)),
          b_id_(net_.add_node("server", {1, 0}, 50)),
          a_router_(net_, a_id_),
          b_router_(net_, b_id_),
          a_rt_("client"),
          b_rt_("server"),
          a_rpc_(a_router_, a_rt_),
          b_rpc_(b_router_, b_rt_) {
        b_rt_.register_type(TypeInfo::Builder("Echo")
                                .method("ping", TypeKind::kInt, {},
                                        [this](ServiceObject&, List&) -> Value {
                                            return Value{std::int64_t{++pings_}};
                                        })
                                .build());
        b_rt_.create("Echo", "echo");
        b_rpc_.export_object("echo");
        // An object *named* like the adaptation service: admission
        // classifies by name, so this rides the control class.
        b_rt_.register_type(TypeInfo::Builder("Ctl")
                                .method("list", TypeKind::kInt, {},
                                        [this](ServiceObject&, List&) -> Value {
                                            return Value{std::int64_t{++ctl_}};
                                        })
                                .build());
        b_rt_.create("Ctl", "adaptation");
        b_rpc_.export_object("adaptation");
        // The control-plane prefix registration NodeStack normally does;
        // this raw fixture wires it by hand so classify() sees it.
        a_rpc_.exempt_from_filters("adaptation");
        b_rpc_.exempt_from_filters("adaptation");
    }

    sim::Simulator sim_;
    net::Network net_;
    NodeId a_id_, b_id_;
    net::MessageRouter a_router_, b_router_;
    rt::Runtime a_rt_, b_rt_;
    rt::RpcEndpoint a_rpc_, b_rpc_;
    std::int64_t pings_ = 0;
    std::int64_t ctl_ = 0;
};

TEST_F(OverloadRpcTest, ShedCallSurfacesTypedOverloadedWithRetryAfter) {
    net::AdmissionConfig cfg;
    cfg.rate_per_sec = 2.0;
    cfg.burst = 1.0;
    cfg.queue_cap = {0, 0, 0};
    b_router_.admission().set_config(cfg);
    const std::uint64_t shed0 = counter_value("rpc.shed");

    int ok = 0;
    std::exception_ptr err;
    for (int i = 0; i < 2; ++i) {
        a_rpc_.call_async(b_id_, "echo", "ping", {}, [&](Value, std::exception_ptr e) {
            if (e) {
                err = e;
            } else {
                ++ok;
            }
        });
    }
    sim_.run_for(seconds(1));
    EXPECT_EQ(ok, 1);
    ASSERT_TRUE(err != nullptr);
    try {
        std::rethrow_exception(err);
    } catch (const Overloaded& e) {
        EXPECT_GT(e.retry_after().count(), 0);
        EXPECT_LE(e.retry_after(), seconds(1));
    } catch (...) {
        FAIL() << "expected Overloaded";
    }
    EXPECT_GE(counter_value("rpc.shed") - shed0, 1u);
}

TEST_F(OverloadRpcTest, RetryMachineryHonorsRetryAfterHint) {
    net::AdmissionConfig cfg;
    cfg.rate_per_sec = 2.0;  // a token every 500ms
    cfg.burst = 1.0;
    cfg.queue_cap = {0, 0, 0};
    b_router_.admission().set_config(cfg);
    const std::uint64_t retries0 = counter_value("rpc.overload_retries");

    // Burn the token, then call with retries: the first attempt is shed
    // with a ~500ms hint, the retry waits it out and succeeds.
    a_rpc_.call_async(b_id_, "echo", "ping", {}, [](Value, std::exception_ptr) {});
    bool ok = false;
    std::exception_ptr err;
    rt::CallOptions opts;
    opts.retries = 2;
    opts.retry_backoff = milliseconds(10);
    a_rpc_.call_async(b_id_, "echo", "ping", {}, opts,
                      [&](Value, std::exception_ptr e) {
                          ok = !e;
                          err = e;
                      });
    sim_.run_for(seconds(3));
    EXPECT_TRUE(ok) << "retry after shed should have succeeded";
    EXPECT_GE(counter_value("rpc.overload_retries") - retries0, 1u);
    EXPECT_EQ(pings_, 2);
}

TEST_F(OverloadRpcTest, ControlTrafficOvertakesAQueuedAppStorm) {
    net::AdmissionConfig cfg;
    cfg.rate_per_sec = 2.0;
    cfg.burst = 1.0;
    cfg.queue_cap = {4, 2, 8};
    b_router_.admission().set_config(cfg);

    // An app storm: one admitted, eight queued (4s of backlog), the rest
    // shed.
    int app_errors = 0;
    for (int i = 0; i < 20; ++i) {
        a_rpc_.call_async(b_id_, "echo", "ping", {},
                          [&](Value, std::exception_ptr e) { app_errors += e ? 1 : 0; });
    }
    sim_.run_for(milliseconds(50));
    // A control-plane call arrives *behind* the whole storm, yet completes
    // on the next token instead of waiting out the app queue.
    bool ctl_done = false;
    a_rpc_.call_async(b_id_, "adaptation", "list", {},
                      [&](Value, std::exception_ptr e) { ctl_done = !e; });
    sim_.run_for(milliseconds(700));
    EXPECT_TRUE(ctl_done) << "control call must jump the app backlog";
    EXPECT_GT(app_errors, 0);  // the overflow really was shed
}

TEST_F(OverloadRpcTest, ReplyCacheStaysBoundedUnderDuplicationStorm) {
    const std::uint64_t evict0 = counter_value("rpc.reply_cache_evictions");
    net::FaultPlan plan;
    plan.duplicate = 1.0;  // the radio doubles every frame
    net_.set_fault_plan(plan, 99);

    for (int i = 0; i < 300; ++i) {
        a_rpc_.call_sync(b_id_, "echo", "ping", {});
    }
    std::int64_t size = obs::Registry::global().gauge("rpc.reply_cache_size", "server").value();
    EXPECT_GT(size, 0);
    EXPECT_LE(size, 256) << "reply cache must stay bounded";
    EXPECT_GE(counter_value("rpc.reply_cache_evictions") - evict0, 40u);
    EXPECT_EQ(pings_, 300) << "dups must not re-execute calls";
}

// ---------------------------------------------------------------------------
// Circuit breaker state machine.

TEST(Breaker, OpensAfterThresholdShortCircuitsThenProbes) {
    sim::Simulator sim;
    rt::CircuitBreaker br(sim, "test", rt::BreakerConfig{2, seconds(1), seconds(4)});
    NodeId n{42};

    EXPECT_TRUE(br.allow(n));
    br.on_failure(n, /*relevant=*/true);
    EXPECT_TRUE(br.allow(n));  // below threshold
    br.on_failure(n, /*relevant=*/true);
    EXPECT_EQ(br.state_of(n), rt::CircuitBreaker::State::kOpen);
    EXPECT_FALSE(br.allow(n));  // short-circuited

    sim.run_for(milliseconds(1100));
    EXPECT_TRUE(br.allow(n));  // half-open: one probe granted
    EXPECT_EQ(br.state_of(n), rt::CircuitBreaker::State::kHalfOpen);
    EXPECT_FALSE(br.allow(n));  // second probe refused while one is in flight
    br.on_success(n);
    EXPECT_EQ(br.state_of(n), rt::CircuitBreaker::State::kClosed);
    EXPECT_TRUE(br.allow(n));
}

TEST(Breaker, FailedProbeReopensWithDoubledCooldown) {
    sim::Simulator sim;
    rt::CircuitBreaker br(sim, "test2", rt::BreakerConfig{1, seconds(1), seconds(8)});
    NodeId n{7};

    br.on_failure(n, true);  // open, cooldown 1s
    sim.run_for(milliseconds(1100));
    EXPECT_TRUE(br.allow(n));   // probe
    br.on_failure(n, true);     // probe fails: open again, cooldown 2s
    EXPECT_EQ(br.state_of(n), rt::CircuitBreaker::State::kOpen);
    sim.run_for(milliseconds(1100));
    EXPECT_FALSE(br.allow(n)) << "doubled cooldown not elapsed yet";
    sim.run_for(milliseconds(1000));
    EXPECT_TRUE(br.allow(n));
    br.on_success(n);
    EXPECT_EQ(br.state_of(n), rt::CircuitBreaker::State::kClosed);
}

TEST(Breaker, IrrelevantFailuresAndSuccessesResetTheStreak) {
    sim::Simulator sim;
    rt::CircuitBreaker br(sim, "test3", rt::BreakerConfig{2, seconds(1), seconds(8)});
    NodeId n{9};

    // A remote *application* error proves the peer is alive and answering:
    // it must reset the streak, not extend it.
    br.on_failure(n, true);
    br.on_failure(n, /*relevant=*/false);
    br.on_failure(n, true);
    EXPECT_EQ(br.state_of(n), rt::CircuitBreaker::State::kClosed);
    EXPECT_TRUE(br.allow(n));
}

TEST(Breaker, DisabledByNonPositiveThreshold) {
    sim::Simulator sim;
    rt::CircuitBreaker br(sim, "test4", rt::BreakerConfig{0, seconds(1), seconds(8)});
    NodeId n{3};
    for (int i = 0; i < 50; ++i) br.on_failure(n, true);
    EXPECT_TRUE(br.allow(n));
    EXPECT_EQ(br.state_of(n), rt::CircuitBreaker::State::kClosed);
}

// ---------------------------------------------------------------------------
// Receiver resource governor.

ExtensionPackage advice_pkg(const std::string& name, const std::string& body) {
    ExtensionPackage pkg;
    pkg.name = name;
    pkg.script = "fun onEntry() { " + body + " }";
    pkg.bindings = {
        PackageBinding{prose::AdviceKind::kBefore, "call(* Motor.*(..))", "onEntry", 0}};
    return pkg;
}

struct GovWorld {
    sim::Simulator sim;
    net::Network net;
    crypto::KeyStore keys;
    std::unique_ptr<MobileNode> robot;
    std::shared_ptr<ServiceObject> motor;
    ExtensionId ext{};

    explicit GovWorld(ReceiverConfig rc) : net(sim, net::NetworkConfig{}, 11) {
        keys.add_key("hall", to_bytes("k"));
        robot = std::make_unique<MobileNode>(net, "robot", net::Position{0, 0}, 100.0, rc);
        robot->trust().trust("hall", to_bytes("k"));
        motor = robot::make_motor(robot->runtime(), "motor:x");
    }

    void install(const ExtensionPackage& pkg, std::int64_t lease_ms = 60'000) {
        Bytes sealed = pkg.seal(keys, "hall");
        Value r = robot->receiver().install_from(robot->id(), sealed, lease_ms);
        ext = ExtensionId{static_cast<std::uint64_t>(r.as_dict().at("ext").as_int())};
    }

    AdaptationService::GovernorMode mode() { return robot->receiver().governor_mode(ext); }
};

TEST(Governor, InvocationBudgetClimbsThrottleThenSuspend) {
    ReceiverConfig rc;
    rc.governor_invocation_budget = 3;
    rc.governor_suspend_factor = 2.0;
    rc.governor_throttle_keep = 2;
    rc.governor_quarantine_after = 0;  // never; this test is about the ladder
    GovWorld w(rc);
    w.install(advice_pkg("hall/noop", ""));
    const std::uint64_t throttles0 = counter_value("recv.governor.throttles", "robot");
    const std::uint64_t suspends0 = counter_value("recv.governor.suspends", "robot");
    const std::uint64_t skipped0 = counter_value("recv.governor.skipped", "robot");

    for (int i = 0; i < 4; ++i) w.motor->call("rotate", {Value{1.0}});
    EXPECT_EQ(w.mode(), AdaptationService::GovernorMode::kThrottled);
    EXPECT_EQ(counter_value("recv.governor.throttles", "robot") - throttles0, 1u);

    for (int i = 0; i < 8; ++i) w.motor->call("rotate", {Value{1.0}});
    EXPECT_EQ(w.mode(), AdaptationService::GovernorMode::kSuspended);
    EXPECT_EQ(counter_value("recv.governor.suspends", "robot") - suspends0, 1u);
    EXPECT_GT(counter_value("recv.governor.skipped", "robot") - skipped0, 0u);

    // Suspended means pass-through, not broken: the application call works
    // and the extension stays installed.
    w.motor->call("rotate", {Value{1.0}});
    EXPECT_EQ(w.robot->receiver().installed_count(), 1u);
}

TEST(Governor, LeaseRenewalOpensAFreshWindow) {
    ReceiverConfig rc;
    rc.governor_invocation_budget = 2;
    rc.governor_suspend_factor = 2.0;
    rc.governor_quarantine_after = 0;
    GovWorld w(rc);
    w.install(advice_pkg("hall/noop", ""));

    for (int i = 0; i < 8; ++i) w.motor->call("rotate", {Value{1.0}});
    ASSERT_EQ(w.mode(), AdaptationService::GovernorMode::kSuspended);

    ASSERT_TRUE(w.robot->receiver().keepalive_local(w.ext.value, 60'000));
    EXPECT_EQ(w.mode(), AdaptationService::GovernorMode::kNormal);
    // And the allowance really is fresh.
    w.motor->call("rotate", {Value{1.0}});
    EXPECT_EQ(w.mode(), AdaptationService::GovernorMode::kNormal);
}

TEST(Governor, StepBudgetOverrunClimbsTheLadder) {
    ReceiverConfig rc;
    rc.governor_step_budget = 50;        // one busy invocation blows this
    rc.governor_suspend_factor = 20.0;   // suspend past 1000 steps
    rc.governor_throttle_keep = 1;       // throttled still runs (keeps charging)
    rc.governor_quarantine_after = 0;
    GovWorld w(rc);
    w.install(advice_pkg("hall/busy", "let i = 0; while (i < 50) { i = i + 1; }"));

    w.motor->call("rotate", {Value{1.0}});
    EXPECT_EQ(w.mode(), AdaptationService::GovernorMode::kThrottled);
    for (int i = 0; i < 50 && w.mode() != AdaptationService::GovernorMode::kSuspended; ++i) {
        w.motor->call("rotate", {Value{1.0}});
    }
    EXPECT_EQ(w.mode(), AdaptationService::GovernorMode::kSuspended);
}

TEST(Governor, RepeatedSuspendedWindowsQuarantine) {
    ReceiverConfig rc;
    rc.governor_invocation_budget = 1;
    rc.governor_suspend_factor = 1.0;
    rc.governor_quarantine_after = 1;
    GovWorld w(rc);
    w.install(advice_pkg("hall/hog", ""));
    const std::uint64_t quar0 = counter_value("recv.governor.quarantines", "robot");
    std::uint32_t version = w.robot->receiver().installed()[0].version;

    for (int i = 0; i < 4; ++i) w.motor->call("rotate", {Value{1.0}});
    ASSERT_EQ(w.mode(), AdaptationService::GovernorMode::kSuspended);
    // The window closes suspended -> the streak crosses the limit -> the
    // deferred quarantine path (same one advice crashes use) fires.
    w.robot->receiver().keepalive_local(w.ext.value, 60'000);
    w.sim.run_for(milliseconds(10));
    EXPECT_EQ(w.robot->receiver().installed_count(), 0u);
    EXPECT_TRUE(w.robot->receiver().is_quarantined("hall/hog", version));
    EXPECT_EQ(counter_value("recv.governor.quarantines", "robot") - quar0, 1u);
}

// ---------------------------------------------------------------------------
// Advice watchdog (virtual-time deadline) + quarantine accounting.

TEST(Watchdog, DeadlineOverrunKillsTheAdviceAndCountsTowardQuarantine) {
    ReceiverConfig rc;
    rc.governor_advice_deadline = milliseconds(1);  // 1000 steps at 1us/step
    rc.governor_step_cost = microseconds(1);
    rc.quarantine_after = 3;
    GovWorld w(rc);
    w.install(advice_pkg("hall/spin", "while (true) { }"));
    const std::uint64_t trips0 = counter_value("recv.governor.watchdog_trips", "robot");
    std::uint32_t version = w.robot->receiver().installed()[0].version;

    // Regression (the old bug): DeadlineExceeded is not a ScriptError nor a
    // ResourceExhausted, and overruns silently never reached the
    // quarantine ledger. Three consecutive trips must quarantine.
    for (int i = 0; i < 3; ++i) {
        EXPECT_THROW(w.motor->call("rotate", {Value{1.0}}), DeadlineExceeded);
    }
    EXPECT_EQ(counter_value("recv.governor.watchdog_trips", "robot") - trips0, 3u);
    w.sim.run_for(milliseconds(10));
    EXPECT_EQ(w.robot->receiver().installed_count(), 0u);
    EXPECT_TRUE(w.robot->receiver().is_quarantined("hall/spin", version));
}

TEST(Watchdog, AccessDeniedStillDoesNotCountTowardQuarantine) {
    ReceiverConfig rc;
    rc.quarantine_after = 3;
    GovWorld w(rc);
    // The script calls a capability-gated builtin the package never asked
    // for: the node's own policy refuses. That is not the script's fault.
    w.install(advice_pkg("hall/nosy", "log.info(\"peek\");"));

    for (int i = 0; i < 6; ++i) {
        EXPECT_THROW(w.motor->call("rotate", {Value{1.0}}), AccessDenied);
    }
    w.sim.run_for(milliseconds(10));
    EXPECT_EQ(w.robot->receiver().installed_count(), 1u);
    EXPECT_FALSE(w.robot->receiver().is_quarantined("hall/nosy", 1));
}

// ---------------------------------------------------------------------------
// Quarantine streaks through the weaver's advice observer, which reports
// failures and only the first success after one.

TEST(QuarantineStreak, AnInterleavedSuccessResetsTheStreak) {
    ReceiverConfig rc;
    rc.quarantine_after = 3;
    GovWorld w(rc);
    // Negative degrees make the advice fault (index out of range).
    w.install(advice_pkg("hall/flaky", "if (ctx.arg(0) < 0) { let x = ctx.arg(9); }"));
    std::uint32_t version = w.robot->receiver().installed()[0].version;
    auto call = [&](double degrees) {
        if (degrees < 0) {
            EXPECT_THROW(w.motor->call("rotate", {Value{degrees}}), ScriptError);
        } else {
            w.motor->call("rotate", {Value{degrees}});
        }
    };

    for (double d : {-1.0, -1.0, 1.0, -1.0, -1.0}) call(d);
    w.sim.run_for(milliseconds(10));
    EXPECT_EQ(w.robot->receiver().installed_count(), 1u);
    EXPECT_FALSE(w.robot->receiver().is_quarantined("hall/flaky", version));

    // A third failure in a row crosses the threshold.
    call(-1.0);
    w.sim.run_for(milliseconds(10));
    EXPECT_EQ(w.robot->receiver().installed_count(), 0u);
    EXPECT_TRUE(w.robot->receiver().is_quarantined("hall/flaky", version));
}

TEST(QuarantineStreak, ThreeConsecutiveFailuresAfterLongHealthQuarantine) {
    ReceiverConfig rc;
    rc.quarantine_after = 3;
    GovWorld w(rc);
    w.install(advice_pkg("hall/flaky", "if (ctx.arg(0) < 0) { let x = ctx.arg(9); }"));
    std::uint32_t version = w.robot->receiver().installed()[0].version;
    // A long healthy run is not reported to the receiver call by call, and
    // leaves nothing behind that would soften the next streak.
    for (int i = 0; i < 100; ++i) w.motor->call("rotate", {Value{1.0}});
    for (int i = 0; i < 3; ++i) {
        EXPECT_THROW(w.motor->call("rotate", {Value{-1.0}}), ScriptError);
    }
    w.sim.run_for(milliseconds(10));
    EXPECT_EQ(w.robot->receiver().installed_count(), 0u);
    EXPECT_TRUE(w.robot->receiver().is_quarantined("hall/flaky", version));
}

TEST(QuarantineStreak, SuspendedExtensionsAdviceIsSkippedNotCounted) {
    ReceiverConfig rc;
    rc.quarantine_after = 3;
    rc.governor_invocation_budget = 1;
    rc.governor_suspend_factor = 1.0;
    rc.governor_quarantine_after = 0;  // the governor never quarantines here
    GovWorld w(rc);
    w.install(advice_pkg("hall/broken", "let x = ctx.arg(9);"));
    std::uint32_t version = w.robot->receiver().installed()[0].version;

    // Two granted dispatches fail (the second one suspends the extension)...
    for (int i = 0; i < 2; ++i) {
        EXPECT_THROW(w.motor->call("rotate", {Value{1.0}}), ScriptError);
    }
    ASSERT_EQ(w.mode(), AdaptationService::GovernorMode::kSuspended);
    // ...then the gate skips the advice: the call goes through untouched
    // and the skipped advice is neither a failure nor a success.
    const std::uint64_t skipped0 = counter_value("recv.governor.skipped", "robot");
    for (int i = 0; i < 5; ++i) {
        EXPECT_NO_THROW(w.motor->call("rotate", {Value{1.0}}));
    }
    EXPECT_EQ(counter_value("recv.governor.skipped", "robot") - skipped0, 5u);
    w.sim.run_for(milliseconds(10));
    EXPECT_EQ(w.robot->receiver().installed_count(), 1u);
    EXPECT_FALSE(w.robot->receiver().is_quarantined("hall/broken", version));
}

// ---------------------------------------------------------------------------
// Log storm suppression.

TEST(LogStorm, SuppressesBeyondTheCapAndSummarizesNextWindow) {
    std::vector<std::string> lines;
    Log::set_sink([&](LogLevel, const std::string& line) { lines.push_back(line); });
    Log::set_storm_guard(5, seconds(1));
    const std::uint64_t sup0 = counter_value("log.suppressed", "stormy");

    for (int i = 0; i < 20; ++i) {
        log_warn(SimTime::zero() + milliseconds(i), "stormy", "spam ", i);
    }
    EXPECT_EQ(lines.size(), 5u);
    EXPECT_EQ(counter_value("log.suppressed", "stormy") - sup0, 15u);

    // The next window leads with the suppression summary, then the line.
    log_warn(SimTime::zero() + seconds(2), "stormy", "calm again");
    ASSERT_EQ(lines.size(), 7u);
    EXPECT_NE(lines[5].find("15 similar lines suppressed"), std::string::npos);
    EXPECT_NE(lines[6].find("calm again"), std::string::npos);

    Log::set_storm_guard(128, seconds(1));
    Log::set_sink(nullptr);
}

TEST(LogStorm, DifferentLevelsThrottleIndependently) {
    std::vector<std::string> lines;
    Log::set_sink([&](LogLevel, const std::string& line) { lines.push_back(line); });
    Log::set_storm_guard(3, seconds(1));

    for (int i = 0; i < 10; ++i) {
        log_warn(SimTime::zero() + milliseconds(i), "chatty", "warn ", i);
    }
    for (int i = 0; i < 2; ++i) {
        log_error(SimTime::zero() + milliseconds(i), "chatty", "error ", i);
    }
    // 3 warns kept, both errors kept: an error storm is not hidden behind a
    // warn storm.
    EXPECT_EQ(lines.size(), 5u);

    Log::set_storm_guard(128, seconds(1));
    Log::set_sink(nullptr);
}

// ---------------------------------------------------------------------------
// Storm-scale admission gate soak (docs/overload.md).
//
// The question PR 4 left open: does the gate hold at fleet scale? 10^5
// nodes re-installing after a regional power cut cannot run as 10^5
// NodeStacks on a CI box, but the gate itself — token bucket plus bounded
// class-prioritized queues — sees only offer() calls, so the storm drives
// the hub's AdmissionQueue directly while a small *real* fleet rides the
// same gate and proves control traffic stays alive underneath.

midas::ExtensionPackage storm_policy(const std::string& name) {
    midas::ExtensionPackage pkg;
    pkg.name = name;
    pkg.script = "fun onEntry() { }";
    pkg.bindings = {
        PackageBinding{prose::AdviceKind::kBefore, "call(* Motor.*(..))", "onEntry", 0}};
    return pkg;
}

TEST(StormScale, HundredThousandNodeReinstallStormDrainsThroughTheGate) {
    sim::Simulator sim;
    net::Network net(sim, net::NetworkConfig{}, 83);

    midas::BaseConfig bc;
    bc.issuer = "hub";
    midas::BaseStation hub(net, "hub", net::Position{0, 0}, 200.0, bc);
    hub.keys().add_key("hub", to_bytes("hk"));
    hub.base().add_extension(storm_policy("hub/p0"));

    // The sized gate (constants recorded in docs/overload.md): 2000
    // admitted frames/s, a short control queue that strict-priority drain
    // empties first, a deep install queue for the storm's class, a modest
    // app queue.
    net::AdmissionConfig gate;
    gate.rate_per_sec = 2000.0;
    gate.burst = 256.0;
    gate.queue_cap = {64, 512, 64};  // {control, install, app}
    hub.router().admission().set_config(gate);

    std::vector<std::unique_ptr<MobileNode>> robots;
    for (int i = 0; i < 4; ++i) {
        auto r = std::make_unique<MobileNode>(net, "storm-robot" + std::to_string(i),
                                              net::Position{20.0 + 10.0 * i, 0}, 200.0);
        r->trust().trust("hub", to_bytes("hk"));
        robots.push_back(std::move(r));
    }
    sim.run_for(seconds(3));
    for (auto& r : robots) ASSERT_EQ(r->receiver().installed_count(), 1u);
    const std::size_t regs0 = hub.registrar().registration_count();
    ASSERT_GT(regs0, 0u);

    // 10^5 virtual re-installers, ramped over 2s. Each is an honest
    // client: on shed it waits out max(hint, own backoff) plus
    // deterministic per-node jitter, doubling its backoff up to 4s — the
    // same shape CatchupClient and the rpc retry machinery use.
    struct Storm {
        sim::Simulator& sim;
        net::AdmissionQueue& gate;
        std::uint64_t landed = 0;
        std::uint64_t offers = 0;
        std::uint64_t sheds = 0;
        std::size_t peak_backlog = 0;

        void offer_one(std::uint32_t node, Duration backoff) {
            ++offers;
            auto d = gate.offer(net::AdmitClass::kInstall, [this] { ++landed; });
            peak_backlog = std::max(peak_backlog, gate.queued_total());
            if (d.admitted || d.queued) return;
            ++sheds;
            Duration wait = std::max(d.retry_after, backoff);
            if (wait > seconds(4)) wait = seconds(4);
            wait += milliseconds((node * 2654435761ULL) % 997);
            Duration next = std::min<Duration>(backoff * 2, seconds(4));
            sim.schedule_after(wait, [this, node, next] { offer_one(node, next); });
        }
    };
    constexpr std::uint32_t kStorm = 100'000;
    Storm storm{sim, hub.router().admission()};
    SimTime t0 = sim.now();
    for (std::uint32_t node = 0; node < kStorm; ++node) {
        sim.schedule_after(milliseconds(node % 2000),
                           [&storm, node] { storm.offer_one(node, milliseconds(200)); });
    }

    // Drain. The theoretical floor is kStorm / rate = 50s; honest-client
    // backoff pays a jittered tail on top.
    SimTime deadline = t0 + seconds(120);
    while (storm.landed < kStorm && sim.now() < deadline) {
        sim.run_until(sim.now() + milliseconds(200));
    }
    Duration drain = sim.now() - t0;

    EXPECT_EQ(storm.landed, kStorm) << "every re-installer must converge";
    EXPECT_LE(drain, seconds(80)) << "bounded shed-retry convergence";
    EXPECT_GT(storm.sheds, 0u) << "the gate must actually close";
    EXPECT_LE(storm.offers, std::uint64_t{kStorm} * 12)
        << "shed-retry amplification must stay bounded";
    EXPECT_LE(storm.peak_backlog, std::size_t{64 + 512 + 64})
        << "class queues must hold their caps";

    // The real fleet underneath the storm: leases held, registrations
    // alive, nobody dropped — strict-priority drain cuts the control
    // queue past the storm's install backlog every token.
    sim.run_for(seconds(3));
    for (auto& r : robots) {
        EXPECT_EQ(r->receiver().stats().expirations, 0u) << r->label();
        EXPECT_EQ(r->receiver().installed_count(), 1u) << r->label();
    }
    EXPECT_EQ(hub.registrar().registration_count(), regs0);
    EXPECT_EQ(hub.base().stats().nodes_dropped, 0u);
}

TEST(LogStorm, ZeroDisablesSuppression) {
    std::vector<std::string> lines;
    Log::set_sink([&](LogLevel, const std::string& line) { lines.push_back(line); });
    Log::set_storm_guard(0, seconds(1));

    for (int i = 0; i < 300; ++i) {
        log_warn(SimTime::zero() + milliseconds(i), "firehose", "line ", i);
    }
    EXPECT_EQ(lines.size(), 300u);

    Log::set_storm_guard(128, seconds(1));
    Log::set_sink(nullptr);
}

}  // namespace
}  // namespace pmp
