// The Fig 4 plotter with remote replication (paper §4.5).
//
// Plotter #1 draws a figure. The hall has installed a replication extension
// on it: every drawing command is mirrored — through the base station — to
// an identical plotter in another location, at 2x scale ("it is also
// possible that the replication of the work takes place at a scale
// different from what is being done by the original robot"). Neither
// plotter contains any replication code.
#include <cstdio>

#include "midas/node.h"
#include "robot/plotter.h"

using namespace pmp;
using midas::BaseConfig;
using midas::BaseStation;
using midas::ExtensionPackage;
using midas::MobileNode;
using rt::Dict;
using rt::List;
using rt::TypeKind;
using rt::Value;

int main() {
    sim::Simulator sim;
    // Zero jitter: mirrored drawing commands must arrive in order. (A real
    // deployment would sequence-number them; ordering is not the point of
    // this example.)
    net::NetworkConfig cfg;
    cfg.jitter = Duration{0};
    net::Network net(sim, cfg, 44);

    BaseConfig bc;
    bc.issuer = "hall";
    BaseStation hall(net, "hall", {0, 0}, 200.0, bc);
    hall.keys().add_key("hall", to_bytes("k"));

    // Two identical plotters on two mobile nodes.
    MobileNode node1(net, "plotter:1", {10, 0}, 200.0);
    node1.trust().trust("hall", to_bytes("k"));
    node1.receiver().allow_capabilities("hall", {"net"});
    robot::RobotController ctl1(sim, node1.runtime(), "plotter:1");
    robot::Plotter plotter1(ctl1);
    node1.rpc().export_object("drawing");

    // The replica is a plain node: it runs no adaptation service, so the
    // hall never tries to adapt it — it only executes mirrored commands.
    midas::NodeStack node2(net, "plotter:2", {50, 0}, 200.0);
    robot::RobotController ctl2(sim, node2.runtime(), "plotter:2");
    robot::Plotter plotter2(ctl2);
    node2.rpc().export_object("drawing");

    // The hall-side mirror: receives drawing commands from the extension
    // and forwards them — scaled — to plotter #2. Only the base station
    // knows where the replica lives.
    const double kScale = 2.0;
    NodeId replica = node2.id();
    hall.runtime().register_type(
        rt::TypeInfo::Builder("Mirror")
            .method("post", TypeKind::kInt,
                    {{"source", TypeKind::kStr}, {"cmd", TypeKind::kDict}},
                    [&](rt::ServiceObject&, List& args) -> Value {
                        const Dict& cmd = args[1].as_dict();
                        List scaled;
                        for (const Value& v : cmd.at("args").as_list()) {
                            scaled.emplace_back(v.as_real() * kScale);
                        }
                        hall.rpc().call_async(replica, "drawing",
                                              cmd.at("method").as_str(), scaled,
                                              [](Value, std::exception_ptr) {});
                        return Value{1};
                    })
            .build());
    hall.runtime().create("Mirror", "mirror");
    hall.rpc().export_object("mirror");

    // The replication extension the hall pushes onto plotter #1.
    ExtensionPackage replication;
    replication.name = "hall/replication";
    replication.script = R"(
        fun onEntry() {
            owner.post("mirror", "post",
                       [sys.node(), {"method": ctx.method(), "args": ctx.args()}]);
        }
    )";
    replication.bindings = {{prose::AdviceKind::kBefore,
                             "call(* Drawing.move_to(..)) || call(* Drawing.line_to(..))",
                             "onEntry", 0}};
    replication.capabilities = {"net"};
    hall.base().add_extension(replication);

    sim.run_for(seconds(3));  // adaptation
    printf("plotter:1 adapted with %zu extension(s); drawing a house...\n\n",
           node1.receiver().installed_count());

    // The drawing program: a little house.
    auto drawing = plotter1.drawing();
    drawing->call("move_to", {Value{0.0}, Value{0.0}});
    drawing->call("line_to", {Value{4.0}, Value{0.0}});
    drawing->call("line_to", {Value{4.0}, Value{3.0}});
    drawing->call("line_to", {Value{2.0}, Value{5.0}});
    drawing->call("line_to", {Value{0.0}, Value{3.0}});
    drawing->call("line_to", {Value{0.0}, Value{0.0}});
    sim.run_for(seconds(5));  // let mirrored commands arrive

    auto print_trace = [](const char* label, const robot::Plotter& plotter) {
        printf("%s drew %zu segment(s):\n", label, plotter.trace().size());
        for (const auto& seg : plotter.trace()) {
            printf("  (%5.1f,%5.1f) -> (%5.1f,%5.1f)\n", seg.x0, seg.y0, seg.x1, seg.y1);
        }
    };
    print_trace("plotter:1 (original) ", plotter1);
    printf("\n");
    print_trace("plotter:2 (replica @2x)", plotter2);

    printf("\nthe replica's figure is the same house at twice the size — and\n"
           "plotter:1's program contains nothing but drawing code.\n");
    return 0;
}
