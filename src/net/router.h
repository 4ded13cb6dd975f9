// Per-node message dispatch.
//
// A node runs several protocol endpoints at once (discovery client, RPC,
// adaptation service, lease renewals...). The Network delivers each node a
// single stream of messages; the router fans them out by `kind`.
#pragma once

#include <string>
#include <unordered_map>

#include "net/admission.h"
#include "net/network.h"

namespace pmp::net {

class MessageRouter {
public:
    using Handler = std::function<void(const Message&)>;

    /// Installs itself as the node's network handler.
    MessageRouter(Network& network, NodeId self);

    /// Register the handler for an exact message kind (e.g. "rpc.call").
    /// Replaces any previous handler for the kind.
    void route(const std::string& kind, Handler handler);
    void unroute(const std::string& kind);

    bool send(NodeId to, const std::string& kind, Bytes payload);
    std::size_t broadcast(const std::string& kind, Bytes payload);

    NodeId self() const { return self_; }
    Network& network() { return network_; }
    sim::Simulator& simulator() { return network_.simulator(); }

    /// The node's inbound admission gate. The router hosts it (one per
    /// node); protocols that execute caller-driven work — rpc dispatch,
    /// chiefly — classify and offer their work here. Reconfigure with
    /// `admission().set_config(...)` (soaks tighten it; the defaults are
    /// sized to be invisible to well-behaved fleets).
    AdmissionQueue& admission() { return admission_; }

private:
    void dispatch(const Message& msg);

    Network& network_;
    NodeId self_;
    AdmissionQueue admission_;
    std::unordered_map<std::string, Handler> handlers_;
};

}  // namespace pmp::net
