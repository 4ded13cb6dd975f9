// Canonical component names shared by logs, metrics, and traces.
//
// Every log tag is a dotted hierarchical name ("midas.receiver", "rt.rpc"),
// the same name the component's metrics and trace events use, optionally
// followed by a per-instance suffix ("midas.base@hall"). This registry
// splits off that suffix (component "midas.base", instance "hall") and
// interns each canonical name to a small integer id so a log line and its
// metrics provably refer to the same component.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>

namespace pmp::obs {

class ComponentRegistry {
public:
    static ComponentRegistry& global();

    /// Canonical form of a raw tag: the tag itself, minus an empty "@"
    /// suffix. Call sites use canonical names, so tags pass through.
    ///   "midas.base@hall" -> "midas.base@hall"
    ///   "midas.base@"     -> "midas.base"
    std::string canonical(std::string_view tag) const;

    /// Canonical name with any "@instance" suffix removed — the metric
    /// family a tag belongs to.
    std::string family(std::string_view tag) const;

    /// Intern a canonical name; stable small id, first come first served.
    std::uint32_t id(std::string_view canonical_name);

    /// Name for an interned id ("?" if out of range).
    const std::string& name(std::uint32_t id) const;

    std::size_t interned() const {
        std::lock_guard<std::mutex> lock(mu_);
        return names_.size();
    }

private:
    ComponentRegistry() = default;

    /// Guards the intern table: a log line may come from any thread.
    mutable std::mutex mu_;
    /// deque, not vector: name() hands out references that must survive
    /// a concurrent intern.
    std::deque<std::string> names_;  // id -> canonical
};

}  // namespace pmp::obs
