#include "obs/component.h"

#include <algorithm>

namespace pmp::obs {

ComponentRegistry& ComponentRegistry::global() {
    static ComponentRegistry registry;
    return registry;
}

std::string ComponentRegistry::canonical(std::string_view tag) const {
    std::string_view base = tag;
    std::string_view instance;
    if (auto at = tag.find('@'); at != std::string_view::npos) {
        base = tag.substr(0, at);
        instance = tag.substr(at + 1);
    }
    std::string out(base);
    if (!instance.empty()) {
        out += '@';
        out += instance;
    }
    return out;
}

std::string ComponentRegistry::family(std::string_view tag) const {
    std::string full = canonical(tag);
    if (auto at = full.find('@'); at != std::string::npos) full.resize(at);
    return full;
}

std::uint32_t ComponentRegistry::id(std::string_view canonical_name) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = std::find(names_.begin(), names_.end(), canonical_name);
    if (it != names_.end()) return static_cast<std::uint32_t>(it - names_.begin());
    names_.emplace_back(canonical_name);
    return static_cast<std::uint32_t>(names_.size() - 1);
}

const std::string& ComponentRegistry::name(std::uint32_t id) const {
    static const std::string kUnknown = "?";
    std::lock_guard<std::mutex> lock(mu_);
    return id < names_.size() ? names_[id] : kUnknown;
}

}  // namespace pmp::obs
