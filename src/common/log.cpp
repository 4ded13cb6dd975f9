#include "common/log.h"

#include <iostream>
#include <map>
#include <mutex>
#include <utility>

#include "obs/component.h"
#include "obs/metrics.h"

namespace pmp {

namespace {

// Per-(component family, level) storm accounting. Keyed by family, not the
// full component, so "midas@robot:1:1" and "midas@robot:1:2" throttle
// independently of each other only up to the family cap — a fleet-wide
// storm from one subsystem is still one storm.
struct StormSlot {
    SimTime window_start{};
    std::size_t emitted = 0;
    std::size_t suppressed = 0;
};

std::map<std::pair<std::string, int>, StormSlot>& storm_slots() {
    static std::map<std::pair<std::string, int>, StormSlot> slots;
    return slots;
}

// One lock for sink configuration, storm accounting, and emission order:
// log volume is low (storm-guarded by design), so a single mutex keeps
// interleaved shard workers from tearing lines or slots.
std::mutex& log_mu() {
    static std::mutex mu;
    return mu;
}

}  // namespace

Log& Log::instance() {
    static Log log;
    return log;
}

void Log::set_sink(Sink sink) {
    std::lock_guard<std::mutex> lock(log_mu());
    instance().sink_ = std::move(sink);
}

void Log::set_storm_guard(std::size_t max_lines, Duration window) {
    std::lock_guard<std::mutex> lock(log_mu());
    auto& log = instance();
    log.storm_max_lines_ = max_lines;
    log.storm_window_ = window.count() > 0 ? window : seconds(1);
    storm_slots().clear();
}

void Log::write(LogLevel level, SimTime when, const std::string& component,
                const std::string& message) {
    static const char* kNames[] = {"DEBUG", "INFO", "WARN", "ERROR"};
    auto& log = instance();
    // Log tags, metrics, and traces all share one canonical component
    // namespace: "receiver" and "midas@robot" both resolve to
    // "midas.receiver", so a log line and its metrics carry the same id.
    auto& components = obs::ComponentRegistry::global();
    std::string canonical = components.canonical(component);
    std::string family = components.family(component);
    components.id(family);
    obs::Registry::global().counter("log.lines", family).inc();

    std::lock_guard<std::mutex> lock(log_mu());
    auto emit = [&](const std::string& text) {
        // Appended piecewise: `"literal" + std::string&&` trips GCC 12's
        // -Wrestrict false positive at -O3.
        std::string line = "[";
        line.append(to_string(when))
            .append("] ")
            .append(kNames[static_cast<int>(level)])
            .append(" ")
            .append(canonical)
            .append(": ")
            .append(text);
        if (log.sink_) {
            log.sink_(level, line);
        } else {
            std::cerr << line << '\n';
        }
    };

    if (log.storm_max_lines_ > 0) {
        StormSlot& slot = storm_slots()[{family, static_cast<int>(level)}];
        // `when` moving backwards (a fresh simulation after a long one, in
        // the same process) also rolls the window.
        if (when < slot.window_start || when >= slot.window_start + log.storm_window_) {
            if (slot.suppressed > 0) {
                emit(std::string("(")
                         .append(std::to_string(slot.suppressed))
                         .append(" similar lines suppressed in the last window)"));
            }
            slot = StormSlot{when, 0, 0};
        }
        if (slot.emitted >= log.storm_max_lines_) {
            ++slot.suppressed;
            obs::Registry::global().counter("log.suppressed", family).inc();
            return;
        }
        ++slot.emitted;
    }
    emit(message);
}

}  // namespace pmp
