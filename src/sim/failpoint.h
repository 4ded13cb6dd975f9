// Named crash-points (fail-point injection).
//
// Protocol code marks interesting instants — "install sent, activity not
// yet recorded" — with FailPoints::hit(node, point). Tests arm a point for
// a specific node and hit count; when the armed hit occurs, the action
// runs (typically Supervisor::crash), modelling a process that dies at
// exactly that instant. Unarmed hits cost one empty-vector check, so the
// markers stay in production code paths permanently.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

namespace pmp::sim {

class FailPoints {
public:
    static FailPoints& global();

    using Action = std::function<void()>;

    /// Arm `point` for `node`: the `hit`-th subsequent hit (1 = next)
    /// triggers `action` exactly once. Returns a token for disarm().
    std::uint64_t arm(std::string node, std::string point, int hit, Action action);

    void disarm(std::uint64_t token);
    void clear();

    /// Marker call sites use this; near-free while nothing is armed (one
    /// relaxed atomic load).
    static void hit(const std::string& node, const std::string& point) {
        FailPoints& fp = global();
        if (fp.armed_count_.load(std::memory_order_relaxed) != 0) fp.fire(node, point);
    }

    std::size_t armed_count() const { return armed_count_.load(std::memory_order_relaxed); }

private:
    void fire(const std::string& node, const std::string& point);

    struct Armed {
        std::uint64_t token;
        std::string node;
        std::string point;
        int remaining;
        Action action;
    };
    mutable std::mutex mu_;
    std::vector<Armed> armed_;
    std::atomic<std::size_t> armed_count_{0};  ///< mirrors armed_.size()
    std::uint64_t next_token_ = 0;
};

/// RAII arming for tests: disarms on scope exit if the point never fired.
class ScopedFailPoint {
public:
    ScopedFailPoint(std::string node, std::string point, int hit, FailPoints::Action action)
        : token_(FailPoints::global().arm(std::move(node), std::move(point), hit,
                                          std::move(action))) {}
    ~ScopedFailPoint() { FailPoints::global().disarm(token_); }

    ScopedFailPoint(const ScopedFailPoint&) = delete;
    ScopedFailPoint& operator=(const ScopedFailPoint&) = delete;

private:
    std::uint64_t token_;
};

}  // namespace pmp::sim
