// Process-wide metrics registry (counters, gauges, histograms).
//
// The paper's evaluation is all about *measuring* the platform — the ~7%
// carrying cost, weaving latency, monitoring traffic — so measurement is a
// first-class subsystem, not ad-hoc structs scattered through the code.
// Metrics are keyed by a dotted `component.name` plus an optional label
// (per-aspect, per-node, per-network). Recording is one relaxed atomic
// increment behind one global enable flag: cheap enough to live on the
// interception hot path even when several threads record at once (relaxed
// suffices — counters are summed, never ordered against other memory), and
// the flag lets benchmarks price the instrumentation itself (enabled vs.
// compiled-in-but-idle).
//
// Lifetime: metrics obtained through `Registry::counter()` (and friends)
// are pinned — they live as long as the registry. Per-instance metrics
// (one network, one adaptation service) are *acquired* instead; releasing
// the slot when the instance dies lets a successor with the same label
// start from zero, which is what keeps the legacy `stats()` views exact
// across sequential test scenarios. `Owned*` RAII handles do the
// acquire/release pairing.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace pmp::obs {

namespace detail {
/// One global switch for every registry and trace buffer in the process.
/// Inline so the hot-path check compiles to a load + predictable branch.
inline bool g_enabled = true;
}  // namespace detail

inline bool enabled() { return detail::g_enabled; }
inline void set_enabled(bool on) { detail::g_enabled = on; }

/// Monotonic event count.
class Counter {
public:
    void inc(std::uint64_t n = 1) {
        if (detail::g_enabled) value_.fetch_add(n, std::memory_order_relaxed);
    }
    /// Unconditional increment that returns the count before it, for a
    /// meter that branches on its own count (the caller has already
    /// checked `enabled()`).
    std::uint64_t fetch_inc() { return value_.fetch_add(1, std::memory_order_relaxed); }
    std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
    void reset() { value_.store(0, std::memory_order_relaxed); }

private:
    std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time level (extensions active, tuples stored, ...).
class Gauge {
public:
    void set(std::int64_t v) {
        if (detail::g_enabled) value_.store(v, std::memory_order_relaxed);
    }
    void add(std::int64_t d) {
        if (detail::g_enabled) value_.fetch_add(d, std::memory_order_relaxed);
    }
    std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
    void reset() { value_.store(0, std::memory_order_relaxed); }

private:
    std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket histogram. `bounds` are inclusive upper edges of the finite
/// buckets, strictly increasing; one implicit overflow bucket follows.
/// Quantiles interpolate linearly inside the bucket that crosses the rank,
/// which is exact enough for latency reporting (p50/p95/p99) without ever
/// storing samples.
/// Lock-free: every bucket and the sum are relaxed atomics, so concurrent
/// threads record without serializing and no sample is lost. The
/// count is the sum of the buckets, never a separate field, so a reader
/// that takes one `buckets()` snapshot gets a count consistent with it
/// (readers racing writers see some prefix of the in-flight samples).
class Histogram {
public:
    explicit Histogram(std::vector<double> bounds);

    void observe(double v);

    std::uint64_t count() const;
    double sum() const { return sum_.load(std::memory_order_relaxed); }
    const std::vector<double>& bounds() const { return bounds_; }
    /// Snapshot of the per-bucket counts; size == bounds().size() + 1
    /// (last = overflow). Derive a count from the snapshot itself when it
    /// must agree with the buckets.
    std::vector<std::uint64_t> buckets() const;

    /// q in [0,1]. Returns 0 when empty; clamps to the largest finite bound
    /// for ranks landing in the overflow bucket.
    double quantile(double q) const;

    double mean() const {
        const std::uint64_t n = count();
        return n == 0 ? 0.0 : sum() / static_cast<double>(n);
    }

    void reset();

    /// Exponential edges suited to nanosecond latencies (50ns .. 100ms).
    static const std::vector<double>& latency_ns_bounds();
    /// Exponential edges suited to millisecond round-trips (0.1ms .. 60s).
    static const std::vector<double>& latency_ms_bounds();

private:
    std::vector<double> bounds_;
    std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  ///< bounds_.size() + 1
    std::atomic<double> sum_{0};
};

/// The registry: name -> label -> metric. `Registry::global()` is the
/// process-wide instance everything reports into; tests may build private
/// ones. Label cardinality is capped per metric name: once a family holds
/// `kLabelCap` distinct labels, further labels collapse into the
/// `kOverflowLabel` slot so a misbehaving caller (per-request labels, say)
/// degrades the metric instead of growing memory without bound.
class Registry {
public:
    static constexpr std::size_t kLabelCap = 64;
    static constexpr const char* kOverflowLabel = "~other";

    Registry() = default;
    Registry(const Registry&) = delete;
    Registry& operator=(const Registry&) = delete;

    static Registry& global();

    /// Pinned lookup-or-create. References stay valid for the registry's
    /// lifetime; hot paths should cache them.
    Counter& counter(std::string_view name, std::string_view label = {});
    Gauge& gauge(std::string_view name, std::string_view label = {});
    /// `bounds` is used on first creation only; empty selects the ns
    /// latency edges.
    Histogram& histogram(std::string_view name, std::string_view label = {},
                         std::vector<double> bounds = {});

    /// Instance-owned lookup-or-create: refcounted, the slot is erased when
    /// the last owner releases it (unless a pinned user also holds it).
    Counter& acquire_counter(std::string_view name, std::string_view label);
    void release_counter(std::string_view name, std::string_view label);
    Gauge& acquire_gauge(std::string_view name, std::string_view label);
    void release_gauge(std::string_view name, std::string_view label);

    /// Zero every metric (registrations and pins stay).
    void reset();

    /// Deterministic iteration for exporters: families sorted by name,
    /// slots sorted by label.
    void visit_counters(
        const std::function<void(const std::string& name, const std::string& label,
                                 const Counter&)>& fn) const;
    void visit_gauges(const std::function<void(const std::string& name, const std::string& label,
                                               const Gauge&)>& fn) const;
    void visit_histograms(
        const std::function<void(const std::string& name, const std::string& label,
                                 const Histogram&)>& fn) const;

    /// Number of distinct (name, label) slots across all metric kinds.
    std::size_t size() const;

private:
    template <typename T>
    struct Slot {
        std::unique_ptr<T> metric;
        int owners = 0;    ///< acquire_*/release_* refcount
        bool pinned = false;  ///< ever handed out via the pinned accessors
    };
    template <typename T>
    using Family = std::map<std::string, Slot<T>, std::less<>>;

    template <typename T>
    Slot<T>& slot(std::map<std::string, Family<T>, std::less<>>& families,
                  std::string_view name, std::string_view label, bool pin);
    template <typename T>
    void release(std::map<std::string, Family<T>, std::less<>>& families,
                 std::string_view name, std::string_view label);

    /// Guards the family maps (lookup-or-create, release, visits). The
    /// metrics themselves are not guarded by this: Counter, Gauge and
    /// Histogram are all atomic, and handed-out references
    /// stay valid regardless (slots are unique_ptr-pinned).
    mutable std::mutex mu_;
    std::map<std::string, Family<Counter>, std::less<>> counters_;
    std::map<std::string, Family<Gauge>, std::less<>> gauges_;
    std::map<std::string, Family<Histogram>, std::less<>> histograms_;
};

/// RAII owner of a per-instance counter slot (see class comment above).
class OwnedCounter {
public:
    OwnedCounter(Registry& reg, std::string name, std::string label)
        : reg_(&reg),
          name_(std::move(name)),
          label_(std::move(label)),
          c_(&reg_->acquire_counter(name_, label_)) {}
    OwnedCounter(std::string name, std::string label = {})
        : OwnedCounter(Registry::global(), std::move(name), std::move(label)) {}
    ~OwnedCounter() {
        if (reg_) reg_->release_counter(name_, label_);
    }
    OwnedCounter(const OwnedCounter&) = delete;
    OwnedCounter& operator=(const OwnedCounter&) = delete;

    Counter& operator*() const { return *c_; }
    Counter* operator->() const { return c_; }
    std::uint64_t value() const { return c_->value(); }
    void inc(std::uint64_t n = 1) { c_->inc(n); }
    void reset() { c_->reset(); }

private:
    Registry* reg_;
    std::string name_;
    std::string label_;
    Counter* c_;
};

/// RAII owner of a per-instance gauge slot.
class OwnedGauge {
public:
    OwnedGauge(Registry& reg, std::string name, std::string label)
        : reg_(&reg),
          name_(std::move(name)),
          label_(std::move(label)),
          g_(&reg_->acquire_gauge(name_, label_)) {}
    OwnedGauge(std::string name, std::string label = {})
        : OwnedGauge(Registry::global(), std::move(name), std::move(label)) {}
    ~OwnedGauge() {
        if (reg_) reg_->release_gauge(name_, label_);
    }
    OwnedGauge(const OwnedGauge&) = delete;
    OwnedGauge& operator=(const OwnedGauge&) = delete;

    Gauge& operator*() const { return *g_; }
    Gauge* operator->() const { return g_; }
    std::int64_t value() const { return g_->value(); }

private:
    Registry* reg_;
    std::string name_;
    std::string label_;
    Gauge* g_;
};

}  // namespace pmp::obs
