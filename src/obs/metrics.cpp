#include "obs/metrics.h"

#include <algorithm>
#include <tuple>

namespace pmp::obs {

// ----------------------------------------------------------- Histogram ----

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
    if (bounds_.empty()) bounds_ = latency_ns_bounds();
    buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
}

void Histogram::observe(double v) {
    if (!detail::g_enabled) return;
    auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
    buckets_[static_cast<std::size_t>(it - bounds_.begin())].fetch_add(
        1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
}

std::uint64_t Histogram::count() const {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i <= bounds_.size(); ++i) {
        n += buckets_[i].load(std::memory_order_relaxed);
    }
    return n;
}

std::vector<std::uint64_t> Histogram::buckets() const {
    std::vector<std::uint64_t> out(bounds_.size() + 1);
    for (std::size_t i = 0; i < out.size(); ++i) {
        out[i] = buckets_[i].load(std::memory_order_relaxed);
    }
    return out;
}

double Histogram::quantile(double q) const {
    const std::vector<std::uint64_t> snap = buckets();
    std::uint64_t count = 0;
    for (std::uint64_t b : snap) count += b;
    if (count == 0) return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    double rank = q * static_cast<double>(count);
    double cumulative = 0;
    for (std::size_t i = 0; i < snap.size(); ++i) {
        double next = cumulative + static_cast<double>(snap[i]);
        if (next >= rank && snap[i] > 0) {
            if (i >= bounds_.size()) return bounds_.back();  // overflow bucket
            double lo = i == 0 ? 0.0 : bounds_[i - 1];
            double hi = bounds_[i];
            double fraction = (rank - cumulative) / static_cast<double>(snap[i]);
            return lo + fraction * (hi - lo);
        }
        cumulative = next;
    }
    return bounds_.back();
}

void Histogram::reset() {
    for (std::size_t i = 0; i <= bounds_.size(); ++i) {
        buckets_[i].store(0, std::memory_order_relaxed);
    }
    sum_.store(0, std::memory_order_relaxed);
}

namespace {
std::vector<double> exponential_edges(double lo, double hi) {
    // 1 / 2.5 / 5 per decade, the classic log-friendly ladder.
    std::vector<double> out;
    for (double decade = lo; decade <= hi; decade *= 10) {
        out.push_back(decade);
        if (decade * 2.5 <= hi) out.push_back(decade * 2.5);
        if (decade * 5 <= hi) out.push_back(decade * 5);
    }
    return out;
}
}  // namespace

const std::vector<double>& Histogram::latency_ns_bounds() {
    static const std::vector<double> kBounds = exponential_edges(50, 1e8);
    return kBounds;
}

const std::vector<double>& Histogram::latency_ms_bounds() {
    static const std::vector<double> kBounds = exponential_edges(0.1, 60'000);
    return kBounds;
}

// ------------------------------------------------------------ Registry ----

Registry& Registry::global() {
    static Registry registry;
    return registry;
}

template <typename T>
Registry::Slot<T>& Registry::slot(std::map<std::string, Family<T>, std::less<>>& families,
                                  std::string_view name, std::string_view label, bool pin) {
    auto fam_it = families.find(name);
    if (fam_it == families.end()) {
        fam_it = families.emplace(std::string(name), Family<T>{}).first;
    }
    Family<T>& family = fam_it->second;
    auto it = family.find(label);
    if (it == family.end()) {
        // Cardinality cap: overflow labels share one slot per family. The
        // unlabelled slot does not count against the cap.
        if (!label.empty() && family.size() >= kLabelCap) {
            it = family.find(kOverflowLabel);
            if (it == family.end()) {
                it = family.emplace(std::string(kOverflowLabel), Slot<T>{}).first;
            }
        } else {
            it = family.emplace(std::string(label), Slot<T>{}).first;
        }
    }
    if (!it->second.metric) it->second.metric = std::make_unique<T>();
    if (pin) it->second.pinned = true;
    return it->second;
}

// Histogram has no default constructor; specialise slot creation.
template <>
Registry::Slot<Histogram>& Registry::slot<Histogram>(
    std::map<std::string, Family<Histogram>, std::less<>>& families, std::string_view name,
    std::string_view label, bool pin) {
    auto fam_it = families.find(name);
    if (fam_it == families.end()) {
        fam_it = families.emplace(std::string(name), Family<Histogram>{}).first;
    }
    Family<Histogram>& family = fam_it->second;
    auto it = family.find(label);
    if (it == family.end()) {
        if (!label.empty() && family.size() >= kLabelCap) {
            it = family.find(kOverflowLabel);
            if (it == family.end()) {
                it = family.emplace(std::string(kOverflowLabel), Slot<Histogram>{}).first;
            }
        } else {
            it = family.emplace(std::string(label), Slot<Histogram>{}).first;
        }
    }
    if (pin) it->second.pinned = true;
    return it->second;
}

template <typename T>
void Registry::release(std::map<std::string, Family<T>, std::less<>>& families,
                       std::string_view name, std::string_view label) {
    auto fam_it = families.find(name);
    if (fam_it == families.end()) return;
    auto it = fam_it->second.find(label);
    if (it == fam_it->second.end()) return;
    if (--it->second.owners <= 0 && !it->second.pinned) {
        fam_it->second.erase(it);
        if (fam_it->second.empty()) families.erase(fam_it);
    }
}

Counter& Registry::counter(std::string_view name, std::string_view label) {
    std::lock_guard<std::mutex> lock(mu_);
    return *slot(counters_, name, label, /*pin=*/true).metric;
}

Gauge& Registry::gauge(std::string_view name, std::string_view label) {
    std::lock_guard<std::mutex> lock(mu_);
    return *slot(gauges_, name, label, /*pin=*/true).metric;
}

Histogram& Registry::histogram(std::string_view name, std::string_view label,
                               std::vector<double> bounds) {
    std::lock_guard<std::mutex> lock(mu_);
    Slot<Histogram>& s = slot(histograms_, name, label, /*pin=*/true);
    if (!s.metric) s.metric = std::make_unique<Histogram>(std::move(bounds));
    return *s.metric;
}

Counter& Registry::acquire_counter(std::string_view name, std::string_view label) {
    std::lock_guard<std::mutex> lock(mu_);
    Slot<Counter>& s = slot(counters_, name, label, /*pin=*/false);
    ++s.owners;
    return *s.metric;
}

void Registry::release_counter(std::string_view name, std::string_view label) {
    std::lock_guard<std::mutex> lock(mu_);
    release(counters_, name, label);
}

Gauge& Registry::acquire_gauge(std::string_view name, std::string_view label) {
    std::lock_guard<std::mutex> lock(mu_);
    Slot<Gauge>& s = slot(gauges_, name, label, /*pin=*/false);
    ++s.owners;
    return *s.metric;
}

void Registry::release_gauge(std::string_view name, std::string_view label) {
    std::lock_guard<std::mutex> lock(mu_);
    release(gauges_, name, label);
}

void Registry::reset() {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [_, family] : counters_) {
        for (auto& [__, s] : family) s.metric->reset();
    }
    for (auto& [_, family] : gauges_) {
        for (auto& [__, s] : family) s.metric->reset();
    }
    for (auto& [_, family] : histograms_) {
        for (auto& [__, s] : family) {
            if (s.metric) s.metric->reset();
        }
    }
}

// Visitors gather (name, label, metric) under the lock, then run the
// callback outside it: the metrics are slot-pinned so the pointers stay
// valid, and a callback that re-enters the registry cannot deadlock.
void Registry::visit_counters(
    const std::function<void(const std::string&, const std::string&, const Counter&)>& fn)
    const {
    std::vector<std::tuple<const std::string*, const std::string*, const Counter*>> items;
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (const auto& [name, family] : counters_) {
            for (const auto& [label, s] : family) items.emplace_back(&name, &label, s.metric.get());
        }
    }
    for (const auto& [name, label, c] : items) fn(*name, *label, *c);
}

void Registry::visit_gauges(
    const std::function<void(const std::string&, const std::string&, const Gauge&)>& fn) const {
    std::vector<std::tuple<const std::string*, const std::string*, const Gauge*>> items;
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (const auto& [name, family] : gauges_) {
            for (const auto& [label, s] : family) items.emplace_back(&name, &label, s.metric.get());
        }
    }
    for (const auto& [name, label, g] : items) fn(*name, *label, *g);
}

void Registry::visit_histograms(
    const std::function<void(const std::string&, const std::string&, const Histogram&)>& fn)
    const {
    std::vector<std::tuple<const std::string*, const std::string*, const Histogram*>> items;
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (const auto& [name, family] : histograms_) {
            for (const auto& [label, s] : family) {
                if (s.metric) items.emplace_back(&name, &label, s.metric.get());
            }
        }
    }
    for (const auto& [name, label, h] : items) fn(*name, *label, *h);
}

std::size_t Registry::size() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t n = 0;
    for (const auto& [_, family] : counters_) n += family.size();
    for (const auto& [_, family] : gauges_) n += family.size();
    for (const auto& [_, family] : histograms_) n += family.size();
    return n;
}

}  // namespace pmp::obs
