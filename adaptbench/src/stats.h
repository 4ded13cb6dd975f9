// The benchmark's own arithmetic: percentiles, medians, the per-install
// cost ledger and the one-line JSON result. Header-only and free of any
// platform dependency so stats_test.cpp can check it in isolation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace adaptbench {

/// A reported percentile must keep at least this many samples beyond it.
inline constexpr std::size_t kMinTail = 10;

/// Nearest-rank percentile, `q` in (0, 1]. Throws when fewer than
/// kMinTail samples lie above the reported one: a p99 of 200 samples is
/// the second-largest value, not a percentile.
inline double percentile(std::vector<double> xs, double q) {
    if (xs.empty() || q <= 0.0 || q > 1.0) {
        throw std::invalid_argument("percentile: empty sample or q outside (0, 1]");
    }
    std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(xs.size())));
    rank = std::clamp<std::size_t>(rank, 1, xs.size());
    if (q != 0.5 && xs.size() - rank < kMinTail) {  // the median needs no tail
        throw std::invalid_argument("percentile: " + std::to_string(xs.size()) +
                                    " samples leave fewer than " + std::to_string(kMinTail) +
                                    " beyond p" + std::to_string(q * 100));
    }
    std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(rank - 1), xs.end());
    return xs[rank - 1];
}

/// Median of a small set of repetition results (mean of the middle two
/// when even).
inline double median(std::vector<double> xs) {
    if (xs.empty()) throw std::invalid_argument("median: empty sample");
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2.0;
}

/// Split of a measured per-node host cost into layer parts. Each priced
/// part is unit cost x count; the rest is whatever the priced layers do
/// not explain (sim, net, disco and the midas protocol).
struct Ledger {
    struct Part {
        std::string name;
        double unit_us = 0;  ///< host cost of one call into the layer
        double count = 0;    ///< calls per node
        double us() const { return unit_us * count; }
    };
    double total_us = 0;
    std::vector<Part> parts;

    double priced_us() const {
        double s = 0;
        for (const Part& p : parts) s += p.us();
        return s;
    }
    double rest_us() const { return total_us - priced_us(); }
};

/// One metric of the result line.
struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};

/// The result line: exactly the keys correct, attempted, failed, metrics.
inline std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                               const std::vector<Metric>& metrics) {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric& m = metrics[i];
        if (!std::isfinite(m.value)) {
            throw std::invalid_argument("metric " + m.name + " is not finite");
        }
        char num[64];
        std::snprintf(num, sizeof num, "%.17g", m.value);
        if (i) out += ", ";
        out += "\"" + m.name + "\": {\"value\": " + num + ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    return out;
}

}  // namespace adaptbench
