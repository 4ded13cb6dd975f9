// Unit tests of the benchmark's own arithmetic: percentiles keep a tail of
// at least kMinTail samples, the ledger's parts sum to its total, and the
// result line has exactly the keys the runner expects.
#include <cstdio>
#include <string>

#include "stats.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                        \
    do {                                                                   \
        if (!(cond)) {                                                     \
            std::fprintf(stderr, "%s:%d: CHECK(%s)\n", __FILE__, __LINE__, #cond); \
            ++failures;                                                    \
        }                                                                  \
    } while (0)

template <class F>
bool throws(F&& f) {
    try {
        f();
    } catch (const std::invalid_argument&) {
        return true;
    }
    return false;
}

std::vector<double> ramp(int n) {
    std::vector<double> xs;
    for (int i = n; i >= 1; --i) xs.push_back(i);  // unsorted on purpose
    return xs;
}

void percentiles() {
    using adaptbench::percentile;
    // Nearest rank: p50 of 1..1000 is 500, p99 is 990 with exactly ten
    // samples (991..1000) beyond it.
    CHECK(percentile(ramp(1000), 0.5) == 500);
    CHECK(percentile(ramp(1000), 0.99) == 990);
    // 999 samples leave only nine beyond p99: refused, not rounded.
    CHECK(throws([] { percentile(ramp(999), 0.99); }));
    CHECK(throws([] { percentile(ramp(100), 0.99); }));
    // p90 of 100 samples keeps ten beyond it.
    CHECK(percentile(ramp(100), 0.9) == 90);
    // The median needs no tail.
    CHECK(percentile(ramp(3), 0.5) == 2);
    CHECK(throws([] { percentile({}, 0.5); }));
    CHECK(throws([] { percentile(ramp(10), 0.0); }));
    CHECK(adaptbench::median({3, 1, 2}) == 2);
    CHECK(adaptbench::median({4, 1, 3, 2}) == 2.5);
}

void ledger() {
    adaptbench::Ledger l{1500.0, {{"crypto", 20.0, 3.0}, {"script", 100.0, 3.0},
                                  {"weave", 40.0, 3.0}, {"withdraw", 10.0, 3.0}}};
    CHECK(l.priced_us() == 60.0 + 300.0 + 120.0 + 30.0);
    CHECK(l.rest_us() == 1500.0 - 510.0);
    double sum = l.rest_us();
    for (const auto& p : l.parts) sum += p.us();
    CHECK(sum == l.total_us);
    // Priced parts larger than the total leave a negative residual rather
    // than being clipped: the ledger reports what it measured.
    adaptbench::Ledger over{10.0, {{"crypto", 20.0, 1.0}}};
    CHECK(over.rest_us() == -10.0);
}

void schema() {
    std::string line = adaptbench::result_json(
        true, 1000, 0, {{"latency_p50", 1.5, "us"}, {"setup_s", 0.8127, "s"}});
    CHECK(line ==
          "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": "
          "{\"latency_p50\": {\"value\": 1.5, \"unit\": \"us\"}, "
          "\"setup_s\": {\"value\": 0.81269999999999998, \"unit\": \"s\"}}}");
    CHECK(adaptbench::result_json(false, 1, 1, {}).find("\"correct\": false") !=
          std::string::npos);
    CHECK(throws([] { adaptbench::result_json(true, 1, 0, {{"x", 0.0 / 0.0, "s"}}); }));
}

}  // namespace

int main() {
    percentiles();
    ledger();
    schema();
    if (failures) {
        std::fprintf(stderr, "adaptbench_selftest: %d check(s) failed\n", failures);
        return 1;
    }
    std::printf("adaptbench_selftest: ok\n");
    return 0;
}
