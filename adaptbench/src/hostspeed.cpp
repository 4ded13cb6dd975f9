// adaptbench_hostspeed: the host-speed probe behind HostSpeed (harness.h).
//
//   adaptbench_hostspeed [cpu]
//
// Runs a fixed kernel of hash-map inserts, lookups and frees (no platform
// code) and prints its process CPU time in nanoseconds. It runs in a
// process of its own, so its time reflects the host (other tenants, clock,
// shared caches) and not the benchmark's heap. Given a CPU number, it pins
// itself there first: the benchmark passes the CPU it is running on.
#include <malloc.h>
#include <sched.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <unordered_map>

namespace {

std::int64_t cpu_ns() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Allocation churn and scattered reads like the workloads' own. Kernels
/// that avoid the allocator (a pointer walk, fresh pages, a large table)
/// tracked the host's slow spells much less well.
std::uint64_t kernel() {
    std::unordered_map<std::uint64_t, std::uint64_t> m;
    std::uint64_t h = 0x9e3779b97f4a7c15ull, sink = 0;
    for (std::uint64_t i = 0; i < 16384; ++i) {
        h = (h ^ i) * 0xbf58476d1ce4e5b9ull;
        m[h >> 16] = i;
    }
    h = 0x9e3779b97f4a7c15ull;
    for (std::uint64_t i = 0; i < 16384; ++i) {
        h = (h ^ i) * 0xbf58476d1ce4e5b9ull;
        sink += m[h >> 16];
    }
    return sink;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc > 1) {
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(std::atoi(argv[1]), &set);
        sched_setaffinity(0, sizeof set, &set);  // best effort
    }
    // The heap is never given back, so the first pass faults it in and the
    // second, the one timed, runs on warm pages.
    mallopt(M_TRIM_THRESHOLD, 1 << 30);
    std::uint64_t sink = kernel();
    const std::int64_t t0 = cpu_ns();
    sink += kernel();
    const std::int64_t ns = cpu_ns() - t0;
    std::printf("%lld %llu\n", static_cast<long long>(ns), static_cast<unsigned long long>(sink));
    return 0;
}
