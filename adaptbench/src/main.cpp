// adaptbench: the adaptation-pipeline benchmark (see ../README.md).
//
//   adaptbench --workload <woven_calls|hall_entry|fleet_readapt>
//              --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//
// Prints, as its last line, one JSON object: correct, attempted, failed and
// the metrics — the end-to-end ones with --trace 0, the per-layer ones with
// --trace 1. Exits non-zero on bad arguments or a benchmark fault.
#include <cstdio>
#include <cstring>
#include <exception>
#include <set>

#include "common/log.h"
#include "harness.h"

namespace {

using namespace adaptbench;

/// The metric names every workload reports, in order, with their units.
const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"latency_p50", "us"}, {"latency_p99", "us"}, {"host_us_per_op", "us"}, {"setup_s", "s"}};

bool same_names(const std::vector<Metric>& got,
                const std::vector<std::pair<std::string, std::string>>& want) {
    if (got.size() != want.size()) return false;
    for (std::size_t i = 0; i < got.size(); ++i) {
        if (got[i].name != want[i].first || got[i].unit != want[i].second) return false;
    }
    return true;
}

int usage(const char* why) {
    std::fprintf(stderr, "adaptbench: %s\n", why);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    Options opt;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i], val = argv[i + 1];
        if (key == "--workload") opt.workload = val;
        else if (key == "--seed") opt.seed = std::stoull(val);
        else if (key == "--seconds") opt.seconds = std::stod(val);
        else if (key == "--trace") opt.trace = val == "1";
        else if (key == "--trace-out") opt.trace_out = val;
        else return usage(("unknown argument " + key).c_str());
    }
    if (argc % 2 == 0) return usage("arguments come in --key value pairs");
    if (opt.seconds <= 0) return usage("--seconds must be positive");
    pmp::Log::set_level(pmp::LogLevel::kError);

    SpanLog log(opt.trace);
    Result res;
    try {
        if (opt.workload == "woven_calls") res = run_woven_calls(opt, log);
        else if (opt.workload == "hall_entry") res = run_hall_entry(opt, log);
        else if (opt.workload == "fleet_readapt") res = run_fleet_readapt(opt, log);
        else return usage(("unknown workload " + opt.workload).c_str());
    } catch (const std::exception& e) {
        std::fprintf(stderr, "adaptbench: %s failed: %s\n", opt.workload.c_str(), e.what());
        return 1;
    }
    if (!same_names(res.e2e, kEndToEnd)) {
        std::fprintf(stderr, "adaptbench: %s reports the wrong end-to-end metrics\n",
                     opt.workload.c_str());
        return 1;
    }
    for (const std::string& e : res.errors) std::fprintf(stderr, "check failed: %s\n", e.c_str());
    if (opt.trace && !opt.trace_out.empty() && !log.write(opt.trace_out)) {
        std::fprintf(stderr, "adaptbench: cannot write %s\n", opt.trace_out.c_str());
        return 1;
    }
    const bool correct = res.errors.empty() && res.failed == 0 && res.attempted > 0;
    std::printf("%s\n", result_json(correct, res.attempted, res.failed,
                                    opt.trace ? res.layer : res.e2e)
                            .c_str());
    return 0;
}
