#include "sim/shard.h"

#include <algorithm>
#include <utility>

#include "common/hash.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "common/epoch.h"

namespace pmp::sim {

namespace {
struct ShardMetrics {
    obs::Counter& windows = obs::Registry::global().counter("sim.shard.windows");
    obs::Counter& posts = obs::Registry::global().counter("sim.shard.posts");
};
ShardMetrics& shard_metrics() {
    static ShardMetrics m;
    return m;
}
}  // namespace

ShardedSimulator::ShardedSimulator(ShardOptions opts) : opts_(opts) {
    if (opts_.shards == 0) opts_.shards = 1;
    if (opts_.workers == 0) opts_.workers = 1;
    if (opts_.lookahead < Duration{1}) opts_.lookahead = Duration{1};

    buffers_.reserve(opts_.shards);
    sims_.reserve(opts_.shards);
    executed_.assign(opts_.shards, 0);
    for (std::size_t i = 0; i < opts_.shards; ++i) {
        auto buf = std::make_unique<obs::TraceBuffer>(opts_.trace_capacity);
        // Disjoint id namespaces so merged causal trees never collide:
        // shard i's spans/traces live in ((i+1) << 40) + n.
        buf->set_id_namespace((static_cast<std::uint64_t>(i) + 1) << 40);
        buffers_.push_back(std::move(buf));
        // Construct the shard's Simulator under a redirect so its trace
        // clock binds to the shard buffer, not the root.
        obs::TraceBuffer::Redirect r(*buffers_.back());
        sims_.push_back(std::make_unique<Simulator>());
    }
    lanes_.reserve(opts_.shards * opts_.shards);
    for (std::size_t i = 0; i < opts_.shards * opts_.shards; ++i) {
        lanes_.push_back(std::make_unique<Lane>());
    }
    workers_.reserve(opts_.workers);
    for (std::size_t i = 0; i < opts_.workers; ++i) {
        workers_.emplace_back([this]() { worker_main(); });
    }
}

ShardedSimulator::~ShardedSimulator() {
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    work_cv_.notify_all();
    for (auto& t : workers_) t.join();
}

std::size_t ShardedSimulator::shard_of(std::string_view name) const {
    // Avalanche the FNV hash: hall names share prefixes ("hall/0",
    // "hall/1"), and raw FNV barely moves the high bits for those.
    return hash_avalanche(fnv1a64(name)) % sims_.size();
}

std::uint64_t ShardedSimulator::shard_seed(std::size_t shard, std::string_view stream) const {
    std::uint64_t h = fnv1a64_mix(fnv1a64(stream), opts_.seed);
    h = fnv1a64_mix(h, static_cast<std::uint64_t>(shard));
    return hash_avalanche(h);
}

void ShardedSimulator::post(std::size_t src, std::size_t dst, SimTime when,
                            Simulator::Callback fn) {
    // Conservative clamp: nothing crosses shards faster than the
    // lookahead, which is exactly what lets a window run to
    // T_min + lookahead without waiting for in-flight sends.
    SimTime earliest = sims_[src]->now() + opts_.lookahead;
    if (when < earliest) when = earliest;
    {
        Lane& l = lane(src, dst);
        std::lock_guard<std::mutex> lock(l.mu);
        l.msgs.push_back(Pending{when, std::move(fn)});
    }
    posts_.fetch_add(1, std::memory_order_relaxed);
    shard_metrics().posts.inc();
}

void ShardedSimulator::drain_lanes() {
    // Fixed (dst, src, FIFO) order: import seq numbers — the same-instant
    // tie-breakers — are assigned here, so they depend only on this
    // deterministic order, never on worker scheduling.
    for (std::size_t dst = 0; dst < sims_.size(); ++dst) {
        for (std::size_t src = 0; src < sims_.size(); ++src) {
            Lane& l = lane(src, dst);
            std::vector<Pending> msgs;
            {
                std::lock_guard<std::mutex> lock(l.mu);
                msgs.swap(l.msgs);
            }
            for (auto& m : msgs) {
                sims_[dst]->schedule_at(m.when, std::move(m.fn));
            }
        }
    }
}

void ShardedSimulator::run_window_parallel(SimTime horizon) {
    std::unique_lock<std::mutex> lock(mu_);
    win_horizon_ = horizon;
    next_shard_ = 0;
    done_shards_ = 0;
    ++gen_;
    work_cv_.notify_all();
    done_cv_.wait(lock, [this]() { return done_shards_ == sims_.size(); });
}

void ShardedSimulator::worker_main() {
    // Workers are epoch participants: they announce quiescence after every
    // shard window, so hook-table snapshots retired by a concurrent weave
    // are reclaimed at the next barrier without any dispatch-path fence.
    EpochDomain::Participant participant(EpochDomain::global());
    std::unique_lock<std::mutex> lock(mu_);
    std::uint64_t seen_gen = 0;
    for (;;) {
        work_cv_.wait(lock, [&]() { return stop_ || gen_ != seen_gen; });
        if (stop_) return;
        seen_gen = gen_;
        while (next_shard_ < sims_.size()) {
            std::size_t i = next_shard_++;
            SimTime horizon = win_horizon_;
            lock.unlock();
            std::size_t ran;
            {
                // Everything the shard's events record — spans, instants,
                // clock reads — lands in the shard's own buffer.
                obs::TraceBuffer::Redirect redirect(*buffers_[i]);
                ran = sims_[i]->run_window(horizon);
            }
            participant.quiescent();
            lock.lock();
            executed_[i] += ran;
            if (++done_shards_ == sims_.size()) done_cv_.notify_all();
        }
    }
}

void ShardedSimulator::run_until(SimTime deadline) {
    for (;;) {
        // Drain first: a message posted during the previous window (or by
        // coordinator setup code) may be the earliest event anywhere.
        drain_lanes();
        SimTime t_min = SimTime::max();
        for (auto& s : sims_) t_min = std::min(t_min, s->next_event_time());
        if (t_min > deadline) break;
        // Exclusive edge one past the deadline so events *at* the deadline
        // run in the final window (guard the +1 against the sentinel).
        SimTime horizon = t_min + opts_.lookahead;
        if (deadline.ns < INT64_MAX && SimTime{deadline.ns + 1} < horizon) {
            horizon = SimTime{deadline.ns + 1};
        }
        run_window_parallel(horizon);
        // The shards' simulators enrol this (the constructing) thread in
        // the epoch domain; the barrier is its quiescent point.
        EpochDomain::poll();
        SimTime edge = std::min(horizon, deadline);
        for (auto& s : sims_) s->advance_to(edge);
        barrier_now_ = edge;
        ++windows_;
        shard_metrics().windows.inc();
    }
    for (auto& s : sims_) s->advance_to(deadline);
    barrier_now_ = deadline;
}

std::uint64_t ShardedSimulator::executed() const {
    std::uint64_t total = 0;
    for (std::uint64_t e : executed_) total += e;
    return total;
}

std::uint64_t ShardedSimulator::posts() const {
    return posts_.load(std::memory_order_relaxed);
}

std::vector<obs::TraceEvent> ShardedSimulator::merged_trace() const {
    struct Tagged {
        obs::TraceEvent ev;
        std::size_t shard;
    };
    std::vector<Tagged> all;
    for (std::size_t i = 0; i < buffers_.size(); ++i) {
        for (auto& ev : buffers_[i]->events()) {
            all.push_back(Tagged{std::move(ev), i});
        }
    }
    // Stable sort on (time, shard) keeps each shard's in-ring order as the
    // final tie-breaker — the documented deterministic merge rule.
    std::stable_sort(all.begin(), all.end(), [](const Tagged& a, const Tagged& b) {
        if (a.ev.at != b.ev.at) return a.ev.at < b.ev.at;
        return a.shard < b.shard;
    });
    std::vector<obs::TraceEvent> out;
    out.reserve(all.size());
    for (auto& t : all) out.push_back(std::move(t.ev));
    return out;
}

}  // namespace pmp::sim
