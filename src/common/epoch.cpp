#include "common/epoch.h"

#include <algorithm>

#include "obs/metrics.h"

namespace pmp {

struct EpochDomain::Slot {
    std::atomic<std::uint64_t> local{0};
    std::atomic<bool> active{false};
};

namespace {
// Enrollment refcount on this thread, and the participant the first
// enrolment registered (nullptr when the thread already had one).
thread_local int tl_enrollments = 0;
thread_local EpochDomain::Participant* tl_enrolled = nullptr;

struct EpochMetrics {
    obs::Counter& retired = obs::Registry::global().counter("rt.epoch.retired");
    obs::Counter& reclaimed = obs::Registry::global().counter("rt.epoch.reclaimed");
};

EpochMetrics& epoch_metrics() {
    static EpochMetrics m;
    return m;
}
}  // namespace

EpochDomain::EpochDomain() = default;

EpochDomain::~EpochDomain() {
    // Last chance: nothing can be mid-dispatch if the domain itself is
    // dying, so run every deleter regardless of epochs.
    std::vector<Retired> left;
    {
        std::lock_guard<std::mutex> lock(mu_);
        left.swap(retired_);
        pending_.store(0, std::memory_order_relaxed);
    }
    for (auto& r : left) r.reclaim();
    std::lock_guard<std::mutex> lock(mu_);
    for (Slot* s : slots_) delete s;
}

EpochDomain& EpochDomain::global() {
    static EpochDomain domain;
    return domain;
}

// ---------------------------------------------------------- Participant ----

EpochDomain::Participant::Participant(EpochDomain& domain)
    : domain_(domain), slot_(domain.register_participant()) {
    if (&domain_ == &EpochDomain::global()) {
        prev_ = tl_.participant;
        tl_.participant = this;
    }
}

EpochDomain::Participant::~Participant() {
    if (tl_.participant == this) {
        tl_.participant = prev_;
        if (tl_.participant == nullptr && tl_.depth > 0 && !tl_.pinned) {
            // Leaving the domain mid-dispatch (a simulator destroyed from
            // inside advice): the enclosing guards still walk a table, so
            // hand them over to the shared guard count.
            pin();
        }
    }
    domain_.unregister_participant(slot_);
    domain_.reap();
}

void EpochDomain::Participant::announce() {
    slot_->local.store(domain_.epoch_.load(std::memory_order_seq_cst),
                       std::memory_order_seq_cst);
}

void EpochDomain::Participant::quiescent() {
    if (tl_.participant == this && tl_.depth > 0) return;  // mid-dispatch
    announce();
    domain_.reap();
}

EpochDomain::Slot* EpochDomain::register_participant() {
    std::lock_guard<std::mutex> lock(mu_);
    Slot* s = nullptr;
    for (Slot* candidate : slots_) {
        if (!candidate->active.load(std::memory_order_relaxed)) {
            s = candidate;
            break;
        }
    }
    if (s == nullptr) {
        s = new Slot();
        slots_.push_back(s);
    }
    s->active.store(true, std::memory_order_relaxed);
    s->local.store(epoch_.load(), std::memory_order_seq_cst);
    return s;
}

void EpochDomain::unregister_participant(Slot* slot) {
    std::lock_guard<std::mutex> lock(mu_);
    slot->active.store(false, std::memory_order_relaxed);
}

// ----------------------------------------------------------- Enrollment ----

EpochDomain::Enrollment::Enrollment() {
    if (tl_enrollments++ == 0 && tl_.participant == nullptr) {
        tl_enrolled = new Participant(EpochDomain::global());
    }
}

EpochDomain::Enrollment::~Enrollment() {
    if (--tl_enrollments == 0 && tl_enrolled != nullptr) {
        delete tl_enrolled;
        tl_enrolled = nullptr;
    }
}

// ------------------------------------------------------------ ReadGuard ----

void EpochDomain::pin() {
    global().guards_.fetch_add(1, std::memory_order_seq_cst);
    tl_.pinned = true;
}

void EpochDomain::release() {
    // Only the outermost guard gets here (guards are strictly nested).
    if (tl_.pinned) {
        tl_.pinned = false;
        global().guards_.fetch_sub(1, std::memory_order_seq_cst);
    }
    global().reap();
}

// --------------------------------------------------------------- domain ----

void EpochDomain::retire(std::function<void()> reclaim) {
    // Stamp the entry with a *new* epoch: it is safe only once every
    // participant has quiesced after this point.
    std::uint64_t e = epoch_.fetch_add(1, std::memory_order_seq_cst) + 1;
    {
        std::lock_guard<std::mutex> lock(mu_);
        retired_.push_back(Retired{e, std::move(reclaim)});
        pending_.store(retired_.size(), std::memory_order_seq_cst);
    }
    retired_total_.fetch_add(1, std::memory_order_relaxed);
    epoch_metrics().retired.inc();
    reap();
}

std::vector<EpochDomain::Retired> EpochDomain::collect_ripe() {
    std::vector<Retired> ripe;
    std::lock_guard<std::mutex> lock(mu_);
    if (retired_.empty()) return ripe;
    // Any live guard anywhere may have been taken before any retirement we
    // know about — defer everything. (Guards taken *after* a retirement
    // can only observe the new pointer, so this is conservative but safe.)
    // A guard on the *calling* thread pins the caller's own entries too:
    // withdraw-from-inside-advice must not free the table being walked.
    // The check runs under the lock, after the entries it clears are
    // visible: every entry in retired_ was unpublished before it was
    // queued, so a guard taken after this load reads the new pointer. A
    // check made before the lock would also clear entries queued after it,
    // whose old pointer a guard taken in between may still be walking.
    if (guards_.load(std::memory_order_seq_cst) != 0) return ripe;
    std::uint64_t min_local = UINT64_MAX;
    for (Slot* s : slots_) {
        if (!s->active.load(std::memory_order_relaxed)) continue;
        min_local = std::min(min_local, s->local.load(std::memory_order_seq_cst));
    }
    std::vector<Retired> keep;
    for (auto& r : retired_) {
        if (r.epoch <= min_local) {
            ripe.push_back(std::move(r));
        } else {
            keep.push_back(std::move(r));
        }
    }
    retired_.swap(keep);
    pending_.store(retired_.size(), std::memory_order_seq_cst);
    return ripe;
}

void EpochDomain::reap() {
    // seq_cst pairs with retire()'s store: a guard released concurrently
    // with a retirement either sees the entry here or lets the retiring
    // thread's own reap past the guard count.
    if (pending_.load(std::memory_order_seq_cst) == 0) return;
    // A participant of this domain outside any guard holds no table
    // pointer: reaping is one of its quiescent points. (This is what lets
    // a weave or withdraw on a simulator's thread reclaim at once.)
    if (tl_.participant != nullptr && &tl_.participant->domain_ == this && tl_.depth == 0) {
        tl_.participant->announce();
    }
    // Deleters run outside the lock: reclaiming a Woven can tear down
    // aspect state that itself logs, meters, or retires more entries.
    std::vector<Retired> ripe = collect_ripe();
    if (ripe.empty()) return;
    for (auto& r : ripe) r.reclaim();
    reclaimed_total_.fetch_add(ripe.size(), std::memory_order_relaxed);
    for (std::size_t i = 0; i < ripe.size(); ++i) epoch_metrics().reclaimed.inc();
}

std::size_t EpochDomain::pending() const { return pending_.load(std::memory_order_seq_cst); }

}  // namespace pmp
