#include "eval/func_cache.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "common/logging.h"
#include "obs/metrics.h"
#include "tensor/kernels.h"

namespace focus
{

namespace
{

void
appendDouble(std::string &out, double v)
{
    char buf[48];
    std::snprintf(buf, sizeof buf, "%a", v);
    out += buf;
}

} // namespace

std::string
methodSignature(const MethodConfig &m)
{
    // Every field of every sub-config, unconditionally: fields that a
    // kind does not consult cost a few bytes and rule out any future
    // aliasing if a kind starts consulting them.
    std::string s;
    s.reserve(160);
    char buf[64];
    std::snprintf(buf, sizeof buf, "k%d;i%d;se%d;si%d;",
                  static_cast<int>(m.kind), m.int8 ? 1 : 0,
                  m.focus.sec_enable ? 1 : 0,
                  m.focus.sic_enable ? 1 : 0);
    s += buf;
    std::snprintf(buf, sizeof buf, "sec{%d,%d,", m.focus.sec.lanes,
                  static_cast<int>(m.focus.sec.select));
    s += buf;
    appendDouble(s, m.focus.sec.top_p);
    s += ',';
    appendDouble(s, m.focus.sec.threshold);
    s += "};sic{";
    appendDouble(s, static_cast<double>(m.focus.sic.threshold));
    std::snprintf(buf, sizeof buf, ",%d,%d,%d,%d,%" PRId64 ",%d};",
                  m.focus.sic.vector_size, m.focus.sic.block_f,
                  m.focus.sic.block_h, m.focus.sic.block_w,
                  m.focus.sic.m_tile, m.focus.sic.token_wise ? 1 : 0);
    s += buf;
    s += "ada{";
    appendDouble(s, m.adaptiv.sign_threshold);
    std::snprintf(buf, sizeof buf, "};cmc{%d,", m.cmc.search_radius);
    s += buf;
    appendDouble(s, m.cmc.sad_threshold);
    s += "};ff{";
    appendDouble(s, m.framefusion.reduction);
    s += ',';
    appendDouble(s, m.framefusion.merge_share);
    s += ',';
    appendDouble(s, m.framefusion.min_similarity);
    s += '}';
    return s;
}

std::string
functionalCacheKey(const std::string &model, const std::string &dataset,
                   const EvalOptions &opts, const MethodConfig &method)
{
    std::string key;
    key.reserve(model.size() + dataset.size() + 220);
    key += model;
    key += '\x1f';
    key += dataset;
    key += '\x1f';
    char buf[48];
    std::snprintf(buf, sizeof buf, "%" PRIu64 "\x1f%d\x1f", opts.seed,
                  opts.samples);
    key += buf;
    key += kernels::backendName(kernels::activeBackend());
    key += '\x1f';
    key += kernels::mathBackendName(kernels::activeMathBackend());
    key += '\x1f';
    key += methodSignature(method);
    return key;
}

FunctionalCache &
FunctionalCache::instance()
{
    static FunctionalCache cache;
    return cache;
}

MethodEval
FunctionalCache::getOrCompute(const std::string &key,
                              const std::function<MethodEval()> &compute)
{
    std::shared_ptr<Entry> entry;
    bool compute_here = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = map_.find(key);
        if (it == map_.end()) {
            entry = std::make_shared<Entry>();
            map_.emplace(key, entry);
            order_.push_back(key);
            ++misses_;
            compute_here = true;
            evictOverflowLocked();
        } else {
            entry = it->second;
            ++hits_;
        }
    }
    // Hit/miss totals are work counters: each distinct key computes
    // exactly once regardless of which thread wins the race, so the
    // split is thread-count invariant.
    if (obs::countersEnabled()) {
        static obs::Counter &hits =
            obs::MetricsRegistry::instance().counter(
                "func_cache.hits");
        static obs::Counter &misses =
            obs::MetricsRegistry::instance().counter(
                "func_cache.misses");
        (compute_here ? misses : hits).add(1);
    }

    if (compute_here) {
        try {
            MethodEval value = compute();
            {
                std::lock_guard<std::mutex> lock(mu_);
                entry->value = std::move(value);
                entry->ready = true;
            }
            cv_.notify_all();
        } catch (...) {
            {
                std::lock_guard<std::mutex> lock(mu_);
                entry->failed = true;
                auto it = map_.find(key);
                if (it != map_.end() && it->second == entry) {
                    map_.erase(it);
                    // Drop the key's eviction slot too: a retry pushes
                    // a fresh one, and a stale earlier copy would make
                    // evictOverflowLocked evict the retried entry
                    // ahead of older ones.
                    auto pos =
                        std::find(order_.begin(), order_.end(), key);
                    if (pos != order_.end()) {
                        order_.erase(pos);
                    }
                }
            }
            cv_.notify_all();
            throw;
        }
        // Sole writer, ready flag published under the lock above;
        // the entry is immutable from here on.
        return entry->value;
    }

    std::unique_lock<std::mutex> lock(mu_);
    if (!entry->ready && !entry->failed) {
        // Sched counter: whether a hit has to block on the computing
        // thread is a scheduling accident, not a property of the run.
        ++latch_waits_;
        if (obs::countersEnabled()) {
            static obs::Counter &waits =
                obs::MetricsRegistry::instance().schedCounter(
                    "func_cache.latch_waits");
            waits.add(1);
        }
    }
    cv_.wait(lock, [&] { return entry->ready || entry->failed; });
    if (entry->failed) {
        lock.unlock();
        return getOrCompute(key, compute);
    }
    return entry->value;
}

bool
FunctionalCache::contains(const std::string &key) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    return it != map_.end() && it->second->ready;
}

void
FunctionalCache::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    map_.clear();
    order_.clear();
    hits_ = 0;
    misses_ = 0;
    evictions_ = 0;
    latch_waits_ = 0;
}

void
FunctionalCache::setCapacity(std::size_t entries)
{
    if (entries == 0) {
        panic("FunctionalCache::setCapacity: capacity must be >= 1");
    }
    std::lock_guard<std::mutex> lock(mu_);
    capacity_ = entries;
    evictOverflowLocked();
}

std::size_t
FunctionalCache::capacity() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return capacity_;
}

FunctionalCache::Stats
FunctionalCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    Stats s;
    s.hits = hits_;
    s.misses = misses_;
    s.evictions = evictions_;
    s.latch_waits = latch_waits_;
    s.entries = map_.size();
    return s;
}

void
FunctionalCache::evictOverflowLocked()
{
    // Oldest-first among *ready* entries; in-flight computations are
    // pinned (evicting one would let a second caller recompute it).
    std::size_t scan = order_.size();
    while (map_.size() > capacity_ && scan-- > 0) {
        const std::string victim = std::move(order_.front());
        order_.pop_front();
        auto it = map_.find(victim);
        if (it == map_.end()) {
            continue; // stale order entry (cleared or re-keyed)
        }
        if (!it->second->ready) {
            order_.push_back(victim); // pinned: still computing
            continue;
        }
        map_.erase(it);
        ++evictions_;
        if (obs::countersEnabled()) {
            static obs::Counter &evictions =
                obs::MetricsRegistry::instance().counter(
                    "func_cache.evictions");
            evictions.add(1);
        }
    }
}

} // namespace focus
