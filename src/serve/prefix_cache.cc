#include "serve/prefix_cache.h"

#include <algorithm>
#include <cmath>

#include "common/half.h"
#include "common/logging.h"
#include "common/rng.h"
#include "obs/metrics.h"

namespace focus
{

namespace
{

/** splitmix64 finalizer: derives independent probe hashes. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Conversion scratch: slabs stream through in fixed-size passes. */
constexpr std::size_t kConvertChunk = 4096;

} // namespace

uint64_t
prefixKeyHash(const std::string &key)
{
    // FNV-1a 64-bit — stable across platforms, unlike std::hash.
    uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : key) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

PrefixCache::PrefixCache(const PrefixCacheConfig &config)
    : config_(config), enabled_(config.enabled())
{
    if (!enabled_) {
        return;
    }
    if (config_.sketch_bits <= 0 || config_.sketch_hashes <= 0) {
        panic("PrefixCache: sketch_bits and sketch_hashes must be "
              "positive (got %d / %d)",
              config_.sketch_bits, config_.sketch_hashes);
    }
    arena_ = std::make_unique<SlabArena>(config_.budget_bytes);
    sketch_.assign(
        (static_cast<size_t>(config_.sketch_bits) + 63) / 64, 0);
}

PrefixCache::~PrefixCache() = default;

bool
PrefixCache::sketchTestAndSet(const std::string &key)
{
    const uint64_t base = prefixKeyHash(key);
    bool all_set = true;
    for (int i = 0; i < config_.sketch_hashes; ++i) {
        const uint64_t bit = mix64(base + static_cast<uint64_t>(i)) %
            static_cast<uint64_t>(config_.sketch_bits);
        uint64_t &word = sketch_[bit >> 6];
        const uint64_t mask = 1ull << (bit & 63u);
        if ((word & mask) == 0) {
            all_set = false;
            word |= mask;
        }
    }
    return all_set;
}

double
PrefixCache::storePayload(void *dst, const SlabSpec &spec) const
{
    // Deterministic synthetic activation payload: the functional
    // model's retained rows live at reduced scale, so the slab stores
    // a seed-reproducible stand-in with realistic magnitudes, and the
    // round-trip error below is the compression tier's true fp16/bf16
    // relative RMS delta on that payload.
    Rng rng(spec.seed);
    uint16_t *out = static_cast<uint16_t *>(dst);
    int64_t remaining = spec.rows * spec.cols;
    float src[kConvertChunk];
    double num = 0.0;
    double den = 0.0;
    while (remaining > 0) {
        const std::size_t n = static_cast<std::size_t>(
            std::min<int64_t>(remaining,
                              static_cast<int64_t>(kConvertChunk)));
        for (std::size_t i = 0; i < n; ++i) {
            src[i] = static_cast<float>(rng.gaussian());
        }
        if (config_.format == SlabFormat::Fp16) {
            floatToHalfN(src, out, n);
            for (std::size_t i = 0; i < n; ++i) {
                const double d = static_cast<double>(src[i]) -
                    static_cast<double>(halfBitsToFloat(out[i]));
                num += d * d;
                den += static_cast<double>(src[i]) *
                    static_cast<double>(src[i]);
            }
        } else {
            floatToBf16N(src, out, n);
            for (std::size_t i = 0; i < n; ++i) {
                const double d = static_cast<double>(src[i]) -
                    static_cast<double>(bf16BitsToFloat(out[i]));
                num += d * d;
                den += static_cast<double>(src[i]) *
                    static_cast<double>(src[i]);
            }
        }
        out += n;
        remaining -= static_cast<int64_t>(n);
    }
    return den > 0.0 ? std::sqrt(num / den) : 0.0;
}

void
PrefixCache::evictOne()
{
    if (lru_.empty()) {
        panic("PrefixCache::evictOne: cache is empty");
    }
    const std::string key = lru_.back();
    const auto it = entries_.find(key);
    arena_->free(it->second.data, it->second.spec.bytes());
    stats_.bytes_resident -= it->second.spec.bytes();
    stats_.full_bytes_resident -= it->second.spec.full_bytes;
    entries_.erase(it);
    lru_.pop_back();
    stats_.evictions += 1;
    if (obs::countersEnabled()) {
        static obs::Counter &c = obs::MetricsRegistry::instance()
            .counter("serve.prefix_cache.evictions");
        c.add(1);
    }
}

bool
PrefixCache::lookup(const std::string &key)
{
    if (!enabled_) {
        return false;
    }
    stats_.lookups += 1;
    if (obs::countersEnabled()) {
        static obs::Counter &c = obs::MetricsRegistry::instance()
            .counter("serve.prefix_cache.lookups");
        c.add(1);
    }
    const auto it = entries_.find(key);
    if (it == entries_.end()) {
        stats_.misses += 1;
        if (obs::countersEnabled()) {
            static obs::Counter &c = obs::MetricsRegistry::instance()
                .counter("serve.prefix_cache.misses");
            c.add(1);
        }
        return false;
    }
    stats_.hits += 1;
    if (obs::countersEnabled()) {
        static obs::Counter &c = obs::MetricsRegistry::instance()
            .counter("serve.prefix_cache.hits");
        c.add(1);
    }
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return true;
}

void
PrefixCache::admit(const std::string &key, const SlabSpec &spec)
{
    if (!enabled_ || entries_.count(key) > 0) {
        return;
    }
    if (spec.rows <= 0 || spec.cols <= 0) {
        panic("PrefixCache::admit: empty slab for key '%s'",
              key.c_str());
    }
    if (!sketchTestAndSet(key)) {
        // First sighting: the doorkeeper absorbs it.  Only a repeat
        // miss proves the prefix is worth resident bytes.
        stats_.rejected += 1;
        return;
    }
    const int64_t bytes = spec.bytes();
    void *p = arena_->alloc(bytes);
    while (p == nullptr && !lru_.empty()) {
        evictOne();
        p = arena_->alloc(bytes);
    }
    if (p == nullptr) {
        // Larger than the whole budget even with the cache empty.
        stats_.rejected += 1;
        return;
    }
    const double err = storePayload(p, spec);
    lru_.push_front(key);
    entries_[key] = Entry{spec, p, lru_.begin()};
    stats_.admissions += 1;
    stats_.bytes_resident += bytes;
    stats_.bytes_peak =
        std::max(stats_.bytes_peak, stats_.bytes_resident);
    stats_.full_bytes_resident += spec.full_bytes;
    stats_.err_sum += err;
    stats_.err_slabs += 1;
    if (obs::countersEnabled()) {
        static obs::Counter &c = obs::MetricsRegistry::instance()
            .counter("serve.prefix_cache.admissions");
        c.add(1);
    }
}

} // namespace focus
