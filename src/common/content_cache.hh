/**
 * @file
 * ContentCache: the one memo behind every content-addressed cache.
 *
 * Snapshot plan sets (sim::PlanCache), the workload digests
 * (workload::DigestCache) and the Eq. 8-16 communication model
 * (tiling::CommModelCache) are pure functions of their key, so all
 * three memoize them under the same rules:
 *
 *   - obtain() looks the key up under the lock and builds a miss
 *     outside it, so misses on different keys proceed in parallel.
 *     Racing misses on one key each build; the first finished writer
 *     publishes and every caller receives the published value.
 *   - Every lookup counts as exactly one hit or one miss.
 *   - An optional capacity, enforced only by evictToCapacity() at a
 *     caller's serial point, so a value pinned by in-flight work is
 *     never yanked mid-use. Recency advances only in touch(), so the
 *     eviction order is a pure function of the serial touch sequence.
 *   - Trace instants and metric names are fixed at construction; an
 *     unnamed cache emits neither.
 */

#ifndef DITILE_COMMON_CONTENT_CACHE_HH
#define DITILE_COMMON_CONTENT_CACHE_HH

#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/trace.hh"

namespace ditile {

template <typename Key, typename Value,
          typename Hash = std::hash<Key>>
class ContentCache
{
  public:
    /** Unnamed: no trace instants and no metrics. */
    ContentCache() = default;

    /**
     * Named: a lookup emits a "<trace_name> hit" or "<trace_name>
     * miss" instant (category "cache", on the caller's cache track,
     * with the key as 16 hex digits) and bumps "<metric>.hits" or
     * "<metric>.misses"; an eviction bumps "<metric>.evictions".
     */
    ContentCache(const std::string &trace_name,
                 const std::string &metric)
        : named_(true), hitInstant_(trace_name + " hit"),
          missInstant_(trace_name + " miss"),
          hitMetric_(metric + ".hits"), missMetric_(metric + ".misses"),
          evictionMetric_(metric + ".evictions")
    {
        static_assert(std::is_integral_v<Key>,
                      "named caches print their key as hex");
    }

    /**
     * The published value for `key`, calling `build()` (a pure
     * function of the key) on a miss.
     */
    template <typename Build>
    Value
    obtain(const Key &key, Build &&build)
    {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            const auto it = entries_.find(key);
            if (it != entries_.end()) {
                ++hits_;
                Value cached = it->second;
                lock.unlock();
                // Observability fires outside the critical section;
                // lookups happen at serial points of a run, so traces
                // stay deterministic.
                observe(hitInstant_, hitMetric_, key);
                return cached;
            }
        }
        observe(missInstant_, missMetric_, key);
        Value built = build();
        std::lock_guard<std::mutex> lock(mutex_);
        ++misses_;
        return entries_.emplace(key, std::move(built)).first->second;
    }

    /**
     * Whether a value for `key` is published. A hit predicts that
     * obtain() will be served from cache; only meaningful from serial
     * points, since concurrent writers may publish in between.
     */
    bool
    contains(const Key &key) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return entries_.find(key) != entries_.end();
    }

    /** Bound the entry count; 0 (the default) means unbounded. */
    void
    setCapacity(std::size_t capacity)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        capacity_ = capacity;
    }

    std::size_t
    capacity() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return capacity_;
    }

    /** Mark `key` as most recently used. */
    void
    touch(const Key &key)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        recency_[key] = ++touchSeq_;
    }

    /**
     * Evict least-recently-touched entries until size() <= capacity
     * (no-op when unbounded). Entries never touched go first, in
     * ascending key order, so hash-map order never leaks into the
     * choice. Call from serial points only; returns the evicted keys
     * so callers can invalidate hit predictions.
     */
    std::vector<Key>
    evictToCapacity()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::vector<Key> evicted;
        if (capacity_ == 0)
            return evicted;
        while (entries_.size() > capacity_) {
            const Key *victim = nullptr;
            std::uint64_t victim_recency = 0;
            for (const auto &[key, value] : entries_) {
                const auto it = recency_.find(key);
                const std::uint64_t r =
                    it == recency_.end() ? 0 : it->second;
                if (!victim || r < victim_recency ||
                    (r == victim_recency && key < *victim)) {
                    victim = &key;
                    victim_recency = r;
                }
            }
            evicted.push_back(*victim);
            recency_.erase(evicted.back());
            entries_.erase(evicted.back());
            ++evictions_;
            if (named_)
                Tracer::global().addMetric(evictionMetric_, 1);
        }
        return evicted;
    }

    std::uint64_t
    hits() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return hits_;
    }

    std::uint64_t
    misses() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return misses_;
    }

    std::uint64_t
    evictions() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return evictions_;
    }

    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return entries_.size();
    }

    /** Drop every entry, the recency record and the counters. */
    void
    clear()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        entries_.clear();
        recency_.clear();
        touchSeq_ = 0;
        hits_ = 0;
        misses_ = 0;
        evictions_ = 0;
    }

  private:
    void
    observe(const std::string &instant, const std::string &metric,
            const Key &key) const
    {
        if (!named_)
            return;
        if constexpr (std::is_integral_v<Key>) {
            Tracer &tracer = Tracer::global();
            if (tracer.traceEnabled()) {
                char hex[24];
                std::snprintf(hex, sizeof(hex), "%016llx",
                              static_cast<unsigned long long>(key));
                TraceEvent ev;
                ev.addArg("key", std::string(hex));
                tracer.instant("cache", instant,
                               Tracer::trackBase() +
                                   Tracer::kCacheTrack,
                               std::move(ev));
            }
        }
        Tracer::global().addMetric(metric, 1);
    }

    const bool named_ = false;
    const std::string hitInstant_;
    const std::string missInstant_;
    const std::string hitMetric_;
    const std::string missMetric_;
    const std::string evictionMetric_;

    mutable std::mutex mutex_;
    std::unordered_map<Key, Value, Hash> entries_;
    std::unordered_map<Key, std::uint64_t, Hash> recency_;
    std::uint64_t touchSeq_ = 0;
    std::size_t capacity_ = 0; ///< 0 = unbounded.
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace ditile

#endif // DITILE_COMMON_CONTENT_CACHE_HH
