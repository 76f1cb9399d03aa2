/**
 * @file
 * Flat hash set of packed undirected edge keys.
 *
 * The generators dedupe millions of edge draws per graph. A
 * node-allocating std::unordered_set spends most of that time in the
 * allocator and chasing bucket pointers; this set keeps the keys in one
 * power-of-two array with linear probing and backward-shift erase (no
 * tombstones), so lookups touch one or two cache lines.
 */

#ifndef DITILE_GRAPH_EDGE_KEY_SET_HH
#define DITILE_GRAPH_EDGE_KEY_SET_HH

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace ditile::graph {

/** Pack an undirected edge into one 64-bit key (endpoint order free). */
inline std::uint64_t
edgeKey(VertexId u, VertexId v)
{
    if (u > v)
        std::swap(u, v);
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(u))
            << 32) |
           static_cast<std::uint32_t>(v);
}

/**
 * Open-addressing set of edgeKey() values. The all-ones key is the
 * empty-slot marker; it would need vertex id -1 and never occurs.
 */
class EdgeKeySet
{
  public:
    /** Empty set sized to hold `expected` keys without growing. */
    explicit EdgeKeySet(std::size_t expected = 0)
    {
        std::size_t cap = 16;
        while (cap < expected * 2)
            cap *= 2;
        resize(cap);
    }

    std::size_t size() const { return size_; }

    /** Slot count (a power of two; at most half are ever full). */
    std::size_t capacity() const { return slots_.size(); }

    /** Slot where `key`'s probe sequence starts. */
    std::size_t
    homeSlot(std::uint64_t key) const
    {
        // Fold the high word in, then keep the top bits of the product
        // with 2^64/phi (Fibonacci hashing).
        return static_cast<std::size_t>(
            ((key ^ (key >> 32)) * 0x9e3779b97f4a7c15ULL) >> shift_);
    }

    bool contains(std::uint64_t key) const
    {
        return slots_[find(key)] == key;
    }

    /** Insert `key`; false if it was already present. */
    bool
    insert(std::uint64_t key)
    {
        DITILE_ASSERT(key != kEmpty, "reserved edge key");
        std::size_t i = find(key);
        if (slots_[i] == key)
            return false;
        if ((size_ + 1) * 2 > slots_.size()) {
            grow();
            i = find(key);
        }
        slots_[i] = key;
        ++size_;
        return true;
    }

    /** Erase `key`; false if it was absent. */
    bool
    erase(std::uint64_t key)
    {
        std::size_t hole = find(key);
        if (slots_[hole] != key)
            return false;
        // Backward shift: pull later members of the cluster into the
        // hole when the hole lies on their probe path, so lookups never
        // stop early at a gap.
        for (std::size_t j = (hole + 1) & mask_; slots_[j] != kEmpty;
             j = (j + 1) & mask_) {
            const std::size_t home = homeSlot(slots_[j]);
            if (((j - home) & mask_) >= ((j - hole) & mask_)) {
                slots_[hole] = slots_[j];
                hole = j;
            }
        }
        slots_[hole] = kEmpty;
        --size_;
        return true;
    }

  private:
    static constexpr std::uint64_t kEmpty = ~std::uint64_t(0);

    /** Slot holding `key`, or the empty slot that ends its probe. */
    std::size_t
    find(std::uint64_t key) const
    {
        std::size_t i = homeSlot(key);
        while (slots_[i] != key && slots_[i] != kEmpty)
            i = (i + 1) & mask_;
        return i;
    }

    void
    resize(std::size_t cap)
    {
        slots_.assign(cap, kEmpty);
        mask_ = cap - 1;
        shift_ = 64 - std::countr_zero(cap);
    }

    void
    grow()
    {
        std::vector<std::uint64_t> old = std::move(slots_);
        resize(old.size() * 2);
        for (std::uint64_t key : old)
            if (key != kEmpty)
                slots_[find(key)] = key;
    }

    std::vector<std::uint64_t> slots_;
    std::size_t mask_ = 0;
    int shift_ = 64;
    std::size_t size_ = 0;
};

} // namespace ditile::graph

#endif // DITILE_GRAPH_EDGE_KEY_SET_HH
