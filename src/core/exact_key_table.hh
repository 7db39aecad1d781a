/**
 * @file
 * A flat open-addressing map from exact multi-word keys to values:
 * the level-2 store of the analysis devices (the collision-free
 * context table of IdealContextPredictor and the private
 * per-level-1-entry tables of AliasAnalyzer).
 *
 * A key is a fixed number of 64-bit words, chosen at construction
 * (at most kMaxKeyWords). Keys are compared exactly, word for word,
 * so two distinct keys never share a value. Each slot has a 32-bit
 * tag (0 = empty; otherwise high hash bits with the low bit forced
 * on, so most mismatches are rejected without reading the key) and a
 * row of key words followed by the value. Probing is linear, the
 * table stays at most three quarters full, keys are never removed,
 * and lookups never iterate, so the key order inside the table never
 * reaches an output. The per-record loops are written out by hand:
 * at one to a few words, a memcmp/memcpy call costs more than the
 * work it does.
 *
 * Both arrays are TableBuffers, not std::vectors. The tables double
 * to millions of slots while several sweep cells run at once, and
 * glibc keeps grown-away vector buffers resident, which shows in the
 * figure drivers' peak RSS (docs/perf.md, "Figure regeneration").
 */

#ifndef DFCM_CORE_EXACT_KEY_TABLE_HH
#define DFCM_CORE_EXACT_KEY_TABLE_HH

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "core/table_arena.hh"
#include "core/types.hh"

namespace vpred
{

/** Exact-key map from fixed-width word keys to values (see @file). */
class ExactKeyTable
{
  public:
    /** Widest key: an order-16 history of 64-bit values. */
    static constexpr unsigned kMaxKeyWords = 16;

    /** @param key_words Words per key, 1..kMaxKeyWords. */
    explicit ExactKeyTable(unsigned key_words)
        : key_words_(key_words), row_(key_words + 1)
    {
        assert(key_words >= 1 && key_words <= kMaxKeyWords);
        allocate(kInitialSlots);
    }

    /** Number of distinct keys stored. */
    std::size_t size() const { return size_; }

    /** The value under @p key (key_words words), 0 when absent. */
    Value
    find(const std::uint64_t* key) const
    {
        const std::size_t s = slotOf(hashKey(key), key);
        return tags_[s] == 0 ? 0 : rows_[s * row_ + key_words_];
    }

    /** The value under @p key, inserted as 0 when absent. The
     *  reference stays valid until the next findOrInsert(). */
    Value&
    findOrInsert(const std::uint64_t* key)
    {
        if ((size_ + 1) * 4 > tags_.size() * 3)
            grow();
        const std::uint64_t h = hashKey(key);
        const std::size_t s = slotOf(h, key);
        if (tags_[s] == 0) {
            tags_[s] = tagOf(h);
            for (unsigned i = 0; i < key_words_; ++i)
                rows_[s * row_ + i] = key[i];
            ++size_;
        }
        return rows_[s * row_ + key_words_];  // arena memory is zero
    }

  private:
    static constexpr std::size_t kInitialSlots = 1024;

    static std::uint64_t
    mix(std::uint64_t x)
    {
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
        return x ^ (x >> 31);
    }

    static std::uint32_t
    tagOf(std::uint64_t h)
    {
        return static_cast<std::uint32_t>(h >> 32) | 1u;
    }

    std::uint64_t
    hashKey(const std::uint64_t* key) const
    {
        std::uint64_t h = 0x9e3779b97f4a7c15ull;
        for (unsigned i = 0; i < key_words_; ++i)
            h = mix(h ^ key[i]);
        return h;
    }

    bool
    sameKey(std::size_t s, const std::uint64_t* key) const
    {
        const std::uint64_t* row = &rows_[s * row_];
        for (unsigned i = 0; i < key_words_; ++i) {
            if (row[i] != key[i])
                return false;
        }
        return true;
    }

    /** The slot holding @p key (hash @p h), or the empty slot where
     *  it would be inserted. */
    std::size_t
    slotOf(std::uint64_t h, const std::uint64_t* key) const
    {
        std::size_t s = h & mask_;
        while (tags_[s] != 0 && !(tags_[s] == tagOf(h) && sameKey(s, key)))
            s = (s + 1) & mask_;
        return s;
    }

    void
    allocate(std::size_t slots)
    {
        tags_ = TableBuffer<std::uint32_t>(slots);
        rows_ = TableBuffer<std::uint64_t>(slots * row_);
        mask_ = slots - 1;
    }

    /** Double the slot count and re-insert every key. */
    void
    grow()
    {
        TableBuffer<std::uint32_t> old_tags = std::move(tags_);
        TableBuffer<std::uint64_t> old_rows = std::move(rows_);
        allocate(old_tags.size() * 2);
        for (std::size_t o = 0; o < old_tags.size(); ++o) {
            if (old_tags[o] == 0)
                continue;
            const std::uint64_t* row = &old_rows[o * row_];
            const std::size_t s = slotOf(hashKey(row), row);
            tags_[s] = old_tags[o];
            std::copy_n(row, row_, &rows_[s * row_]);
        }
    }

    unsigned key_words_;
    std::size_t row_;  //!< words per slot: the key, then the value
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
    TableBuffer<std::uint32_t> tags_;
    TableBuffer<std::uint64_t> rows_;
};

} // namespace vpred

#endif // DFCM_CORE_EXACT_KEY_TABLE_HH
