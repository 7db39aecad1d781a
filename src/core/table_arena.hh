/**
 * @file
 * The table arena: the repository's single home for hot-table
 * memory. repro-lint: allow is not needed here — the
 * portability/raw-mmap rule names this file (with trace_io and the
 * trace store) as the only sanctioned callers of the raw page-level
 * allocation APIs.
 *
 * Every hot table in the reproduction — the multi-geometry level-2
 * columns (up to 2^28 x u32 each), the per-entry hashed-history bank
 * (the service's per-stream store) and the service SlotMap bucket
 * arrays — used to live in std::vector. That is correct but leaves
 * two measurable costs on the floor at the paper's realistic table
 * sizes:
 *
 *   - TLB pressure: a 4 MiB level-2 column spans 1024 4 KiB pages;
 *     an FS R-k probe stream touches them near-uniformly, so at
 *     2^20-entry tables the dTLB miss rate rivals the cache miss
 *     rate. Backing the table with transparent huge pages
 *     (madvise(MADV_HUGEPAGE)) collapses it to two 2 MiB entries.
 *   - NUMA placement: std::vector zero-fills eagerly on the
 *     constructing thread, so a shard built on the main thread has
 *     its tables faulted onto the main thread's node even though the
 *     drain thread owns them forever after. The arena's mmap mode
 *     defers instantiation to the first touch, which is performed by
 *     the owning thread in steady state — the REPRO_SERVICE_SCALING
 *     sweep gets first-touch-correct placement for free.
 *
 * TableBuffer<T> is the vessel: a relocatable, zero-initialized,
 * 64-byte-aligned buffer with a deliberately small std::vector-like
 * surface (resize/assign/fill(0)/data/iteration). Allocations at or
 * above kHugeThresholdBytes come from an anonymous private mapping,
 * aligned to the 2 MiB huge-page boundary by over-allocating and
 * trimming, and hinted with MADV_HUGEPAGE; failure of the hint (THP
 * disabled, old kernel) is silently tolerated — the mapping still
 * works on 4 KiB pages — and failure of mmap itself falls back to
 * the plain allocator. Smaller buffers use 64-byte-aligned operator
 * new. Sanitizer builds default to the plain-new mode so ASan
 * redzones and TSan instrumentation see every table byte
 * (REPRO_ARENA=new|mmap|auto overrides; see docs/api.md).
 *
 * T must be trivially copyable and trivially destructible, with
 * all-bits-zero as its power-on value — the arena zero-fills with
 * pages or memset, never with constructors. The tables stored here
 * (u32 slots, u64 values, the SlotMap's POD bucket) all satisfy
 * this, and a static_assert holds the door.
 */

#ifndef DFCM_CORE_TABLE_ARENA_HH
#define DFCM_CORE_TABLE_ARENA_HH

#include <cstddef>
#include <cstring>
#include <type_traits>
#include <utility>

namespace vpred
{

/** How a TableBuffer's bytes are (to be) provided. */
enum class ArenaBacking
{
    None,  //!< empty buffer, no allocation
    New,   //!< 64-byte-aligned operator new, memset-zeroed eagerly
    Mmap,  //!< anonymous mapping, MADV_HUGEPAGE-hinted, lazy zero pages
};

/** The arena allocation policy (resolved from REPRO_ARENA). */
enum class ArenaMode
{
    Auto,  //!< mmap for big buffers, new for small (sanitizers: new)
    Mmap,  //!< force the mapping path for every eligible buffer
    New,   //!< force plain allocation (the sanitizer-safe mode)
};

namespace table_arena
{

/** Buffers at least this big take the mapping path (in Auto/Mmap
 *  mode): one transparent huge page. Below it the TLB win is nil and
 *  page granularity would waste more than it saves. */
inline constexpr std::size_t kHugeThresholdBytes =
        std::size_t{2} * 1024 * 1024;

/** Alignment every backing guarantees (one cache line). The mapping
 *  path aligns to kHugeThresholdBytes so THP can promote. */
inline constexpr std::size_t kAlignBytes = 64;

/** The process-wide mode: REPRO_ARENA (auto/mmap/new), resolved once
 *  on first use; malformed values are fatal (exit 2). Sanitizer
 *  builds default to New instead of Auto. */
ArenaMode activeMode();

/** The pure planning rule: resolved backing for a @p bytes-sized
 *  allocation under @p mode (None for zero bytes). Exposed so tests
 *  can pin the policy without touching the process environment. */
ArenaBacking planBackingFor(std::size_t bytes, ArenaMode mode);

/** planBackingFor under the active (REPRO_ARENA) mode. */
ArenaBacking planBacking(std::size_t bytes);

/** Allocate @p bytes zeroed bytes under an explicit @p mode; reports
 *  the backing actually used (mmap refusal falls back to New). Never
 *  returns nullptr for nonzero @p bytes — allocation failure is
 *  fatal. */
void* allocateWith(std::size_t bytes, ArenaMode mode,
                   ArenaBacking& backing);

/** allocateWith under the active (REPRO_ARENA) mode. */
void* allocate(std::size_t bytes, ArenaBacking& backing);

/** Release a buffer obtained from allocate(). */
void deallocate(void* p, std::size_t bytes, ArenaBacking backing);

} // namespace table_arena

/**
 * A hot-table buffer: zero-initialized, 64-byte-aligned, relocatable
 * storage for trivially-copyable table slots. Grows like a vector
 * (geometric capacity, contents preserved, new tail zeroed) so the
 * growing level-1 bank of a service shard and the SlotMap can live
 * here too.
 */
template <class T>
class TableBuffer
{
    static_assert(std::is_trivially_copyable_v<T>
                          && std::is_trivially_destructible_v<T>,
                  "the arena zero-fills and memcpy-moves its tables");

  public:
    TableBuffer() = default;
    /** @p n zero slots. */
    explicit TableBuffer(std::size_t n) { resize(n); }
    ~TableBuffer() { release(); }

    TableBuffer(TableBuffer&& other) noexcept { steal(other); }
    TableBuffer&
    operator=(TableBuffer&& other) noexcept
    {
        if (this != &other) {
            release();
            steal(other);
        }
        return *this;
    }
    TableBuffer(const TableBuffer&) = delete;
    TableBuffer& operator=(const TableBuffer&) = delete;

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    T* data() { return data_; }
    const T* data() const { return data_; }
    T* begin() { return data_; }
    T* end() { return data_ + size_; }
    const T* begin() const { return data_; }
    const T* end() const { return data_ + size_; }
    T& operator[](std::size_t i) { return data_[i]; }
    const T& operator[](std::size_t i) const { return data_[i]; }

    /** The backing of the current allocation (None when empty). */
    ArenaBacking backing() const { return backing_; }

    /**
     * Pin this buffer to an explicit arena mode instead of the
     * process-wide activeMode(), re-homing the current allocation
     * (contents preserved) if its backing would change. This lets an
     * A/B time the plain-page std::vector-equivalent baseline and
     * the huge-page arena path head-to-head in one process —
     * activeMode() itself is resolved once and deliberately
     * immutable.
     */
    void
    setArenaMode(ArenaMode m)
    {
        mode_ = m;
        mode_set_ = true;
        if (capacity_ != 0
            && table_arena::planBackingFor(capacity_ * sizeof(T), m)
                       != backing_) {
            // reallocate() ends in release(), which clears size_ for
            // its resize() caller to re-set — restore it here or the
            // re-homed buffer would report empty (and fillZero would
            // silently stop resetting the table).
            const std::size_t n = size_;
            reallocate(capacity_);
            size_ = n;
        }
    }

    /**
     * Grow or shrink to @p n slots. Growth within capacity just
     * extends the view — under the mmap backing the new tail is
     * untouched kernel zero pages, so its first fault lands on the
     * toucher's NUMA node. Growth past capacity reallocates
     * geometrically and memcpy-moves the live prefix. Shrinking
     * keeps the allocation and re-zeroes the abandoned tail so a
     * later regrow still sees power-on state.
     */
    void
    resize(std::size_t n)
    {
        if (n > capacity_) {
            std::size_t cap = capacity_ == 0 ? n : capacity_;
            while (cap < n)
                cap *= 2;
            reallocate(cap);
        } else if (n < size_) {
            std::memset(static_cast<void*>(data_ + n), 0,
                        (size_ - n) * sizeof(T));
        }
        size_ = n;
    }

    /** Discard contents: @p n zero slots (the vector::assign(n, {})
     *  pattern the SlotMap uses). */
    void
    assign(std::size_t n)
    {
        fillZero();
        resize(n);
    }

    /** Zero every live slot in place (power-on reset). */
    void
    fillZero()
    {
        if (size_ != 0)
            std::memset(static_cast<void*>(data_), 0,
                        size_ * sizeof(T));
    }

  private:
    void
    reallocate(std::size_t cap)
    {
        ArenaBacking backing = ArenaBacking::None;
        void* p = table_arena::allocateWith(
                cap * sizeof(T),
                mode_set_ ? mode_ : table_arena::activeMode(), backing);
        if (size_ != 0)
            std::memcpy(p, data_, size_ * sizeof(T));
        release();
        data_ = static_cast<T*>(p);
        capacity_ = cap;
        backing_ = backing;
    }

    void
    release()
    {
        if (data_ != nullptr)
            table_arena::deallocate(data_, capacity_ * sizeof(T),
                                    backing_);
        data_ = nullptr;
        size_ = 0;
        capacity_ = 0;
        backing_ = ArenaBacking::None;
    }

    void
    steal(TableBuffer& other)
    {
        data_ = std::exchange(other.data_, nullptr);
        size_ = std::exchange(other.size_, 0);
        capacity_ = std::exchange(other.capacity_, 0);
        backing_ = std::exchange(other.backing_, ArenaBacking::None);
        mode_ = other.mode_;
        mode_set_ = other.mode_set_;
    }

    T* data_ = nullptr;
    std::size_t size_ = 0;
    std::size_t capacity_ = 0;
    ArenaBacking backing_ = ArenaBacking::None;
    ArenaMode mode_ = ArenaMode::Auto;  //!< only read when mode_set_
    bool mode_set_ = false;             //!< pinned by setArenaMode()
};

} // namespace vpred

#endif // DFCM_CORE_TABLE_ARENA_HH
