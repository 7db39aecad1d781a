/**
 * @file
 * Multi-geometry FCM/DFCM kernels: evaluate one level-1 geometry
 * against an entire column of level-2 sizes in a single trace walk.
 *
 * Every paper sweep (Figures 3, 10, 11) varies l2_bits while holding
 * the level-1 geometry fixed, yet the per-config path replays the
 * full trace once per (l1, l2) cell. The key observation is that the
 * level-1 *inputs* are independent of the level-2 geometry: which
 * entry a PC maps to, the last value and the new stride (DFCM) are
 * the same for every l2_bits — only the FS R-k hashed history (the
 * level-2 index) depends on the index width.
 *
 * These kernels therefore walk the trace once, compute the shared
 * per-record inputs once (level-1 index, masked value, stride), and
 * keep a *bank* of incrementally-maintained hashed histories per
 * level-1 entry — one per level-2 column — each advanced with its
 * own column's ShiftFoldHash and used to probe/update that column's
 * level-2 table. The whole l2_bits column is evaluated in one walk:
 * O(|rows| * |trace|) trace traffic instead of O(|grid| * |trace|).
 *
 * Bit-identical equivalence to the per-config predictors holds by
 * construction: for each column c the kernel applies *exactly* the
 * per-config update rule — h_c' = insert_c(h_c, v) with the same
 * initial state (0), the same inserted value (masked value for FCM,
 * full-width stride for DFCM) and the same level-2 read/write
 * ordering as the fused predictAndUpdate — so every column's state
 * sequence is the per-config predictor's state sequence. Nothing is
 * approximated and no warm-up special case exists. (An earlier
 * design kept the *unfolded* order-k value ring and re-folded it
 * per column per record; that is equivalent too — a value's
 * contribution is fully shifted out after `order` insertions since
 * shift * order >= index_bits — but costs O(order) hash insertions
 * per column per record where the per-config path pays O(1), making
 * it slower than the path it replaces. The incremental bank pays the
 * same O(1) per column and only amortizes the shared work.)
 * Asserted against runSuite over the full Figure 10 grid in
 * tests/batch_kernel_test.cc.
 *
 * The per-record column loop exists in exactly two shapes: the
 * scalar reference implementation in multi_geom.cc, and the
 * column-parallel vector kernel (one translation unit per
 * instruction set, see core/simd.hh and multi_geom_simd.hh) that
 * advances all history lanes of a record in one vector op and
 * software-prefetches the next record's level-1 bank and level-2
 * slots. runTrace() and feedTrace() dispatch to the widest backend
 * the build and the running CPU support (core/cpu_features.hh); the
 * explicit-backend overloads pin one. Every backend is bit-identical
 * to the scalar path, so dispatch never changes results —
 * tests/simd_kernel_test.cc asserts this per backend over the full
 * Figure 10 grid.
 */

#ifndef DFCM_CORE_MULTI_GEOM_HH
#define DFCM_CORE_MULTI_GEOM_HH

#include <cstdint>
#include <span>
#include <vector>

#include "core/cpu_features.hh"
#include "core/hash_function.hh"
#include "core/stats.hh"
#include "core/table_arena.hh"
#include "core/types.hh"

namespace vpred
{

namespace detail
{
struct MgSimdView;
}

/**
 * One level-1 row of a sweep grid: the shared geometry plus the
 * level-2 size column to evaluate in a single pass.
 */
struct MultiGeomConfig
{
    unsigned l1_bits = 16;     //!< log2(#level-1 entries), shared
    unsigned value_bits = 32;  //!< value width, shared (at most 32)
    /** Stored-stride width (DFCM only, Section 4.4), shared. */
    unsigned stride_bits = 32;
    /** FS R-k hash shift (5 = the paper's FS R-5), shared. */
    unsigned hash_shift = 5;
    /** One level-2 column per entry: log2(#level-2 entries). */
    std::vector<unsigned> l2_bits;
};

/**
 * Common machinery of the two kernels: the per-column level-2 banks
 * and the per-entry bank of hashed histories.
 */
class MultiGeomKernelBase
{
  public:
    std::size_t columns() const { return cols_.size(); }
    std::size_t l1Entries() const
    {
        return std::size_t{1} << cfg_.l1_bits;
    }
    const MultiGeomConfig& config() const { return cfg_; }

    /** Deepest history order across the columns. */
    unsigned maxOrder() const { return max_order_; }

    /**
     * One level-2 column: its FS R-k instance and its table. Slots
     * are stored narrow (32 bits): stored values/strides are always
     * masked to value_bits <= 32 (asserted in the constructor), and
     * halving the table footprint is a large part of the kernel's
     * cache-level win over the per-config path.
     */
    struct Column
    {
        ShiftFoldHash hash;
        /** Arena-backed (64-byte aligned, huge-page hinted when big
         *  enough): the level-2 tables are the kernel's dominant
         *  working set and the arena's raison d'être. */
        TableBuffer<std::uint32_t> l2;
    };

    /** Bank stride: columns() rounded up to a whole vector, so every
     *  backend processes a record's bank as full vectors. */
    std::size_t paddedColumns() const { return padded_n_; }

    /**
     * Zero-copy view of one level-1 entry's hashed-history bank:
     * paddedColumns() lanes (padding lanes carry dead state and are
     * exported/imported verbatim). The span is the kernel's
     * relocatable per-entry level-1 state — the prediction service
     * writes it into snapshots and reinstalls it on restore; the
     * shared level-2 tables are deliberately *not* part of it.
     */
    std::span<const std::uint32_t>
    entryHists(std::size_t entry) const
    {
        return {&hists_[entry * padded_n_], padded_n_};
    }

    /** Install a bank previously obtained from entryHists(). @p hists
     *  must hold exactly paddedColumns() lanes. */
    void setEntryHists(std::size_t entry,
                       std::span<const std::uint32_t> hists);

    /** Largest level-1 geometry: 2^28 entries, the cap the
     *  per-config predictors share. */
    static constexpr unsigned kMaxL1Bits = 28;

  protected:
    explicit MultiGeomKernelBase(const MultiGeomConfig& config);

    /** Reset all level-1 and level-2 state to power-on zeros. */
    void resetState();

    /**
     * Flatten this kernel's state for a vector backend. @p correct
     * must point at columns() zeroed counters and outlive the view.
     * The DFCM kernel fills in last/dfcm/widen after the fact.
     */
    detail::MgSimdView makeView(std::uint64_t* correct);

    MultiGeomConfig cfg_;
    std::uint64_t l1_mask_;
    std::uint64_t value_mask_;
    unsigned max_order_;
    std::vector<Column> cols_;
    /**
     * Hashed histories, paddedColumns() per level-1 entry
     * (entry-major, so one record's bank is contiguous; the padding
     * lanes are dead state only the vector path writes). 32 bits
     * suffice: level-2 indices are at most 28 bits wide. Arena-backed:
     * at big level-1 geometries the bank rivals the tables.
     */
    TableBuffer<std::uint32_t> hists_;
    std::size_t padded_n_;
    /** Shared worst-case fold chunk count across the columns. */
    unsigned max_chunks_;
    // Per-lane FS R-k parameters as structure-of-arrays (padded_n_
    // entries, padding lanes inert) plus the level-2 base pointers —
    // the vector kernels' constant inputs.
    std::vector<std::uint32_t> col_shifts_;
    std::vector<std::uint32_t> col_fold_bits_;
    std::vector<std::uint32_t> col_fold_masks_;
    std::vector<std::uint32_t> col_index_masks_;
    std::vector<std::uint32_t*> l2_ptrs_;
    /** Columns whose level-2 table is big enough that software
     *  prefetch pays for itself (see kPrefetchMinL2Bytes). */
    std::vector<std::uint32_t> prefetch_cols_;
};

/**
 * FCM over one level-1 geometry and many level-2 sizes at once.
 * Each column's history is advanced with the shared masked value
 * through its own FS R-k instance.
 */
class MultiGeomFcmKernel : public MultiGeomKernelBase
{
  public:
    /** @param config stride_bits is ignored (FCM stores values). */
    explicit MultiGeomFcmKernel(const MultiGeomConfig& config);

    /**
     * Evaluate the whole column over @p trace from power-on state,
     * returning one PredictorStats per l2_bits entry (column order).
     * State is reset on entry, so repeated calls are independent.
     * Dispatches to bestSimdBackend(); results are bit-identical
     * regardless of the backend chosen.
     */
    std::vector<PredictorStats> runTrace(std::span<const TraceRecord> trace);

    /** As above, but on a specific backend (for tests and the
     *  throughput bench). Backends that are not available fall back
     *  to the scalar reference path. */
    std::vector<PredictorStats> runTrace(std::span<const TraceRecord> trace,
                                         SimdBackend backend);

    /**
     * Advance the kernel over @p trace *without* resetting state:
     * the incremental entry point for long-lived use (the prediction
     * service feeds batches as they arrive). Returned stats cover
     * only the fed span. runTrace(t) == reset() + feedTrace(t), and
     * feeding a trace in any chunking yields the same final state
     * and the same summed stats as one call.
     */
    std::vector<PredictorStats>
    feedTrace(std::span<const TraceRecord> trace);

    /** As above on a specific backend. */
    std::vector<PredictorStats>
    feedTrace(std::span<const TraceRecord> trace, SimdBackend backend);

    /** Reset all state to power-on zeros. */
    void reset() { resetState(); }
};

/**
 * DFCM over one level-1 geometry and many level-2 sizes at once.
 * The last value and the new stride are geometry-independent and
 * shared; each column's history is advanced with the full-width
 * stride through its own FS R-k instance.
 */
class MultiGeomDfcmKernel : public MultiGeomKernelBase
{
  public:
    explicit MultiGeomDfcmKernel(const MultiGeomConfig& config);

    /** See MultiGeomFcmKernel::runTrace. */
    std::vector<PredictorStats> runTrace(std::span<const TraceRecord> trace);

    /** See MultiGeomFcmKernel::runTrace(trace, backend). */
    std::vector<PredictorStats> runTrace(std::span<const TraceRecord> trace,
                                         SimdBackend backend);

    /** See MultiGeomFcmKernel::feedTrace — incremental, no reset. */
    std::vector<PredictorStats>
    feedTrace(std::span<const TraceRecord> trace);

    /** As above on a specific backend. */
    std::vector<PredictorStats>
    feedTrace(std::span<const TraceRecord> trace, SimdBackend backend);

    /** Reset all state (histories, level-2 tables, last values). */
    void reset();

    /**
     * Grow the level-1 table, by doubling, to at least @p n entries.
     * Existing entries keep their state and the new ones start at
     * power-on zeros, so feeding the grown kernel is bit-identical
     * to having built it at the final size (the level-2 tables are
     * untouched). This is how the prediction service gives every
     * stream a permanent entry. No-op when @p n already fits.
     * @throws std::length_error past 2^kMaxL1Bits entries.
     */
    void growEntries(std::size_t n);

    /** One entry's last value — with entryHists() this is the whole
     *  relocatable per-entry level-1 state of a DFCM. */
    Value lastValue(std::size_t entry) const { return last_[entry]; }
    void setLastValue(std::size_t entry, Value v) { last_[entry] = v; }

  private:
    /** Stored (possibly narrowed) stride -> full-width stride. */
    Value
    widen(Value stored) const
    {
        return signExtend(stored, cfg_.stride_bits) & value_mask_;
    }

    std::uint64_t stride_mask_;
    std::vector<Value> last_;  //!< last value per level-1 entry
};

} // namespace vpred

#endif // DFCM_CORE_MULTI_GEOM_HH
