#include "core/multi_geom.hh"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "core/multi_geom_simd.hh"
#include "core/simd.hh"

namespace vpred
{

namespace
{

/**
 * Per-column state flattened for the scalar hot loop: the raw
 * level-2 table pointer plus the hash parameters, with the fold
 * chunk count precomputed so the fold runs a *fixed* number of
 * iterations per column (the generic foldXor loops while bits
 * remain, a data-dependent trip count the branch predictor keeps
 * missing).
 */
struct HotColumn
{
    std::uint32_t* l2;
    std::uint64_t index_mask;
    std::uint64_t fold_mask;
    unsigned shift;
    unsigned fold_bits;
    unsigned chunks;
};

/**
 * ShiftFoldHash::insert with the fold unrolled to @c chunks fixed
 * iterations. Identical result: XOR-ing the shifted copies first and
 * masking once is foldXor's mask-each-chunk because AND distributes
 * over XOR, and @c chunks covers every non-zero chunk of a value
 * narrower than chunks * fold_bits.
 */
inline std::uint64_t
hashInsert(const HotColumn& col, std::uint64_t h, std::uint64_t v)
{
    std::uint64_t f = 0;
    for (unsigned i = 0; i < col.chunks; ++i) {
        f ^= v;
        v >>= col.fold_bits;
    }
    return ((h << col.shift) ^ (f & col.fold_mask)) & col.index_mask;
}

std::vector<HotColumn>
hotColumns(std::vector<MultiGeomKernelBase::Column>& cols,
           unsigned value_bits)
{
    std::vector<HotColumn> hot;
    hot.reserve(cols.size());
    for (auto& col : cols) {
        const unsigned fold_bits = col.hash.foldBits();
        hot.push_back(
            {col.l2.data(), maskBits(col.hash.indexBits()),
             maskBits(std::min(fold_bits, 64u)), col.hash.shift(),
             fold_bits,
             // Chunks needed to cover a value_bits-wide value.
             (value_bits + fold_bits - 1) / fold_bits});
    }
    return hot;
}

/** The vector entry point for @p backend, or nullptr for the scalar
 *  reference path (also the fallback for backends this binary does
 *  not carry or this CPU cannot run). */
using MgKernelFn = void (*)(const detail::MgSimdView&,
                            std::span<const TraceRecord>);

MgKernelFn
backendKernel(SimdBackend backend)
{
    if (!simdBackendAvailable(backend))
        return nullptr;
    switch (backend) {
#if defined(REPRO_SIMD_HAS_SSE2)
      case SimdBackend::Sse2:
        return &detail::runMgColumnsSse2;
#endif
#if defined(REPRO_SIMD_HAS_AVX2)
      case SimdBackend::Avx2:
        return &detail::runMgColumnsAvx2;
#endif
#if defined(REPRO_SIMD_HAS_NEON)
      case SimdBackend::Neon:
        return &detail::runMgColumnsNeon;
#endif
      default:
        return nullptr;
    }
}

std::vector<PredictorStats>
columnStats(std::span<const TraceRecord> trace,
            const std::vector<std::uint64_t>& correct)
{
    std::vector<PredictorStats> stats(correct.size());
    for (std::size_t c = 0; c < correct.size(); ++c)
        stats[c] = PredictorStats{trace.size(), correct[c]};
    return stats;
}

} // namespace

MultiGeomKernelBase::MultiGeomKernelBase(const MultiGeomConfig& config)
    : cfg_(config), l1_mask_(maskBits(config.l1_bits)),
      value_mask_(maskBits(config.value_bits)), max_order_(0)
{
    assert(!config.l2_bits.empty());
    assert(config.l1_bits <= kMaxL1Bits);
    assert(config.value_bits >= 1 && config.value_bits <= 32);
    cols_.reserve(config.l2_bits.size());
    for (unsigned l2 : config.l2_bits) {
        assert(l2 >= 1 && l2 <= 28);
        Column col{ShiftFoldHash::fsRk(l2, config.hash_shift), {}};
        col.l2.resize(std::size_t{1} << l2);
        max_order_ = std::max(max_order_, col.hash.order());
        cols_.push_back(std::move(col));
    }

    // One layout for every execution path: the history bank is
    // padded to whole vectors, the FS R-k parameters are laid out as
    // one u32 per lane, and the padding lanes get inert values
    // (shift 0, fold_bits 1, masks 0) so they compute bounded
    // garbage that nothing ever probes.
    const std::size_t n = cols_.size();
    padded_n_ = (n + simd::kMaxSimdLanes - 1) / simd::kMaxSimdLanes
            * simd::kMaxSimdLanes;
    hists_.resize(l1Entries() * padded_n_);
    col_shifts_.assign(padded_n_, 0);
    col_fold_bits_.assign(padded_n_, 1);
    col_fold_masks_.assign(padded_n_, 0);
    col_index_masks_.assign(padded_n_, 0);
    l2_ptrs_.resize(n);
    max_chunks_ = 1;
    // Software prefetch is only issued for columns whose level-2
    // table cannot stay cache-resident: small tables are all hits
    // after warm-up and prefetching them just burns issue slots.
    // 256 KiB (64 K u32 slots, l2_bits >= 16) is comfortably past
    // typical per-core L2 capacity once the history bank and the
    // other columns claim their share.
    constexpr std::size_t kPrefetchMinL2Bytes = std::size_t{256} * 1024;
    for (std::size_t c = 0; c < n; ++c) {
        const ShiftFoldHash& hash = cols_[c].hash;
        col_shifts_[c] = hash.shift();
        col_fold_bits_[c] = hash.foldBits();
        col_fold_masks_[c] = static_cast<std::uint32_t>(
                maskBits(std::min(hash.foldBits(), 32u)));
        col_index_masks_[c] = static_cast<std::uint32_t>(
                maskBits(hash.indexBits()));
        l2_ptrs_[c] = cols_[c].l2.data();
        if (cols_[c].l2.size() * sizeof(std::uint32_t)
            >= kPrefetchMinL2Bytes)
            prefetch_cols_.push_back(static_cast<std::uint32_t>(c));
        const unsigned chunks =
                (cfg_.value_bits + hash.foldBits() - 1) / hash.foldBits();
        max_chunks_ = std::max(max_chunks_, chunks);
    }
}

void
MultiGeomKernelBase::resetState()
{
    hists_.fillZero();
    for (Column& col : cols_)
        col.l2.fillZero();
}

void
MultiGeomKernelBase::setEntryHists(std::size_t entry,
                                   std::span<const std::uint32_t> hists)
{
    assert(hists.size() == padded_n_);
    std::copy(hists.begin(), hists.end(),
              hists_.begin()
                      + static_cast<std::ptrdiff_t>(entry * padded_n_));
}

detail::MgSimdView
MultiGeomKernelBase::makeView(std::uint64_t* correct)
{
    detail::MgSimdView view;
    view.hists = hists_.data();
    view.n = cols_.size();
    view.padded_n = padded_n_;
    view.l1_mask = l1_mask_;
    view.value_mask = value_mask_;
    view.stride_mask = value_mask_;
    view.stride_bits = cfg_.value_bits;
    view.chunks = max_chunks_;
    view.l2 = l2_ptrs_.data();
    view.shifts = col_shifts_.data();
    view.fold_bits = col_fold_bits_.data();
    view.fold_masks = col_fold_masks_.data();
    view.index_masks = col_index_masks_.data();
    view.correct = correct;
    view.last = nullptr;
    view.dfcm = false;
    view.widen = false;
    view.prefetch_cols = prefetch_cols_.data();
    view.n_prefetch = prefetch_cols_.size();
    return view;
}

MultiGeomFcmKernel::MultiGeomFcmKernel(const MultiGeomConfig& config)
    : MultiGeomKernelBase(config)
{
}

std::vector<PredictorStats>
MultiGeomFcmKernel::runTrace(std::span<const TraceRecord> trace)
{
    return runTrace(trace, bestSimdBackend());
}

std::vector<PredictorStats>
MultiGeomFcmKernel::runTrace(std::span<const TraceRecord> trace,
                             SimdBackend backend)
{
    reset();
    return feedTrace(trace, backend);
}

std::vector<PredictorStats>
MultiGeomFcmKernel::feedTrace(std::span<const TraceRecord> trace)
{
    return feedTrace(trace, bestSimdBackend());
}

std::vector<PredictorStats>
MultiGeomFcmKernel::feedTrace(std::span<const TraceRecord> trace,
                              SimdBackend backend)
{
    const std::size_t n = cols_.size();
    std::vector<std::uint64_t> correct(n, 0);

    if (const MgKernelFn kernel = backendKernel(backend)) {
        const detail::MgSimdView view = makeView(correct.data());
        kernel(view, trace);
        return columnStats(trace, correct);
    }

    // Scalar reference path.
    const std::size_t pn = padded_n_;
    const std::vector<HotColumn> hot = hotColumns(cols_, cfg_.value_bits);
    for (const TraceRecord& rec : trace) {
        std::uint32_t* hists = &hists_[(rec.pc & l1_mask_) * pn];
        const Value masked = rec.value & value_mask_;

        // Per column: FcmPredictor::predictAndUpdate verbatim — check
        // the level-2 slot against the raw actual, store the masked
        // actual, advance this column's hashed history with it.
        for (std::size_t c = 0; c < n; ++c) {
            const HotColumn& col = hot[c];
            const std::uint32_t h = hists[c];
            std::uint32_t& slot = col.l2[h];
            correct[c] += Value{slot} == rec.value;
            slot = static_cast<std::uint32_t>(masked);
            hists[c] =
                static_cast<std::uint32_t>(hashInsert(col, h, masked));
        }
    }
    return columnStats(trace, correct);
}

MultiGeomDfcmKernel::MultiGeomDfcmKernel(const MultiGeomConfig& config)
    : MultiGeomKernelBase(config),
      stride_mask_(maskBits(config.stride_bits)),
      last_(l1Entries(), 0)
{
    assert(config.stride_bits >= 1
           && config.stride_bits <= config.value_bits);
}

std::vector<PredictorStats>
MultiGeomDfcmKernel::runTrace(std::span<const TraceRecord> trace)
{
    return runTrace(trace, bestSimdBackend());
}

std::vector<PredictorStats>
MultiGeomDfcmKernel::runTrace(std::span<const TraceRecord> trace,
                              SimdBackend backend)
{
    reset();
    return feedTrace(trace, backend);
}

void
MultiGeomDfcmKernel::reset()
{
    resetState();
    std::fill(last_.begin(), last_.end(), 0);
}

void
MultiGeomDfcmKernel::growEntries(std::size_t n)
{
    if (n <= l1Entries())
        return;
    if (n > std::size_t{1} << kMaxL1Bits)
        throw std::length_error(
                "level-1 table cannot grow to " + std::to_string(n)
                + " entries (cap 2^" + std::to_string(kMaxL1Bits)
                + ")");
    while (l1Entries() < n)
        ++cfg_.l1_bits;
    l1_mask_ = maskBits(cfg_.l1_bits);
    // The bank is entry-major, so growing it in place keeps every
    // old entry at its index; both buffers zero-fill the new tail.
    hists_.resize(l1Entries() * padded_n_);
    last_.resize(l1Entries(), 0);
}

std::vector<PredictorStats>
MultiGeomDfcmKernel::feedTrace(std::span<const TraceRecord> trace)
{
    return feedTrace(trace, bestSimdBackend());
}

std::vector<PredictorStats>
MultiGeomDfcmKernel::feedTrace(std::span<const TraceRecord> trace,
                               SimdBackend backend)
{
    const std::size_t n = cols_.size();
    std::vector<std::uint64_t> correct(n, 0);

    if (const MgKernelFn kernel = backendKernel(backend)) {
        detail::MgSimdView view = makeView(correct.data());
        view.stride_mask = stride_mask_;
        view.stride_bits = cfg_.stride_bits;
        view.last = last_.data();
        view.dfcm = true;
        view.widen = cfg_.stride_bits != cfg_.value_bits;
        kernel(view, trace);
        return columnStats(trace, correct);
    }

    // Scalar reference path.
    const std::size_t pn = padded_n_;
    const std::vector<HotColumn> hot = hotColumns(cols_, cfg_.value_bits);

    const auto walk = [&](auto widen_fn) {
        for (const TraceRecord& rec : trace) {
            const std::size_t idx = rec.pc & l1_mask_;
            std::uint32_t* hists = &hists_[idx * pn];
            const Value last = last_[idx];
            const Value masked = rec.value & value_mask_;
            // The new stride is geometry-independent: full-width
            // arithmetic, shared by every column (each narrows on
            // store).
            const Value stride = (masked - last) & value_mask_;

            // Per column: DfcmPredictor::predictAndUpdate verbatim.
            for (std::size_t c = 0; c < n; ++c) {
                const HotColumn& col = hot[c];
                const std::uint32_t h = hists[c];
                std::uint32_t& slot = col.l2[h];
                correct[c] += ((last + widen_fn(slot)) & value_mask_)
                    == rec.value;
                slot = static_cast<std::uint32_t>(stride & stride_mask_);
                hists[c] = static_cast<std::uint32_t>(
                        hashInsert(col, h, stride));
            }

            last_[idx] = masked;
        }
    };
    // Full-width strides (the common geometry) make widen() the
    // identity: stored strides are already masked to value_bits.
    if (cfg_.stride_bits == cfg_.value_bits)
        walk([](std::uint32_t stored) { return Value{stored}; });
    else
        walk([this](std::uint32_t stored) { return widen(stored); });

    return columnStats(trace, correct);
}

} // namespace vpred
