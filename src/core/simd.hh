/**
 * @file
 * The portable fixed-width integer vector layer behind the SIMD
 * multi-geometry kernels — and the only file in the repository where
 * raw vendor intrinsics may appear (enforced by the repro-lint rule
 * portability/raw-intrinsic).
 *
 * The kernels need exactly the operations of the ShiftFoldHash
 * insert, applied to a row of 32-bit lanes with *per-lane* shift
 * distances (each level-2 column has its own FS R-k parameters):
 * load/store, broadcast, XOR, AND-mask, and variable per-lane left /
 * right shifts — plus a read prefetch hint for the table walk. That
 * small surface is provided as a backend struct `Native`:
 *
 *     using Vec = ...;                  // kLanes x u32 register
 *     static constexpr unsigned kLanes; // 4 (SSE2/NEON) or 8 (AVX2)
 *     static constexpr SimdBackend kBackend;
 *     static Vec  loadu(const std::uint32_t* p);
 *     static void storeu(std::uint32_t* p, Vec v);
 *     static Vec  broadcast(std::uint32_t x);
 *     static Vec  bxor(Vec a, Vec b);
 *     static Vec  band(Vec a, Vec b);
 *     static Vec  shl(Vec v, Vec counts);  // counts must be < 32
 *     static Vec  shr(Vec v, Vec counts);  // counts must be < 32
 *
 * Which backend `Native` is resolves *per translation unit*: the
 * multi_geom_simd_<backend>.cc files define REPRO_SIMD_TU_<BACKEND>
 * before including this header (and are compiled with the matching
 * -m flags by src/core/CMakeLists.txt); any other includer gets the
 * widest instruction set its own compile flags advertise, falling
 * back to a plain-C++ scalar emulation. Each resolution lives in a
 * distinct inline namespace, so templates instantiated over `Native`
 * in differently-flagged translation units mangle differently — two
 * backends can coexist in one binary without ODR aliasing, which is
 * what makes the runtime dispatch in core/multi_geom.cc sound.
 *
 * Shift counts >= 32 are the caller's bug (hardware disagrees on the
 * semantics and scalar C++ makes it undefined); the kernels only ever
 * pass FS R-k parameters, which are bounded by the 28-bit level-2
 * index width.
 */

#ifndef DFCM_CORE_SIMD_HH
#define DFCM_CORE_SIMD_HH

#include <cstdint>

#include "core/cpu_features.hh"

#if defined(REPRO_SIMD_TU_AVX2) && !defined(__AVX2__)
#error "multi_geom_simd_avx2.cc must be compiled with -mavx2"
#endif
#if defined(REPRO_SIMD_TU_SSE2) && !defined(__SSE2__)
#error "multi_geom_simd_sse2.cc requires an SSE2 target (x86-64)"
#endif
#if defined(REPRO_SIMD_TU_NEON) && !defined(__ARM_NEON)
#error "multi_geom_simd_neon.cc requires an Advanced-SIMD target"
#endif

#if defined(REPRO_SIMD_TU_AVX2)                                       \
        || (!defined(REPRO_SIMD_TU_SSE2) && !defined(REPRO_SIMD_TU_NEON) \
            && defined(__AVX2__))
#define REPRO_SIMD_BACKEND_AVX2 1
#elif defined(REPRO_SIMD_TU_SSE2)                                       \
        || (!defined(REPRO_SIMD_TU_NEON) && defined(__SSE2__))
#define REPRO_SIMD_BACKEND_SSE2 1
#elif defined(REPRO_SIMD_TU_NEON) || defined(__ARM_NEON)
#define REPRO_SIMD_BACKEND_NEON 1
#else
#define REPRO_SIMD_BACKEND_SCALAR 1
#endif

#if defined(REPRO_SIMD_BACKEND_AVX2) || defined(REPRO_SIMD_BACKEND_SSE2)
#include <immintrin.h>
#elif defined(REPRO_SIMD_BACKEND_NEON)
#include <arm_neon.h>
#endif

namespace vpred::simd
{

/** Read-prefetch hint: pull the cache line holding @p p toward L1.
 *  Purely advisory; a no-op where the compiler has no intrinsic. */
inline void
prefetchRead(const void* p)
{
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
#else
    (void)p;
#endif
}

#if defined(REPRO_SIMD_BACKEND_AVX2)

inline namespace backend_avx2
{

struct Native
{
    using Vec = __m256i;
    static constexpr unsigned kLanes = 8;
    static constexpr SimdBackend kBackend = SimdBackend::Avx2;

    static Vec
    loadu(const std::uint32_t* p)
    {
        return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    }
    static void
    storeu(std::uint32_t* p, Vec v)
    {
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
    }
    static Vec
    broadcast(std::uint32_t x)
    {
        return _mm256_set1_epi32(static_cast<int>(x));
    }
    static Vec bxor(Vec a, Vec b) { return _mm256_xor_si256(a, b); }
    static Vec band(Vec a, Vec b) { return _mm256_and_si256(a, b); }
    static Vec shl(Vec v, Vec counts)
    {
        return _mm256_sllv_epi32(v, counts);
    }
    static Vec shr(Vec v, Vec counts)
    {
        return _mm256_srlv_epi32(v, counts);
    }
};

} // inline namespace backend_avx2

#elif defined(REPRO_SIMD_BACKEND_SSE2)

inline namespace backend_sse2
{

struct Native
{
    using Vec = __m128i;
    static constexpr unsigned kLanes = 4;
    static constexpr SimdBackend kBackend = SimdBackend::Sse2;

    static Vec
    loadu(const std::uint32_t* p)
    {
        return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    }
    static void
    storeu(std::uint32_t* p, Vec v)
    {
        _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
    }
    static Vec
    broadcast(std::uint32_t x)
    {
        return _mm_set1_epi32(static_cast<int>(x));
    }
    static Vec bxor(Vec a, Vec b) { return _mm_xor_si128(a, b); }
    static Vec band(Vec a, Vec b) { return _mm_and_si128(a, b); }

    // SSE2 has no per-lane variable shifts (they arrived with AVX2);
    // a stack round-trip keeps the backend correct on baseline
    // x86-64 silicon. The other vector ops still pay their way, and
    // the AVX2 backend is what the dispatcher prefers when it can.
    static Vec
    shl(Vec v, Vec counts)
    {
        alignas(16) std::uint32_t a[4], c[4];
        _mm_store_si128(reinterpret_cast<__m128i*>(a), v);
        _mm_store_si128(reinterpret_cast<__m128i*>(c), counts);
        for (int i = 0; i < 4; ++i)
            a[i] <<= (c[i] & 31u);
        return _mm_load_si128(reinterpret_cast<const __m128i*>(a));
    }
    static Vec
    shr(Vec v, Vec counts)
    {
        alignas(16) std::uint32_t a[4], c[4];
        _mm_store_si128(reinterpret_cast<__m128i*>(a), v);
        _mm_store_si128(reinterpret_cast<__m128i*>(c), counts);
        for (int i = 0; i < 4; ++i)
            a[i] >>= (c[i] & 31u);
        return _mm_load_si128(reinterpret_cast<const __m128i*>(a));
    }
};

} // inline namespace backend_sse2

#elif defined(REPRO_SIMD_BACKEND_NEON)

inline namespace backend_neon
{

struct Native
{
    using Vec = uint32x4_t;
    static constexpr unsigned kLanes = 4;
    static constexpr SimdBackend kBackend = SimdBackend::Neon;

    static Vec loadu(const std::uint32_t* p) { return vld1q_u32(p); }
    static void storeu(std::uint32_t* p, Vec v) { vst1q_u32(p, v); }
    static Vec broadcast(std::uint32_t x) { return vdupq_n_u32(x); }
    static Vec bxor(Vec a, Vec b) { return veorq_u32(a, b); }
    static Vec band(Vec a, Vec b) { return vandq_u32(a, b); }
    // NEON shifts left by a signed per-lane count; negating it gives
    // the right shift.
    static Vec
    shl(Vec v, Vec counts)
    {
        return vshlq_u32(v, vreinterpretq_s32_u32(counts));
    }
    static Vec
    shr(Vec v, Vec counts)
    {
        return vshlq_u32(v, vnegq_s32(vreinterpretq_s32_u32(counts)));
    }
};

} // inline namespace backend_neon

#else

inline namespace backend_scalar
{

/** Plain-C++ emulation so the vector kernels compile (and can be
 *  exercised) on architectures without a dedicated backend. */
struct Native
{
    struct Vec
    {
        std::uint32_t lane[4];
    };
    static constexpr unsigned kLanes = 4;
    static constexpr SimdBackend kBackend = SimdBackend::Scalar;

    static Vec
    loadu(const std::uint32_t* p)
    {
        return {{p[0], p[1], p[2], p[3]}};
    }
    static void
    storeu(std::uint32_t* p, Vec v)
    {
        for (unsigned i = 0; i < kLanes; ++i)
            p[i] = v.lane[i];
    }
    static Vec
    broadcast(std::uint32_t x)
    {
        return {{x, x, x, x}};
    }
    static Vec
    bxor(Vec a, Vec b)
    {
        for (unsigned i = 0; i < kLanes; ++i)
            a.lane[i] ^= b.lane[i];
        return a;
    }
    static Vec
    band(Vec a, Vec b)
    {
        for (unsigned i = 0; i < kLanes; ++i)
            a.lane[i] &= b.lane[i];
        return a;
    }
    static Vec
    shl(Vec v, Vec counts)
    {
        for (unsigned i = 0; i < kLanes; ++i)
            v.lane[i] <<= (counts.lane[i] & 31u);
        return v;
    }
    static Vec
    shr(Vec v, Vec counts)
    {
        for (unsigned i = 0; i < kLanes; ++i)
            v.lane[i] >>= (counts.lane[i] & 31u);
        return v;
    }
};

} // inline namespace backend_scalar

#endif

/** The widest lane count any backend uses; per-entry history banks
 *  are padded to a multiple of this so every backend can process a
 *  bank in whole vectors (core/multi_geom.hh). */
inline constexpr unsigned kMaxSimdLanes = 8;

} // namespace vpred::simd

#endif // DFCM_CORE_SIMD_HH
