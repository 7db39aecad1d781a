/**
 * @file
 * Runtime SIMD capability detection and backend selection for the
 * multi-geometry sweep kernels.
 *
 * The kernels in core/multi_geom.cc have one scalar reference
 * implementation plus a column-parallel vector implementation
 * compiled per instruction set (see core/simd.hh and the
 * multi_geom_simd_*.cc translation units). Which vector units exist
 * is a *build* question (did CMake add the AVX2 TU?) and a *machine*
 * question (does this CPU execute AVX2?); this header answers both
 * once at startup and exposes the answer to the kernels, the harness
 * (BENCH JSON "execution" reporting) and the tests.
 *
 * The default dispatch target is the widest backend that is both
 * compiled in and supported by the running CPU. There is no
 * environment override: tests and benches that need a specific
 * backend pass it explicitly to the kernels' runTrace/feedTrace
 * overloads.
 *
 * Every backend is bit-identical to the scalar path (asserted in
 * tests/simd_kernel_test.cc), so the selection never changes figure
 * output — only throughput.
 */

#ifndef DFCM_CORE_CPU_FEATURES_HH
#define DFCM_CORE_CPU_FEATURES_HH

#include <vector>

namespace vpred
{

/** A vector implementation of the multi-geometry kernels. */
enum class SimdBackend
{
    Scalar,  //!< reference implementation, always available
    Sse2,    //!< x86-64 baseline, 128-bit lanes
    Avx2,    //!< x86-64 with AVX2, 256-bit lanes
    Neon,    //!< AArch64 baseline, 128-bit lanes
};

/** Short lowercase name: "scalar", "sse2", "avx2", "neon". */
const char* simdBackendName(SimdBackend backend);

/** Integer vector width in bits (64 for scalar: one u32 pair of
 *  work per "vector" is how the reference loop retires state). */
unsigned simdVectorBits(SimdBackend backend);

/**
 * Backends that are compiled into this binary *and* supported by the
 * running CPU, widest last. Always contains SimdBackend::Scalar.
 * The CPU probe runs once (cached); the result never changes during
 * a process lifetime.
 */
const std::vector<SimdBackend>& availableSimdBackends();

/** True iff @p backend is in availableSimdBackends(). */
bool simdBackendAvailable(SimdBackend backend);

/** The widest available backend: the kernels' dispatch target. */
SimdBackend bestSimdBackend();

} // namespace vpred

#endif // DFCM_CORE_CPU_FEATURES_HH
