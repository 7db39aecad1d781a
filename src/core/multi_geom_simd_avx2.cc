/**
 * @file
 * AVX2 instantiation of the column-parallel multi-geometry kernel:
 * 8 level-2 columns advance per vector op, and the per-lane variable
 * shifts (vpsllvd/vpsrlvd) map the FS R-k parameter vectors straight
 * onto hardware. Compiled with -mavx2 by src/core/CMakeLists.txt and
 * only ever *called* after the runtime CPUID probe in
 * core/cpu_features.cc says the machine executes AVX2.
 */

#define REPRO_SIMD_TU_AVX2 1

#include "core/multi_geom_simd_impl.hh"

namespace vpred::detail
{

static_assert(simd::Native::kBackend == SimdBackend::Avx2,
              "simd.hh resolved the wrong backend for this TU");

void
runMgColumnsAvx2(const MgSimdView& view,
                 std::span<const TraceRecord> trace)
{
    runMgColumnsAll<simd::Native>(view, trace);
}

} // namespace vpred::detail
