/**
 * @file
 * Runtime dispatch between the lane-kernel builds (lane_kernels.hpp):
 * the AVX2 table when the binary contains it (not QEDM_NO_SIMD) and
 * the CPU reports the feature, else the baseline table. The choice is
 * observable only through laneKernelsSimd() — both tables compute
 * bit-identical results.
 */

#include "sim/lane_kernels.hpp"

#include <atomic>

namespace qedm::sim {

namespace lane_scalar {
const LaneKernels &table();
}

#if !defined(QEDM_NO_SIMD) && defined(__x86_64__) && defined(__GNUC__)
#define QEDM_HAVE_AVX2_BUILD 1
namespace lane_avx2 {
const LaneKernels &table();
}
#endif

namespace {

std::atomic<bool> g_force_scalar{false};

#ifdef QEDM_HAVE_AVX2_BUILD
bool
cpuHasAvx2()
{
    return __builtin_cpu_supports("avx2") != 0;
}
#endif

} // namespace

const LaneKernels &
laneKernels()
{
#ifdef QEDM_HAVE_AVX2_BUILD
    // Feature detection is immutable per process; cache it once.
    static const bool has_avx2 = cpuHasAvx2();
    if (has_avx2 && !g_force_scalar.load(std::memory_order_relaxed))
        return lane_avx2::table();
#endif
    return lane_scalar::table();
}

bool
laneKernelsSimd()
{
    return &laneKernels() != &lane_scalar::table();
}

void
forceScalarLaneKernels(bool force)
{
    g_force_scalar.store(force, std::memory_order_relaxed);
}

} // namespace qedm::sim
