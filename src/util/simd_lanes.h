#ifndef LUTDLA_UTIL_SIMD_LANES_H
#define LUTDLA_UTIL_SIMD_LANES_H

/**
 * @file
 * Lane types for kernels written once over their vector width: plain
 * `float` (the generic tier), an 8-float GCC vector (AVX2) or a 16-float
 * one (AVX-512), used with vector-extension operators so one source
 * expression runs per lane at every width. Helpers are always_inline and
 * carry no target attribute: each tier's target-attributed entry point
 * inlines them, so one binary holds every tier. Private to the kernel
 * TUs (nn/simd_math.cc, lutboost/kernels_simd.cc), which build without
 * -march flags, with -ffp-contract=off and -Wno-psabi.
 */

#include <cstdint>
#include <cstring>

#define LUTDLA_LANE_INLINE inline __attribute__((always_inline))

namespace lutdla::lanes {

typedef float F8 __attribute__((vector_size(32)));
typedef int32_t I8 __attribute__((vector_size(32)));
typedef float F16 __attribute__((vector_size(64)));
typedef int32_t I16 __attribute__((vector_size(64)));

/** Lane count of a lane type. */
template <class V>
constexpr int64_t kLanes = static_cast<int64_t>(sizeof(V) / sizeof(float));

/** The int32 vector as wide as a float lane type. */
template <class V>
struct LaneInt;
template <>
struct LaneInt<F8>
{
    using type = I8;
};
template <>
struct LaneInt<F16>
{
    using type = I16;
};

template <class V>
LUTDLA_LANE_INLINE V
load(const float *p)
{
    V v;
    std::memcpy(&v, p, sizeof(V));
    return v;
}

template <class V>
LUTDLA_LANE_INLINE void
store(float *p, V v)
{
    std::memcpy(p, &v, sizeof(V));
}

} // namespace lutdla::lanes

#endif // LUTDLA_UTIL_SIMD_LANES_H
