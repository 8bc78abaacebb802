// Runtime-dispatched SIMD kernel variants. This TU is compiled WITHOUT
// -march flags; every vector function carries a target attribute instead,
// so the binary always contains all variants and util::simdLevel() picks
// one at run time. Keep intrinsics inside attributed functions only.
//
// Numerics: encode kernels use explicit mul + add (never FMA) and exact
// min/tie-break reductions, so they are bit-exact with the scalar encode.
// Gather kernels accumulate in integer lanes and dequantize with one
// mul + add per (scale group, column) — the identical float op sequence
// the scalar group sweep performs, so shuffle and scalar paths agree bit
// for bit (integer addition is associative; tests enforce the match).

#include "lutboost/kernels_simd.h"

#include <immintrin.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "lutboost/table_arena.h"
#include "util/logging.h"
#include "util/simd_lanes.h"

namespace lutdla::lutboost::simd {

namespace {

/** Scalar argmin scan shared by the NaN fallbacks (lowest-index ties). */
int32_t
argminScan16(const float *d)
{
    int32_t best = 0;
    float best_dist = d[0];
    for (int64_t j = 1; j < 16; ++j) {
        if (d[j] < best_dist) {
            best_dist = d[j];
            best = static_cast<int32_t>(j);
        }
    }
    return best;
}

__attribute__((target("avx512f"))) int32_t
argminL2C16Avx512(const float *__restrict__ sub,
                  const float *__restrict__ cbt, int64_t v)
{
    __m512 vd = _mm512_setzero_ps();
    for (int64_t t = 0; t < v; ++t) {
        const __m512 row = _mm512_loadu_ps(cbt + t * 16);
        const __m512 diff = _mm512_sub_ps(_mm512_set1_ps(sub[t]), row);
        vd = _mm512_add_ps(vd, _mm512_mul_ps(diff, diff));
    }
    if (_mm512_cmp_ps_mask(vd, vd, _CMP_UNORD_Q) != 0) {
        alignas(64) float d[16];
        _mm512_store_ps(d, vd);
        return argminScan16(d);
    }
    // log2(16) shuffle+min steps broadcast the exact minimum to every
    // lane (min is order-insensitive, so this is still bit-exact).
    __m512 m = _mm512_min_ps(vd, _mm512_shuffle_f32x4(vd, vd, 0x4E));
    m = _mm512_min_ps(m, _mm512_shuffle_f32x4(m, m, 0xB1));
    m = _mm512_min_ps(m, _mm512_shuffle_ps(m, m, 0x4E));
    m = _mm512_min_ps(m, _mm512_shuffle_ps(m, m, 0xB1));
    const __mmask16 eq = _mm512_cmp_ps_mask(vd, m, _CMP_EQ_OQ);
    return static_cast<int32_t>(__builtin_ctz(eq));
}

__attribute__((target("avx2"))) int32_t
argminL2C16Avx2(const float *__restrict__ sub,
                const float *__restrict__ cbt, int64_t v)
{
    // Centroids 0..7 in d0, 8..15 in d1; same ascending-t add order as
    // the scalar distance loop, explicit mul + add (no FMA).
    __m256 d0 = _mm256_setzero_ps(), d1 = _mm256_setzero_ps();
    for (int64_t t = 0; t < v; ++t) {
        const __m256 a = _mm256_set1_ps(sub[t]);
        const __m256 f0 = _mm256_sub_ps(a, _mm256_loadu_ps(cbt + t * 16));
        const __m256 f1 =
            _mm256_sub_ps(a, _mm256_loadu_ps(cbt + t * 16 + 8));
        d0 = _mm256_add_ps(d0, _mm256_mul_ps(f0, f0));
        d1 = _mm256_add_ps(d1, _mm256_mul_ps(f1, f1));
    }
    if (_mm256_movemask_ps(_mm256_cmp_ps(d0, d0, _CMP_UNORD_Q)) != 0 ||
        _mm256_movemask_ps(_mm256_cmp_ps(d1, d1, _CMP_UNORD_Q)) != 0) {
        alignas(32) float d[16];
        _mm256_store_ps(d, d0);
        _mm256_store_ps(d + 8, d1);
        return argminScan16(d);
    }
    __m256 m = _mm256_min_ps(d0, d1);
    m = _mm256_min_ps(m, _mm256_permute2f128_ps(m, m, 0x01));
    m = _mm256_min_ps(m, _mm256_shuffle_ps(m, m, 0x4E));
    m = _mm256_min_ps(m, _mm256_shuffle_ps(m, m, 0xB1));
    const unsigned eq0 = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_cmp_ps(d0, m, _CMP_EQ_OQ)));
    const unsigned eq1 = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_cmp_ps(d1, m, _CMP_EQ_OQ)));
    return static_cast<int32_t>(__builtin_ctz(eq0 | (eq1 << 8)));
}

__attribute__((target("avx512f"))) void
encodeL2C16RowsAvx512(const float *x, int64_t rows, int64_t stride,
                      const float *cbt, int64_t v, uint8_t *codes)
{
    for (int64_t i = 0; i < rows; ++i)
        codes[i] =
            static_cast<uint8_t>(argminL2C16Avx512(x + i * stride, cbt, v));
}

__attribute__((target("avx2"))) void
encodeL2C16RowsAvx2(const float *x, int64_t rows, int64_t stride,
                    const float *cbt, int64_t v, uint8_t *codes)
{
    for (int64_t i = 0; i < rows; ++i)
        codes[i] =
            static_cast<uint8_t>(argminL2C16Avx2(x + i * stride, cbt, v));
}

/** Scalar distance + argmin scan for generic c (NaN fallback). Same op
 * sequence as the arena's distanceAll + argminScan: zeroed accumulators,
 * ascending t, explicit mul + add (this TU builds with -ffp-contract=off
 * so no FMA contraction), strict-< scan for lowest-index ties. */
int32_t
argminScanL2Generic(const float *sub, const float *cbt, int64_t v,
                    int64_t c)
{
    float d[64];
    for (int64_t j = 0; j < c; ++j)
        d[j] = 0.0f;
    for (int64_t t = 0; t < v; ++t) {
        const float a = sub[t];
        const float *row = cbt + t * c;
        for (int64_t j = 0; j < c; ++j) {
            const float diff = a - row[j];
            d[j] += diff * diff;
        }
    }
    int32_t best = 0;
    float best_dist = d[0];
    for (int64_t j = 1; j < c; ++j) {
        if (d[j] < best_dist) {
            best_dist = d[j];
            best = static_cast<int32_t>(j);
        }
    }
    return best;
}

__attribute__((target("avx512f"))) int32_t
argminL2GenericAvx512(const float *__restrict__ sub,
                      const float *__restrict__ cbt, int64_t v, int64_t c)
{
    // Up to 4 blocks of 16 centroid lanes (c <= 64). Pad lanes of the
    // last block accumulate garbage from the maskz loads; they are
    // parked at +inf before the reduction and masked out of the
    // equality scan, so they can never win nor steal a tie.
    const int64_t nb = (c + 15) / 16;
    __mmask16 mask[4];
    __m512 d[4];
    for (int64_t b = 0; b < nb; ++b) {
        const int64_t lanes = std::min<int64_t>(16, c - 16 * b);
        mask[b] = static_cast<__mmask16>((1u << lanes) - 1u);
        d[b] = _mm512_setzero_ps();
    }
    for (int64_t t = 0; t < v; ++t) {
        const __m512 a = _mm512_set1_ps(sub[t]);
        const float *row = cbt + t * c;
        for (int64_t b = 0; b < nb; ++b) {
            const __m512 r = _mm512_maskz_loadu_ps(mask[b], row + 16 * b);
            const __m512 diff = _mm512_sub_ps(a, r);
            d[b] = _mm512_add_ps(d[b], _mm512_mul_ps(diff, diff));
        }
    }
    __mmask16 unord = 0;
    for (int64_t b = 0; b < nb; ++b)
        unord |= _mm512_cmp_ps_mask(d[b], d[b], _CMP_UNORD_Q) & mask[b];
    if (unord != 0)
        return argminScanL2Generic(sub, cbt, v, c);
    const __m512 inf = _mm512_set1_ps(__builtin_inff());
    __m512 m = _mm512_mask_blend_ps(mask[0], inf, d[0]);
    for (int64_t b = 1; b < nb; ++b) {
        d[b] = _mm512_mask_blend_ps(mask[b], inf, d[b]);
        m = _mm512_min_ps(m, d[b]);
    }
    m = _mm512_min_ps(m, _mm512_shuffle_f32x4(m, m, 0x4E));
    m = _mm512_min_ps(m, _mm512_shuffle_f32x4(m, m, 0xB1));
    m = _mm512_min_ps(m, _mm512_shuffle_ps(m, m, 0x4E));
    m = _mm512_min_ps(m, _mm512_shuffle_ps(m, m, 0xB1));
    // Ascending block scan + ctz keeps the lowest-index tie-break of the
    // scalar argmin scan.
    for (int64_t b = 0; b < nb; ++b) {
        const __mmask16 eq =
            _mm512_cmp_ps_mask(d[b], m, _CMP_EQ_OQ) & mask[b];
        if (eq != 0)
            return static_cast<int32_t>(16 * b + __builtin_ctz(eq));
    }
    return 0;
}

__attribute__((target("avx2"))) int32_t
argminL2GenericAvx2(const float *__restrict__ sub,
                    const float *__restrict__ cbt, int64_t v, int64_t c)
{
    static const int32_t kLaneMask[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                          0,  0,  0,  0,  0,  0,  0,  0};
    const int64_t nb = (c + 7) / 8;
    __m256i mask[8];
    unsigned bits[8];
    __m256 d[8];
    for (int64_t b = 0; b < nb; ++b) {
        const int64_t lanes = std::min<int64_t>(8, c - 8 * b);
        mask[b] = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(kLaneMask + 8 - lanes));
        bits[b] = (1u << lanes) - 1u;
        d[b] = _mm256_setzero_ps();
    }
    for (int64_t t = 0; t < v; ++t) {
        const __m256 a = _mm256_set1_ps(sub[t]);
        const float *row = cbt + t * c;
        for (int64_t b = 0; b < nb; ++b) {
            const __m256 r = _mm256_maskload_ps(row + 8 * b, mask[b]);
            const __m256 diff = _mm256_sub_ps(a, r);
            d[b] = _mm256_add_ps(d[b], _mm256_mul_ps(diff, diff));
        }
    }
    unsigned unord = 0;
    for (int64_t b = 0; b < nb; ++b)
        unord |= static_cast<unsigned>(_mm256_movemask_ps(
                     _mm256_cmp_ps(d[b], d[b], _CMP_UNORD_Q))) &
                 bits[b];
    if (unord != 0)
        return argminScanL2Generic(sub, cbt, v, c);
    const __m256 inf = _mm256_set1_ps(__builtin_inff());
    __m256 m =
        _mm256_blendv_ps(inf, d[0], _mm256_castsi256_ps(mask[0]));
    for (int64_t b = 1; b < nb; ++b) {
        d[b] = _mm256_blendv_ps(inf, d[b], _mm256_castsi256_ps(mask[b]));
        m = _mm256_min_ps(m, d[b]);
    }
    m = _mm256_min_ps(m, _mm256_permute2f128_ps(m, m, 0x01));
    m = _mm256_min_ps(m, _mm256_shuffle_ps(m, m, 0x4E));
    m = _mm256_min_ps(m, _mm256_shuffle_ps(m, m, 0xB1));
    for (int64_t b = 0; b < nb; ++b) {
        const unsigned eq =
            static_cast<unsigned>(_mm256_movemask_ps(
                _mm256_cmp_ps(d[b], m, _CMP_EQ_OQ))) &
            bits[b];
        if (eq != 0)
            return static_cast<int32_t>(8 * b + __builtin_ctz(eq));
    }
    return 0;
}

__attribute__((target("avx512f"))) void
encodeL2GenericRowsAvx512(const float *x, int64_t rows, int64_t stride,
                          const float *cbt, int64_t v, int64_t c,
                          uint8_t *codes)
{
    for (int64_t i = 0; i < rows; ++i)
        codes[i] = static_cast<uint8_t>(
            argminL2GenericAvx512(x + i * stride, cbt, v, c));
}

__attribute__((target("avx2"))) void
encodeL2GenericRowsAvx2(const float *x, int64_t rows, int64_t stride,
                        const float *cbt, int64_t v, int64_t c,
                        uint8_t *codes)
{
    for (int64_t i = 0; i < rows; ++i)
        codes[i] = static_cast<uint8_t>(
            argminL2GenericAvx2(x + i * stride, cbt, v, c));
}

/** Bytes one staged row occupies in the INT8 encode kernels' quantize
 * buffer: a whole v <= 128 subvector, so every row starts a fresh line. */
constexpr int64_t kEncodePitch = 128;

/**
 * Index-tagged score of centroid j for the INT8 encode's vertical argmin:
 * key = (norm_j - 2 * dot) * 16 + j = (16 * norm_j + j) - 32 * dot. Since
 * 0 <= j < 16, key_a < key_b exactly when score_a < score_b, or the
 * scores tie and j_a < j_b — so a plain running MIN over keys is the
 * scalar reference's strict-< lowest-index argmin, and the winning code
 * is the key's low nibble. |score| <= v * (127^2 + 2 * 127 * 128) <
 * 6.3M for v <= 128, so a key never leaves int32.
 */
inline int32_t
encodeKeyBase(const int32_t *norms, int64_t j)
{
    return norms[j] * 16 + static_cast<int32_t>(j);
}

/**
 * Quantize 16 floats onto a subspace's 7-bit encode grid and narrow them
 * to bytes: sub, mul, clamp via max/min — MAXPS(t, 0) returns 0 for NaN,
 * matching the scalar reference's `t > 0 ? t : 0` — then CVTPS2DQ under
 * the default round-to-nearest-even mode, matching std::nearbyint.
 */
__attribute__((target("avx512f"))) inline __m128i
quantizeLevelsAvx512(__m512 t, __m512 vlo, __m512 vinv)
{
    t = _mm512_mul_ps(_mm512_sub_ps(t, vlo), vinv);
    t = _mm512_min_ps(_mm512_max_ps(t, _mm512_setzero_ps()),
                      _mm512_set1_ps(127.0f));
    return _mm512_cvtepi32_epi8(_mm512_cvtps_epi32(t));
}

/**
 * INT8 argmin-encode, VNNI tier, 16 rows per zmm (one row per int32
 * lane). Per group of 16 rows: quantize each row's subvector into a
 * row-pitched byte buffer (two rows per zmm when v <= 8, else masked
 * 16-float chunks), then one gather per dim-quad transposes the quads
 * into lanes so lane r holds row r's four bytes. Each quad feeds one
 * VPDPBUSD per centroid — x_u (unsigned lanes) against the centroid's
 * broadcast c_s quad (signed) — into 16 register-resident per-centroid
 * accumulators, and a running VPMINSD over index-tagged keys picks the
 * argmin with no horizontal reduction. Bytes past v hold the
 * quantization of 0.0f; the bank's quad layout stores 0 there (and past
 * c), so they contribute nothing.
 */
__attribute__((target("avx512f,avx512bw,avx512vnni"))) void
encodeInt8RowsVnni(const float *x, int64_t rows, int64_t stride,
                   const int8_t *cs_quad, const int32_t *norms, float lo,
                   float inv, int64_t v, int64_t c, uint8_t *codes)
{
    constexpr int64_t L = 16;
    const int64_t vq4 = (v + 3) / 4;
    const __m512 vlo = _mm512_set1_ps(lo);
    const __m512 vinv = _mm512_set1_ps(inv);
    const __m512i row_off = _mm512_mullo_epi32(
        _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14,
                          15),
        _mm512_set1_epi32(static_cast<int>(kEncodePitch)));
    int32_t keys[16] = {};
    for (int64_t j = 0; j < c; ++j)
        keys[j] = encodeKeyBase(norms, j);
    alignas(64) uint8_t xrow[L * kEncodePitch];
    for (int64_t r0 = 0; r0 < rows; r0 += L) {
        const int64_t lanes = std::min(L, rows - r0);
        const __mmask16 live = static_cast<__mmask16>((1u << lanes) - 1u);
        if (v <= 8) {
            // Row l in lanes 0..7, row l + 1 in lanes 8..15.
            const __mmask16 vmask = static_cast<__mmask16>((1u << v) - 1u);
            for (int64_t l = 0; l < lanes; l += 2) {
                const float *sub = x + (r0 + l) * stride;
                const __m512 a = _mm512_maskz_loadu_ps(vmask, sub);
                const __m512 b =
                    l + 1 < lanes ? _mm512_maskz_loadu_ps(vmask, sub + stride)
                                  : _mm512_setzero_ps();
                const __m128i q = quantizeLevelsAvx512(
                    _mm512_shuffle_f32x4(a, b, 0x44), vlo, vinv);
                _mm_storel_epi64(
                    reinterpret_cast<__m128i *>(xrow + l * kEncodePitch), q);
                _mm_storeh_pd(reinterpret_cast<double *>(
                                  xrow + (l + 1) * kEncodePitch),
                              _mm_castsi128_pd(q));
            }
        } else {
            for (int64_t l = 0; l < lanes; ++l) {
                const float *sub = x + (r0 + l) * stride;
                for (int64_t t0 = 0; t0 < v; t0 += 16) {
                    const int64_t n = std::min<int64_t>(16, v - t0);
                    const __mmask16 lm =
                        static_cast<__mmask16>((1u << n) - 1u);
                    _mm_storeu_si128(
                        reinterpret_cast<__m128i *>(xrow + l * kEncodePitch +
                                                    t0),
                        quantizeLevelsAvx512(
                            _mm512_maskz_loadu_ps(lm, sub + t0), vlo, vinv));
                }
            }
        }
        __m512i acc[16];
#pragma GCC unroll 16
        for (int64_t j = 0; j < 16; ++j)
            acc[j] = _mm512_setzero_si512();
        for (int64_t q = 0; q < vq4; ++q) {
            const __m512i xq = _mm512_mask_i32gather_epi32(
                _mm512_setzero_si512(), live, row_off, xrow + 4 * q, 1);
            const int8_t *cq = cs_quad + q * 64;
#pragma GCC unroll 16
            for (int64_t j = 0; j < 16; ++j) {
                if (j < c) {
                    int32_t quad;
                    std::memcpy(&quad, cq + 4 * j, 4);
                    acc[j] = _mm512_dpbusd_epi32(acc[j], xq,
                                                 _mm512_set1_epi32(quad));
                }
            }
        }
        __m512i best = _mm512_set1_epi32(INT32_MAX);
#pragma GCC unroll 16
        for (int64_t j = 0; j < 16; ++j)
            if (j < c)
                best = _mm512_min_epi32(
                    best, _mm512_sub_epi32(_mm512_set1_epi32(keys[j]),
                                           _mm512_slli_epi32(acc[j], 5)));
        _mm512_mask_cvtepi32_storeu_epi8(
            codes + r0, live,
            _mm512_and_si512(best, _mm512_set1_epi32(15)));
    }
}

/** Narrow 8 int32 lanes holding 0..127 to 8 bytes (low half of the
 * result): PACKSSDW + PACKUSWB never saturate there, and leave dwords 0
 * and 4 holding bytes 0..3 and 4..7. */
__attribute__((target("avx2"))) inline __m128i
packBytesAvx2(__m256i w)
{
    const __m256i p = _mm256_packs_epi32(w, w);
    return _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(
        _mm256_packus_epi16(p, p), _mm256_setr_epi32(0, 4, 0, 0, 0, 0, 0, 0)));
}

/**
 * INT8 argmin-encode, AVX2 tier (also serves plain AVX-512 hosts), 8
 * rows per ymm. Same staging, transpose and keyed running min as the
 * VNNI tier; the quad dot is VPMADDUBSW (x_u unsigned <= 127, c_s signed
 * >= -128: a pair sum is bounded by 127 * 128 * 2 = 32512 < 32767, so
 * the int16 lanes never saturate) + VPMADDWD against ones, which widens
 * the pairs into the same exact int32 quad-dots VPDPBUSD produces.
 */
__attribute__((target("avx2"))) void
encodeInt8RowsAvx2(const float *x, int64_t rows, int64_t stride,
                   const int8_t *cs_quad, const int32_t *norms, float lo,
                   float inv, int64_t v, int64_t c, uint8_t *codes)
{
    constexpr int64_t L = 8;
    static const int32_t kLaneMask[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                          0,  0,  0,  0,  0,  0,  0,  0};
    const int64_t vq4 = (v + 3) / 4;
    const __m256 vlo = _mm256_set1_ps(lo);
    const __m256 vinv = _mm256_set1_ps(inv);
    const __m256 vzero = _mm256_setzero_ps();
    const __m256 vmax = _mm256_set1_ps(127.0f);
    const __m256i ones16 = _mm256_set1_epi16(1);
    const __m256i row_off = _mm256_mullo_epi32(
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        _mm256_set1_epi32(static_cast<int>(kEncodePitch)));
    alignas(32) uint8_t xrow[L * kEncodePitch];
    alignas(32) int32_t xt[32 * L];  // [quad][lane], vq4 <= 32
    for (int64_t r0 = 0; r0 < rows; r0 += L) {
        const int64_t lanes = std::min(L, rows - r0);
        const __m256i live = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(kLaneMask + 8 - lanes));
        for (int64_t l = 0; l < lanes; ++l) {
            const float *sub = x + (r0 + l) * stride;
            uint8_t *dst = xrow + l * kEncodePitch;
            for (int64_t t0 = 0; t0 < v; t0 += 8) {
                const int64_t n = std::min<int64_t>(8, v - t0);
                const __m256i lm = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(kLaneMask + 8 - n));
                __m256 t = _mm256_maskload_ps(sub + t0, lm);
                t = _mm256_mul_ps(_mm256_sub_ps(t, vlo), vinv);
                t = _mm256_min_ps(_mm256_max_ps(t, vzero), vmax);
                _mm_storel_epi64(reinterpret_cast<__m128i *>(dst + t0),
                                 packBytesAvx2(_mm256_cvtps_epi32(t)));
            }
        }
        for (int64_t q = 0; q < vq4; ++q)
            _mm256_store_si256(
                reinterpret_cast<__m256i *>(xt + q * L),
                _mm256_mask_i32gather_epi32(
                    _mm256_setzero_si256(),
                    reinterpret_cast<const int *>(xrow + 4 * q), row_off,
                    live, 1));
        __m256i best = _mm256_set1_epi32(INT32_MAX);
        for (int64_t j = 0; j < c; ++j) {
            __m256i dot = _mm256_setzero_si256();
            for (int64_t q = 0; q < vq4; ++q) {
                int32_t quad;
                std::memcpy(&quad, cs_quad + (q * 16 + j) * 4, 4);
                const __m256i xq = _mm256_load_si256(
                    reinterpret_cast<const __m256i *>(xt + q * L));
                dot = _mm256_add_epi32(
                    dot, _mm256_madd_epi16(
                             _mm256_maddubs_epi16(xq, _mm256_set1_epi32(quad)),
                             ones16));
            }
            best = _mm256_min_epi32(
                best, _mm256_sub_epi32(
                          _mm256_set1_epi32(encodeKeyBase(norms, j)),
                          _mm256_slli_epi32(dot, 5)));
        }
        alignas(8) uint8_t out[L];
        _mm_storel_epi64(
            reinterpret_cast<__m128i *>(out),
            packBytesAvx2(_mm256_and_si256(best, _mm256_set1_epi32(15))));
        std::memcpy(codes + r0, out, static_cast<size_t>(lanes));
    }
}

__attribute__((target("avx512f,avx512bw"))) void
gatherChunkAvx512(const int8_t *__restrict__ q_il,
                  const float *__restrict__ scales,
                  const uint8_t *__restrict__ planar, int64_t num_subspaces,
                  int64_t n, int64_t num_blocks, int64_t scale_group,
                  int64_t block_cols, float *__restrict__ colmajor)
{
    constexpr int64_t kChunk = 64;
    const int64_t num_groups =
        (num_subspaces + scale_group - 1) / scale_group;
    for (int64_t g = 0; g < num_groups; ++g) {
        const int64_t s0 = g * scale_group;
        const int64_t gs =
            std::min<int64_t>(scale_group, num_subspaces - s0);
        // Code lanes for the whole group stay register/L1-resident
        // across the column sweep (<= 16 zmm of indices).
        __m512i idx[16];
        for (int64_t i = 0; i < gs; ++i)
            idx[i] = _mm512_loadu_si512(planar + (s0 + i) * kChunk);
        const float *srow = scales + g * num_blocks;
        for (int64_t col = 0; col < n; ++col) {
            __m512i lo = _mm512_setzero_si512();
            __m512i hi = _mm512_setzero_si512();
            for (int64_t i = 0; i < gs; ++i) {
                // One 16-byte LUT per (subspace, column), broadcast to
                // every 128-bit lane; VPSHUFB resolves all 64 rows'
                // lookups in one instruction.
                const __m512i lut = _mm512_broadcast_i32x4(
                    _mm_loadu_si128(reinterpret_cast<const __m128i *>(
                        q_il + ((s0 + i) * n + col) * 16)));
                const __m512i v = _mm512_shuffle_epi8(lut, idx[i]);
                lo = _mm512_add_epi16(
                    lo, _mm512_cvtepi8_epi16(_mm512_castsi512_si256(v)));
                hi = _mm512_add_epi16(
                    hi, _mm512_cvtepi8_epi16(
                            _mm512_extracti64x4_epi64(v, 1)));
            }
            // Spill the int16 lanes through int32 and dequantize with one
            // mul + add per group (the scalar sweep's exact float ops).
            const __m512 vs = _mm512_set1_ps(srow[col / block_cols]);
            const __m512 f0 = _mm512_mul_ps(
                _mm512_cvtepi32_ps(_mm512_cvtepi16_epi32(
                    _mm512_castsi512_si256(lo))),
                vs);
            const __m512 f1 = _mm512_mul_ps(
                _mm512_cvtepi32_ps(_mm512_cvtepi16_epi32(
                    _mm512_extracti64x4_epi64(lo, 1))),
                vs);
            const __m512 f2 = _mm512_mul_ps(
                _mm512_cvtepi32_ps(_mm512_cvtepi16_epi32(
                    _mm512_castsi512_si256(hi))),
                vs);
            const __m512 f3 = _mm512_mul_ps(
                _mm512_cvtepi32_ps(_mm512_cvtepi16_epi32(
                    _mm512_extracti64x4_epi64(hi, 1))),
                vs);
            float *out = colmajor + col * kChunk;
            if (g == 0) {
                _mm512_storeu_ps(out, f0);
                _mm512_storeu_ps(out + 16, f1);
                _mm512_storeu_ps(out + 32, f2);
                _mm512_storeu_ps(out + 48, f3);
            } else {
                _mm512_storeu_ps(
                    out, _mm512_add_ps(_mm512_loadu_ps(out), f0));
                _mm512_storeu_ps(
                    out + 16,
                    _mm512_add_ps(_mm512_loadu_ps(out + 16), f1));
                _mm512_storeu_ps(
                    out + 32,
                    _mm512_add_ps(_mm512_loadu_ps(out + 32), f2));
                _mm512_storeu_ps(
                    out + 48,
                    _mm512_add_ps(_mm512_loadu_ps(out + 48), f3));
            }
        }
    }
}

__attribute__((target("avx2"))) void
gatherChunkAvx2(const int8_t *__restrict__ q_il,
                const float *__restrict__ scales,
                const uint8_t *__restrict__ planar, int64_t num_subspaces,
                int64_t n, int64_t num_blocks, int64_t scale_group,
                int64_t block_cols, float *__restrict__ colmajor)
{
    constexpr int64_t kChunk = 32;
    const int64_t num_groups =
        (num_subspaces + scale_group - 1) / scale_group;
    for (int64_t g = 0; g < num_groups; ++g) {
        const int64_t s0 = g * scale_group;
        const int64_t gs =
            std::min<int64_t>(scale_group, num_subspaces - s0);
        __m256i idx[16];
        for (int64_t i = 0; i < gs; ++i)
            idx[i] = _mm256_loadu_si256(reinterpret_cast<const __m256i *>(
                planar + (s0 + i) * kChunk));
        const float *srow = scales + g * num_blocks;
        for (int64_t col = 0; col < n; ++col) {
            __m256i lo = _mm256_setzero_si256();
            __m256i hi = _mm256_setzero_si256();
            for (int64_t i = 0; i < gs; ++i) {
                const __m256i lut = _mm256_broadcastsi128_si256(
                    _mm_loadu_si128(reinterpret_cast<const __m128i *>(
                        q_il + ((s0 + i) * n + col) * 16)));
                const __m256i v = _mm256_shuffle_epi8(lut, idx[i]);
                lo = _mm256_add_epi16(
                    lo, _mm256_cvtepi8_epi16(_mm256_castsi256_si128(v)));
                hi = _mm256_add_epi16(
                    hi, _mm256_cvtepi8_epi16(
                            _mm256_extracti128_si256(v, 1)));
            }
            const __m256 vs = _mm256_set1_ps(srow[col / block_cols]);
            const __m256 f0 = _mm256_mul_ps(
                _mm256_cvtepi32_ps(_mm256_cvtepi16_epi32(
                    _mm256_castsi256_si128(lo))),
                vs);
            const __m256 f1 = _mm256_mul_ps(
                _mm256_cvtepi32_ps(_mm256_cvtepi16_epi32(
                    _mm256_extracti128_si256(lo, 1))),
                vs);
            const __m256 f2 = _mm256_mul_ps(
                _mm256_cvtepi32_ps(_mm256_cvtepi16_epi32(
                    _mm256_castsi256_si128(hi))),
                vs);
            const __m256 f3 = _mm256_mul_ps(
                _mm256_cvtepi32_ps(_mm256_cvtepi16_epi32(
                    _mm256_extracti128_si256(hi, 1))),
                vs);
            float *out = colmajor + col * kChunk;
            if (g == 0) {
                _mm256_storeu_ps(out, f0);
                _mm256_storeu_ps(out + 8, f1);
                _mm256_storeu_ps(out + 16, f2);
                _mm256_storeu_ps(out + 24, f3);
            } else {
                _mm256_storeu_ps(
                    out, _mm256_add_ps(_mm256_loadu_ps(out), f0));
                _mm256_storeu_ps(
                    out + 8, _mm256_add_ps(_mm256_loadu_ps(out + 8), f1));
                _mm256_storeu_ps(
                    out + 16,
                    _mm256_add_ps(_mm256_loadu_ps(out + 16), f2));
                _mm256_storeu_ps(
                    out + 24,
                    _mm256_add_ps(_mm256_loadu_ps(out + 24), f3));
            }
        }
    }
}

// The INT4 gathers sum biased nibbles (0..15) of a whole scale group in
// uint8 lanes; a wider group would wrap them silently.
static_assert(LutTableArena::kInt4ScaleGroup * 15 <= 255,
              "INT4 scale group too wide for uint8 nibble accumulation");

/**
 * Widen one plane of 64 uint8 biased-nibble group sums, subtract the
 * group bias and dequantize into 64 column-major floats: out = scale *
 * (sum - bias) on the first group, out += that afterwards — the scalar
 * packed sweep's float op sequence.
 */
__attribute__((target("avx512f,avx512bw"))) inline void
dequantNibbleSumsAvx512(__m512i sums, __m512i bias, __m512 vs, bool first,
                        float *out)
{
    alignas(64) uint8_t lanes[64];
    _mm512_store_si512(lanes, sums);
    for (int64_t k = 0; k < 4; ++k) {
        const __m512i w = _mm512_sub_epi32(
            _mm512_cvtepu8_epi32(_mm_load_si128(
                reinterpret_cast<const __m128i *>(lanes + 16 * k))),
            bias);
        const __m512 f = _mm512_mul_ps(_mm512_cvtepi32_ps(w), vs);
        float *o = out + 16 * k;
        _mm512_storeu_ps(o, first ? f : _mm512_add_ps(_mm512_loadu_ps(o), f));
    }
}

/**
 * INT4 shuffle gather, AVX-512 tier: identical chunk/LUT machinery to
 * gatherChunkAvx512, but each looked-up byte packs TWO adjacent output
 * columns (low nibble = even column, high nibble = odd column, both
 * bias-shifted by +8), so one VPSHUFB resolves 64 rows of BOTH columns
 * of a pair. Biased nibbles (0..15) accumulate in uint8 lanes across the
 * scale group — at most 16 * 15 = 240, exact: one shift + AND per lookup
 * feeds the odd plane, the raw byte feeds a wrapping sum the even plane
 * is recovered from once per group, and both are widened once per
 * group, where one subtract of 8 * gs recovers the signed sum before the
 * dequantizing mul + add.
 */
__attribute__((target("avx512f,avx512bw"))) void
gatherChunkInt4Avx512(const uint8_t *__restrict__ q4_il,
                      const float *__restrict__ scales,
                      const uint8_t *__restrict__ planar,
                      int64_t num_subspaces, int64_t n, int64_t num_blocks,
                      int64_t scale_group, int64_t block_cols,
                      float *__restrict__ colmajor)
{
    constexpr int64_t kChunk = 64;
    const int64_t half_n = (n + 1) / 2;
    const int64_t num_groups =
        (num_subspaces + scale_group - 1) / scale_group;
    const __m512i nib_mask = _mm512_set1_epi8(0x0F);
    const __m512i hi_mask = _mm512_set1_epi8(static_cast<char>(0xF0));
    for (int64_t g = 0; g < num_groups; ++g) {
        const int64_t s0 = g * scale_group;
        const int64_t gs =
            std::min<int64_t>(scale_group, num_subspaces - s0);
        __m512i idx[16];
        for (int64_t i = 0; i < gs; ++i)
            idx[i] = _mm512_loadu_si512(planar + (s0 + i) * kChunk);
        const float *srow = scales + g * num_blocks;
        const __m512i bias = _mm512_set1_epi32(static_cast<int>(8 * gs));
        for (int64_t p = 0; p < half_n; ++p) {
            __m512i raw = _mm512_setzero_si512();
            __m512i odd = _mm512_setzero_si512();
            for (int64_t i = 0; i < gs; ++i) {
                const __m512i lut = _mm512_broadcast_i32x4(
                    _mm_loadu_si128(reinterpret_cast<const __m128i *>(
                        q4_il + ((s0 + i) * half_n + p) * 16)));
                const __m512i v = _mm512_shuffle_epi8(lut, idx[i]);
                raw = _mm512_add_epi8(raw, v);
                odd = _mm512_add_epi8(
                    odd, _mm512_and_si512(_mm512_srli_epi16(v, 4), nib_mask));
            }
            // raw = even + 16 * odd (mod 256) per byte, and the exact
            // even sum is <= 240, so one wrapping subtract recovers it.
            const __m512i even = _mm512_sub_epi8(
                raw, _mm512_and_si512(_mm512_slli_epi16(odd, 4), hi_mask));
            // block_cols is even, so both columns of the pair live in
            // one scale block: a single broadcast serves the pair.
            const __m512 vs = _mm512_set1_ps(srow[(2 * p) / block_cols]);
            dequantNibbleSumsAvx512(even, bias, vs, g == 0,
                                    colmajor + (2 * p) * kChunk);
            if (2 * p + 1 < n)  // odd N: the last high plane has no column
                dequantNibbleSumsAvx512(odd, bias, vs, g == 0,
                                        colmajor + (2 * p + 1) * kChunk);
        }
    }
}

/** AVX2 twin of dequantNibbleSumsAvx512 over 32 rows. */
__attribute__((target("avx2"))) inline void
dequantNibbleSumsAvx2(__m256i sums, __m256i bias, __m256 vs, bool first,
                      float *out)
{
    alignas(32) uint8_t lanes[32];
    _mm256_store_si256(reinterpret_cast<__m256i *>(lanes), sums);
    for (int64_t k = 0; k < 4; ++k) {
        const __m256i w = _mm256_sub_epi32(
            _mm256_cvtepu8_epi32(_mm_loadl_epi64(
                reinterpret_cast<const __m128i *>(lanes + 8 * k))),
            bias);
        const __m256 f = _mm256_mul_ps(_mm256_cvtepi32_ps(w), vs);
        float *o = out + 8 * k;
        _mm256_storeu_ps(o, first ? f : _mm256_add_ps(_mm256_loadu_ps(o), f));
    }
}

/** INT4 shuffle gather, AVX2 tier (32-row chunks); see the AVX-512
 * variant for the nibble-plane and uint8-accumulation contract. */
__attribute__((target("avx2"))) void
gatherChunkInt4Avx2(const uint8_t *__restrict__ q4_il,
                    const float *__restrict__ scales,
                    const uint8_t *__restrict__ planar,
                    int64_t num_subspaces, int64_t n, int64_t num_blocks,
                    int64_t scale_group, int64_t block_cols,
                    float *__restrict__ colmajor)
{
    constexpr int64_t kChunk = 32;
    const int64_t half_n = (n + 1) / 2;
    const int64_t num_groups =
        (num_subspaces + scale_group - 1) / scale_group;
    const __m256i nib_mask = _mm256_set1_epi8(0x0F);
    const __m256i hi_mask = _mm256_set1_epi8(static_cast<char>(0xF0));
    for (int64_t g = 0; g < num_groups; ++g) {
        const int64_t s0 = g * scale_group;
        const int64_t gs =
            std::min<int64_t>(scale_group, num_subspaces - s0);
        __m256i idx[16];
        for (int64_t i = 0; i < gs; ++i)
            idx[i] = _mm256_loadu_si256(reinterpret_cast<const __m256i *>(
                planar + (s0 + i) * kChunk));
        const float *srow = scales + g * num_blocks;
        const __m256i bias = _mm256_set1_epi32(static_cast<int>(8 * gs));
        for (int64_t p = 0; p < half_n; ++p) {
            __m256i raw = _mm256_setzero_si256();
            __m256i odd = _mm256_setzero_si256();
            for (int64_t i = 0; i < gs; ++i) {
                const __m256i lut = _mm256_broadcastsi128_si256(
                    _mm_loadu_si128(reinterpret_cast<const __m128i *>(
                        q4_il + ((s0 + i) * half_n + p) * 16)));
                const __m256i v = _mm256_shuffle_epi8(lut, idx[i]);
                raw = _mm256_add_epi8(raw, v);
                odd = _mm256_add_epi8(
                    odd, _mm256_and_si256(_mm256_srli_epi16(v, 4), nib_mask));
            }
            const __m256i even = _mm256_sub_epi8(
                raw, _mm256_and_si256(_mm256_slli_epi16(odd, 4), hi_mask));
            const __m256 vs = _mm256_set1_ps(srow[(2 * p) / block_cols]);
            dequantNibbleSumsAvx2(even, bias, vs, g == 0,
                                  colmajor + (2 * p) * kChunk);
            if (2 * p + 1 < n)
                dequantNibbleSumsAvx2(odd, bias, vs, g == 0,
                                      colmajor + (2 * p + 1) * kChunk);
        }
    }
}

/**
 * VPERMB + VPDPBUSD gather: one 64-byte LUT carries FOUR subspaces'
 * 16-entry tables; idx bytes are (code + 16 * j) so a single VPERMB
 * resolves 16 rows x 4 subspaces, laid out [row-quad interleaved] so
 * VPDPBUSD(acc, ones, v) folds each row's 4 looked-up bytes straight
 * into its int32 lane. Kills the int8->int16->int32 widening chain that
 * port-limits the plain shuffle kernel.
 */
__attribute__((target("avx512f,avx512bw,avx512vbmi,avx512vnni"))) void
gatherChunkVnni(const int8_t *__restrict__ q_quad,
                const float *__restrict__ scales,
                const uint8_t *__restrict__ planar, int64_t num_subspaces,
                int64_t n, int64_t num_blocks, int64_t scale_group,
                int64_t block_cols, float *__restrict__ colmajor)
{
    constexpr int64_t kChunk = 64;
    const int64_t num_groups =
        (num_subspaces + scale_group - 1) / scale_group;
    const __m512i ones = _mm512_set1_epi8(1);
    for (int64_t g = 0; g < num_groups; ++g) {
        const int64_t s0 = g * scale_group;
        const int64_t gs =
            std::min<int64_t>(scale_group, num_subspaces - s0);
        const int64_t quads = (gs + 3) / 4;
        // Interleave this group's code lanes into VPERMB index vectors:
        // qidx[qd][b] covers rows 16b..16b+15, byte 4r+j = code(row,
        // subspace s0+4qd+j) + 16j (missing tail subspaces index the
        // LUT's zero padding via code 0).
        alignas(64) uint8_t qidx[4][4][64];
        for (int64_t qd = 0; qd < quads; ++qd)
            for (int64_t j = 0; j < 4; ++j) {
                const int64_t s = s0 + 4 * qd + j;
                const uint8_t base = static_cast<uint8_t>(16 * j);
                if (s < num_subspaces) {
                    const uint8_t *lane = planar + s * kChunk;
                    for (int64_t r = 0; r < kChunk; ++r)
                        qidx[qd][r >> 4][4 * (r & 15) + j] =
                            static_cast<uint8_t>(lane[r] + base);
                } else {
                    for (int64_t r = 0; r < kChunk; ++r)
                        qidx[qd][r >> 4][4 * (r & 15) + j] = base;
                }
            }
        __m512i idx[4][4];
        for (int64_t qd = 0; qd < quads; ++qd)
            for (int64_t b = 0; b < 4; ++b)
                idx[qd][b] = _mm512_load_si512(qidx[qd][b]);
        const float *srow = scales + g * num_blocks;
        const int64_t quad0 = s0 / 4;
        for (int64_t col = 0; col < n; ++col) {
            __m512i acc0 = _mm512_setzero_si512();
            __m512i acc1 = _mm512_setzero_si512();
            __m512i acc2 = _mm512_setzero_si512();
            __m512i acc3 = _mm512_setzero_si512();
            for (int64_t qd = 0; qd < quads; ++qd) {
                const __m512i lut = _mm512_loadu_si512(
                    q_quad + ((quad0 + qd) * n + col) * 64);
                acc0 = _mm512_dpbusd_epi32(
                    acc0, ones,
                    _mm512_permutexvar_epi8(idx[qd][0], lut));
                acc1 = _mm512_dpbusd_epi32(
                    acc1, ones,
                    _mm512_permutexvar_epi8(idx[qd][1], lut));
                acc2 = _mm512_dpbusd_epi32(
                    acc2, ones,
                    _mm512_permutexvar_epi8(idx[qd][2], lut));
                acc3 = _mm512_dpbusd_epi32(
                    acc3, ones,
                    _mm512_permutexvar_epi8(idx[qd][3], lut));
            }
            const __m512 vs = _mm512_set1_ps(srow[col / block_cols]);
            const __m512 f0 = _mm512_mul_ps(_mm512_cvtepi32_ps(acc0), vs);
            const __m512 f1 = _mm512_mul_ps(_mm512_cvtepi32_ps(acc1), vs);
            const __m512 f2 = _mm512_mul_ps(_mm512_cvtepi32_ps(acc2), vs);
            const __m512 f3 = _mm512_mul_ps(_mm512_cvtepi32_ps(acc3), vs);
            float *out = colmajor + col * kChunk;
            if (g == 0) {
                _mm512_storeu_ps(out, f0);
                _mm512_storeu_ps(out + 16, f1);
                _mm512_storeu_ps(out + 32, f2);
                _mm512_storeu_ps(out + 48, f3);
            } else {
                _mm512_storeu_ps(
                    out, _mm512_add_ps(_mm512_loadu_ps(out), f0));
                _mm512_storeu_ps(
                    out + 16,
                    _mm512_add_ps(_mm512_loadu_ps(out + 16), f1));
                _mm512_storeu_ps(
                    out + 32,
                    _mm512_add_ps(_mm512_loadu_ps(out + 32), f2));
                _mm512_storeu_ps(
                    out + 48,
                    _mm512_add_ps(_mm512_loadu_ps(out + 48), f3));
            }
        }
    }
}

// ---- Chunk transpose-out ---------------------------------------------------
//
// One body over a lane type (util/simd_lanes.h), as in nn/simd_math.cc.

using namespace lanes;

/**
 * One stage of the in-register transpose: for the row pair (a, b) = (i,
 * i + H), swap a's lanes with bit H set against b's lanes with bit H
 * clear. That swaps bit H between the row and the lane index of every
 * element, so running the stage for every H = 1, 2, ..., W / 2 maps
 * element (row i, lane j) to (row j, lane i).
 */
template <class V, int64_t H, size_t... J>
LUTDLA_LANE_INLINE void
swapLaneBlocks(V &a, V &b, std::index_sequence<J...>)
{
    using I = typename LaneInt<V>::type;
    constexpr int64_t W = kLanes<V>;
    constexpr I lo{static_cast<int32_t>(
        (static_cast<int64_t>(J) & H) ? W + J - H : J)...};
    constexpr I hi{static_cast<int32_t>(
        (static_cast<int64_t>(J) & H) ? W + J : J + H)...};
    const V a2 = __builtin_shuffle(a, b, lo);
    b = __builtin_shuffle(a, b, hi);
    a = a2;
}

template <class V, int64_t H = 1>
LUTDLA_LANE_INLINE void
transposeLanes(V (&m)[kLanes<V>])
{
    constexpr int64_t W = kLanes<V>;
    if constexpr (H < W) {
        for (int64_t i = 0; i < W; ++i)
            if ((i & H) == 0)
                swapLaneBlocks<V, H>(m[i], m[i + H],
                                     std::make_index_sequence<W>{});
        transposeLanes<V, 2 * H>(m);
    }
}

/**
 * y[r, col] = colmajor[col * chunk + r] (+ bias[col]) for r < rows and
 * col0 <= col < n: W x W tiles of W column loads, transposed in
 * registers into W row stores, with the bias added on the way out. Tile
 * loads may read rows past `rows` (still inside the chunk); only valid
 * rows are stored. Columns past the last whole tile run the W = 1 body.
 * Without a bias values are stored as they are (adding 0.0f would turn
 * -0.0f into +0.0f).
 */
template <class V>
LUTDLA_LANE_INLINE void
transposeOutBody(const float *__restrict__ colmajor, int64_t chunk,
                 int64_t n, int64_t rows, const float *__restrict__ bias,
                 float *__restrict__ y, int64_t col0 = 0)
{
    constexpr int64_t W = kLanes<V>;
    if constexpr (W == 1) {
        for (int64_t r = 0; r < rows; ++r)
            for (int64_t col = col0; col < n; ++col) {
                const float value = colmajor[col * chunk + r];
                y[r * n + col] = bias != nullptr ? value + bias[col] : value;
            }
    } else {
        const int64_t n_tiles = n - n % W;
        for (int64_t r0 = 0; r0 < rows; r0 += W) {
            const int64_t rn = std::min(W, rows - r0);
            for (int64_t c0 = 0; c0 < n_tiles; c0 += W) {
                V m[W];
                for (int64_t i = 0; i < W; ++i)
                    m[i] = load<V>(colmajor + (c0 + i) * chunk + r0);
                transposeLanes<V>(m);
                if (bias != nullptr) {
                    const V b = load<V>(bias + c0);
                    for (int64_t j = 0; j < rn; ++j)
                        store(y + (r0 + j) * n + c0, m[j] + b);
                } else {
                    for (int64_t j = 0; j < rn; ++j)
                        store(y + (r0 + j) * n + c0, m[j]);
                }
            }
        }
        if (n_tiles < n)
            transposeOutBody<float>(colmajor, chunk, n, rows, bias, y,
                                    n_tiles);
    }
}

__attribute__((target("avx2"))) void
transposeOutAvx2(const float *colmajor, int64_t chunk, int64_t n,
                 int64_t rows, const float *bias, float *y)
{
    transposeOutBody<F8>(colmajor, chunk, n, rows, bias, y);
}

__attribute__((target("avx512f"))) void
transposeOutAvx512(const float *colmajor, int64_t chunk, int64_t n,
                   int64_t rows, const float *bias, float *y)
{
    transposeOutBody<F16>(colmajor, chunk, n, rows, bias, y);
}

} // namespace

bool
encodeL2C16Supported(util::SimdLevel level)
{
    return level >= util::SimdLevel::Avx2;
}

void
encodeL2C16Rows(util::SimdLevel level, const float *x, int64_t rows,
                int64_t stride, const float *cbt, int64_t v,
                uint8_t *codes)
{
    if (level >= util::SimdLevel::Avx512) {
        encodeL2C16RowsAvx512(x, rows, stride, cbt, v, codes);
        return;
    }
    LUTDLA_CHECK(level == util::SimdLevel::Avx2,
                 "encodeL2C16Rows requires AVX2 or AVX-512");
    encodeL2C16RowsAvx2(x, rows, stride, cbt, v, codes);
}

bool
encodeL2GenericSupported(util::SimdLevel level, int64_t c)
{
    return level >= util::SimdLevel::Avx2 && c >= 2 && c <= 64;
}

void
encodeL2GenericRows(util::SimdLevel level, const float *x, int64_t rows,
                    int64_t stride, const float *cbt, int64_t v, int64_t c,
                    uint8_t *codes)
{
    LUTDLA_CHECK(c >= 2 && c <= 64,
                 "encodeL2GenericRows supports 2..64 centroids");
    if (level >= util::SimdLevel::Avx512) {
        encodeL2GenericRowsAvx512(x, rows, stride, cbt, v, c, codes);
        return;
    }
    LUTDLA_CHECK(level == util::SimdLevel::Avx2,
                 "encodeL2GenericRows requires AVX2 or AVX-512");
    encodeL2GenericRowsAvx2(x, rows, stride, cbt, v, c, codes);
}

bool
int8EncodeSupported(util::SimdLevel level)
{
    return level >= util::SimdLevel::Avx2;
}

void
encodeInt8C16Rows(util::SimdLevel level, const float *x, int64_t rows,
                  int64_t stride, const int8_t *cs_quad,
                  const int32_t *norms, float lo, float inv, int64_t v,
                  int64_t c, uint8_t *codes)
{
    LUTDLA_CHECK(v >= 1 && v <= kEncodePitch,
                 "INT8 encode kernels support subvector lengths up to 128");
    LUTDLA_CHECK(c >= 1 && c <= 16,
                 "INT8 encode kernels support 1..16 centroids");
    if (level >= util::SimdLevel::Avx512Vnni) {
        encodeInt8RowsVnni(x, rows, stride, cs_quad, norms, lo, inv, v, c,
                           codes);
        return;
    }
    LUTDLA_CHECK(level >= util::SimdLevel::Avx2,
                 "encodeInt8C16Rows requires AVX2 or newer");
    encodeInt8RowsAvx2(x, rows, stride, cs_quad, norms, lo, inv, v, c,
                       codes);
}

bool
shuffleGatherSupported(util::SimdLevel level)
{
    return level >= util::SimdLevel::Avx2;
}

bool
vnniGatherSupported(util::SimdLevel level)
{
    return level >= util::SimdLevel::Avx512Vnni;
}

void
vnniGatherChunk(const int8_t *q_quad, const float *scales,
                const uint8_t *planar, int64_t num_subspaces, int64_t n,
                int64_t num_blocks, int64_t scale_group, int64_t block_cols,
                float *colmajor)
{
    LUTDLA_CHECK(vnniGatherSupported(util::simdLevel()),
                 "vnniGatherChunk requires AVX-512 VBMI + VNNI");
    LUTDLA_CHECK(scale_group >= 4 && scale_group <= 16 &&
                     scale_group % 4 == 0,
                 "vnni gather needs a quad-aligned scale group of <= 16");
    gatherChunkVnni(q_quad, scales, planar, num_subspaces, n, num_blocks,
                    scale_group, block_cols, colmajor);
}

int64_t
shuffleGatherChunkRows(util::SimdLevel level)
{
    if (level >= util::SimdLevel::Avx512)
        return 64;
    if (level == util::SimdLevel::Avx2)
        return 32;
    return 0;
}

void
shuffleGatherChunk(util::SimdLevel level, const int8_t *q_il,
                   const float *scales, const uint8_t *planar,
                   int64_t num_subspaces, int64_t n, int64_t num_blocks,
                   int64_t scale_group, int64_t block_cols, float *colmajor)
{
    LUTDLA_CHECK(scale_group >= 1 && scale_group <= 16,
                 "shuffle gather supports scale groups of 1..16 subspaces");
    if (level >= util::SimdLevel::Avx512) {
        gatherChunkAvx512(q_il, scales, planar, num_subspaces, n,
                          num_blocks, scale_group, block_cols, colmajor);
        return;
    }
    LUTDLA_CHECK(level == util::SimdLevel::Avx2,
                 "shuffleGatherChunk requires AVX2 or AVX-512");
    gatherChunkAvx2(q_il, scales, planar, num_subspaces, n, num_blocks,
                    scale_group, block_cols, colmajor);
}

void
shuffleGatherChunkInt4(util::SimdLevel level, const uint8_t *q4_il,
                       const float *scales, const uint8_t *planar,
                       int64_t num_subspaces, int64_t n, int64_t num_blocks,
                       int64_t scale_group, int64_t block_cols,
                       float *colmajor)
{
    LUTDLA_CHECK(scale_group >= 1 && scale_group <= 16,
                 "shuffle gather supports scale groups of 1..16 subspaces");
    LUTDLA_CHECK(block_cols % 2 == 0,
                 "INT4 shuffle gather needs an even scale block width so "
                 "a packed column pair never straddles a block");
    if (level >= util::SimdLevel::Avx512) {
        gatherChunkInt4Avx512(q4_il, scales, planar, num_subspaces, n,
                              num_blocks, scale_group, block_cols,
                              colmajor);
        return;
    }
    LUTDLA_CHECK(level == util::SimdLevel::Avx2,
                 "shuffleGatherChunkInt4 requires AVX2 or AVX-512");
    gatherChunkInt4Avx2(q4_il, scales, planar, num_subspaces, n,
                        num_blocks, scale_group, block_cols, colmajor);
}

void
transposeChunkOut(util::SimdLevel level, const float *colmajor,
                  int64_t chunk, int64_t n, int64_t rows, const float *bias,
                  float *y)
{
    LUTDLA_CHECK(level <= util::simdLevel(), "transposeChunkOut at ",
                 util::simdLevelName(level), " exceeds this CPU's ",
                 util::simdLevelName(util::simdLevel()));
    LUTDLA_CHECK(rows >= 0 && rows <= chunk,
                 "transposeChunkOut copies out at most one chunk of rows");
    if (level >= util::SimdLevel::Avx512 && chunk % 16 == 0)
        transposeOutAvx512(colmajor, chunk, n, rows, bias, y);
    else if (level >= util::SimdLevel::Avx2 && chunk % 8 == 0)
        transposeOutAvx2(colmajor, chunk, n, rows, bias, y);
    else
        transposeOutBody<float>(colmajor, chunk, n, rows, bias, y);
}

} // namespace lutdla::lutboost::simd
