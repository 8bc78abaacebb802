#ifndef LUTDLA_LUTBOOST_KERNELS_SIMD_H
#define LUTDLA_LUTBOOST_KERNELS_SIMD_H

/**
 * @file
 * Runtime-dispatched SIMD kernels for the serving data plane.
 *
 * Every function here is compiled with a per-function target attribute
 * (AVX-512BW, AVX2) in a TU built WITHOUT -march=native, so a single
 * binary carries every variant; callers pick one with util::simdLevel()
 * (cpuid at first use) instead of the compile-time #ifdef guards the
 * arena kernels used to rely on. See docs/SERVING.md for the full
 * dispatch matrix (ISA x code width x table precision).
 *
 * Three kernel families:
 *
 *  - float encode: fused L2 distance + argmin for the flagship c == 16
 *    shape, keeping all 16 per-centroid accumulators in one register
 *    file, plus a masked generic-c tier for any c <= 64 (centroid
 *    blocks of 16/8 lanes, pad lanes parked at +inf). Bit-exact with
 *    the scalar distance + ascending argmin scan (explicit mul + add,
 *    never FMA; lowest-index tie-break; NaN rows fall back to the
 *    scalar scan).
 *
 *  - INT8 encode: integer argmin over the quantized encode bank.
 *    Input subvectors are quantized onto the SAME per-subspace 7-bit
 *    affine grid as the bank's centroids (x_u = clamp(round((x - lo) *
 *    inv), 0, 127)), so argmin ||x - c||^2 collapses to an integer
 *    argmin over (||c_u||^2 - 2 * x_u . c_s) with c_s = c_u - 128 —
 *    the dropped ||x_u||^2 and -256 * sum(x_u) terms are constant
 *    across centroids. Rows sit in vector lanes (16 per zmm on the VNNI
 *    tier, 8 per ymm on the AVX2 tier): each row's quantized quads are
 *    transposed into lanes once, then every centroid's quads are
 *    broadcast from the bank and folded in with one VPDPBUSD (VNNI) or
 *    VPMADDUBSW + VPMADDWD (AVX2; the 7-bit x grid caps a pair sum at
 *    127 * 128 * 2 = 32512, so the int16 lanes never saturate) per quad.
 *    Each score is tagged with its index (score * 16 + j), so a plain
 *    vertical running min is the scalar strict-< argmin with ties to the
 *    lowest index; no horizontal reduction runs, and the result is
 *    bit-identical to the scalar integer reference by construction.
 *    Codes land as one byte per row — directly in the shuffle gather's
 *    planar lanes.
 *
 *  - shuffle gather (INT8 bank, c <= 16): the in-register table lookup
 *    the paper's DPE performs in hardware. Codes for a block of rows are
 *    laid out planar (one byte lane per row), each (subspace, column)'s
 *    16 centroid entries are one vector-register LUT (the interleaved
 *    bank layout), and VPSHUFB resolves 64 (AVX-512) / 32 (AVX2) rows'
 *    lookups per instruction. Partial sums accumulate in int16 lanes
 *    across a scale group and spill through int32 to float once per
 *    group — exact integer arithmetic, so the result is bit-identical
 *    to the scalar group sweep by construction.
 *
 *  - INT4 shuffle gather (nibble-packed bank, c <= 16): same VPSHUFB
 *    machinery over the packed interleaved layout, where each looked-up
 *    byte carries TWO adjacent output columns (low/high nibble plane,
 *    both bias-shifted by +8). Biased nibbles accumulate in uint8
 *    lanes across a scale group (at most 16 * 15 = 240, exact): per
 *    lookup one shift + AND adds the odd plane and the raw byte is
 *    added to a wrapping sum, from which the even plane is recovered
 *    once per group. Both are widened once per group, and one
 *    bias-correcting subtract precedes the per-group dequantizing
 *    mul + add — again bit-identical to the scalar packed sweep.
 */

#include <cstdint>

#include "util/cpu_features.h"

namespace lutdla::lutboost::simd {

/** True when `level` provides the c==16 L2 encode fast path. */
bool encodeL2C16Supported(util::SimdLevel level);

/**
 * Fused L2 distance + argmin of `rows` subvectors (row i at x + i *
 * stride, `v` floats each) against one transposed [v, 16] codebook at
 * `level` (which must satisfy encodeL2C16Supported), writing one code
 * byte per row. One call per (subspace, batch), so the per-row argmin
 * stays inlined inside the attributed loop. Bit-exact with the scalar
 * reference.
 */
void encodeL2C16Rows(util::SimdLevel level, const float *x, int64_t rows,
                     int64_t stride, const float *cbt, int64_t v,
                     uint8_t *codes);

/** True when `level` provides the masked generic-c (c <= 64) L2 encode
 * tier for centroid counts without a dedicated fast path. */
bool encodeL2GenericSupported(util::SimdLevel level, int64_t c);

/**
 * Generic-c twin of encodeL2C16Rows: encode `rows` subvectors against one
 * transposed [v, c] codebook for any 2 <= c <= 64. Centroids are
 * processed in masked blocks of 16 (AVX-512) / 8 (AVX2) lanes with pad
 * lanes parked at +inf; the cross-block argmin scans blocks in ascending
 * order and breaks ties toward the lowest index, so the result is
 * bit-exact with the scalar distance + ascending argmin scan (NaN rows
 * fall back to the scalar scan).
 */
void encodeL2GenericRows(util::SimdLevel level, const float *x,
                         int64_t rows, int64_t stride, const float *cbt,
                         int64_t v, int64_t c, uint8_t *codes);

/** True when `level` provides an INT8 integer argmin-encode tier
 * (requires AVX2; the VNNI tier additionally requires
 * SimdLevel::Avx512Vnni). */
bool int8EncodeSupported(util::SimdLevel level);

/**
 * INT8 integer argmin-encode of `rows` subvectors (row i at x + i *
 * stride, `v` floats each, v <= 128) against one subspace's quantized
 * encode bank at `level` (which must satisfy int8EncodeSupported),
 * writing one code byte per row: codes[i] for row i.
 *
 * Each subvector is quantized onto the bank's 7-bit grid (x_u =
 * clamp(round((x - lo) * inv), 0, 127), NaN -> 0) and scored against
 * centroids 0..c-1 as score_j = norms[j] - 2 * dot(x_u, cs_quad[j]) in
 * exact int32 arithmetic; the strict-< running argmin breaks ties toward
 * the lowest index.
 *
 * @param cs_quad  quad-interleaved signed bank for this subspace: byte
 *                 (q * 16 + j) * 4 + k holds c_s[j][4q + k] = c_u - 128
 *                 (zero past v and past c), q < vq4 = ceil(v / 4) — read
 *                 as one int32 quad per (q, centroid).
 * @param norms    int32 centroid norms ||c_u||^2, at least c entries.
 * @param lo, inv  the subspace's affine grid (inv = 1 / step).
 * @param c        centroids scored, 1..16.
 *
 * At SimdLevel::Avx512Vnni 16 rows share one zmm and each (quad,
 * centroid) is one VPDPBUSD; at AVX2 / plain AVX-512, 8 rows share a ymm
 * and each is VPMADDUBSW + VPMADDWD. Both produce the identical int32
 * scores as the generic-tier INT8 encode bank's scalar reference
 * (lutboost/table_bank.h), so codes match bit-for-bit.
 */
void encodeInt8C16Rows(util::SimdLevel level, const float *x, int64_t rows,
                       int64_t stride, const int8_t *cs_quad,
                       const int32_t *norms, float lo, float inv,
                       int64_t v, int64_t c, uint8_t *codes);

/** True when `level` provides the shuffle-based INT8 gather. */
bool shuffleGatherSupported(util::SimdLevel level);

/** Rows one shuffle-gather chunk covers at `level` (64 AVX-512, 32 AVX2;
 * 0 when unsupported). Callers hand tails to the scalar sweep. */
int64_t shuffleGatherChunkRows(util::SimdLevel level);

/**
 * Shuffle-gather one chunk of exactly shuffleGatherChunkRows(level) rows
 * over the interleaved INT8 bank, writing column-major partial sums.
 *
 * @param q_il       interleaved bank: entry (s, col, j) at
 *                   ((s * n + col) * 16 + j), j padded to 16 with zeros.
 * @param scales     dequant scales, one per (scale group, column block):
 *                   scales[g * num_blocks + block].
 * @param planar     planar codes for the chunk: code (s, row r) at
 *                   (s * chunk + r); values < 16.
 * @param num_subspaces / n / num_blocks / scale_group / block_cols
 *                   bank geometry (see LutTableArena's scale constants).
 * @param colmajor   [n, chunk] output, overwritten: colmajor[col * chunk
 *                   + r] = sum over groups of scale * int-sum. The caller
 *                   transposes into the row-major output block.
 */
void shuffleGatherChunk(util::SimdLevel level, const int8_t *q_il,
                        const float *scales, const uint8_t *planar,
                        int64_t num_subspaces, int64_t n,
                        int64_t num_blocks, int64_t scale_group,
                        int64_t block_cols, float *colmajor);

/**
 * INT4 twin of shuffleGatherChunk over the nibble-packed interleaved
 * bank: one chunk of exactly shuffleGatherChunkRows(level) rows, writing
 * column-major partial sums for ALL n output columns.
 *
 * @param q4_il      packed interleaved bank: the byte at
 *                   ((s * half_n + p) * 16 + j) carries entry (s, col
 *                   2p, j) in its low nibble and entry (s, col 2p+1, j)
 *                   in its high nibble, both bias-shifted by +8 (pad
 *                   nibbles hold 8, the exact zero), where half_n =
 *                   ceil(n / 2).
 * @param scales     dequant scales as in shuffleGatherChunk; block_cols
 *                   must be even so a column pair never straddles a
 *                   scale block.
 * Other parameters and the colmajor output contract match
 * shuffleGatherChunk (an odd n's final column is still written; the
 * missing odd partner is simply never stored).
 */
void shuffleGatherChunkInt4(util::SimdLevel level, const uint8_t *q4_il,
                            const float *scales, const uint8_t *planar,
                            int64_t num_subspaces, int64_t n,
                            int64_t num_blocks, int64_t scale_group,
                            int64_t block_cols, float *colmajor);

/** True when `level` provides the VPERMB/VPDPBUSD dot-accumulate gather
 * (requires SimdLevel::Avx512Vnni). */
bool vnniGatherSupported(util::SimdLevel level);

/**
 * Dot-accumulate gather for one 64-row chunk over the QUAD-interleaved
 * INT8 bank: entries of four consecutive subspaces live in one 64-byte
 * LUT (`q_quad[(quad * n + col) * 64 + 16 * j + e]` = entry e of
 * subspace 4*quad+j, zero-padded past c and past the last subspace), so
 * one VPERMB resolves 16 rows x 4 subspaces of lookups and one VPDPBUSD
 * folds each row's four looked-up bytes into its int32 lane — no
 * widening chain at all, which is what the plain shuffle kernel spends
 * most of its shuffle-port budget on (~2.5x faster at c=16). Same
 * contract as shuffleGatherChunk otherwise: exact integer accumulation
 * per scale group, one dequantizing mul + add per group, column-major
 * output — bit-identical to every other variant.
 */
void vnniGatherChunk(const int8_t *q_quad, const float *scales,
                     const uint8_t *planar, int64_t num_subspaces,
                     int64_t n, int64_t num_blocks, int64_t scale_group,
                     int64_t block_cols, float *colmajor);

} // namespace lutdla::lutboost::simd

#endif // LUTDLA_LUTBOOST_KERNELS_SIMD_H
