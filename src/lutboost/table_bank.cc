#include "lutboost/table_bank.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "lutboost/kernels_simd.h"
#include "lutboost/table_arena.h"
#include "util/logging.h"

namespace lutdla::lutboost {

const char *
tablePrecisionName(TablePrecision precision)
{
    switch (precision) {
      case TablePrecision::Int8:
        return "int8";
      case TablePrecision::Int4:
        return "int4";
      default:
        return "float32";
    }
}

const char *
encodePrecisionName(EncodePrecision precision)
{
    return precision == EncodePrecision::Int8 ? "int8" : "float32";
}

/**
 * Where an encode writes its codes. The SIMD tiers emit one subspace at a
 * time as a byte plane — into plane(s), then commit(s, rows) — while the
 * scalar scans, which also serve c > 256, store code by code via set().
 * With `codes` null the sink aims the kernels straight at planar code
 * lanes (the shuffle gather's input); otherwise `lanes` is a staging
 * plane that commit() packs into rows [row0, row0 + rows) of `codes`.
 */
struct CodeSink
{
    vq::CodeBuffer *codes;  ///< packed target; null for planar lanes
    int64_t row0;           ///< first packed row
    uint8_t *lanes;         ///< planar lanes, or the staging plane
    int64_t stride;         ///< planar lane stride

    uint8_t *
    plane(int64_t s) const
    {
        return codes != nullptr ? lanes : lanes + s * stride;
    }
    void
    commit(int64_t s, int64_t rows) const
    {
        if (codes != nullptr)
            codes->setPlane(row0, s, lanes, rows);
    }
    void
    set(int64_t i, int64_t s, int32_t code) const
    {
        if (codes != nullptr)
            codes->set(row0 + i, s, code);
        else
            lanes[s * stride + i] = static_cast<uint8_t>(code);
    }
};

namespace {

/** A bank built for `level` must be able to run on this CPU. */
void
checkTier(util::SimdLevel level)
{
    LUTDLA_CHECK(level <= util::simdLevel(), "requested bank tier needs ",
                 util::simdLevelName(level), " but this CPU provides ",
                 util::simdLevelName(util::simdLevel()));
}

/** A gather span [row0, row0 + rows) must lie inside `codes`, which must
 * carry `num_subspaces` codes per row. */
void
checkGatherSpan(const vq::CodeBuffer &codes, int64_t num_subspaces,
                int64_t row0, int64_t rows)
{
    LUTDLA_CHECK(codes.subspaces() == num_subspaces,
                 "code buffer carries ", codes.subspaces(),
                 " subspaces, arena has ", num_subspaces);
    LUTDLA_CHECK(row0 >= 0 && row0 + rows <= codes.rows(),
                 "gather span [", row0, ", ", row0 + rows, ") exceeds ",
                 codes.rows(), " encoded rows");
}

/**
 * Transpose the first `valid_rows` rows of one chunk's column-major
 * accumulators ([n, chunk]) into the row-major output block
 * ([valid_rows, n]). 16x16 tiles keep both sides cache-friendly; values
 * are moved, never recomputed, so this cannot perturb numerics.
 */
inline void
transposeColMajor(const float *__restrict__ colmajor, int64_t chunk,
                  int64_t n, int64_t valid_rows, float *__restrict__ yb)
{
    constexpr int64_t T = 16;
    for (int64_t r0 = 0; r0 < valid_rows; r0 += T) {
        const int64_t r1 = std::min(valid_rows, r0 + T);
        for (int64_t c0 = 0; c0 < n; c0 += T) {
            const int64_t c1 = std::min(n, c0 + T);
            for (int64_t r = r0; r < r1; ++r)
                for (int64_t col = c0; col < c1; ++col)
                    yb[r * n + col] = colmajor[col * chunk + r];
        }
    }
}

/**
 * Float sweep, row-major reference shape: best for tiny blocks, where the
 * output row lives in L1 and each table entry is one contiguous stream.
 * `table` is the [Nc, c, n] PSum table.
 */
void
sweepFloatSimple(const float *table, const int32_t *codes, int64_t bn,
                 int64_t n, int64_t num_subspaces, int64_t c, float *yb)
{
    for (int64_t r = 0; r < bn; ++r) {
        const int32_t *rcodes = codes + r * num_subspaces;
        float *__restrict__ yr = yb + r * n;
        for (int64_t s = 0; s < num_subspaces; ++s) {
            const float *__restrict__ psum =
                table + (s * c + rcodes[s]) * n;
            for (int64_t col = 0; col < n; ++col)
                yr[col] += psum[col];
        }
    }
}

/**
 * Float sweep, subspace-group-major: kSubspaceGroup table banks stay hot
 * across the whole row block, and each group folds its partial sums into
 * the output slab in ONE sweep, dividing y-slab read/write traffic by the
 * group size. Entry rows are read contiguously (prefetch-friendly
 * 4*N-byte streams) — column-tiled variants defeat the hardware
 * prefetcher and measure far slower despite touching fewer bytes.
 */
void
sweepFloatGrouped(const float *table, const int32_t *codes, int64_t bn,
                  int64_t n, int64_t num_subspaces, int64_t c, float *yb)
{
    constexpr int64_t G = LutTableArena::kSubspaceGroup;
    for (int64_t s0 = 0; s0 < num_subspaces; s0 += G) {
        const int64_t g = std::min<int64_t>(G, num_subspaces - s0);
        for (int64_t r = 0; r < bn; ++r) {
            const int32_t *rcodes = codes + r * num_subspaces;
            float *__restrict__ yr = yb + r * n;
            if (g == G) {
                const float *__restrict__ p[G];
                for (int64_t gi = 0; gi < G; ++gi)
                    p[gi] = table + ((s0 + gi) * c + rcodes[s0 + gi]) * n;
                for (int64_t col = 0; col < n; ++col) {
                    float acc = yr[col];
                    for (int64_t gi = 0; gi < G; ++gi)
                        acc += p[gi][col];
                    yr[col] = acc;
                }
            } else {
                for (int64_t gi = 0; gi < g; ++gi) {
                    const float *__restrict__ psum =
                        table + ((s0 + gi) * c + rcodes[s0 + gi]) * n;
                    for (int64_t col = 0; col < n; ++col)
                        yr[col] += psum[col];
                }
            }
        }
    }
}

/**
 * The scalar INT8 group sweep as a free function over raw restrict
 * pointers: in this exact shape GCC vectorizes the unrolled 16-deep
 * widen-add reduction; as a member-function body (q/scales reached
 * through the bank) it refuses and emits byte-scalar code ~10x slower.
 * noinline keeps this compilation context when the caller inlines
 * around it. Per scale group it accumulates exact int32 sums, then folds
 * into the float output with ONE mul + add per (group, column) — the
 * same float op sequence the chunk kernels emit, which is what makes
 * every tier bit-identical. This TU builds with -ffp-contract=off so the
 * mul + add never contracts.
 */
__attribute__((noinline)) void
sweepInt8ColOuter(const int8_t *__restrict__ qbank,
                  const float *__restrict__ scales,
                  const int32_t *__restrict__ codes, int64_t bn,
                  int64_t n, int64_t num_subspaces, int64_t c,
                  int64_t num_blocks, int64_t num_groups,
                  float *__restrict__ yb)
{
    constexpr int64_t G = LutTableArena::kInt8ScaleGroup;
    constexpr int64_t B = LutTableArena::kInt8BlockCols;
    for (int64_t g = 0; g < num_groups; ++g) {
        const int64_t s0 = g * G;
        const int64_t gs = std::min<int64_t>(G, num_subspaces - s0);
        const float *srow = scales + g * num_blocks;
        for (int64_t r = 0; r < bn; ++r) {
            const int32_t *rcodes = codes + r * num_subspaces;
            float *__restrict__ yr = yb + r * n;
            const int8_t *__restrict__ q[G];
            for (int64_t gi = 0; gi < gs; ++gi) {
                const int64_t s = s0 + gi;
                q[gi] = qbank + (s * c + rcodes[s]) * n;
            }
            for (int64_t b = 0; b < num_blocks; ++b) {
                const int64_t c0 = b * B;
                const int64_t c1 = std::min(n, c0 + B);
                const float scale = srow[b];
                if (gs == G) {
                    for (int64_t col = c0; col < c1; ++col) {
                        int32_t acc = 0;
                        for (int64_t gi = 0; gi < G; ++gi)
                            acc += q[gi][col];
                        yr[col] += scale * static_cast<float>(acc);
                    }
                } else {
                    for (int64_t col = c0; col < c1; ++col) {
                        int32_t acc = 0;
                        for (int64_t gi = 0; gi < gs; ++gi)
                            acc += q[gi][col];
                        yr[col] += scale * static_cast<float>(acc);
                    }
                }
            }
        }
    }
}

/**
 * The scalar INT4 packed group sweep, a free function for the same
 * vectorization reason as sweepInt8ColOuter. Walks packed column PAIRS:
 * each byte yields both nibble planes with one AND + one shift, biased
 * sums accumulate exactly in int32, and the single bias-correcting
 * subtract + dequantizing mul + add per (group, column) matches the
 * shuffle kernels' float op sequence bit for bit.
 */
__attribute__((noinline)) void
sweepInt4ColOuter(const uint8_t *__restrict__ qbank,
                  const float *__restrict__ scales,
                  const int32_t *__restrict__ codes, int64_t bn,
                  int64_t n, int64_t half_n, int64_t num_subspaces,
                  int64_t c, int64_t num_blocks, int64_t num_groups,
                  float *__restrict__ yb)
{
    constexpr int64_t G = LutTableArena::kInt4ScaleGroup;
    constexpr int64_t B = LutTableArena::kInt4BlockCols;
    for (int64_t g = 0; g < num_groups; ++g) {
        const int64_t s0 = g * G;
        const int64_t gs = std::min<int64_t>(G, num_subspaces - s0);
        const int32_t bias = static_cast<int32_t>(8 * gs);
        const float *srow = scales + g * num_blocks;
        for (int64_t r = 0; r < bn; ++r) {
            const int32_t *rcodes = codes + r * num_subspaces;
            float *__restrict__ yr = yb + r * n;
            const uint8_t *__restrict__ q[G];
            for (int64_t gi = 0; gi < gs; ++gi) {
                const int64_t s = s0 + gi;
                q[gi] = qbank + (s * c + rcodes[s]) * half_n;
            }
            for (int64_t b = 0; b < num_blocks; ++b) {
                const int64_t c0 = b * B;
                const int64_t c1 = std::min(n, c0 + B);
                const float scale = srow[b];
                // B is even, so c0 is even and the block covers whole
                // pairs — except the final block of an odd N, whose
                // dangling low-plane column is handled after the loop.
                const int64_t p0 = c0 >> 1;
                const int64_t pairs = (c1 - c0) >> 1;
                if (gs == G) {
                    for (int64_t p = 0; p < pairs; ++p) {
                        int32_t alo = 0, ahi = 0;
                        for (int64_t gi = 0; gi < G; ++gi) {
                            const int32_t byte = q[gi][p0 + p];
                            alo += byte & 15;
                            ahi += byte >> 4;
                        }
                        yr[c0 + 2 * p] +=
                            scale * static_cast<float>(alo - bias);
                        yr[c0 + 2 * p + 1] +=
                            scale * static_cast<float>(ahi - bias);
                    }
                } else {
                    for (int64_t p = 0; p < pairs; ++p) {
                        int32_t alo = 0, ahi = 0;
                        for (int64_t gi = 0; gi < gs; ++gi) {
                            const int32_t byte = q[gi][p0 + p];
                            alo += byte & 15;
                            ahi += byte >> 4;
                        }
                        yr[c0 + 2 * p] +=
                            scale * static_cast<float>(alo - bias);
                        yr[c0 + 2 * p + 1] +=
                            scale * static_cast<float>(ahi - bias);
                    }
                }
                if ((c1 - c0) & 1) {
                    int32_t alo = 0;
                    for (int64_t gi = 0; gi < gs; ++gi)
                        alo += q[gi][half_n - 1] & 15;
                    yr[n - 1] += scale * static_cast<float>(alo - bias);
                }
            }
        }
    }
}

/**
 * Distances from one subvector to EVERY centroid of a transposed [v, c]
 * codebook, written into `d[c]`. For a fixed centroid j the elementwise
 * terms accumulate in ascending t order — exactly the order
 * vq::l2Squared / l1 / chebyshev use — so each d[j] is bit-identical to
 * the reference distance, and the ascending-j argmin scan below inherits
 * vq::argminCentroid's lower-index tie-break. The transposed layout makes
 * the inner loop contiguous over centroids, which is what lets it
 * vectorize; per-centroid scalar chains are latency-bound instead.
 */
template <vq::Metric M>
inline void
distanceAll(const float *__restrict__ sub, const float *__restrict__ cbt,
            int64_t c, int64_t v, float *__restrict__ d)
{
    for (int64_t j = 0; j < c; ++j)
        d[j] = 0.0f;
    for (int64_t t = 0; t < v; ++t) {
        const float a = sub[t];
        const float *__restrict__ row = cbt + t * c;
        if constexpr (M == vq::Metric::L2) {
            for (int64_t j = 0; j < c; ++j) {
                const float diff = a - row[j];
                d[j] += diff * diff;
            }
        } else if constexpr (M == vq::Metric::L1) {
            for (int64_t j = 0; j < c; ++j)
                d[j] += std::fabs(a - row[j]);
        } else {
            for (int64_t j = 0; j < c; ++j)
                d[j] = std::max(d[j], std::fabs(a - row[j]));
        }
    }
}

inline int32_t
argminScan(const float *__restrict__ d, int64_t c)
{
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

/**
 * Quantize one value onto a subspace's 7-bit encode grid. The exact op
 * sequence the SIMD tiers vectorize: (x - lo) * inv in float (this TU
 * builds with -ffp-contract=off, so sub and mul never contract), clamp
 * in the FLOAT domain with the MAXPS/MINPS select semantics (t > 0 ? t :
 * 0 maps NaN to 0, exactly like _mm*_max_ps(t, 0)), then
 * round-to-nearest-even (std::nearbyint under the default FP
 * environment == CVTPS2DQ). Used for BOTH the bank's centroids and the
 * encode-time inputs — sharing the grid is what makes the integer
 * argmin equivalent to the quantized L2 argmin.
 */
inline int32_t
quantizeEncodeLevel(float x, float lo, float inv)
{
    float t = (x - lo) * inv;
    t = t > 0.0f ? t : 0.0f;
    t = t < 127.0f ? t : 127.0f;
    return static_cast<int32_t>(std::nearbyint(t));
}

// ---- Table banks -------------------------------------------------------

/** The float bank: the arena's own PSum table, bit-exact with
 * LutTableArena::forwardBatch. Allocates nothing. */
class FloatTableBank final : public TableBank
{
  public:
    FloatTableBank(const LutTableArena &arena, util::SimdLevel level)
        : TableBank(arena, level)
    {
    }

    int64_t tableBytes() const override { return arena_.sourceBytes(); }
    int64_t residentBytes() const override { return 0; }
    const char *kernelName() const override { return "grouped-sweep"; }

  protected:
    void
    sweepRows(const int32_t *codes, int64_t bn, float *yb) const override
    {
        // Both shapes accumulate each output element's partial sums in
        // ascending subspace order into a zero-initialized accumulator —
        // float addition is never reassociated without -ffast-math — so
        // the result matches the eval-mode reference bit for bit.
        const auto sweep = bn >= LutTableArena::kTileMinRows
                               ? sweepFloatGrouped
                               : sweepFloatSimple;
        sweep(arena_.entry(0, 0), codes, bn, arena_.outFeatures(),
              arena_.numSubspaces(), arena_.numCentroids(), yb);
    }
};

/**
 * Shared build of the quantized banks: one symmetric scale per
 * (kInt8ScaleGroup-subspace group, kInt8BlockCols-wide column block)
 * covering every centroid entry of the whole group in that block.
 * Sharing the scale across the group is what lets every gather path
 * accumulate exact integer partial sums before a single dequantizing
 * mul + add per group.
 */
class QuantTableBank : public TableBank
{
  protected:
    QuantTableBank(const LutTableArena &arena, util::SimdLevel level)
        : TableBank(arena, level),
          num_blocks_((arena.outFeatures() + kBlockCols - 1) / kBlockCols),
          num_groups_((arena.numSubspaces() + kScaleGroup - 1) /
                      kScaleGroup)
    {
        scales_.resize(static_cast<size_t>(num_groups_ * num_blocks_));
    }

    /**
     * Fill scales_ for entries clamped to [-max_level, max_level] and,
     * per table row (s, j) and column block [c0, c1), hand the levels to
     * store_row(s * c + j, c0, c1, levels) with levels[col - c0]. The
     * levels go through a block buffer so the caller writes its bytes
     * through a local row pointer (byte stores alias everything, so a
     * per-entry callback would reload its captures after every store).
     */
    template <typename StoreRow>
    void
    quantize(int64_t max_level, StoreRow &&store_row)
    {
        const LutTableArena &a = arena_;
        const int64_t n = a.outFeatures(), c = a.numCentroids();
        const float max_f = static_cast<float>(max_level);
        int32_t levels[kBlockCols];
        for (int64_t g = 0; g < num_groups_; ++g) {
            const int64_t s0 = g * kScaleGroup;
            const int64_t s1 = std::min(a.numSubspaces(), s0 + kScaleGroup);
            for (int64_t b = 0; b < num_blocks_; ++b) {
                const int64_t c0 = b * kBlockCols;
                const int64_t c1 = std::min(n, c0 + kBlockCols);
                float max_abs = 0.0f;
                for (int64_t s = s0; s < s1; ++s)
                    for (int64_t j = 0; j < c; ++j) {
                        const float *row = a.entry(s, j);
                        for (int64_t col = c0; col < c1; ++col)
                            max_abs = std::max(max_abs, std::fabs(row[col]));
                    }
                const float scale = max_abs > 0.0f ? max_abs / max_f : 1.0f;
                scales_[static_cast<size_t>(g * num_blocks_ + b)] = scale;
                for (int64_t s = s0; s < s1; ++s)
                    for (int64_t j = 0; j < c; ++j) {
                        const float *row = a.entry(s, j);
                        for (int64_t col = c0; col < c1; ++col) {
                            const float q = std::nearbyint(row[col] / scale);
                            levels[col - c0] = static_cast<int32_t>(
                                std::max(-max_f, std::min(max_f, q)));
                        }
                        store_row(s * c + j, c0, c1, levels);
                    }
            }
        }
    }

    int64_t
    scaleBytes() const
    {
        return static_cast<int64_t>(scales_.size() * sizeof(float));
    }

    static constexpr int64_t kBlockCols = LutTableArena::kInt8BlockCols;
    static constexpr int64_t kScaleGroup = LutTableArena::kInt8ScaleGroup;
    static_assert(LutTableArena::kInt4BlockCols == kBlockCols &&
                      LutTableArena::kInt4ScaleGroup == kScaleGroup,
                  "the INT8 and INT4 banks share one scale geometry");

    int64_t num_blocks_;
    int64_t num_groups_;
    std::vector<float> scales_;  ///< [num_groups, num_blocks]
};

/**
 * INT8 bank: `q_` row-major [Nc, c, N] (the scalar sweep and the small
 * chunk tails read it), plus for c <= 16 one chunk layout — `q_quad_`
 * [ceil(Nc/4), N, 64] on the VNNI tier (four subspaces' 16-entry LUTs per
 * 64-byte block, so one VPERMB serves 16 rows x 4 subspaces) or `q_il_`
 * [Nc, N, 16] on the AVX2 / AVX-512 tiers (each (subspace, column) LUT
 * one 128-bit load). Pads are zero.
 */
class Int8TableBank final : public QuantTableBank
{
  public:
    Int8TableBank(const LutTableArena &arena, util::SimdLevel level)
        : QuantTableBank(arena, level)
    {
        const int64_t n = arena.outFeatures(), c = arena.numCentroids();
        const int64_t nc = arena.numSubspaces();
        q_.resize(static_cast<size_t>(nc * c * n));
        quantize(LutTableArena::kInt8MaxLevel,
                 [&](int64_t r, int64_t c0, int64_t c1, const int32_t *lv) {
                     int8_t *qrow = q_.data() + r * n;
                     for (int64_t col = c0; col < c1; ++col)
                         qrow[col] = static_cast<int8_t>(lv[col - c0]);
                 });
        const bool vnni = c <= 16 && simd::vnniGatherSupported(level);
        const bool shuffle =
            c <= 16 && !vnni && simd::shuffleGatherSupported(level);
        if (vnni) {
            q_quad_.assign(static_cast<size_t>((nc + 3) / 4 * n * 64), 0);
            for (int64_t s = 0; s < nc; ++s)
                for (int64_t e = 0; e < c; ++e) {
                    const int8_t *qrow = q_.data() + (s * c + e) * n;
                    for (int64_t col = 0; col < n; ++col)
                        q_quad_[static_cast<size_t>(
                            ((s / 4) * n + col) * 64 + 16 * (s % 4) + e)] =
                            qrow[col];
                }
        } else if (shuffle) {
            q_il_.assign(static_cast<size_t>(nc * n * 16), 0);
            for (int64_t s = 0; s < nc; ++s)
                for (int64_t j = 0; j < c; ++j) {
                    const int8_t *qrow = q_.data() + (s * c + j) * n;
                    for (int64_t col = 0; col < n; ++col)
                        q_il_[static_cast<size_t>((s * n + col) * 16 + j)] =
                            qrow[col];
                }
        }
        // residentBytes() sums every layout unconditionally, so each one
        // must exist exactly when this tier's kernel reads it.
        LUTDLA_CHECK(q_quad_.empty() == !vnni,
                     "q_quad must be materialized exactly on the VNNI tier");
        LUTDLA_CHECK(q_il_.empty() == !shuffle,
                     "q_il must be materialized exactly on the AVX2 / "
                     "AVX-512 tiers");
        if (vnni || shuffle)
            chunk_ = simd::shuffleGatherChunkRows(level);
    }

    int64_t
    tableBytes() const override
    {
        return static_cast<int64_t>(q_.size()) + scaleBytes();
    }

    int64_t
    residentBytes() const override
    {
        return static_cast<int64_t>(q_.size() + q_il_.size() +
                                    q_quad_.size()) +
               scaleBytes();
    }

    const char *
    kernelName() const override
    {
        if (!q_quad_.empty())
            return "shuffle-vnni";
        if (!q_il_.empty())
            return level_ >= util::SimdLevel::Avx512 ? "shuffle-avx512"
                                                     : "shuffle-avx2";
        return "scalar";
    }

  protected:
    void
    sweepRows(const int32_t *codes, int64_t bn, float *yb) const override
    {
        sweepInt8ColOuter(q_.data(), scales_.data(), codes, bn,
                          arena_.outFeatures(), arena_.numSubspaces(),
                          arena_.numCentroids(), num_blocks_, num_groups_,
                          yb);
    }

    void
    chunkKernel(const uint8_t *planar, float *colmajor) const override
    {
        if (!q_quad_.empty())
            simd::vnniGatherChunk(q_quad_.data(), scales_.data(), planar,
                                  arena_.numSubspaces(),
                                  arena_.outFeatures(), num_blocks_,
                                  kScaleGroup, kBlockCols, colmajor);
        else
            simd::shuffleGatherChunk(level_, q_il_.data(), scales_.data(),
                                     planar, arena_.numSubspaces(),
                                     arena_.outFeatures(), num_blocks_,
                                     kScaleGroup, kBlockCols, colmajor);
    }

  private:
    std::vector<int8_t> q_;
    std::vector<int8_t> q_il_;
    std::vector<int8_t> q_quad_;
};

/**
 * INT4 bank, packed two adjacent output columns per byte (low nibble =
 * even column, high nibble = odd column, both bias-shifted by +8). Codes
 * are per (row, subspace) and identical across columns, so one looked-up
 * byte serves BOTH columns of a pair — the shuffle kernels split the two
 * nibble planes in-register. `q4_` row-major [Nc, c, ceil(N/2)] for the
 * scalar sweep; `q4_il_` interleaved [Nc, ceil(N/2), 16] on SIMD tiers
 * (c <= 16). Odd N leaves the last pair's high nibble at the bias value
 * 8 (exact zero): computed, never copied out.
 */
class Int4TableBank final : public QuantTableBank
{
  public:
    Int4TableBank(const LutTableArena &arena, util::SimdLevel level)
        : QuantTableBank(arena, level),
          half_n_((arena.outFeatures() + 1) / 2)
    {
        const int64_t c = arena.numCentroids(), nc = arena.numSubspaces();
        // 0x88 = bias nibble 8 in both planes, the exact packed zero:
        // odd-N dangling high nibbles and never-indexed pad entries all
        // decode to 0 by construction.
        q4_.assign(static_cast<size_t>(nc * c * half_n_), 0x88);
        quantize(LutTableArena::kInt4MaxLevel,
                 [&](int64_t r, int64_t c0, int64_t c1, const int32_t *lv) {
                     uint8_t *qrow = q4_.data() + r * half_n_;
                     for (int64_t col = c0; col < c1; ++col) {
                         const int32_t nib = lv[col - c0] + 8;
                         uint8_t &byte = qrow[col >> 1];
                         byte = col & 1
                                    ? static_cast<uint8_t>((byte & 0x0F) |
                                                           (nib << 4))
                                    : static_cast<uint8_t>((byte & 0xF0) |
                                                           nib);
                     }
                 });
        const bool shuffle = c <= 16 && simd::shuffleGatherSupported(level);
        if (shuffle) {
            q4_il_.assign(static_cast<size_t>(nc * half_n_ * 16), 0x88);
            for (int64_t s = 0; s < nc; ++s)
                for (int64_t j = 0; j < c; ++j) {
                    const uint8_t *qrow = q4_.data() + (s * c + j) * half_n_;
                    for (int64_t p = 0; p < half_n_; ++p)
                        q4_il_[static_cast<size_t>(
                            (s * half_n_ + p) * 16 + j)] = qrow[p];
                }
            chunk_ = simd::shuffleGatherChunkRows(level);
        }
        LUTDLA_CHECK(q4_il_.empty() == !shuffle,
                     "q4_il must be materialized exactly on the SIMD tiers");
    }

    int64_t
    tableBytes() const override
    {
        return static_cast<int64_t>(q4_.size()) + scaleBytes();
    }

    int64_t
    residentBytes() const override
    {
        return static_cast<int64_t>(q4_.size() + q4_il_.size()) +
               scaleBytes();
    }

    const char *
    kernelName() const override
    {
        if (q4_il_.empty())
            return "scalar";
        return level_ >= util::SimdLevel::Avx512 ? "shuffle-avx512"
                                                 : "shuffle-avx2";
    }

  protected:
    void
    sweepRows(const int32_t *codes, int64_t bn, float *yb) const override
    {
        sweepInt4ColOuter(q4_.data(), scales_.data(), codes, bn,
                          arena_.outFeatures(), half_n_,
                          arena_.numSubspaces(), arena_.numCentroids(),
                          num_blocks_, num_groups_, yb);
    }

    void
    chunkKernel(const uint8_t *planar, float *colmajor) const override
    {
        simd::shuffleGatherChunkInt4(level_, q4_il_.data(), scales_.data(),
                                     planar, arena_.numSubspaces(),
                                     arena_.outFeatures(), num_blocks_,
                                     kScaleGroup, kBlockCols, colmajor);
    }

  private:
    int64_t half_n_;              ///< ceil(N/2) packed column pairs
    std::vector<uint8_t> q4_;
    std::vector<uint8_t> q4_il_;
};

// ---- Encode banks ------------------------------------------------------

/** The exact float argmin over the arena's transposed codebooks: the
 * flagship L2 / c = 16 kernel or the masked generic-c tier (c <= 64) on
 * SIMD tiers, else the scalar scan. Allocates nothing. */
class FloatEncodeBank final : public EncodeBank
{
  public:
    FloatEncodeBank(const LutTableArena &arena, util::SimdLevel level)
        : EncodeBank(arena, level)
    {
        const int64_t c = arena.numCentroids();
        if (arena.metric() == vq::Metric::L2) {
            c16_ = c == 16 && simd::encodeL2C16Supported(level);
            generic_ = !c16_ && simd::encodeL2GenericSupported(level, c);
        }
    }

    int64_t
    tableBytes() const override
    {
        return arena_.inFeatures() * arena_.numCentroids() *
               static_cast<int64_t>(sizeof(float));
    }

    int64_t residentBytes() const override { return 0; }

    const char *
    kernelName() const override
    {
        const bool wide = level_ >= util::SimdLevel::Avx512;
        if (c16_)
            return wide ? "avx512-c16" : "avx2-c16";
        if (generic_)
            return wide ? "avx512-genc" : "avx2-genc";
        return "generic";
    }

  protected:
    void
    encodeRows(const float *x, int64_t rows, EncodeScratch &scratch,
               const CodeSink &sink) const override
    {
        switch (arena_.metric()) {
          case vq::Metric::L2:
            encodeRowsImpl<vq::Metric::L2>(x, rows, scratch, sink);
            return;
          case vq::Metric::L1:
            encodeRowsImpl<vq::Metric::L1>(x, rows, scratch, sink);
            return;
          case vq::Metric::Chebyshev:
            encodeRowsImpl<vq::Metric::Chebyshev>(x, rows, scratch, sink);
            return;
        }
    }

  private:
    template <vq::Metric M>
    void
    encodeRowsImpl(const float *x, int64_t rows, EncodeScratch &scratch,
                   const CodeSink &sink) const
    {
        const int64_t v = arena_.subvectorLen(), c = arena_.numCentroids();
        if (!c16_ && !generic_)
            scratch.dist.resize(static_cast<size_t>(c));
        // Subspace-outer: one ~c*v-float codebook stays L1-resident across
        // the whole batch instead of streaming every codebook per row.
        for (int64_t s = 0; s < arena_.numSubspaces(); ++s) {
            int64_t stride = 0;
            const float *xs = arena_.subspaceRows(x, rows, s, scratch, stride);
            const float *cbt = arena_.codebookT(s);
            if (c16_ || generic_) {
                uint8_t *out = sink.plane(s);
                if (c16_)
                    simd::encodeL2C16Rows(level_, xs, rows, stride, cbt, v,
                                          out);
                else
                    simd::encodeL2GenericRows(level_, xs, rows, stride, cbt,
                                              v, c, out);
                sink.commit(s, rows);
                continue;
            }
            for (int64_t i = 0; i < rows; ++i) {
                distanceAll<M>(xs + i * stride, cbt, c, v,
                               scratch.dist.data());
                sink.set(i, s, argminScan(scratch.dist.data(), c));
            }
        }
    }

    bool c16_ = false;      ///< L2 / c = 16 SIMD fast path
    bool generic_ = false;  ///< masked generic-c SIMD tier
};

/**
 * INT8 encode bank: the quantized twin of the transposed codebooks. One
 * shared 7-bit affine grid per subspace (lo + inverse step) quantizes
 * BOTH the stored centroids and, at encode time, the input subvectors,
 * which is what collapses argmin ||x - c||^2 to the integer argmin over
 * (||c_u||^2 - 2 * x_u . c_s) with c_s = c_u - 128 (the shift makes
 * centroids signed for VPDPBUSD/VPMADDUBSW; the dropped ||x_u||^2 and
 * -256 * sum(x_u) terms are centroid-independent). On SIMD tiers with
 * c <= 16 and v <= 128 it holds `cs_quad_` [Nc, ceil(v/4) * 64] (byte
 * (q * 16 + j) * 4 + k = c_s[j][4q + k], zero past v and past c);
 * otherwise `cs_` row-major [Nc, c, v] for the scalar integer scan.
 * `norms_` [Nc, norm_stride] int32 centroid norms with INT32_MAX pads so
 * pad lanes never win the argmin.
 */
class Int8EncodeBank final : public EncodeBank
{
  public:
    Int8EncodeBank(const LutTableArena &arena, util::SimdLevel level)
        : EncodeBank(arena, level)
    {
        LUTDLA_CHECK(arena.int8EncodeSupported(),
                     "the INT8 encode bank requires the L2 metric and "
                     "subvector lengths up to 32768");
        const int64_t v = arena.subvectorLen(), c = arena.numCentroids();
        const int64_t nc = arena.numSubspaces();
        vq4_ = (v + 3) / 4;
        norm_stride_ = std::max<int64_t>(c, 16);
        vector_ = c <= 16 && v <= 128 && simd::int8EncodeSupported(level);
        if (vector_)
            cs_quad_.assign(static_cast<size_t>(nc * vq4_ * 64), 0);
        else
            cs_.resize(static_cast<size_t>(nc * c * v));
        norms_.assign(static_cast<size_t>(nc * norm_stride_),
                      std::numeric_limits<int32_t>::max());
        lo_.resize(static_cast<size_t>(nc));
        inv_.resize(static_cast<size_t>(nc));
        for (int64_t s = 0; s < nc; ++s) {
            // One shared 7-bit affine grid per subspace, spanning the
            // codebook's value range; encode-time inputs are clamped onto
            // the same grid, so the integer argmin is exactly the L2
            // argmin over the quantized values.
            const float *cbt = arena.codebookT(s);
            float mn = cbt[0], mx = cbt[0];
            for (int64_t k = 1; k < c * v; ++k) {
                mn = std::min(mn, cbt[k]);
                mx = std::max(mx, cbt[k]);
            }
            const float step = mx > mn ? (mx - mn) / 127.0f : 1.0f;
            lo_[static_cast<size_t>(s)] = mn;
            inv_[static_cast<size_t>(s)] = 1.0f / step;
            for (int64_t j = 0; j < c; ++j) {
                int32_t norm = 0;
                for (int64_t t = 0; t < v; ++t) {
                    const int32_t cu = quantizeEncodeLevel(
                        cbt[t * c + j], mn, inv_[static_cast<size_t>(s)]);
                    // c_u - 128 lands in [-128, -1]: signed for the
                    // VPDPBUSD/VPMADDUBSW operand, and never 0, so the
                    // quad layout's zero padding is unambiguous.
                    const auto cs = static_cast<int8_t>(cu - 128);
                    if (vector_)
                        cs_quad_[static_cast<size_t>(
                            (s * vq4_ + t / 4) * 64 + j * 4 + t % 4)] = cs;
                    else
                        cs_[static_cast<size_t>((s * c + j) * v + t)] = cs;
                    norm += cu * cu;
                }
                norms_[static_cast<size_t>(s * norm_stride_ + j)] = norm;
            }
        }
        LUTDLA_CHECK(cs_quad_.empty() == !vector_ && cs_.empty() == vector_,
                     "cs_quad must be materialized exactly when a SIMD "
                     "encode tier runs, cs exactly when the scalar scan "
                     "does");
    }

    int64_t
    tableBytes() const override
    {
        // The canonical scalar layout, whichever layout this tier built.
        return arena_.numSubspaces() * arena_.numCentroids() *
                   arena_.subvectorLen() +
               gridBytes();
    }

    int64_t
    residentBytes() const override
    {
        return static_cast<int64_t>(cs_.size() + cs_quad_.size()) +
               gridBytes();
    }

    const char *
    kernelName() const override
    {
        if (!vector_)
            return "int8-scalar";
        return level_ >= util::SimdLevel::Avx512Vnni ? "int8-dot-vnni"
                                                     : "int8-madd-avx2";
    }

  protected:
    void
    encodeRows(const float *x, int64_t rows, EncodeScratch &scratch,
               const CodeSink &sink) const override
    {
        const int64_t v = arena_.subvectorLen(), c = arena_.numCentroids();
        if (!vector_)
            scratch.xq.resize(static_cast<size_t>(v));
        // Same subspace-outer structure as the float encode: one
        // subspace's bank stays L1-resident across the whole batch, and
        // the ragged tail is zero-padded and encoded like a full subspace.
        for (int64_t s = 0; s < arena_.numSubspaces(); ++s) {
            int64_t stride = 0;
            const float *xs = arena_.subspaceRows(x, rows, s, scratch, stride);
            const int32_t *norms = norms_.data() + s * norm_stride_;
            const float lo = lo_[static_cast<size_t>(s)];
            const float inv = inv_[static_cast<size_t>(s)];
            if (vector_) {
                simd::encodeInt8C16Rows(level_, xs, rows, stride,
                                        cs_quad_.data() + s * vq4_ * 64,
                                        norms, lo, inv, v, c,
                                        sink.plane(s));
                sink.commit(s, rows);
                continue;
            }
            // Scalar integer reference: identical quantization (shared
            // quantizeEncodeLevel), identical int32 scores, identical
            // strict-< lowest-index argmin — the SIMD tiers are
            // bit-identical to this by construction, and the property
            // tests pin it.
            const int8_t *cs = cs_.data() + s * c * v;
            int32_t *xq = scratch.xq.data();
            for (int64_t i = 0; i < rows; ++i) {
                const float *sub = xs + i * stride;
                for (int64_t t = 0; t < v; ++t)
                    xq[t] = quantizeEncodeLevel(sub[t], lo, inv);
                int32_t best = 0;
                int32_t best_score = std::numeric_limits<int32_t>::max();
                for (int64_t j = 0; j < c; ++j) {
                    const int8_t *crow = cs + j * v;
                    int32_t dot = 0;
                    for (int64_t t = 0; t < v; ++t)
                        dot += xq[t] * static_cast<int32_t>(crow[t]);
                    const int32_t score = norms[j] - 2 * dot;
                    if (score < best_score) {
                        best_score = score;
                        best = static_cast<int32_t>(j);
                    }
                }
                sink.set(i, s, best);
            }
        }
    }

  private:
    /** Norms plus the per-subspace grid (lo, inv). */
    int64_t
    gridBytes() const
    {
        return static_cast<int64_t>(norms_.size() * sizeof(int32_t) +
                                    (lo_.size() + inv_.size()) *
                                        sizeof(float));
    }

    bool vector_ = false;          ///< SIMD tier (reads cs_quad_)
    int64_t vq4_ = 0;              ///< ceil(v / 4) dim quads
    int64_t norm_stride_ = 0;      ///< max(c, 16)
    std::vector<int8_t> cs_;       ///< [Nc, c, v] shifted codes (scalar)
    std::vector<int8_t> cs_quad_;  ///< [Nc, vq4 * 64] quad layout (SIMD)
    std::vector<int32_t> norms_;   ///< [Nc, norm_stride] ||c_u||^2
    std::vector<float> lo_;        ///< [Nc] grid offsets
    std::vector<float> inv_;       ///< [Nc] inverse grid steps
};

} // namespace

// ---- TableBank ---------------------------------------------------------

TableBank::TableBank(const LutTableArena &arena, util::SimdLevel level)
    : arena_(arena), level_(level)
{
    checkTier(level);
}

void
TableBank::gather(const vq::CodeBuffer &codes, int64_t row0, int64_t rows,
                  float *y, GatherScratch &scratch) const
{
    const int64_t nc = arena_.numSubspaces(), n = arena_.outFeatures();
    checkGatherSpan(codes, nc, row0, rows);
    if (chunk_ > 0) {
        scratch.planar.resize(static_cast<size_t>(nc * chunk_));
        for (int64_t r = row0; r < row0 + rows; r += chunk_) {
            const int64_t m = std::min(chunk_, row0 + rows - r);
            codes.unpackPlanar(r, m, scratch.planar.data(), chunk_);
            gatherPlanar(m, y + r * n, scratch);
        }
        return;
    }
    constexpr int64_t kBlock = LutTableArena::kRowBlock;
    for (int64_t b0 = row0; b0 < row0 + rows; b0 += kBlock) {
        const int64_t bn = std::min(kBlock, row0 + rows - b0);
        scratch.unpacked.resize(static_cast<size_t>(bn * nc));
        codes.unpackRows(b0, bn, scratch.unpacked.data());
        float *yb = y + b0 * n;
        std::fill(yb, yb + bn * n, 0.0f);
        sweepRows(scratch.unpacked.data(), bn, yb);
        arena_.addBias(yb, bn);
    }
}

void
TableBank::gatherPlanar(int64_t rows, float *y, GatherScratch &scratch) const
{
    const int64_t nc = arena_.numSubspaces(), n = arena_.outFeatures();
    LUTDLA_CHECK(chunk_ > 0, "the ", kernelName(),
                 " bank has no planar chunk kernel");
    LUTDLA_CHECK(rows >= 1 && rows <= chunk_ &&
                     static_cast<int64_t>(scratch.planar.size()) >=
                         nc * chunk_,
                 "planar gather needs 1..", chunk_,
                 " rows of [Nc, chunk] code lanes, got ", rows);
    uint8_t *planar = scratch.planar.data();
    if (rows >= chunk_ / 4) {
        // Row tails still worth a vector pass run PADDED through one
        // full-width chunk: pad lanes carry code 0 (a valid index), their
        // columns are computed and simply never copied out — cheaper than
        // the scalar sweep above ~chunk/4 rows, and bit-exact because the
        // valid lanes see identical math.
        if (rows < chunk_)
            for (int64_t s = 0; s < nc; ++s)
                std::fill(planar + s * chunk_ + rows,
                          planar + (s + 1) * chunk_, uint8_t{0});
        scratch.colmajor.resize(static_cast<size_t>(n * chunk_));
        chunkKernel(planar, scratch.colmajor.data());
        transposeColMajor(scratch.colmajor.data(), chunk_, n, rows, y);
    } else {
        // Small tail: identical group scales and exact integer
        // accumulation in the scalar sweep, so the seam between paths is
        // invisible in the output.
        scratch.unpacked.resize(static_cast<size_t>(rows * nc));
        int32_t *codes = scratch.unpacked.data();
        for (int64_t s = 0; s < nc; ++s)
            for (int64_t i = 0; i < rows; ++i)
                codes[i * nc + s] = planar[s * chunk_ + i];
        std::fill(y, y + rows * n, 0.0f);
        sweepRows(codes, rows, y);
    }
    arena_.addBias(y, rows);
}

void
TableBank::chunkKernel(const uint8_t *, float *) const
{
    panic("the ", kernelName(), " bank has no chunk kernel");
}

// ---- EncodeBank --------------------------------------------------------

EncodeBank::EncodeBank(const LutTableArena &arena, util::SimdLevel level)
    : arena_(arena), level_(level)
{
    checkTier(level);
}

void
EncodeBank::encodeBatch(const float *x, int64_t rows, vq::CodeBuffer &codes,
                        EncodeScratch &scratch) const
{
    codes.reset(rows, arena_.numSubspaces(), arena_.numCentroids());
    encodeBlock(x, 0, rows, codes, scratch);
}

void
EncodeBank::encodeBlock(const float *x, int64_t row0, int64_t rows,
                        vq::CodeBuffer &codes, EncodeScratch &scratch) const
{
    const float *xb =
        arena_.stageInputs(x + row0 * arena_.inFeatures(), rows, scratch);
    scratch.plane.resize(static_cast<size_t>(rows));
    encodeRows(xb, rows, scratch,
               CodeSink{&codes, row0, scratch.plane.data(), 0});
}

void
EncodeBank::encodePlanar(const float *x, int64_t rows, uint8_t *planar,
                         int64_t stride, EncodeScratch &scratch) const
{
    LUTDLA_CHECK(arena_.numCentroids() <= 256 && rows <= stride,
                 "planar encode needs c <= 256 and rows <= stride");
    const float *xb = arena_.stageInputs(x, rows, scratch);
    encodeRows(xb, rows, scratch, CodeSink{nullptr, 0, planar, stride});
}

// ---- Factories ---------------------------------------------------------

std::unique_ptr<TableBank>
makeTableBank(const LutTableArena &arena, TablePrecision precision,
              util::SimdLevel level)
{
    switch (precision) {
      case TablePrecision::Int8:
        return std::make_unique<Int8TableBank>(arena, level);
      case TablePrecision::Int4:
        return std::make_unique<Int4TableBank>(arena, level);
      default:
        return std::make_unique<FloatTableBank>(arena, level);
    }
}

std::unique_ptr<EncodeBank>
makeEncodeBank(const LutTableArena &arena, EncodePrecision precision,
               util::SimdLevel level)
{
    if (precision == EncodePrecision::Int8)
        return std::make_unique<Int8EncodeBank>(arena, level);
    return std::make_unique<FloatEncodeBank>(arena, level);
}

} // namespace lutdla::lutboost
