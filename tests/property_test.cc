/**
 * @file
 * Parameterized property sweeps over the library's core invariants:
 * approximation error trends over (v, c), simulator monotonicity,
 * dataflow memory dominance, packed-code round-trips, and the serving
 * data plane's bit-exactness across awkward shapes (K not divisible by
 * v, centroid counts that are not powers of two, single-row batches).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>

#include "hw/dataflow.h"
#include "lutboost/kernels.h"
#include "lutboost/kernels_simd.h"
#include "lutboost/lut_linear.h"
#include "sim/lutdla_sim.h"
#include "util/cpu_features.h"
#include "util/rng.h"
#include "vq/code_buffer.h"
#include "vq/lut.h"

// Global allocation counter for the steady-state no-allocation property:
// every operator new in this binary bumps it, so a test can require that
// a call made no heap allocation at all. The replacements stay out of
// line so the compiler never pairs an inlined malloc with a free.
namespace {
std::atomic<int64_t> g_heap_allocs{0};
} // namespace

__attribute__((noinline)) void *
operator new(std::size_t size)
{
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

__attribute__((noinline)) void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

__attribute__((noinline)) void
operator delete(void *p) noexcept
{
    std::free(p);
}

__attribute__((noinline)) void
operator delete[](void *p) noexcept
{
    std::free(p);
}

__attribute__((noinline)) void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

__attribute__((noinline)) void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace lutdla {
namespace {

Tensor
randomMatrix(int64_t r, int64_t c, uint64_t seed)
{
    Tensor t(Shape{r, c});
    Rng rng(seed);
    for (int64_t i = 0; i < t.numel(); ++i)
        t.at(i) = static_cast<float>(rng.gaussian(0.0, 1.0));
    return t;
}

// ---- Property: LUT-GEMM error shrinks as c grows, for every metric ----

class ErrorVsCentroids
    : public ::testing::TestWithParam<std::tuple<vq::Metric, int64_t>>
{
};

TEST_P(ErrorVsCentroids, MoreCentroidsNeverMuchWorse)
{
    const auto [metric, v] = GetParam();
    Tensor samples = randomMatrix(384, 16, 31);
    Tensor eval = randomMatrix(96, 16, 32);
    Tensor w = randomMatrix(16, 8, 33);
    double prev = 1e9;
    for (int64_t c : {4, 16, 64}) {
        vq::PQConfig cfg;
        cfg.v = v;
        cfg.c = c;
        cfg.metric = metric;
        vq::LutGemmEngine engine(cfg, w, samples);
        const double err = engine.approximationError(eval);
        EXPECT_LT(err, prev * 1.10)
            << vq::metricName(metric) << " v=" << v << " c=" << c;
        prev = err;
    }
}

INSTANTIATE_TEST_SUITE_P(
    MetricSweep, ErrorVsCentroids,
    ::testing::Combine(::testing::Values(vq::Metric::L2, vq::Metric::L1,
                                         vq::Metric::Chebyshev),
                       ::testing::Values<int64_t>(2, 4, 8)));

// ---- Property: longer subvectors raise error at fixed c ---------------

class ErrorVsVectorLength : public ::testing::TestWithParam<vq::Metric>
{
};

TEST_P(ErrorVsVectorLength, LongerVectorsLoseAccuracy)
{
    const vq::Metric metric = GetParam();
    Tensor samples = randomMatrix(384, 16, 41);
    Tensor eval = randomMatrix(96, 16, 42);
    Tensor w = randomMatrix(16, 8, 43);
    std::vector<double> errs;
    for (int64_t v : {2, 4, 8}) {
        vq::PQConfig cfg;
        cfg.v = v;
        cfg.c = 16;
        cfg.metric = metric;
        vq::LutGemmEngine engine(cfg, w, samples);
        errs.push_back(engine.approximationError(eval));
    }
    EXPECT_LT(errs.front(), errs.back())
        << "error should grow from v=2 to v=8";
}

INSTANTIATE_TEST_SUITE_P(MetricSweep, ErrorVsVectorLength,
                         ::testing::Values(vq::Metric::L2, vq::Metric::L1,
                                           vq::Metric::Chebyshev));

// ---- Property: simulator cycles scale down with parallel hardware -----

class SimMonotonicity : public ::testing::TestWithParam<int64_t>
{
};

TEST_P(SimMonotonicity, MoreImmsNeverSlower)
{
    const int64_t n = GetParam();
    sim::GemmShape g{256, 128, 64 * n, "g"};
    sim::SimConfig cfg;
    cfg.v = 4;
    cfg.c = 16;
    cfg.tn = 64;
    cfg.m_tile = 256;
    bool first = true;
    uint64_t prev = 0;
    for (int64_t imm : {1, 2, 4}) {
        cfg.n_imm = imm;
        const uint64_t cycles =
            sim::LutDlaSimulator(cfg).simulateGemm(g).total_cycles;
        if (!first) {
            EXPECT_LE(cycles, prev + 64) << "imm=" << imm << " n=" << n;
        }
        first = false;
        prev = cycles;
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, SimMonotonicity,
                         ::testing::Values<int64_t>(1, 2, 4, 8));

// ---- Property: bigger GEMMs take proportionally longer ----------------

class SimLinearity : public ::testing::TestWithParam<int64_t>
{
};

TEST_P(SimLinearity, CyclesScaleWithK)
{
    const int64_t k = GetParam();
    sim::SimConfig cfg;
    cfg.v = 4;
    cfg.c = 16;
    cfg.tn = 32;
    cfg.m_tile = 128;
    cfg.n_imm = 2;
    const uint64_t base =
        sim::LutDlaSimulator(cfg)
            .simulateGemm({128, k, 64, "g"})
            .total_cycles;
    const uint64_t twice =
        sim::LutDlaSimulator(cfg)
            .simulateGemm({128, 2 * k, 64, "g"})
            .total_cycles;
    EXPECT_NEAR(static_cast<double>(twice) / base, 2.0, 0.25);
}

INSTANTIATE_TEST_SUITE_P(Depths, SimLinearity,
                         ::testing::Values<int64_t>(64, 128, 256));

// ---- Property: LS dataflow dominance holds across shapes --------------

class DataflowDominance
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t>>
{
};

TEST_P(DataflowDominance, LsTotalIsMinimal)
{
    const auto [mk, n] = GetParam();
    hw::DataflowParams p;
    p.m = mk;
    p.k = mk;
    p.n = n;
    p.v = 4;
    p.c = 32;
    p.tn = 32;
    const double ls =
        dataflowMemory(hw::Dataflow::LutStationary, p).totalBytes();
    for (hw::Dataflow df : hw::allDataflows()) {
        if (df == hw::Dataflow::LutStationary)
            continue;
        EXPECT_LE(ls, dataflowMemory(df, p).totalBytes() * 1.001)
            << hw::dataflowName(df) << " mk=" << mk << " n=" << n;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DataflowDominance,
    ::testing::Combine(::testing::Values<int64_t>(128, 512, 1024),
                       ::testing::Values<int64_t>(256, 768, 2048)));

// ---- Property: CodeBuffer round-trips codes exactly --------------------

class CodeBufferRoundTrip
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t, int64_t>>
{
};

TEST_P(CodeBufferRoundTrip, PackUnpackIsLossless)
{
    const auto [rows, subspaces, centroids] = GetParam();
    vq::CodeBuffer buffer;
    buffer.reset(rows, subspaces, centroids);

    // Expected width: 4 bits through c=16, 8 through c=256, else 16.
    const int want_bits = centroids <= 16 ? 4 : centroids <= 256 ? 8 : 16;
    EXPECT_EQ(buffer.bits(), want_bits);
    EXPECT_EQ(buffer.sizeBytes(),
              rows * ((subspaces * want_bits + 7) / 8));

    Rng rng(17 + static_cast<uint64_t>(centroids));
    std::vector<int32_t> expected(
        static_cast<size_t>(rows * subspaces));
    for (int64_t r = 0; r < rows; ++r)
        for (int64_t s = 0; s < subspaces; ++s) {
            const int32_t code = static_cast<int32_t>(
                rng.uniformInt(0, centroids - 1));
            expected[static_cast<size_t>(r * subspaces + s)] = code;
            buffer.set(r, s, code);
        }
    std::vector<int32_t> unpacked(expected.size());
    buffer.unpackRows(0, rows, unpacked.data());
    for (int64_t r = 0; r < rows; ++r)
        for (int64_t s = 0; s < subspaces; ++s) {
            const size_t i = static_cast<size_t>(r * subspaces + s);
            EXPECT_EQ(buffer.get(r, s), expected[i])
                << "r=" << r << " s=" << s;
            EXPECT_EQ(unpacked[i], expected[i]) << "r=" << r << " s=" << s;
        }
}

INSTANTIATE_TEST_SUITE_P(
    AwkwardShapes, CodeBufferRoundTrip,
    ::testing::Combine(
        ::testing::Values<int64_t>(1, 3, 300),          // rows (1 = single)
        ::testing::Values<int64_t>(1, 5, 8),            // subspaces (odd!)
        ::testing::Values<int64_t>(5, 16, 100, 257)));  // c, some non-pow2

// ---- Property: planar unpack agrees with the row-major view ------------

TEST(CodeBufferPlanar, MatchesRowMajorUnpackOnAwkwardShapes)
{
    for (const int64_t centroids : {4, 16, 200}) {
        for (const int64_t rows : {1, 7, 64, 65}) {
            for (const int64_t subspaces : {1, 5, 12}) {
                vq::CodeBuffer buffer;
                buffer.reset(rows, subspaces, centroids);
                Rng rng(3 + static_cast<uint64_t>(centroids * rows));
                for (int64_t r = 0; r < rows; ++r)
                    for (int64_t s = 0; s < subspaces; ++s)
                        buffer.set(r, s,
                                   static_cast<int32_t>(rng.uniformInt(
                                       0, centroids - 1)));
                // Planar over a row span: out[s * n + i] = code(row0+i, s).
                const int64_t row0 = rows > 2 ? 1 : 0;
                const int64_t n = rows - row0;
                std::vector<uint8_t> planar(
                    static_cast<size_t>(subspaces * n));
                buffer.unpackPlanar(row0, n, planar.data());
                for (int64_t i = 0; i < n; ++i)
                    for (int64_t s = 0; s < subspaces; ++s)
                        EXPECT_EQ(
                            static_cast<int32_t>(
                                planar[static_cast<size_t>(s * n + i)]),
                            buffer.get(row0 + i, s))
                            << "c=" << centroids << " row=" << row0 + i
                            << " s=" << s;
            }
        }
    }
}

// ---- Property: every tier of a table bank is bit-identical -------------

/** Every SIMD tier at or below this host's, Generic first. */
std::vector<util::SimdLevel>
tiersUpToHost()
{
    std::vector<util::SimdLevel> tiers;
    for (int level = 0; level <= static_cast<int>(util::simdLevel());
         ++level)
        tiers.push_back(static_cast<util::SimdLevel>(level));
    return tiers;
}

/**
 * The quantized gather contract: a bank of one precision built for ANY
 * tier (generic scalar group sweep, AVX2 / AVX-512 shuffle, VNNI dot)
 * shares exact integer accumulation under group scales, so its float
 * outputs must match the generic tier BIT FOR BIT across awkward shapes —
 * c in {4, 16}, K % v != 0, row counts around the 32/64-row chunk
 * boundaries, single rows, and multi-block batches with ragged tails —
 * including span-sharded sweeps (what the engine's parallel-for runs).
 */
void
expectEveryGatherTierBitIdentical(lutboost::TablePrecision precision,
                                  int64_t k, int64_t n, int64_t v,
                                  int64_t c, int64_t rows, uint64_t seed)
{
    vq::PQConfig pq;
    pq.v = v;
    pq.c = c;
    lutboost::LutLinear layer(k, n, pq, /*bias=*/true,
                              /*seed=*/static_cast<uint64_t>(k + c + rows));
    layer.refreshInferenceLut();
    const auto arena = layer.inferenceArena();

    Rng rng(seed + static_cast<uint64_t>(rows));
    Tensor x(Shape{rows, k});
    for (int64_t i = 0; i < x.numel(); ++i)
        x.at(i) = static_cast<float>(rng.gaussian(0.0, 1.0));

    lutboost::KernelScratch scratch;
    arena->encodeBank(lutboost::EncodePrecision::Float32)
        .encodeBatch(x.data(), rows, scratch.codes, scratch.encode);

    Tensor scalar(Shape{rows, n});
    lutboost::makeTableBank(*arena, precision, util::SimdLevel::Generic)
        ->gather(scratch.codes, 0, rows, scalar.data(), scratch.gather);

    for (const util::SimdLevel level : tiersUpToHost()) {
        const auto bank = lutboost::makeTableBank(*arena, precision, level);
        Tensor got(Shape{rows, n});
        bank->gather(scratch.codes, 0, rows, got.data(), scratch.gather);
        EXPECT_TRUE(got.equals(scalar))
            << bank->kernelName() << " at " << util::simdLevelName(level)
            << " diverged: k=" << k << " v=" << v << " c=" << c
            << " rows=" << rows
            << " maxdiff=" << Tensor::maxAbsDiff(got, scalar);

        Tensor spans(Shape{rows, n});
        const int64_t half = rows / 2;
        if (half > 0)
            bank->gather(scratch.codes, 0, half, spans.data(),
                         scratch.gather);
        bank->gather(scratch.codes, half, rows - half, spans.data(),
                     scratch.gather);
        EXPECT_TRUE(spans.equals(scalar))
            << "span seam changed the " << bank->kernelName()
            << " gather result";
    }

    // The arena's own bank (the running tier) serves the plans.
    Tensor served(Shape{rows, n});
    arena->tableBank(precision).gather(scratch.codes, 0, rows,
                                       served.data(), scratch.gather);
    EXPECT_TRUE(served.equals(scalar));
}

class Int8GatherVariants
    : public ::testing::TestWithParam<
          std::tuple<int64_t, int64_t, int64_t, int64_t>>
{
};

TEST_P(Int8GatherVariants, ShuffleBitExactVsScalar)
{
    const auto [k, v, c, rows] = GetParam();
    expectEveryGatherTierBitIdentical(lutboost::TablePrecision::Int8, k, 70,
                                      v, c, rows, 55);
}

INSTANTIATE_TEST_SUITE_P(
    AwkwardShapes, Int8GatherVariants,
    ::testing::Combine(::testing::Values<int64_t>(23, 52),  // K % v != 0
                       ::testing::Values<int64_t>(3, 8),
                       ::testing::Values<int64_t>(4, 16),
                       // chunk-boundary row counts: single, sub-chunk,
                       // one AVX2 chunk, one AVX-512 chunk +/- 1, ragged
                       ::testing::Values<int64_t>(1, 31, 32, 63, 64, 65,
                                                  130)));

/**
 * The INT4 twin of Int8GatherVariants: the nibble-packed shuffle tiers and
 * the generic packed sweep share exact biased-nibble accumulation under
 * the same group scales. The output width is ODD (71) so every run
 * exercises the dangling low-plane column of the last packed pair.
 */
class Int4GatherVariants
    : public ::testing::TestWithParam<
          std::tuple<int64_t, int64_t, int64_t, int64_t>>
{
};

TEST_P(Int4GatherVariants, ShuffleBitExactVsScalar)
{
    const auto [k, v, c, rows] = GetParam();
    expectEveryGatherTierBitIdentical(lutboost::TablePrecision::Int4, k, 71,
                                      v, c, rows, 56);
}

INSTANTIATE_TEST_SUITE_P(
    AwkwardShapes, Int4GatherVariants,
    ::testing::Combine(::testing::Values<int64_t>(23, 52),  // K % v != 0
                       ::testing::Values<int64_t>(3, 8),
                       ::testing::Values<int64_t>(4, 16),
                       ::testing::Values<int64_t>(1, 31, 32, 63, 64, 65,
                                                  130)));

// ---- Property: every INT8 encode tier is bit-identical -----------------

/**
 * The INT8 encode contract: the VNNI and AVX2 tiers quantize inputs onto
 * the same 7-bit grid and score centroids in the same exact int32
 * arithmetic as the generic tier's scalar integer reference, so the
 * SELECTED CODES must match BIT FOR BIT across awkward shapes — c in
 * {4, 16}, K % v != 0 (zero-padded ragged tail subspace), attention-shaped
 * arenas (K = 64, v | K), and row counts around the SIMD chunk
 * boundaries. Agreement with the float encode is a separate, statistical
 * contract (see the serve tests); THIS test is about exactness across
 * kernels.
 */
class Int8EncodeVariants
    : public ::testing::TestWithParam<
          std::tuple<int64_t, int64_t, int64_t, int64_t>>
{
};

TEST_P(Int8EncodeVariants, SimdTiersBitIdenticalToScalarReference)
{
    const auto [k, v, c, rows] = GetParam();
    vq::PQConfig pq;
    pq.v = v;
    pq.c = c;
    lutboost::LutLinear layer(k, 10, pq, /*bias=*/false,
                              /*seed=*/static_cast<uint64_t>(k * 3 + c + rows));
    layer.refreshInferenceLut();
    const auto arena = layer.inferenceArena();
    ASSERT_TRUE(arena->int8EncodeSupported());

    Rng rng(91 + static_cast<uint64_t>(rows));
    Tensor x(Shape{rows, k});
    for (int64_t i = 0; i < x.numel(); ++i)
        x.at(i) = static_cast<float>(rng.gaussian(0.0, 1.0));

    const int64_t nc = arena->numSubspaces();
    lutboost::EncodeScratch staging;
    vq::CodeBuffer scalar;
    lutboost::makeEncodeBank(*arena, lutboost::EncodePrecision::Int8,
                             util::SimdLevel::Generic)
        ->encodeBatch(x.data(), rows, scalar, staging);
    ASSERT_EQ(scalar.rows(), rows);
    ASSERT_EQ(scalar.subspaces(), nc);

    for (const util::SimdLevel level : tiersUpToHost()) {
        const auto bank = lutboost::makeEncodeBank(
            *arena, lutboost::EncodePrecision::Int8, level);
        vq::CodeBuffer codes;
        bank->encodeBatch(x.data(), rows, codes, staging);
        for (int64_t r = 0; r < rows; ++r)
            for (int64_t s = 0; s < nc; ++s)
                ASSERT_EQ(codes.get(r, s), scalar.get(r, s))
                    << bank->kernelName() << " at "
                    << util::simdLevelName(level) << " diverged: k=" << k
                    << " v=" << v << " c=" << c << " rows=" << rows
                    << " r=" << r << " s=" << s;

        // Span-sharded encode (what the engine's parallel-for runs) must
        // select the same codes as the whole-buffer call across the seam.
        vq::CodeBuffer spans;
        spans.reset(rows, nc, c);
        const int64_t half = rows / 2;
        if (half > 0)
            bank->encodeBlock(x.data(), 0, half, spans, staging);
        bank->encodeBlock(x.data(), half, rows - half, spans, staging);
        for (int64_t r = 0; r < rows; ++r)
            for (int64_t s = 0; s < nc; ++s)
                ASSERT_EQ(spans.get(r, s), scalar.get(r, s))
                    << "span seam changed the " << bank->kernelName()
                    << " encode at r=" << r;
    }

    // The arena's own bank (the running tier) serves the plans.
    vq::CodeBuffer served;
    arena->encodeBank(lutboost::EncodePrecision::Int8)
        .encodeBatch(x.data(), rows, served, staging);
    for (int64_t r = 0; r < rows; ++r)
        for (int64_t s = 0; s < nc; ++s)
            ASSERT_EQ(served.get(r, s), scalar.get(r, s));
}

INSTANTIATE_TEST_SUITE_P(
    AwkwardShapes, Int8EncodeVariants,
    ::testing::Combine(
        // K % v != 0 plus the attention-shaped d_model 64 (v | K)
        ::testing::Values<int64_t>(23, 52, 64),
        ::testing::Values<int64_t>(3, 8),
        ::testing::Values<int64_t>(4, 16),
        // row counts around the encode lane groups (16 rows per zmm, 8
        // per ymm) and the gather chunks: single, one lane group +/- 1,
        // one AVX2 chunk, one AVX-512 chunk +/- 1, ragged multi-chunk
        ::testing::Values<int64_t>(1, 15, 16, 17, 31, 32, 63, 64, 65,
                                   130)));

// ---- Property: the fused encode -> gather tile is bit-identical --------

/** Gaussian rows with NaN / +Inf / -Inf planted in rows 2, 5 and 7 (when
 * present), so the fused path's NaN/Inf handling is pinned too. */
Tensor
hostileRows(int64_t rows, int64_t k, uint64_t seed)
{
    Tensor x = randomMatrix(rows, k, seed);
    if (rows > 2)
        x.at(2 * k + 1) = std::numeric_limits<float>::quiet_NaN();
    if (rows > 5)
        x.at(5 * k + k - 1) = std::numeric_limits<float>::infinity();
    if (rows > 7)
        x.at(7 * k) = -std::numeric_limits<float>::infinity();
    return x;
}

/**
 * BankPair::forwardTile encodes each chunk straight into the shuffle
 * gather's planar code lanes whenever the table bank has a chunk kernel.
 * For both encode precisions, both quantized table precisions and every
 * tier at or below the host's, it must produce exactly the bits of the
 * split path over generic-tier banks: encodeBatch into a CodeBuffer, then
 * the scalar group sweep. Rows straddle the 8/16-row encode lane groups
 * and the 32/64-row gather chunks (below chunk / 4 rows the planar gather
 * runs the scalar sweep), K % v != 0 exercises the zero-padded tail
 * subspace, and NaN / +-Inf rows ride along. One scratch is reused across
 * every call, so stale planar lanes from an earlier, larger tile must
 * never leak into a later one.
 */
class FusedTileBitIdentity
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t, int64_t>>
{
};

TEST_P(FusedTileBitIdentity, MatchesSplitScalarReference)
{
    const auto [v, c, rows] = GetParam();
    const int64_t k = 52;  // K % v != 0 for v in {3, 8}
    const int64_t n = 71;  // odd: the INT4 dangling column rides along
    vq::PQConfig pq;
    pq.v = v;
    pq.c = c;
    lutboost::LutLinear layer(k, n, pq, /*bias=*/true,
                              /*seed=*/static_cast<uint64_t>(v * 31 + c));
    layer.refreshInferenceLut();
    const auto arena = layer.inferenceArena();
    ASSERT_NE(arena->numSubspaces() * v, k);

    const Tensor x = hostileRows(rows, k, 300 + static_cast<uint64_t>(rows));
    lutboost::KernelScratch scratch;  // shared by every call below
    for (const auto encode : {lutboost::EncodePrecision::Float32,
                              lutboost::EncodePrecision::Int8}) {
        vq::CodeBuffer codes;
        lutboost::EncodeScratch es;
        lutboost::makeEncodeBank(*arena, encode, util::SimdLevel::Generic)
            ->encodeBatch(x.data(), rows, codes, es);
        for (const auto table : {lutboost::TablePrecision::Int8,
                                 lutboost::TablePrecision::Int4}) {
            Tensor want(Shape{rows, n});
            lutboost::GatherScratch gs;
            lutboost::makeTableBank(*arena, table, util::SimdLevel::Generic)
                ->gather(codes, 0, rows, want.data(), gs);
            const auto check = [&](const lutboost::BankPair &banks,
                                   const char *tier) {
                Tensor got(Shape{rows, n});
                uint64_t encode_ns = 0, gather_ns = 0;
                banks.forwardTile(x.data(), rows, got.data(), scratch,
                                  &encode_ns, &gather_ns);
                EXPECT_TRUE(got.equals(want))
                    << banks.table->kernelName() << " / "
                    << banks.encode->kernelName() << " at " << tier
                    << " fused tile diverged: v=" << v << " c=" << c
                    << " rows=" << rows
                    << " maxdiff=" << Tensor::maxAbsDiff(got, want);
                EXPECT_GT(encode_ns, 0u);
                EXPECT_GT(gather_ns, 0u);
            };
            for (const util::SimdLevel level : tiersUpToHost()) {
                const auto table_bank =
                    lutboost::makeTableBank(*arena, table, level);
                const auto encode_bank =
                    lutboost::makeEncodeBank(*arena, encode, level);
                if (level >= util::SimdLevel::Avx2) {
                    ASSERT_GT(table_bank->chunkRows(), 0)
                        << table_bank->kernelName() << " should fuse at "
                        << util::simdLevelName(level);
                }
                check({table_bank.get(), encode_bank.get()},
                      util::simdLevelName(level));
            }
            check({&arena->tableBank(table), &arena->encodeBank(encode)},
                  "the arena's own banks");
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AwkwardShapes, FusedTileBitIdentity,
    ::testing::Combine(::testing::Values<int64_t>(3, 8),
                       ::testing::Values<int64_t>(4, 16),
                       ::testing::Values<int64_t>(1, 8, 15, 16, 17, 31, 32,
                                                  63, 64, 65, 130, 256)));

/**
 * The steady-state contract KernelScratch promises: once a scratch has
 * served one tile, serving the same tile again performs NO heap
 * allocation — fused quantized tiles (both encode precisions, ragged
 * chunk tails, a small tile whose planar gather runs the scalar sweep)
 * and the unfused float backend.
 */
TEST(FusedTileScratch, WarmForwardTileAllocatesNothing)
{
    vq::PQConfig pq;
    pq.v = 8;
    pq.c = 16;
    lutboost::LutLinear layer(52, 71, pq, /*bias=*/true, /*seed=*/17);
    layer.refreshInferenceLut();
    const auto arena = layer.inferenceArena();
    struct Case
    {
        lutboost::TablePrecision table;
        lutboost::EncodePrecision encode;
        int64_t rows;
    };
    const Case cases[] = {
        {lutboost::TablePrecision::Int4, lutboost::EncodePrecision::Int8, 64},
        {lutboost::TablePrecision::Int4, lutboost::EncodePrecision::Int8,
         130},
        {lutboost::TablePrecision::Int4, lutboost::EncodePrecision::Int8, 5},
        {lutboost::TablePrecision::Int8, lutboost::EncodePrecision::Float32,
         100},
        {lutboost::TablePrecision::Float32,
         lutboost::EncodePrecision::Float32, 64},
    };
    for (const Case &tc : cases) {
        const lutboost::BankPair banks{&arena->tableBank(tc.table),
                                       &arena->encodeBank(tc.encode)};
        const Tensor x = randomMatrix(tc.rows, 52, 5);
        Tensor y(Shape{tc.rows, 71});
        lutboost::KernelScratch scratch;
        banks.forwardTile(x.data(), tc.rows, y.data(), scratch, nullptr,
                          nullptr);
        const int64_t before = g_heap_allocs.load();
        banks.forwardTile(x.data(), tc.rows, y.data(), scratch, nullptr,
                          nullptr);
        EXPECT_EQ(g_heap_allocs.load() - before, 0)
            << lutboost::tablePrecisionName(tc.table) << " / "
            << lutboost::encodePrecisionName(tc.encode)
            << " rows=" << tc.rows;
    }
}

// ---- Property: the chunk transpose-out moves values bit for bit -------

/** Bitwise equality of two float spans: tells -0.0f from +0.0f. */
bool
sameBits(const float *a, const float *b, int64_t count)
{
    return std::memcmp(a, b, static_cast<size_t>(count) * sizeof(float)) ==
           0;
}

/**
 * TableBank::gatherPlanar copies each chunk's column-major accumulators
 * out through simd::transposeChunkOut, the bias added as it stores. For
 * every tier with a chunk kernel, both quantized table precisions, widths
 * around the 8/16-column transpose tiles and every row count the vector
 * pass serves (chunk / 4 .. chunk), the output must be exactly the scalar
 * transpose of the accumulators the chunk kernel left in scratch, plus
 * the bias when the layer has one.
 */
class TransposeOutBitIdentity : public ::testing::TestWithParam<int64_t>
{
};

TEST_P(TransposeOutBitIdentity, GatherPlanarMatchesScalarTransposePlusBias)
{
    const int64_t n = GetParam();
    vq::PQConfig pq;
    pq.v = 4;
    pq.c = 16;
    for (const bool bias : {true, false}) {
        lutboost::LutLinear layer(36, n, pq, bias,
                                  /*seed=*/static_cast<uint64_t>(n));
        layer.refreshInferenceLut();
        const auto arena = layer.inferenceArena();
        ASSERT_EQ(arena->bias() != nullptr, bias);
        const int64_t nc = arena->numSubspaces();
        for (const util::SimdLevel level : tiersUpToHost())
            for (const auto table : {lutboost::TablePrecision::Int8,
                                     lutboost::TablePrecision::Int4}) {
                const auto bank =
                    lutboost::makeTableBank(*arena, table, level);
                const int64_t chunk = bank->chunkRows();
                if (chunk == 0)
                    continue;  // no planar gather on this tier
                Rng rng(static_cast<uint64_t>(n * 7 + chunk));
                std::vector<uint8_t> codes(static_cast<size_t>(nc * chunk));
                for (uint8_t &code : codes)
                    code = static_cast<uint8_t>(rng.uniformInt(0, 15));
                lutboost::GatherScratch scratch;
                for (int64_t rows = chunk / 4; rows <= chunk; ++rows) {
                    scratch.planar = codes;
                    std::vector<float> got(static_cast<size_t>(rows * n));
                    bank->gatherPlanar(rows, got.data(), scratch);
                    std::vector<float> want(got.size());
                    for (int64_t r = 0; r < rows; ++r)
                        for (int64_t col = 0; col < n; ++col) {
                            float value =
                                scratch.colmajor[static_cast<size_t>(
                                    col * chunk + r)];
                            if (bias)
                                value += arena->bias()[col];
                            want[static_cast<size_t>(r * n + col)] = value;
                        }
                    EXPECT_TRUE(sameBits(got.data(), want.data(), rows * n))
                        << bank->kernelName() << " at "
                        << util::simdLevelName(level) << " n=" << n
                        << " rows=" << rows << " bias=" << bias;
                }
            }
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, TransposeOutBitIdentity,
                         ::testing::Values<int64_t>(1, 15, 16, 17, 33, 513));

/**
 * The kernel itself, at every tier (generic included) and both chunk
 * heights: without a bias every accumulator is stored as it is — -0.0f
 * and NaN payloads included, which adding a 0.0f bias would not keep —
 * and with one each value gets exactly one float add.
 */
TEST(TransposeOut, KernelStoresAccumulatorsAsTheyAre)
{
    for (const int64_t chunk : {int64_t{32}, int64_t{64}})
        for (const int64_t n : {int64_t{1}, int64_t{17}, int64_t{33}}) {
            Rng rng(static_cast<uint64_t>(chunk + n));
            std::vector<float> colmajor(static_cast<size_t>(n * chunk));
            for (float &value : colmajor)
                value = static_cast<float>(rng.gaussian(0.0, 1.0));
            for (size_t i = 0; i < colmajor.size(); i += 3)
                colmajor[i] = -0.0f;
            colmajor[1] = std::numeric_limits<float>::quiet_NaN();
            std::vector<float> bias(static_cast<size_t>(n));
            for (float &value : bias)
                value = static_cast<float>(rng.gaussian(0.0, 1.0));
            for (const util::SimdLevel level : tiersUpToHost())
                for (int64_t rows = 1; rows <= chunk; rows += 7) {
                    std::vector<float> plain(static_cast<size_t>(rows * n));
                    std::vector<float> biased(plain.size());
                    lutboost::simd::transposeChunkOut(level, colmajor.data(),
                                                      chunk, n, rows, nullptr,
                                                      plain.data());
                    lutboost::simd::transposeChunkOut(level, colmajor.data(),
                                                      chunk, n, rows,
                                                      bias.data(),
                                                      biased.data());
                    std::vector<float> want_plain(plain.size());
                    std::vector<float> want_biased(plain.size());
                    for (int64_t r = 0; r < rows; ++r)
                        for (int64_t col = 0; col < n; ++col) {
                            const float value = colmajor[static_cast<size_t>(
                                col * chunk + r)];
                            const auto at = static_cast<size_t>(r * n + col);
                            want_plain[at] = value;
                            want_biased[at] =
                                value + bias[static_cast<size_t>(col)];
                        }
                    EXPECT_TRUE(
                        sameBits(plain.data(), want_plain.data(), rows * n))
                        << util::simdLevelName(level) << " chunk=" << chunk
                        << " n=" << n << " rows=" << rows << " (no bias)";
                    EXPECT_TRUE(
                        sameBits(biased.data(), want_biased.data(), rows * n))
                        << util::simdLevelName(level) << " chunk=" << chunk
                        << " n=" << n << " rows=" << rows << " (bias)";
                }
        }
}

// ---- Property: generic-c float SIMD encode is bit-exact vs scalar ------

/**
 * The masked generic-c float encode tier (c <= 64, any v) must select
 * bit-identical codes to the scalar distance + ascending argmin scan:
 * pad lanes park at +inf, blocks scan in ascending order, ties break to
 * the lowest index, and NaN rows fall back to the scalar scan. Exercised
 * at every SIMD level this host can run, over ragged row strides.
 */
TEST(GenericCFloatEncode, MaskedSimdBitExactVsScalarScan)
{
    const util::SimdLevel host = util::simdLevel();
    std::vector<util::SimdLevel> levels;
    if (host >= util::SimdLevel::Avx2)
        levels.push_back(util::SimdLevel::Avx2);
    if (host >= util::SimdLevel::Avx512)
        levels.push_back(util::SimdLevel::Avx512);
    if (levels.empty())
        GTEST_SKIP() << "no SIMD level on this host; scalar-only";

    for (const int64_t c : {4, 8, 32, 11}) {     // 11: non-pow2, odd mask
        for (const int64_t v : {3, 8, 11}) {
            for (const int64_t rows : {1, 7, 33}) {
                const int64_t stride = v + 2;    // ragged row stride
                Rng rng(7 + static_cast<uint64_t>(c * 100 + v * 10 + rows));
                std::vector<float> cbt(static_cast<size_t>(v * c));
                for (float &e : cbt)
                    e = static_cast<float>(rng.gaussian(0.0, 1.0));
                std::vector<float> x(static_cast<size_t>(rows * stride));
                for (float &e : x)
                    e = static_cast<float>(rng.gaussian(0.0, 1.0));
                // Force a tie: centroid c/2 duplicates centroid 0, and
                // row 0 sits exactly on it — index 0 must win.
                for (int64_t d = 0; d < v; ++d) {
                    cbt[static_cast<size_t>(d * c + c / 2)] =
                        cbt[static_cast<size_t>(d * c)];
                    x[static_cast<size_t>(d)] =
                        cbt[static_cast<size_t>(d * c)];
                }
                // A NaN row must take the scalar fallback (argmin 0).
                if (rows > 2)
                    x[static_cast<size_t>(2 * stride + 1)] =
                        std::numeric_limits<float>::quiet_NaN();

                // Scalar reference: explicit mul + add (this TU builds
                // without -march, so no FMA contraction), strict < scan.
                std::vector<int32_t> want(static_cast<size_t>(rows), 0);
                for (int64_t r = 0; r < rows; ++r) {
                    const float *sub = x.data() + r * stride;
                    int32_t best = 0;
                    float best_d = std::numeric_limits<float>::infinity();
                    for (int64_t j = 0; j < c; ++j) {
                        float dist = 0.0f;
                        for (int64_t d = 0; d < v; ++d) {
                            const float diff =
                                sub[d] - cbt[static_cast<size_t>(d * c + j)];
                            dist += diff * diff;
                        }
                        if (dist < best_d) {
                            best_d = dist;
                            best = static_cast<int32_t>(j);
                        }
                    }
                    want[static_cast<size_t>(r)] = best;
                }

                for (const util::SimdLevel level : levels) {
                    ASSERT_TRUE(
                        lutboost::simd::encodeL2GenericSupported(level, c));
                    std::vector<uint8_t> got(static_cast<size_t>(rows), 0xFF);
                    lutboost::simd::encodeL2GenericRows(
                        level, x.data(), rows, stride, cbt.data(), v, c,
                        got.data());
                    for (int64_t r = 0; r < rows; ++r)
                        ASSERT_EQ(static_cast<int32_t>(got[static_cast<size_t>(r)]),
                                  want[static_cast<size_t>(r)])
                            << util::simdLevelName(level) << " c=" << c
                            << " v=" << v << " rows=" << rows
                            << " r=" << r;
                }
            }
        }
    }
}

// ---- Property: banks account exactly for what each tier allocates ------

/**
 * A bank's residentBytes() is exactly what its tier allocated, and its
 * tableBytes() is the canonical row-major layout at every tier. At c = 16
 * the INT8 bank holds the row-major table plus ONE chunk layout — the
 * quad-interleaved VNNI layout on the VNNI tier, the 16-entry shuffle
 * layout on the AVX2 / AVX-512 tiers, none on the generic tier — and the
 * INT4 bank adds its shuffle layout on every SIMD tier. Also pins the
 * INT4 bank's headline footprint win: at or under 0.55x the INT8 resident
 * bytes on every tier.
 */
TEST(QuantizedBankAccounting, ResidentBytesMatchMaterializedLayouts)
{
    const int64_t k = 52, n = 70, c = 16;
    vq::PQConfig pq;
    pq.v = 8;
    pq.c = c;
    lutboost::LutLinear layer(k, n, pq, /*bias=*/true, /*seed=*/77);
    layer.refreshInferenceLut();
    const auto arena = layer.inferenceArena();
    // Banks build lazily: a fresh arena holds none, so a plan pays only
    // for the banks it reads.
    for (const auto p : {lutboost::TablePrecision::Float32,
                         lutboost::TablePrecision::Int8,
                         lutboost::TablePrecision::Int4})
        EXPECT_FALSE(arena->tableBankBuilt(p))
            << lutboost::tablePrecisionName(p);
    for (const auto p : {lutboost::EncodePrecision::Float32,
                         lutboost::EncodePrecision::Int8})
        EXPECT_FALSE(arena->encodeBankBuilt(p))
            << lutboost::encodePrecisionName(p);

    const int64_t nc = arena->numSubspaces();
    const int64_t groups =
        (nc + lutboost::LutTableArena::kInt8ScaleGroup - 1) /
        lutboost::LutTableArena::kInt8ScaleGroup;
    const int64_t blocks =
        (n + lutboost::LutTableArena::kInt8BlockCols - 1) /
        lutboost::LutTableArena::kInt8BlockCols;
    const int64_t scale_bytes =
        groups * blocks * static_cast<int64_t>(sizeof(float));
    const int64_t half_n = (n + 1) / 2;
    const int64_t row_major8 = nc * c * n + scale_bytes;
    const int64_t row_major4 = nc * c * half_n + scale_bytes;

    for (const util::SimdLevel level : tiersUpToHost()) {
        const auto int8 = lutboost::makeTableBank(
            *arena, lutboost::TablePrecision::Int8, level);
        const auto int4 = lutboost::makeTableBank(
            *arena, lutboost::TablePrecision::Int4, level);
        int64_t expect8 = row_major8, expect4 = row_major4;
        if (level == util::SimdLevel::Avx512Vnni)
            expect8 += ((nc + 3) / 4) * n * 64;     // q_quad only
        else if (level != util::SimdLevel::Generic)
            expect8 += nc * n * 16;                 // q_il only
        if (level != util::SimdLevel::Generic)
            expect4 += nc * half_n * 16;            // q4_il
        const char *tier = util::simdLevelName(level);
        EXPECT_EQ(int8->residentBytes(), expect8) << tier;
        EXPECT_EQ(int8->tableBytes(), row_major8) << tier;
        EXPECT_EQ(int4->residentBytes(), expect4) << tier;
        EXPECT_EQ(int4->tableBytes(), row_major4) << tier;
        // The acceptance headline: INT4 resident footprint <= 0.55x INT8.
        EXPECT_LE(static_cast<double>(int4->residentBytes()),
                  0.55 * static_cast<double>(int8->residentBytes()))
            << tier;
        if (level == util::simdLevel()) {
            // Standalone banks of every tier leave the arena's unbuilt.
            EXPECT_FALSE(
                arena->tableBankBuilt(lutboost::TablePrecision::Int8));
            EXPECT_FALSE(
                arena->tableBankBuilt(lutboost::TablePrecision::Int4));
            EXPECT_EQ(arena->tableBank(lutboost::TablePrecision::Int8)
                          .residentBytes(),
                      expect8);
            EXPECT_TRUE(
                arena->tableBankBuilt(lutboost::TablePrecision::Int8));
            EXPECT_FALSE(
                arena->tableBankBuilt(lutboost::TablePrecision::Int4));
            EXPECT_EQ(arena->tableBank(lutboost::TablePrecision::Int4)
                          .residentBytes(),
                      expect4);
        }
    }
    // The float banks read the arena's own source and allocate nothing.
    EXPECT_EQ(
        arena->tableBank(lutboost::TablePrecision::Float32).residentBytes(),
        0);
    EXPECT_EQ(
        arena->tableBank(lutboost::TablePrecision::Float32).tableBytes(),
        arena->sizeBytes());
    EXPECT_EQ(arena->encodeBank(lutboost::EncodePrecision::Float32)
                  .residentBytes(),
              0);
}

/** Same accounting with c > 16: no chunk kernel on any tier, so both
 * table banks are row-major + scales only and the INT8 encode bank holds
 * the row-major codebooks for the scalar scan. */
TEST(QuantizedBankAccounting, NoMirrorLayoutsAboveSixteenCentroids)
{
    const int64_t k = 24, n = 33, c = 20, v = 4;
    vq::PQConfig pq;
    pq.v = v;
    pq.c = c;
    lutboost::LutLinear layer(k, n, pq, /*bias=*/false, /*seed=*/78);
    layer.refreshInferenceLut();
    const auto arena = layer.inferenceArena();
    const int64_t nc = arena->numSubspaces();
    const int64_t scale_bytes = static_cast<int64_t>(sizeof(float));
    const int64_t grid = nc * c * static_cast<int64_t>(sizeof(int32_t)) +
                         2 * nc * static_cast<int64_t>(sizeof(float));
    for (const util::SimdLevel level : tiersUpToHost()) {
        const char *tier = util::simdLevelName(level);
        const auto int8 = lutboost::makeTableBank(
            *arena, lutboost::TablePrecision::Int8, level);
        EXPECT_EQ(int8->residentBytes(), nc * c * n + scale_bytes) << tier;
        EXPECT_EQ(int8->chunkRows(), 0) << tier;
        EXPECT_EQ(lutboost::makeTableBank(*arena,
                                          lutboost::TablePrecision::Int4,
                                          level)
                      ->residentBytes(),
                  nc * c * ((n + 1) / 2) + scale_bytes)
            << tier;
        const auto encode = lutboost::makeEncodeBank(
            *arena, lutboost::EncodePrecision::Int8, level);
        EXPECT_EQ(encode->residentBytes(), nc * c * v + grid) << tier;
        EXPECT_STREQ(encode->kernelName(), "int8-scalar") << tier;
    }
}

/**
 * The INT8 ENCODE bank: tableBytes() counts the host-independent scalar
 * layout (shifted codes + padded norms + grid); residentBytes() counts
 * what the tier built — the quad layout + norms + grid on SIMD tiers
 * (no row-major codes), the row-major codes + norms + grid on the generic
 * tier.
 */
TEST(QuantizedBankAccounting, EncodeBankHoldsOneLayoutPerTier)
{
    const int64_t k = 52, c = 16;
    vq::PQConfig pq;
    pq.v = 8;
    pq.c = c;
    lutboost::LutLinear layer(k, 70, pq, /*bias=*/true, /*seed=*/79);
    layer.refreshInferenceLut();
    const auto arena = layer.inferenceArena();
    EXPECT_TRUE(arena->int8EncodeSupported());
    EXPECT_FALSE(arena->encodeBankBuilt(lutboost::EncodePrecision::Int8));

    const int64_t nc = arena->numSubspaces();
    const int64_t v = arena->subvectorLen();
    const int64_t norm_stride = std::max<int64_t>(c, 16);
    const int64_t grid =
        nc * norm_stride * static_cast<int64_t>(sizeof(int32_t)) +
        2 * nc * static_cast<int64_t>(sizeof(float));        // lo + inv
    const int64_t table = nc * c * v + grid;                 // cs codes
    for (const util::SimdLevel level : tiersUpToHost()) {
        const auto bank = lutboost::makeEncodeBank(
            *arena, lutboost::EncodePrecision::Int8, level);
        const int64_t codes = level == util::SimdLevel::Generic
                                  ? nc * c * v               // cs
                                  : nc * ((v + 3) / 4) * 64; // cs_quad
        EXPECT_EQ(bank->tableBytes(), table) << util::simdLevelName(level);
        EXPECT_EQ(bank->residentBytes(), codes + grid)
            << util::simdLevelName(level);
        if (level == util::simdLevel()) {
            EXPECT_FALSE(
                arena->encodeBankBuilt(lutboost::EncodePrecision::Int8));
            EXPECT_EQ(arena->encodeBank(lutboost::EncodePrecision::Int8)
                          .residentBytes(),
                      codes + grid);
            EXPECT_TRUE(
                arena->encodeBankBuilt(lutboost::EncodePrecision::Int8));
        }
    }

    // Building the ENCODE bank materializes no table bank.
    for (const auto p : {lutboost::TablePrecision::Float32,
                         lutboost::TablePrecision::Int8,
                         lutboost::TablePrecision::Int4})
        EXPECT_FALSE(arena->tableBankBuilt(p))
            << lutboost::tablePrecisionName(p);

    // The encode sweep streams a fraction of the float transposed
    // codebooks it replaces (4 bytes/entry -> 1 + norm/grid overhead).
    EXPECT_LT(table, nc * c * v * 4);
    EXPECT_EQ(
        arena->encodeBank(lutboost::EncodePrecision::Float32).tableBytes(),
        k * c * static_cast<int64_t>(sizeof(float)));
}

/** A bank for a tier above the running CPU (or the LUTDLA_SIMD cap) is
 * refused at build time, naming both tiers. */
TEST(QuantizedBankAccountingDeathTest, BankAboveHostTierIsRefused)
{
    const util::SimdLevel host = util::simdLevel();
    if (host == util::SimdLevel::Avx512Vnni)
        GTEST_SKIP() << "no tier above avx512-vnni; rerun with LUTDLA_SIMD "
                        "capped to exercise the refusal";
    const auto above = static_cast<util::SimdLevel>(static_cast<int>(host) + 1);
    vq::PQConfig pq;
    pq.v = 4;
    pq.c = 16;
    lutboost::LutLinear layer(16, 8, pq, /*bias=*/false, /*seed=*/80);
    layer.refreshInferenceLut();
    const auto arena = layer.inferenceArena();
    const std::string message = std::string("needs ") +
                                util::simdLevelName(above) +
                                " but this CPU provides " +
                                util::simdLevelName(host);
    EXPECT_DEATH(lutboost::makeTableBank(
                     *arena, lutboost::TablePrecision::Int8, above),
                 message);
    EXPECT_DEATH(lutboost::makeEncodeBank(
                     *arena, lutboost::EncodePrecision::Int8, above),
                 message);
}

// ---- Property: reference backend bit-exact on awkward shapes -----------

class AwkwardShapeServing
    : public ::testing::TestWithParam<
          std::tuple<int64_t, int64_t, int64_t, int64_t>>
{
};

TEST_P(AwkwardShapeServing, ReferenceBackendMatchesEvalForward)
{
    const auto [k, v, c, rows] = GetParam();
    vq::PQConfig pq;
    pq.v = v;
    pq.c = c;
    lutboost::LutLinear layer(k, 9, pq, /*bias=*/true,
                              /*seed=*/static_cast<uint64_t>(k * 7 + c));
    layer.refreshInferenceLut();

    Rng rng(101);
    Tensor x(Shape{rows, k});
    for (int64_t i = 0; i < x.numel(); ++i)
        x.at(i) = static_cast<float>(rng.gaussian(0.0, 1.0));
    const Tensor reference = layer.forward(x, /*train=*/false);

    // Drive the split encode -> gather pair exactly like a planned
    // ArenaStage does.
    const auto arena = layer.inferenceArena();
    lutboost::KernelScratch scratch;
    Tensor y(Shape{rows, 9});
    arena->encodeBank(lutboost::EncodePrecision::Float32)
        .encodeBatch(x.data(), rows, scratch.codes, scratch.encode);
    EXPECT_EQ(scratch.codes.rows(), rows);
    EXPECT_EQ(scratch.codes.subspaces(), arena->numSubspaces());
    arena->tableBank(lutboost::TablePrecision::Float32)
        .gather(scratch.codes, 0, rows, y.data(), scratch.gather);
    EXPECT_TRUE(y.equals(reference))
        << "k=" << k << " v=" << v << " c=" << c << " rows=" << rows
        << " maxdiff=" << Tensor::maxAbsDiff(y, reference);

    // The quantized backend must stay finite and within the INT8 error
    // envelope on the same shapes (exactness is not required).
    Tensor q(Shape{rows, 9});
    arena->tableBank(lutboost::TablePrecision::Int8)
        .gather(scratch.codes, 0, rows, q.data(), scratch.gather);
    double worst = 0.0, scale = 0.0;
    for (int64_t i = 0; i < q.numel(); ++i) {
        ASSERT_TRUE(std::isfinite(q.at(i)));
        worst = std::max(
            worst, static_cast<double>(std::fabs(q.at(i) - reference.at(i))));
        scale = std::max(scale,
                         static_cast<double>(std::fabs(reference.at(i))));
    }
    EXPECT_LE(worst, 0.05 * scale + 1e-3)
        << "k=" << k << " v=" << v << " c=" << c << " rows=" << rows;
}

INSTANTIATE_TEST_SUITE_P(
    AwkwardShapes, AwkwardShapeServing,
    ::testing::Combine(::testing::Values<int64_t>(7, 17),  // K % v != 0
                       ::testing::Values<int64_t>(3, 4),
                       ::testing::Values<int64_t>(6, 8),   // c = 6: non-pow2
                       ::testing::Values<int64_t>(1, 5))); // single-row too

// ---- Property: INT4 gather stays inside its error envelope -------------

/**
 * The INT4 twin of AwkwardShapeServing's quantized-envelope check. The
 * nibble step is max_abs / 7 — 127/7 ~ 18x coarser than INT8 — so the
 * envelope is proportionally looser: per column the absolute error is
 * bounded by the per-entry rounding (half a step) summed over the
 * subspaces, with `scale` the reference output magnitude standing in
 * for the table magnitude. Exactness is never required; finiteness and
 * the bound are.
 */
class Int4ErrorEnvelope
    : public ::testing::TestWithParam<
          std::tuple<int64_t, int64_t, int64_t, int64_t>>
{
};

TEST_P(Int4ErrorEnvelope, QuantizationErrorBounded)
{
    const auto [k, v, c, rows] = GetParam();
    vq::PQConfig pq;
    pq.v = v;
    pq.c = c;
    lutboost::LutLinear layer(k, 9, pq, /*bias=*/true,
                              /*seed=*/static_cast<uint64_t>(k * 7 + c));
    layer.refreshInferenceLut();
    const auto arena = layer.inferenceArena();

    Rng rng(101);
    Tensor x(Shape{rows, k});
    for (int64_t i = 0; i < x.numel(); ++i)
        x.at(i) = static_cast<float>(rng.gaussian(0.0, 1.0));
    const Tensor reference = layer.forward(x, /*train=*/false);

    lutboost::KernelScratch scratch;
    arena->encodeBank(lutboost::EncodePrecision::Float32)
        .encodeBatch(x.data(), rows, scratch.codes, scratch.encode);
    Tensor q(Shape{rows, 9});
    arena->tableBank(lutboost::TablePrecision::Int4)
        .gather(scratch.codes, 0, rows, q.data(), scratch.gather);
    double worst = 0.0, scale = 0.0;
    for (int64_t i = 0; i < q.numel(); ++i) {
        ASSERT_TRUE(std::isfinite(q.at(i)));
        worst = std::max(worst, static_cast<double>(
                                    std::fabs(q.at(i) - reference.at(i))));
        scale = std::max(scale,
                         static_cast<double>(std::fabs(reference.at(i))));
    }
    EXPECT_LE(worst, 0.5 * scale + 2e-2)
        << "k=" << k << " v=" << v << " c=" << c << " rows=" << rows;
}

INSTANTIATE_TEST_SUITE_P(
    AwkwardShapes, Int4ErrorEnvelope,
    ::testing::Combine(::testing::Values<int64_t>(7, 17),
                       ::testing::Values<int64_t>(3, 4),
                       ::testing::Values<int64_t>(6, 8),
                       ::testing::Values<int64_t>(1, 5)));

// ---- Property: equivalent bits track (v, c) as in Table V -------------

TEST(EquivalentBits, MatchesTableVGrid)
{
    const struct
    {
        int64_t v, c;
        double bits;
    } rows[] = {{9, 8, 3.0 / 9}, {9, 16, 4.0 / 9}, {6, 8, 0.5},
                {6, 16, 4.0 / 6}, {3, 8, 1.0},     {3, 16, 4.0 / 3}};
    for (const auto &row : rows) {
        vq::PQConfig cfg;
        cfg.v = row.v;
        cfg.c = row.c;
        EXPECT_NEAR(cfg.equivalentBits(), row.bits, 1e-12)
            << "v=" << row.v << " c=" << row.c;
    }
}

} // namespace
} // namespace lutdla
