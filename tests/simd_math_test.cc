/**
 * @file
 * The numerics contract of the shared float transformer math (exp, span
 * GELU, softmax, attention core in nn/simd_math.cc):
 *
 *  - every SIMD tier — generic, AVX2, AVX-512, each forced explicitly —
 *    returns the same bits as the generic scalar tier, over uneven
 *    widths and special inputs (NaN, +/-inf, +/-0, +/-1e4, results that
 *    underflow to denormal or 0 and overflow to inf);
 *  - softmax and attention keep the float op order of the plain loops
 *    (row max from -inf, ascending-j denominators, ascending-j dots with
 *    mul then add, ascending-key value mixing), checked bit for bit
 *    against those loops written out here;
 *  - exp is within 2 ulp of std::exp over the finite range, and GELU
 *    within 1e-6 absolute or 4 ulp of the std::tanh formula.
 *
 * Tiers above what the host supports are skipped; under a LUTDLA_SIMD cap
 * only the tiers at or below the cap run.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "nn/activations.h"
#include "nn/attention.h"
#include "util/cpu_features.h"
#include "util/rng.h"

namespace lutdla::nn {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

/** The tiers this host (and its LUTDLA_SIMD cap) can run, generic first. */
std::vector<util::SimdLevel>
hostTiers()
{
    std::vector<util::SimdLevel> tiers{util::SimdLevel::Generic};
    for (const util::SimdLevel level :
         {util::SimdLevel::Avx2, util::SimdLevel::Avx512})
        if (level <= util::simdLevel())
            tiers.push_back(level);
    return tiers;
}

uint32_t
bitsOf(float f)
{
    uint32_t u;
    std::memcpy(&u, &f, sizeof(u));
    return u;
}

/** Same bits, except that any two NaNs match (payloads are not part of
 * the contract). */
bool
sameBits(float a, float b)
{
    if (std::isnan(a) || std::isnan(b))
        return std::isnan(a) && std::isnan(b);
    return bitsOf(a) == bitsOf(b);
}

::testing::AssertionResult
spansMatch(const std::vector<float> &got, const std::vector<float> &want)
{
    if (got.size() != want.size())
        return ::testing::AssertionFailure() << "size mismatch";
    for (size_t i = 0; i < got.size(); ++i)
        if (!sameBits(got[i], want[i]))
            return ::testing::AssertionFailure()
                   << "index " << i << ": " << got[i] << " (0x" << std::hex
                   << bitsOf(got[i]) << ") vs " << want[i] << " (0x"
                   << bitsOf(want[i]) << ")";
    return ::testing::AssertionSuccess();
}

/** Distance in representable floats between two finite or infinite
 * values of any sign (+0 and -0 are the same point). */
int64_t
ulpDistance(float a, float b)
{
    const auto ordered = [](float f) {
        const int32_t i = static_cast<int32_t>(bitsOf(f));
        return i >= 0 ? static_cast<int64_t>(i)
                      : -static_cast<int64_t>(i & 0x7fffffff);
    };
    const int64_t d = ordered(a) - ordered(b);
    return d < 0 ? -d : d;
}

std::vector<float>
gaussian(int64_t n, uint64_t seed, double std)
{
    std::vector<float> v(static_cast<size_t>(n));
    Rng rng(seed);
    for (float &f : v)
        f = static_cast<float>(rng.gaussian(0.0, std));
    return v;
}

/** Every float from `lo` up to `hi` (same sign) whose bit pattern is a
 * multiple of `stride` away from lo's. */
void
appendSweep(std::vector<float> &out, float lo, float hi, uint32_t stride)
{
    const uint32_t a = bitsOf(lo), b = bitsOf(hi);
    const uint32_t first = a < b ? a : b, last = a < b ? b : a;
    for (uint64_t u = first; u <= last; u += stride) {
        float f;
        const uint32_t bits = static_cast<uint32_t>(u);
        std::memcpy(&f, &bits, sizeof(f));
        out.push_back(f);
    }
}

const std::vector<float> &
specialInputs()
{
    static const std::vector<float> v{
        kNaN,    -kNaN,   kInf,     -kInf,    0.0f,     -0.0f,
        1e4f,    -1e4f,   88.72f,   88.73f,   89.0f,    -87.33f,
        -95.0f,  -103.9f, -104.0f,  -104.5f,  1e-30f,   -1e-30f,
        1e-45f,  3e38f,   -3e38f,   0.5f,     -0.5f,    0.3465736f};
    return v;
}

/** Widths that straddle the 8- and 16-lane boundaries. */
const int64_t kWidths[] = {1, 5, 15, 16, 17, 63, 64, 65};

// ---------------------------------------------------------------------------
// exp

std::vector<float>
expAt(const std::vector<float> &x, util::SimdLevel level)
{
    std::vector<float> y(x.size());
    expForward(x.data(), static_cast<int64_t>(x.size()), y.data(), level);
    return y;
}

TEST(ExpForward, EveryTierReturnsTheGenericBits)
{
    std::vector<float> x = gaussian(4096, 1, 30.0);
    x.insert(x.end(), specialInputs().begin(), specialInputs().end());
    appendSweep(x, -104.0f, -87.0f, 4099);  // denormal and zero results
    appendSweep(x, 88.0f, 89.5f, 4099);     // results up to and past inf
    const std::vector<float> want = expAt(x, util::SimdLevel::Generic);
    for (const util::SimdLevel level : hostTiers()) {
        EXPECT_TRUE(spansMatch(expAt(x, level), want))
            << util::simdLevelName(level);
        // Uneven widths: vector body plus scalar tail at every offset.
        for (const int64_t n : kWidths) {
            for (int64_t off = 0; off + n <= 200; off += 37) {
                std::vector<float> y(static_cast<size_t>(n));
                expForward(x.data() + off, n, y.data(), level);
                EXPECT_TRUE(spansMatch(
                    y, std::vector<float>(want.begin() + off,
                                          want.begin() + off + n)))
                    << util::simdLevelName(level) << " n=" << n
                    << " off=" << off;
            }
        }
    }
}

TEST(ExpForward, WithinTwoUlpOfStdExpOverTheFiniteRange)
{
    // ~2.2M inputs spread over every binade from -104 to 89, tiny
    // magnitudes included; the results span denormals to FLT_MAX.
    std::vector<float> x;
    appendSweep(x, 0.0f, 89.0f, 997);
    appendSweep(x, -0.0f, -104.0f, 997);
    for (const util::SimdLevel level : hostTiers()) {
        const std::vector<float> y = expAt(x, level);
        int64_t worst = 0;
        float worst_x = 0.0f;
        for (size_t i = 0; i < x.size(); ++i) {
            const int64_t d = ulpDistance(y[i], std::exp(x[i]));
            if (d > worst) {
                worst = d;
                worst_x = x[i];
            }
        }
        EXPECT_LE(worst, 2) << util::simdLevelName(level) << " at x="
                            << worst_x;
    }
}

TEST(ExpForward, SpecialValues)
{
    const std::vector<float> x{kNaN, kInf,    -kInf,   0.0f,   -0.0f,
                               89.0f, 1e4f,   -1e4f,   -104.5f, -100.0f,
                               -88.0f, 88.7f};
    for (const util::SimdLevel level : hostTiers()) {
        const std::vector<float> y = expAt(x, level);
        EXPECT_TRUE(std::isnan(y[0]));
        EXPECT_EQ(y[1], kInf);
        EXPECT_EQ(bitsOf(y[2]), 0u) << "exp(-inf) is +0";
        EXPECT_EQ(y[3], 1.0f);
        EXPECT_EQ(y[4], 1.0f);
        EXPECT_EQ(y[5], kInf) << "overflows past FLT_MAX";
        EXPECT_EQ(y[6], kInf);
        EXPECT_EQ(bitsOf(y[7]), 0u) << "underflows to +0";
        EXPECT_EQ(bitsOf(y[8]), 0u);
        // e^-100 and e^-88 are denormal; e^88.7 is just below FLT_MAX.
        EXPECT_GT(y[9], 0.0f);
        EXPECT_LT(y[9], std::numeric_limits<float>::min());
        EXPECT_LE(ulpDistance(y[9], std::exp(-100.0f)), 2);
        EXPECT_LT(y[10], std::numeric_limits<float>::min());
        EXPECT_LE(ulpDistance(y[10], std::exp(-88.0f)), 2);
        EXPECT_TRUE(std::isfinite(y[11]));
        EXPECT_LE(ulpDistance(y[11], std::exp(88.7f)), 2);
    }
}

// ---------------------------------------------------------------------------
// GELU

std::vector<float>
geluAt(std::vector<float> x, util::SimdLevel level)
{
    geluForward(x.data(), static_cast<int64_t>(x.size()), level);
    return x;
}

/** The std::tanh form the shared kernel replaced. */
float
geluTanh(float x)
{
    const float inner = 0.7978845608f * (x + 0.044715f * x * x * x);
    return 0.5f * x * (1.0f + std::tanh(inner));
}

TEST(GeluForward, EveryTierReturnsTheGenericBits)
{
    std::vector<float> x = gaussian(4096, 2, 4.0);
    x.insert(x.end(), specialInputs().begin(), specialInputs().end());
    appendSweep(x, -12.0f, -6.0f, 1021);  // e^(-2u) near and past inf
    const std::vector<float> want = geluAt(x, util::SimdLevel::Generic);
    for (const util::SimdLevel level : hostTiers()) {
        EXPECT_TRUE(spansMatch(geluAt(x, level), want))
            << util::simdLevelName(level);
        for (const int64_t n : kWidths) {
            const std::vector<float> part(x.end() - n, x.end());
            EXPECT_TRUE(spansMatch(
                geluAt(part, level),
                std::vector<float>(want.end() - n, want.end())))
                << util::simdLevelName(level) << " n=" << n;
        }
    }
}

TEST(GeluForward, MatchesTheTanhFormula)
{
    std::vector<float> x;
    appendSweep(x, 0.0f, 30.0f, 1999);
    appendSweep(x, -0.0f, -30.0f, 1999);
    x.insert(x.end(), {1e4f, -1e4f, 1e20f, 3e38f, -3e38f});
    for (const util::SimdLevel level : hostTiers()) {
        const std::vector<float> y = geluAt(x, level);
        for (size_t i = 0; i < x.size(); ++i) {
            const float want = geluTanh(x[i]);
            ASSERT_TRUE(std::fabs(y[i] - want) <= 1e-6f ||
                        ulpDistance(y[i], want) <= 4)
                << util::simdLevelName(level) << " x=" << x[i] << " got "
                << y[i] << " want " << want;
        }
    }
}

TEST(GeluForward, SpecialValues)
{
    const std::vector<float> x{kNaN, kInf, -kInf, 0.0f, -0.0f, 1e4f, -1e4f};
    for (const util::SimdLevel level : hostTiers()) {
        const std::vector<float> y = geluAt(x, level);
        EXPECT_TRUE(std::isnan(y[0]));
        EXPECT_EQ(y[1], kInf);
        EXPECT_TRUE(std::isnan(y[2])) << "-inf * 0, as the tanh form";
        EXPECT_EQ(bitsOf(y[3]), bitsOf(0.0f));
        EXPECT_EQ(bitsOf(y[4]), bitsOf(-0.0f));
        EXPECT_EQ(y[5], 1e4f);
        EXPECT_EQ(bitsOf(y[6]), bitsOf(-0.0f));
    }
}

// ---------------------------------------------------------------------------
// softmax

/** The plain row loop: max from -inf (NaN skipped), exp of x - max,
 * ascending-j denominator, one reciprocal. */
std::vector<float>
softmaxLoop(const std::vector<float> &x, int64_t rows, int64_t features)
{
    std::vector<float> y(x.size());
    for (int64_t r = 0; r < rows; ++r) {
        const float *xr = x.data() + r * features;
        float *yr = y.data() + r * features;
        float row_max = -kInf;
        for (int64_t j = 0; j < features; ++j)
            row_max = std::max(row_max, xr[j]);
        float denom = 0.0f;
        for (int64_t j = 0; j < features; ++j) {
            const float shifted = xr[j] - row_max;
            expForward(&shifted, 1, &yr[j], util::SimdLevel::Generic);
            denom += yr[j];
        }
        const float inv = 1.0f / denom;
        for (int64_t j = 0; j < features; ++j)
            yr[j] *= inv;
    }
    return y;
}

std::vector<float>
softmaxAt(const std::vector<float> &x, int64_t rows, int64_t features,
          util::SimdLevel level)
{
    std::vector<float> y(x.size());
    softmaxForward(x.data(), rows, features, y.data(), level);
    return y;
}

TEST(SoftmaxForward, EveryTierMatchesThePlainRowLoop)
{
    // Row counts straddle the 8-row denominator groups.
    for (const int64_t features : kWidths) {
        for (const int64_t rows : {1, 7, 8, 9, 17}) {
            std::vector<float> x =
                gaussian(rows * features, static_cast<uint64_t>(features),
                         5.0);
            const std::vector<float> want =
                softmaxLoop(x, rows, features);
            for (const util::SimdLevel level : hostTiers()) {
                EXPECT_TRUE(spansMatch(softmaxAt(x, rows, features, level),
                                       want))
                    << util::simdLevelName(level) << " rows=" << rows
                    << " features=" << features;
                // In place.
                std::vector<float> y = x;
                softmaxForward(y.data(), rows, features, y.data(), level);
                EXPECT_TRUE(spansMatch(y, want));
            }
        }
    }
}

TEST(SoftmaxForward, SpecialRowsMatchAcrossTiers)
{
    const int64_t features = 17;
    const std::vector<std::vector<float>> patterns{
        {1e4f, -1e4f, 9.999e3f, 0.0f},  // huge spread
        {-1e4f},                         // uniform
        {-2e30f, -3e30f},                // finite, all below -1e30
        {0.0f, -0.0f},                   // signed-zero max
        {kNaN, 1.0f},                    // NaN poisons its row
        {kInf, 1.0f},                    // +inf: inf - inf
        {-kInf, 2.0f},                   // -inf weighs 0
        {-kInf},                         // all -inf: 0/0
    };
    std::vector<float> x;
    for (const auto &pattern : patterns)
        for (int64_t j = 0; j < features; ++j)
            x.push_back(pattern[static_cast<size_t>(j) % pattern.size()]);
    const int64_t rows = static_cast<int64_t>(patterns.size());
    const std::vector<float> want = softmaxLoop(x, rows, features);
    for (const util::SimdLevel level : hostTiers())
        EXPECT_TRUE(spansMatch(softmaxAt(x, rows, features, level), want))
            << util::simdLevelName(level);

    // The finite rows stay finite and normalized.
    for (int64_t r = 0; r < 4; ++r) {
        float sum = 0.0f;
        for (int64_t j = 0; j < features; ++j) {
            ASSERT_TRUE(std::isfinite(want[r * features + j]));
            sum += want[r * features + j];
        }
        EXPECT_NEAR(sum, 1.0f, 1e-5f) << "row " << r;
    }
    EXPECT_TRUE(std::isnan(want[4 * features]));
    EXPECT_EQ(want[6 * features], 0.0f);
}

// ---------------------------------------------------------------------------
// attention core

/** The plain per-head loops: scalar QK^T dots, the shared softmax, and
 * the ascending-key value mix accumulated onto ctx. */
void
attentionLoop(const std::vector<float> &q, const std::vector<float> &k,
              const std::vector<float> &v, int64_t T, int64_t heads,
              int64_t d_model, std::vector<float> &ctx,
              std::vector<float> &probs)
{
    const int64_t d_head = d_model / heads;
    const float scale = 1.0f / std::sqrt(static_cast<float>(d_head));
    for (int64_t h = 0; h < heads; ++h) {
        float *p = probs.data() + h * T * T;
        const int64_t col = h * d_head;
        for (int64_t t = 0; t < T; ++t) {
            for (int64_t s = 0; s < T; ++s) {
                float dot = 0.0f;
                for (int64_t j = 0; j < d_head; ++j)
                    dot += q[t * d_model + col + j] * k[s * d_model + col + j];
                p[t * T + s] = dot * scale;
            }
        }
        const std::vector<float> plane(p, p + T * T);
        const std::vector<float> sm = softmaxLoop(plane, T, T);
        std::copy(sm.begin(), sm.end(), p);
        for (int64_t t = 0; t < T; ++t)
            for (int64_t s = 0; s < T; ++s)
                for (int64_t j = 0; j < d_head; ++j)
                    ctx[t * d_model + col + j] +=
                        p[t * T + s] * v[s * d_model + col + j];
    }
}

TEST(AttentionSequenceContext, EveryTierMatchesThePlainLoops)
{
    for (const int64_t T : {1, 17, 64}) {
        for (const int64_t d_head : {8, 16, 24}) {
            for (const int64_t heads : {1, 3}) {
                const int64_t d_model = heads * d_head;
                const uint64_t seed =
                    static_cast<uint64_t>(T * 100 + d_head * 10 + heads);
                const auto q = gaussian(T * d_model, seed, 1.0);
                const auto k = gaussian(T * d_model, seed + 1, 1.0);
                const auto v = gaussian(T * d_model, seed + 2, 1.0);
                std::vector<float> want_ctx(q.size(), 0.0f);
                std::vector<float> want_probs(
                    static_cast<size_t>(heads * T * T));
                attentionLoop(q, k, v, T, heads, d_model, want_ctx,
                              want_probs);
                for (const util::SimdLevel level : hostTiers()) {
                    std::vector<float> ctx(q.size(), 0.0f);
                    std::vector<float> probs(want_probs.size());
                    std::vector<float> keys_t(
                        static_cast<size_t>(d_model * T));
                    attentionSequenceContext(q.data(), k.data(), v.data(), T,
                                             heads, d_model, ctx.data(),
                                             probs.data(), keys_t.data(),
                                             level);
                    EXPECT_TRUE(spansMatch(probs, want_probs))
                        << util::simdLevelName(level) << " T=" << T
                        << " d_head=" << d_head << " heads=" << heads;
                    EXPECT_TRUE(spansMatch(ctx, want_ctx))
                        << util::simdLevelName(level) << " T=" << T
                        << " d_head=" << d_head << " heads=" << heads;
                }
            }
        }
    }
}

TEST(AttentionSequenceContext, ExtremeAndNonFiniteInputsMatchAcrossTiers)
{
    // Scores of +/-1e4 and beyond stay finite through the stable softmax;
    // a NaN or inf in one query row poisons only that row's outputs, the
    // same way at every tier.
    const int64_t T = 17, heads = 2, d_head = 16, d_model = heads * d_head;
    auto q = gaussian(T * d_model, 41, 1.0);
    const auto k = gaussian(T * d_model, 42, 1.0);
    const auto v = gaussian(T * d_model, 43, 1.0);
    for (int64_t j = 0; j < d_model; ++j) {
        q[0 * d_model + j] *= 1e4f;
        q[1 * d_model + j] *= -1e4f;
    }
    q[2 * d_model + 3] = kNaN;
    q[3 * d_model + 20] = kInf;
    q[4 * d_model + 5] = -0.0f;

    std::vector<float> want_ctx(q.size(), 0.0f);
    std::vector<float> want_probs(static_cast<size_t>(heads * T * T));
    attentionLoop(q, k, v, T, heads, d_model, want_ctx, want_probs);
    for (int64_t j = 0; j < d_model; ++j) {
        EXPECT_TRUE(std::isfinite(want_ctx[0 * d_model + j]));
        EXPECT_TRUE(std::isfinite(want_ctx[1 * d_model + j]));
    }
    for (const util::SimdLevel level : hostTiers()) {
        std::vector<float> ctx(q.size(), 0.0f);
        std::vector<float> probs(want_probs.size());
        std::vector<float> keys_t(static_cast<size_t>(d_model * T));
        attentionSequenceContext(q.data(), k.data(), v.data(), T, heads,
                                 d_model, ctx.data(), probs.data(),
                                 keys_t.data(), level);
        EXPECT_TRUE(spansMatch(probs, want_probs))
            << util::simdLevelName(level);
        EXPECT_TRUE(spansMatch(ctx, want_ctx)) << util::simdLevelName(level);
    }
}

} // namespace
} // namespace lutdla::nn
