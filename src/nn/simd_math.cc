// The float transformer math eval and serving share: one deterministic
// exp, and the GELU, softmax and attention kernels built on it.
//
// Every kernel is ONE template body over a lane type V: plain `float`
// (the generic tier), an 8-float vector (AVX2) or a 16-float vector
// (AVX-512), written with GCC vector-extension operators so the same
// source expression runs per lane at every width. The bodies are
// always_inline and carry no target attribute; each tier's entry point
// is a target-attributed wrapper that inlines them, so one binary holds
// all tiers and util::simdLevel() (LUTDLA_SIMD cap included) picks one
// at run time. This TU is compiled WITHOUT -march flags and with
// -ffp-contract=off: every op below is a separate IEEE mul / add / sub /
// div / min / max, never an FMA, so a lane computes exactly what the
// scalar tier computes and every tier returns the same bits.
//
// Tails (widths that are not a multiple of the lane count) run the
// `float` instantiation of the same body, so they match as well.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <type_traits>
#include <utility>

#include "nn/activations.h"
#include "nn/attention.h"
#include "util/logging.h"

#define LUTDLA_LANE_INLINE inline __attribute__((always_inline))

namespace lutdla::nn {

namespace {

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

/** {0, 1, ..., W - 1} as an int32 lane vector. */
template <class I, size_t... C>
LUTDLA_LANE_INLINE I
iota(std::index_sequence<C...>)
{
    return I{static_cast<int32_t>(C)...};
}

template <class V>
LUTDLA_LANE_INLINE V
splat(float f)
{
    if constexpr (std::is_same_v<V, float>)
        return f;
    else  // lane-0 broadcast: one VBROADCASTSS
        return __builtin_shuffle(V{f}, typename LaneInt<V>::type{});
}

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

/** x86 MINPS / MAXPS semantics (second operand on NaN), written the same
 * way for every lane type. */
template <class V>
LUTDLA_LANE_INLINE V
minLanes(V a, V b)
{
    return a < b ? a : b;
}

template <class V>
LUTDLA_LANE_INLINE V
maxLanes(V a, V b)
{
    return a > b ? a : b;
}

/** 2^k for integer-valued k in [-126, 127], built in the exponent field. */
template <class V>
LUTDLA_LANE_INLINE V
pow2i(V k)
{
    if constexpr (std::is_same_v<V, float>) {
        const uint32_t bits =
            static_cast<uint32_t>(static_cast<int32_t>(k) + 127) << 23;
        float f;
        std::memcpy(&f, &bits, sizeof(f));
        return f;
    } else {
        using I = typename LaneInt<V>::type;
        return reinterpret_cast<V>((__builtin_convertvector(k, I) + 127)
                                   << 23);
    }
}

constexpr float kExpHi = 89.0f;    // e^89 > FLT_MAX: overflows to +inf
constexpr float kExpLo = -104.0f;  // e^-104 < 2^-150: rounds to +0
constexpr float kRoundMagic = 12582912.0f;  // 1.5 * 2^23
constexpr float kLog2e = 1.44269504088896341f;
constexpr float kLn2Hi = 0.693359375f;  // 9 significant bits: n*hi exact
constexpr float kLn2Lo = -2.12194440e-4f;

/**
 * e^x. Cody-Waite reduction x = n ln2 + r with n = rint(x log2 e) and
 * |r| <~ ln2/2, a degree-7 polynomial for e^r (Cephes expf
 * coefficients), then the 2^n scale split in two exact power-of-two
 * factors so results down in the denormal range round once and results
 * past FLT_MAX overflow to inf. Within 1 ulp of the correctly rounded
 * e^x over the whole float range. x is clamped twice: the r path keeps
 * NaN (MINPS returns its second operand on NaN), the n path drops it, so
 * n is always a finite integer and NaN in gives NaN out.
 */
template <class V>
LUTDLA_LANE_INLINE V
expLanes(V x)
{
    const V hi = splat<V>(kExpHi), lo = splat<V>(kExpLo);
    const V xr = maxLanes(lo, minLanes(hi, x));
    const V xn = maxLanes(minLanes(x, hi), lo);
    const V n = (xn * kLog2e + kRoundMagic) - kRoundMagic;
    V r = xr - n * kLn2Hi;
    r = r - n * kLn2Lo;
    const V z = r * r;
    V p = splat<V>(1.9875691500e-4f);
    p = p * r + 1.3981999507e-3f;
    p = p * r + 8.3334519073e-3f;
    p = p * r + 4.1665795894e-2f;
    p = p * r + 1.6666665459e-1f;
    p = p * r + 5.0000001201e-1f;
    p = (p * z + r) + 1.0f;
    // n in [-150, 128]: n1, n2 in [-75, 64], and p * 2^n1 is exact.
    const V n1 = (n * 0.5f + kRoundMagic) - kRoundMagic;
    const V n2 = n - n1;
    return (p * pow2i(n1)) * pow2i(n2);
}

constexpr float kGeluC = 0.7978845608f;  // sqrt(2/pi)

/** GELU, tanh form: 0.5 x (1 + tanh u) == x / (1 + e^(-2u)) with
 * u = sqrt(2/pi) (x + 0.044715 x^3). */
template <class V>
LUTDLA_LANE_INLINE V
geluLanes(V x)
{
    const V u = (x + x * 0.044715f * x * x) * kGeluC;
    return x / (expLanes(u * -2.0f) + 1.0f);
}

// Each kernel below is a struct whose run<V>() is the whole body for lane
// type V; dispatch() instantiates it once per tier.

struct ExpSpan
{
    template <class V>
    static LUTDLA_LANE_INLINE void
    run(const float *x, int64_t n, float *y)
    {
        constexpr int64_t W = kLanes<V>;
        int64_t i = 0;
        for (; i + W <= n; i += W)
            store<V>(y + i, expLanes(load<V>(x + i)));
        for (; i < n; ++i)
            y[i] = expLanes(x[i]);
    }
};

struct GeluSpan
{
    template <class V>
    static LUTDLA_LANE_INLINE void
    run(float *data, int64_t n)
    {
        constexpr int64_t W = kLanes<V>;
        int64_t i = 0;
        for (; i + W <= n; i += W)
            store<V>(data + i, geluLanes(load<V>(data + i)));
        for (; i < n; ++i)
            data[i] = geluLanes(data[i]);
    }
};

/** Max over the lanes of a vector holding no NaN, by log2(W) butterfly
 * steps (lane c against lane c ^ d). */
template <class V>
LUTDLA_LANE_INLINE float
maxOverLanes(V m)
{
    if constexpr (std::is_same_v<V, float>) {
        return m;
    } else {
        using I = typename LaneInt<V>::type;
        const I lane = iota<I>(std::make_index_sequence<kLanes<V>>{});
        for (int32_t d = kLanes<V> / 2; d >= 1; d /= 2)
            m = maxLanes(m, __builtin_shuffle(m, lane ^ d));
        return m[0];
    }
}

/** max over a row with NaN skipped: std::max(m, x) from m = -inf. Max is
 * order-free on non-NaN values up to the sign of a zero maximum, which no
 * output depends on (x - (+0) and x - (-0) have the same exp). */
template <class V>
LUTDLA_LANE_INLINE float
rowMax(const float *x, int64_t n)
{
    constexpr int64_t W = kLanes<V>;
    V m = splat<V>(-std::numeric_limits<float>::infinity());
    int64_t j = 0;
    for (; j + W <= n; j += W)
        m = maxLanes(load<V>(x + j), m);
    float best = maxOverLanes(m);
    for (; j < n; ++j)
        best = maxLanes(x[j], best);
    return best;
}

/** y = x * s over a row. */
template <class V>
LUTDLA_LANE_INLINE void
scaleRow(float *y, int64_t n, float s)
{
    constexpr int64_t W = kLanes<V>;
    int64_t j = 0;
    for (; j + W <= n; j += W)
        store<V>(y + j, load<V>(y + j) * splat<V>(s));
    for (; j < n; ++j)
        y[j] *= s;
}

/** Transposes the W x W block held in t[0..W) (row i in t[i]): log2(W)
 * steps, each swapping the off-diagonal d x d blocks of rows i, i + d. */
template <class V>
LUTDLA_LANE_INLINE void
transposeLanes(V *t)
{
    constexpr int64_t W = kLanes<V>;
    using I = typename LaneInt<V>::type;
    const I lane = iota<I>(std::make_index_sequence<W>{});
#pragma GCC unroll 4
    for (int32_t d = W / 2; d >= 1; d /= 2) {
        const I upper = (lane & d) != 0;
        const I take_lo = upper ? lane + (static_cast<int32_t>(W) - d) : lane;
        const I take_hi = upper ? lane + static_cast<int32_t>(W) : lane + d;
#pragma GCC unroll 16
        for (int64_t i = 0; i < W; ++i) {
            if ((i & d) != 0)
                continue;
            const V a = t[i], b = t[i + d];
            t[i] = __builtin_shuffle(a, b, take_lo);
            t[i + d] = __builtin_shuffle(a, b, take_hi);
        }
    }
}

struct SoftmaxRows
{
    template <class V>
    static LUTDLA_LANE_INLINE void
    run(const float *x, int64_t rows, int64_t features, float *y)
    {
        constexpr int64_t W = kLanes<V>;
        for (int64_t r = 0; r < rows; ++r) {
            const float *xr = x + r * features;
            float *yr = y + r * features;
            const float m = rowMax<V>(xr, features);
            int64_t j = 0;
            for (; j + W <= features; j += W)
                store<V>(yr + j, expLanes(load<V>(xr + j) - splat<V>(m)));
            for (; j < features; ++j)
                yr[j] = expLanes(xr[j] - m);
        }
        // Denominators, W rows at a time with rows in lanes: each W x W
        // block is transposed so lane i adds row i's columns in ascending
        // order, the same chain as the one-row loop below.
        int64_t r = 0;
        if constexpr (W > 1) {
            for (; r + W <= rows; r += W) {
                V denoms = splat<V>(0.0f);
                int64_t j = 0;
                for (; j + W <= features; j += W) {
                    V t[W];
                    for (int64_t i = 0; i < W; ++i)
                        t[i] = load<V>(y + (r + i) * features + j);
                    transposeLanes(t);
                    for (int64_t c = 0; c < W; ++c)
                        denoms = denoms + t[c];
                }
                float denom[W];
                std::memcpy(denom, &denoms, sizeof(V));
                for (; j < features; ++j)
                    for (int64_t i = 0; i < W; ++i)
                        denom[i] += y[(r + i) * features + j];
                for (int64_t i = 0; i < W; ++i)
                    scaleRow<V>(y + (r + i) * features, features,
                                1.0f / denom[i]);
            }
        }
        for (; r < rows; ++r) {
            float *yr = y + r * features;
            float denom = 0.0f;
            for (int64_t j = 0; j < features; ++j)
                denom += yr[j];
            scaleRow<V>(yr, features, 1.0f / denom);
        }
    }
};

/**
 * B blocks of W keys from key `s`: p[s..] = scale * sum_j q[j] * K[key][j]
 * with keys in lanes (kt is this head's [d_head, T] transposed K). Each
 * dot is one ascending-j chain of mul then add from +0 — the scalar
 * dot product, lane by lane.
 */
template <class V, int B>
LUTDLA_LANE_INLINE void
scoreKeys(const float *qrow, const float *kt, int64_t T, int64_t d_head,
          float scale, int64_t s, float *prow)
{
    constexpr int64_t W = kLanes<V>;
    V acc[B];
#pragma GCC unroll 4
    for (int b = 0; b < B; ++b)
        acc[b] = splat<V>(0.0f);
    for (int64_t j = 0; j < d_head; ++j) {
        const V qj = splat<V>(qrow[j]);
        const float *kr = kt + j * T + s;
#pragma GCC unroll 4
        for (int b = 0; b < B; ++b)
            acc[b] = acc[b] + qj * load<V>(kr + b * W);
    }
#pragma GCC unroll 4
    for (int b = 0; b < B; ++b)
        store<V>(prow + s + b * W, acc[b] * splat<V>(scale));
}

template <class V>
LUTDLA_LANE_INLINE void
scoreRow(const float *qrow, const float *kt, int64_t T, int64_t d_head,
         float scale, float *prow)
{
    constexpr int64_t W = kLanes<V>;
    int64_t s = 0;
    for (; s + 4 * W <= T; s += 4 * W)
        scoreKeys<V, 4>(qrow, kt, T, d_head, scale, s, prow);
    for (; s + W <= T; s += W)
        scoreKeys<V, 1>(qrow, kt, T, d_head, scale, s, prow);
    for (; s < T; ++s)
        scoreKeys<float, 1>(qrow, kt, T, d_head, scale, s, prow);
}

/**
 * R context rows from query `t`, head dims in lanes from column j:
 * ctx[t][j..] += sum_s p[t][s] * V[s][j..] in ascending s, accumulating
 * onto the caller's (zeroed) context exactly like the scalar loop.
 */
template <class V, int R>
LUTDLA_LANE_INLINE void
mixValues(const float *p, const float *v, int64_t T, int64_t d_model,
          int64_t t, int64_t j, float *ctx)
{
    V acc[R];
#pragma GCC unroll 4
    for (int i = 0; i < R; ++i)
        acc[i] = load<V>(ctx + (t + i) * d_model + j);
    for (int64_t s = 0; s < T; ++s) {
        const V vs = load<V>(v + s * d_model + j);
#pragma GCC unroll 4
        for (int i = 0; i < R; ++i)
            acc[i] = acc[i] + splat<V>(p[(t + i) * T + s]) * vs;
    }
#pragma GCC unroll 4
    for (int i = 0; i < R; ++i)
        store<V>(ctx + (t + i) * d_model + j, acc[i]);
}

template <class V, int R>
LUTDLA_LANE_INLINE void
mixValueRows(const float *p, const float *v, int64_t T, int64_t d_model,
             int64_t col, int64_t d_head, int64_t t, float *ctx)
{
    constexpr int64_t W = kLanes<V>;
    int64_t j = 0;
    for (; j + W <= d_head; j += W)
        mixValues<V, R>(p, v, T, d_model, t, col + j, ctx);
    for (; j < d_head; ++j)
        mixValues<float, R>(p, v, T, d_model, t, col + j, ctx);
}

struct AttentionCore
{
    template <class V>
    static LUTDLA_LANE_INLINE void
    run(const float *q, const float *k, const float *v, int64_t T,
        int64_t heads, int64_t d_model, float *ctx, float *probs,
        float *keys_t)
    {
        const int64_t d_head = d_model / heads;
        const float scale = 1.0f / std::sqrt(static_cast<float>(d_head));
        for (int64_t s = 0; s < T; ++s)
            for (int64_t c = 0; c < d_model; ++c)
                keys_t[c * T + s] = k[s * d_model + c];
        for (int64_t h = 0; h < heads; ++h) {
            float *p = probs + h * T * T;
            const int64_t col = h * d_head;
            for (int64_t t = 0; t < T; ++t)
                scoreRow<V>(q + t * d_model + col, keys_t + col * T, T,
                            d_head, scale, p + t * T);
            SoftmaxRows::run<V>(p, T, T, p);
            int64_t t = 0;
            for (; t + 4 <= T; t += 4)
                mixValueRows<V, 4>(p, v, T, d_model, col, d_head, t, ctx);
            for (; t < T; ++t)
                mixValueRows<V, 1>(p, v, T, d_model, col, d_head, t, ctx);
        }
    }
};

// ---- Tier entry points ------------------------------------------------------

template <class Kernel, class... Args>
__attribute__((target("avx2"))) void
runAvx2(Args... args)
{
    Kernel::template run<F8>(args...);
}

template <class Kernel, class... Args>
__attribute__((target("avx512f"))) void
runAvx512(Args... args)
{
    Kernel::template run<F16>(args...);
}

/** Run `Kernel` at the tier `level` names, failing loudly rather than
 * running an instruction set the host lacks. */
template <class Kernel, class... Args>
void
dispatch(util::SimdLevel level, Args... args)
{
    LUTDLA_CHECK(level <= util::simdLevel(), "SIMD level ",
                 util::simdLevelName(level),
                 " exceeds what this host supports (",
                 util::simdLevelName(util::simdLevel()), ")");
    if (level >= util::SimdLevel::Avx512)
        runAvx512<Kernel>(args...);
    else if (level >= util::SimdLevel::Avx2)
        runAvx2<Kernel>(args...);
    else
        Kernel::template run<float>(args...);
}

} // namespace

void
expForward(const float *x, int64_t n, float *y, util::SimdLevel level)
{
    dispatch<ExpSpan>(level, x, n, y);
}

void
geluForward(float *data, int64_t n, util::SimdLevel level)
{
    dispatch<GeluSpan>(level, data, n);
}

void
softmaxForward(const float *x, int64_t rows, int64_t features, float *y,
               util::SimdLevel level)
{
    dispatch<SoftmaxRows>(level, x, rows, features, y);
}

void
attentionSequenceContext(const float *q, const float *k, const float *v,
                         int64_t seq_len, int64_t heads, int64_t d_model,
                         float *ctx, float *probs, float *keys_t,
                         util::SimdLevel level)
{
    dispatch<AttentionCore>(level, q, k, v, seq_len, heads, d_model, ctx,
                            probs, keys_t);
}

} // namespace lutdla::nn
