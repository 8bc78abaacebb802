/**
 * @file
 * Google-benchmark microbenchmarks: exact GEMM vs LUT-GEMM (encode +
 * lookup) software kernels, the encode and lookup phases separately, and
 * the serving arena's split data-plane kernels (packed-code float
 * encode, the INT8 argmin-encode bank built for every SIMD tier — scalar
 * integer reference vs VPMADDUBSW/VPMADDWD vs VPDPBUSD, identical codes
 * across all three — float-bank gather, the INT8 table bank built for
 * every tier: scalar group sweep vs VPSHUFB shuffle vs VPERMB+VPDPBUSD
 * dot — and the nibble-packed INT4 bank per tier for the
 * bytes-halved-vs-unpack-cost comparison against INT8 and float), plus
 * one serving row tile on the INT4-table + INT8-encode plan at the
 * resnet18 hot shape, fused (encode straight into the gather's planar
 * code lanes) next to split (through a packed CodeBuffer), and the fused
 * tile of a width-adapted trace layer (K = 4608 read in place from
 * 512-wide source rows). These are software-kernel timings (host CPU),
 * complementing the cycle simulator's hardware numbers.
 *
 * Each fixture (k-means training included) is built once per shape and
 * reused by every benchmark and every timing run at that shape.
 *
 * Run: ./build/bench/bench_kernels [--json <path>] [google-benchmark args]
 *   --json <path>  shorthand for --benchmark_out=<path>
 *                  --benchmark_out_format=json, so CI and the cross-PR
 *                  perf trajectory get machine-readable results the same
 *                  way bench_serve_throughput writes them.
 */

#include <benchmark/benchmark.h>

#include <array>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "lutboost/kernels.h"
#include "nn/activations.h"
#include "nn/attention.h"
#include "tensor/gemm.h"
#include "util/cpu_features.h"
#include "util/rng.h"
#include "vq/lut.h"

using namespace lutdla;

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

/**
 * The one `Fixture` of shape (m, k, n, v, c), built on first use.
 * google-benchmark calls a benchmark function once per timing run, so a
 * fixture built inside it would retrain its quantizer every run.
 * Benchmarks run one at a time, so the cache needs no lock.
 */
template <class Fixture>
Fixture &
cachedFixture(int64_t m, int64_t k, int64_t n, int64_t v, int64_t c)
{
    static std::map<std::array<int64_t, 5>, std::unique_ptr<Fixture>> cache;
    std::unique_ptr<Fixture> &slot = cache[{m, k, n, v, c}];
    if (!slot)
        slot = std::make_unique<Fixture>(m, k, n, v, c);
    return *slot;
}

struct KernelFixture
{
    KernelFixture(int64_t m, int64_t k, int64_t n, int64_t v, int64_t c)
        : a(randomMatrix(m, k, 1)), w(randomMatrix(k, n, 2))
    {
        vq::PQConfig cfg;
        cfg.v = v;
        cfg.c = c;
        engine = std::make_unique<vq::LutGemmEngine>(
            cfg, w, randomMatrix(256, k, 3));
    }

    Tensor a, w;
    std::unique_ptr<vq::LutGemmEngine> engine;
};

/** The serving arena over a KernelFixture, plus the float codes of its
 * input rows, for the split-phase benchmarks. Benchmarks bring their own
 * KernelScratch, so a cached fixture's codes stay the float codes. */
struct ArenaFixture
{
    ArenaFixture(int64_t m, int64_t k, int64_t n, int64_t v, int64_t c)
        : fx(cachedFixture<KernelFixture>(m, k, n, v, c)),
          arena(fx.engine->quantizer(), fx.engine->lut(), nullptr, false),
          y(static_cast<size_t>(m * n))
    {
        lutboost::EncodeScratch scratch;
        arena.encodeBank(lutboost::EncodePrecision::Float32)
            .encodeBatch(fx.a.data(), m, codes, scratch);
    }

    const KernelFixture &fx;
    lutboost::LutTableArena arena;
    vq::CodeBuffer codes;
    std::vector<float> y;
};

void
BM_ExactGemm(benchmark::State &state)
{
    const KernelFixture &fx = cachedFixture<KernelFixture>(
        state.range(0), state.range(1), state.range(2), 4, 16);
    for (auto _ : state) {
        Tensor c = matmul(fx.a, fx.w);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * fx.a.dim(0) *
                            fx.a.dim(1) * fx.w.dim(1));
}

void
BM_LutGemm(benchmark::State &state)
{
    const KernelFixture &fx = cachedFixture<KernelFixture>(
        state.range(0), state.range(1), state.range(2), 4, 16);
    for (auto _ : state) {
        Tensor c = fx.engine->matmul(fx.a);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * fx.a.dim(0) *
                            fx.a.dim(1) * fx.w.dim(1));
}

void
BM_Encode(benchmark::State &state)
{
    const KernelFixture &fx = cachedFixture<KernelFixture>(
        state.range(0), state.range(1), 64, state.range(2), 16);
    for (auto _ : state) {
        auto codes = fx.engine->quantizer().encode(fx.a);
        benchmark::DoNotOptimize(codes.data());
    }
}

void
BM_Lookup(benchmark::State &state)
{
    const KernelFixture &fx = cachedFixture<KernelFixture>(
        state.range(0), state.range(1), state.range(2), 4, 16);
    auto codes = fx.engine->quantizer().encode(fx.a);
    for (auto _ : state) {
        Tensor c = fx.engine->lut().lookupGemm(codes, fx.a.dim(0));
        benchmark::DoNotOptimize(c.data());
    }
}

// ---- Serving data-plane phases (the banks behind KernelBackend) -------

/** The SIMD tier a benchmark forces (its first argument), or false after
 * skipping when the host does not have it. */
bool
forcedLevel(benchmark::State &state, util::SimdLevel *level)
{
    *level = static_cast<util::SimdLevel>(state.range(0));
    state.SetLabel(util::simdLevelName(*level));
    if (*level > util::simdLevel()) {
        state.SkipWithError("SIMD level not available on this host");
        return false;
    }
    return true;
}

void
BM_ArenaEncodeBatch(benchmark::State &state)
{
    ArenaFixture &ax = cachedFixture<ArenaFixture>(
        state.range(0), state.range(1), 64, state.range(2), 16);
    const lutboost::EncodeBank &bank =
        ax.arena.encodeBank(lutboost::EncodePrecision::Float32);
    lutboost::KernelScratch scratch;
    for (auto _ : state) {
        bank.encodeBatch(ax.fx.a.data(), ax.fx.a.dim(0), scratch.codes,
                         scratch.encode);
        benchmark::DoNotOptimize(scratch.codes.sizeBytes());
    }
    state.SetItemsProcessed(state.iterations() * ax.fx.a.dim(0));
    state.counters["code_bytes"] =
        static_cast<double>(scratch.codes.sizeBytes());
}

/**
 * INT8 argmin-encode through a bank built for a forced tier (first
 * argument): identical codes at every tier (exact int32 scores), timed
 * against the float BM_ArenaEncodeBatch rows at the same shapes — the
 * quantized-encode acceptance comparison.
 */
void
BM_ArenaEncodeInt8(benchmark::State &state)
{
    util::SimdLevel level;
    if (!forcedLevel(state, &level))
        return;
    ArenaFixture &ax = cachedFixture<ArenaFixture>(
        state.range(1), state.range(2), 64, state.range(3), 16);
    const auto bank = lutboost::makeEncodeBank(
        ax.arena, lutboost::EncodePrecision::Int8, level);
    lutboost::KernelScratch scratch;
    for (auto _ : state) {
        bank->encodeBatch(ax.fx.a.data(), ax.fx.a.dim(0), scratch.codes,
                          scratch.encode);
        benchmark::DoNotOptimize(scratch.codes.sizeBytes());
    }
    state.SetItemsProcessed(state.iterations() * ax.fx.a.dim(0));
    state.SetLabel(bank->kernelName());
    state.counters["encode_table_bytes"] =
        static_cast<double>(bank->tableBytes());
}

/**
 * Gather through a `precision` table bank built for a forced tier (first
 * argument) on identical codes; every tier of a precision returns the
 * same bits. At c = 16 the INT8 rows compare the scalar group sweep, the
 * VPSHUFB shuffle and the VPERMB+VPDPBUSD dot; the INT4 rows time the
 * extra nibble unpack against the halved table stream.
 */
void
gatherAtTier(benchmark::State &state, lutboost::TablePrecision precision)
{
    util::SimdLevel level;
    if (!forcedLevel(state, &level))
        return;
    ArenaFixture &ax = cachedFixture<ArenaFixture>(
        state.range(1), state.range(2), state.range(3), 4, 16);
    const auto bank = lutboost::makeTableBank(ax.arena, precision, level);
    lutboost::GatherScratch scratch;
    for (auto _ : state) {
        bank->gather(ax.codes, 0, ax.codes.rows(), ax.y.data(), scratch);
        benchmark::DoNotOptimize(ax.y.data());
    }
    state.SetItemsProcessed(state.iterations() * ax.fx.a.dim(0));
    state.SetLabel(bank->kernelName());
    state.counters["table_bytes"] = static_cast<double>(bank->tableBytes());
}

void
BM_ArenaGatherFloat(benchmark::State &state)
{
    gatherAtTier(state, lutboost::TablePrecision::Float32);
}

void
BM_ArenaGatherInt8(benchmark::State &state)
{
    gatherAtTier(state, lutboost::TablePrecision::Int8);
}

void
BM_ArenaGatherInt4(benchmark::State &state)
{
    gatherAtTier(state, lutboost::TablePrecision::Int4);
}

/**
 * One row tile on the INT4-table + INT8-encode plan, the way the serving
 * executor runs it. Fused: BankPair::forwardTile, which encodes each
 * chunk straight into the shuffle gather's planar code lanes. Split: the
 * same encode and gather through a packed CodeBuffer (encodeBatch +
 * gather). Registered at the resnet18 hot shape (K=4608, N=512, v=8,
 * c=16, one 64-row tile); both yield identical outputs.
 */
lutboost::BankPair
int4Int8EncBanks(const ArenaFixture &ax)
{
    return {&ax.arena.tableBank(lutboost::TablePrecision::Int4),
            &ax.arena.encodeBank(lutboost::EncodePrecision::Int8)};
}

void
tileInt4Int8Enc(benchmark::State &state, bool fused)
{
    ArenaFixture &ax = cachedFixture<ArenaFixture>(
        state.range(0), state.range(1), state.range(2), 8, 16);
    const lutboost::BankPair banks = int4Int8EncBanks(ax);
    const int64_t rows = ax.fx.a.dim(0);
    lutboost::KernelScratch scratch;
    for (auto _ : state) {
        if (fused) {
            banks.forwardTile(ax.fx.a.data(), rows, ax.y.data(), scratch,
                              nullptr, nullptr);
        } else {
            banks.encode->encodeBatch(ax.fx.a.data(), rows, scratch.codes,
                                      scratch.encode);
            banks.table->gather(scratch.codes, 0, rows, ax.y.data(),
                                scratch.gather);
        }
        benchmark::DoNotOptimize(ax.y.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * rows);
}

void
BM_ArenaTileInt4Int8EncFused(benchmark::State &state)
{
    tileInt4Int8Enc(state, true);
}

void
BM_ArenaTileInt4Int8EncSplit(benchmark::State &state)
{
    tileInt4Int8Enc(state, false);
}

/**
 * The fused tile of a width-adapted trace layer at the resnet18 hot
 * shape: 64 source rows of the fourth argument's width, read in place
 * through the encode's cyclic view as K = 4608 rows (no adapted copy),
 * on the INT4-table + INT8-encode plan. Next to
 * BM_ArenaTileInt4Int8EncFused, which reads K-wide rows, it shows what
 * the cyclic view costs.
 */
void
BM_FusedTileAdapt(benchmark::State &state)
{
    ArenaFixture &ax = cachedFixture<ArenaFixture>(
        state.range(0), state.range(1), state.range(2), 8, 16);
    const lutboost::BankPair banks = int4Int8EncBanks(ax);
    const int64_t rows = ax.fx.a.dim(0), pitch = state.range(3);
    const Tensor source = randomMatrix(rows, pitch, 8);
    lutboost::KernelScratch scratch;
    for (auto _ : state) {
        banks.forwardTile(source.data(), rows, ax.y.data(), scratch, nullptr,
                          nullptr, pitch);
        benchmark::DoNotOptimize(ax.y.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * rows);
}

/**
 * The fused GELU epilogue of the transformer-f32 FFN-up stage: the span
 * nn::geluForward over a 256-row x 128-wide batch, at a forced tier.
 */
void
BM_GeluSpan(benchmark::State &state)
{
    util::SimdLevel level;
    if (!forcedLevel(state, &level))
        return;
    const Tensor src = randomMatrix(state.range(1), state.range(2), 4);
    std::vector<float> y(static_cast<size_t>(src.numel()));
    for (auto _ : state) {
        std::memcpy(y.data(), src.data(), y.size() * sizeof(float));
        nn::geluForward(y.data(), src.numel(), level);
        benchmark::DoNotOptimize(y.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * src.numel());
}

/**
 * The scaled-dot-product core of the transformer-f32 attention stage:
 * nn::attentionSequenceContext over a 256-row batch of 4 sequences
 * (T=64, 4 heads, d_model=64), at a forced tier. Items are sequences.
 */
void
BM_AttentionCore(benchmark::State &state)
{
    util::SimdLevel level;
    if (!forcedLevel(state, &level))
        return;
    const int64_t sequences = state.range(1), T = state.range(2);
    const int64_t heads = state.range(3), d_model = state.range(4);
    const Tensor q = randomMatrix(sequences * T, d_model, 5);
    const Tensor k = randomMatrix(sequences * T, d_model, 6);
    const Tensor v = randomMatrix(sequences * T, d_model, 7);
    std::vector<float> ctx(static_cast<size_t>(q.numel()));
    std::vector<float> probs(static_cast<size_t>(heads * T * T));
    std::vector<float> keys_t(static_cast<size_t>(d_model * T));
    for (auto _ : state) {
        std::fill(ctx.begin(), ctx.end(), 0.0f);
        for (int64_t b = 0; b < sequences; ++b) {
            const int64_t off = b * T * d_model;
            nn::attentionSequenceContext(q.data() + off, k.data() + off,
                                         v.data() + off, T, heads, d_model,
                                         ctx.data() + off, probs.data(),
                                         keys_t.data(), level);
        }
        benchmark::DoNotOptimize(ctx.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * sequences);
}

/** Registers a benchmark at every SIMD tier up to `top`, once per
 * argument list. */
void
allTiers(benchmark::internal::Benchmark *b,
         std::vector<std::vector<int64_t>> arg_lists,
         util::SimdLevel top = util::SimdLevel::Avx512)
{
    for (const std::vector<int64_t> &args : arg_lists)
        for (int level = 0; level <= static_cast<int>(top); ++level) {
            std::vector<int64_t> tier_args{level};
            tier_args.insert(tier_args.end(), args.begin(), args.end());
            b->Args(tier_args);
        }
    b->Unit(benchmark::kMicrosecond);
}

/** Registers a table-bank benchmark at every tier, VNNI included. */
void
bankTiers(benchmark::internal::Benchmark *b,
          std::vector<std::vector<int64_t>> arg_lists)
{
    allTiers(b, std::move(arg_lists), util::SimdLevel::Avx512Vnni);
}

} // namespace

BENCHMARK(BM_GeluSpan)->Apply([](benchmark::internal::Benchmark *b) {
    allTiers(b, {{256, 128}});
});
BENCHMARK(BM_AttentionCore)->Apply([](benchmark::internal::Benchmark *b) {
    allTiers(b, {{4, 64, 4, 64}});
});

BENCHMARK(BM_ExactGemm)
    ->Args({128, 256, 256})
    ->Args({256, 512, 512})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_LutGemm)
    ->Args({128, 256, 256})
    ->Args({256, 512, 512})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Encode)
    ->Args({256, 512, 4})
    ->Args({256, 512, 8})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Lookup)
    ->Args({128, 256, 256})
    ->Args({256, 512, 512})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ArenaEncodeBatch)
    ->Args({256, 512, 4})
    ->Args({256, 512, 8})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ArenaEncodeInt8)->Apply([](benchmark::internal::Benchmark *b) {
    bankTiers(b, {{256, 512, 4}, {256, 512, 8}});
});
BENCHMARK(BM_ArenaGatherFloat)
    ->Args({0, 128, 256, 256})
    ->Args({0, 256, 512, 512})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ArenaGatherInt8)->Apply([](benchmark::internal::Benchmark *b) {
    bankTiers(b, {{128, 256, 256}, {256, 512, 512}});
});
BENCHMARK(BM_ArenaGatherInt4)->Apply([](benchmark::internal::Benchmark *b) {
    bankTiers(b, {{128, 256, 256}, {256, 512, 512}});
});

BENCHMARK(BM_ArenaTileInt4Int8EncSplit)
    ->Args({64, 4608, 512})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ArenaTileInt4Int8EncFused)
    ->Args({64, 4608, 512})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_FusedTileAdapt)
    ->Args({64, 4608, 512, 512})
    ->Unit(benchmark::kMicrosecond);

int
main(int argc, char **argv)
{
    // Translate our conventional --json <path> flag into google-benchmark's
    // reporter flags so every bench in the repo shares one CLI shape.
    std::vector<std::string> args;
    for (int i = 0; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            args.push_back(std::string("--benchmark_out=") + argv[i + 1]);
            args.push_back("--benchmark_out_format=json");
            ++i;
            continue;
        }
        args.push_back(argv[i]);
    }
    std::vector<char *> argv2;
    argv2.reserve(args.size());
    for (std::string &arg : args)
        argv2.push_back(arg.data());
    int argc2 = static_cast<int>(argv2.size());
    benchmark::Initialize(&argc2, argv2.data());
    if (benchmark::ReportUnrecognizedArguments(argc2, argv2.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
