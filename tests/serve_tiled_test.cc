// Tests for the row-tiled segment executor: bit-exactness of the tiled
// forwardBatch against the untiled phase-barrier path across tile sizes,
// table precisions, forced gather variants, and ragged tails; the tile
// plan's segment partition and per-worker scratch accounting; and the
// multi-worker engine racing per-tile tasks over MLP / CNN / transformer
// stage graphs; and the fused width-adapt prologue's cyclic view against
// explicit WidthAdaptStage nodes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "api/lutdla.h"
#include "lutboost/converter.h"
#include "lutboost/kernels.h"
#include "lutboost/kernels_simd.h"
#include "lutboost/lut_conv.h"
#include "lutboost/lut_linear.h"
#include "nn/activations.h"
#include "nn/attention.h"
#include "nn/sequential.h"
#include "serve/frozen_model.h"
#include "util/cpu_features.h"
#include "util/rng.h"

namespace lutdla {
namespace {

Tensor
randomRows(int64_t rows, int64_t width, uint64_t seed)
{
    Rng rng(seed);
    Tensor x(Shape{rows, width});
    for (int64_t i = 0; i < x.numel(); ++i)
        x.at(i) = static_cast<float>(rng.gaussian(0.0, 1.0));
    return x;
}

/** A three-GEMM trace chain with a non-chaining width in the middle, so
 * the tiled segment also covers a fused width-adapt prologue. */
serve::FrozenModel
makeTraceModel(serve::PlanOptions plan)
{
    std::vector<sim::GemmShape> gemms{
        {4, 24, 40, "a"}, {4, 36, 18, "b"}, {4, 18, 9, "c"}};
    vq::PQConfig pq;
    pq.v = 4;
    pq.c = 16;
    auto model = serve::FrozenModel::fromTrace(gemms, pq, {}, 91, plan);
    EXPECT_TRUE(model.ok()) << model.status().toString();
    return model.take();
}

// ---------------------------------------------------------------------------
// Property sweep: every tile size x every precision is bit-identical to
// the untiled executor on the same plan.

TEST(TiledExecutor, TraceSweepBitExactAcrossTileSizesAndPrecisions)
{
    // 193 rows: ragged against every candidate tile size below.
    const Tensor x = randomRows(193, 24, 17);

    for (const serve::TablePrecision precision :
         {serve::TablePrecision::Float32, serve::TablePrecision::Int8,
          serve::TablePrecision::Int4}) {
        serve::PlanOptions untiled;
        untiled.table_precision = precision;
        untiled.tile_rows = -1;  // phase-barrier executor
        serve::FrozenModel baseline = makeTraceModel(untiled);
        ASSERT_TRUE(baseline.tilePlan().segments.empty())
            << "tile_rows=-1 must disable the segment partition";
        const Tensor reference = baseline.forwardBatch(x);

        // Auto plan, to learn the segment granule for this precision.
        serve::PlanOptions auto_plan = untiled;
        auto_plan.tile_rows = 0;
        const serve::FrozenModel tuned = baseline.withPlan(auto_plan);
        ASSERT_FALSE(tuned.tilePlan().segments.empty());
        const int64_t granule = tuned.tilePlan().segments[0].granule;
        EXPECT_EQ(tuned.tilePlan().segments[0].tile_rows % granule, 0)
            << "auto tile size must be a granule multiple";
        EXPECT_TRUE(tuned.forwardBatch(x).equals(reference))
            << "auto tile diverged at precision "
            << serve::tablePrecisionName(precision);

        for (const int64_t tile :
             {int64_t{1}, int64_t{7}, granule, granule + 1,
              x.dim(0)}) {
            serve::PlanOptions forced = untiled;
            forced.tile_rows = tile;
            const serve::FrozenModel tiled = baseline.withPlan(forced);
            ASSERT_FALSE(tiled.tilePlan().segments.empty());
            EXPECT_EQ(tiled.tilePlan().segments[0].tile_rows, tile);
            const Tensor streamed = tiled.forwardBatch(x);
            EXPECT_TRUE(streamed.equals(reference))
                << "tile=" << tile << " precision="
                << serve::tablePrecisionName(precision) << " maxdiff="
                << Tensor::maxAbsDiff(streamed, reference);
        }
    }
}

// ---------------------------------------------------------------------------
// Every gather tier: per-tile encode + gather (exactly what the executor
// runs inside a segment) is bit-identical to the whole-batch sweep for a
// bank built for EVERY tier at or below the host's, not just the running
// one.

TEST(TiledExecutor, ForcedGatherVariantsBitExactUnderTiling)
{
    vq::PQConfig pq;
    pq.v = 4;
    pq.c = 16;
    const int64_t k = 52, n = 70, rows = 130;
    lutboost::LutLinear layer(k, n, pq, /*bias=*/true, /*seed=*/5);
    layer.refreshInferenceLut();
    const auto arena = layer.inferenceArena();
    const Tensor x = randomRows(rows, k, 23);

    const lutboost::EncodeBank &float_encode =
        arena->encodeBank(lutboost::EncodePrecision::Float32);
    lutboost::KernelScratch full;
    float_encode.encodeBatch(x.data(), rows, full.codes, full.encode);

    // One tile-size set for every tier: each tier's chunk boundary
    // ({chunk, chunk + 1}: 32/33 on AVX2, 64/65 on AVX-512) is checked
    // against every tier's banks, so the lower tiers' gathers also meet
    // the host's chunk seams.
    std::vector<int64_t> tile_sizes{1, 33};
    for (int tier = 0; tier <= static_cast<int>(util::simdLevel()); ++tier) {
        const int64_t chunk = lutboost::simd::shuffleGatherChunkRows(
            static_cast<util::SimdLevel>(tier));
        for (const int64_t tile : {chunk, chunk + 1})
            if (chunk > 0 && std::find(tile_sizes.begin(), tile_sizes.end(),
                                       tile) == tile_sizes.end())
                tile_sizes.push_back(tile);
    }

    for (int tier = 0; tier <= static_cast<int>(util::simdLevel()); ++tier) {
        const auto level = static_cast<util::SimdLevel>(tier);
        for (const auto precision : {lutboost::TablePrecision::Int8,
                                     lutboost::TablePrecision::Int4}) {
            const auto bank =
                lutboost::makeTableBank(*arena, precision, level);
            Tensor whole(Shape{rows, n});
            bank->gather(full.codes, 0, rows, whole.data(), full.gather);
            for (const int64_t tile : tile_sizes) {
                Tensor tiled(Shape{rows, n});
                lutboost::KernelScratch local;
                for (int64_t r0 = 0; r0 < rows; r0 += tile) {
                    const int64_t rn = std::min(tile, rows - r0);
                    float_encode.encodeBatch(x.data() + r0 * k, rn,
                                             local.codes, local.encode);
                    bank->gather(local.codes, 0, rn, tiled.data() + r0 * n,
                                 local.gather);
                }
                EXPECT_TRUE(tiled.equals(whole))
                    << bank->kernelName() << " at "
                    << util::simdLevelName(level) << " tile=" << tile
                    << " diverged under per-tile sweep";
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Plan accounting: segments, granule multiples, and the scratch-plane
// reduction planSummary() reports.

TEST(TiledExecutor, PlanReportsSegmentsAndScratchReduction)
{
    // Wide interior, narrow boundaries: the shape where full-batch
    // ping-pong planes hurt and tiling shrinks steady-state scratch.
    std::vector<sim::GemmShape> gemms{
        {4, 64, 1024, "a"}, {4, 1024, 1024, "b"}, {4, 1024, 32, "c"}};
    vq::PQConfig pq;
    pq.v = 4;
    pq.c = 16;
    serve::PlanOptions plan;
    plan.table_precision = serve::TablePrecision::Int4;
    auto model = serve::FrozenModel::fromTrace(gemms, pq, {}, 91, plan);
    ASSERT_TRUE(model.ok()) << model.status().toString();

    const serve::TileExecPlan &tiles = model->tilePlan();
    ASSERT_EQ(tiles.segments.size(), 1u) << model->planSummary();
    const serve::TilePlan &seg = tiles.segments[0];
    EXPECT_GT(seg.tile_rows, 0);
    EXPECT_GT(seg.granule, 0);
    EXPECT_EQ(seg.tile_rows % seg.granule, 0);
    EXPECT_GT(seg.row_bytes, 0);

    // Every lut-gemm stage carries its segment in the plan record.
    for (const serve::StagePlan &p : model->plan())
        if (p.code_bits > 0) {
            EXPECT_EQ(p.segment, 0) << p.description;
            EXPECT_EQ(p.tile_rows, seg.tile_rows);
        }

    // The wide interior planes leave per-worker steady-state scratch:
    // at a batch well past the tile size, the tiled executor holds less.
    const int64_t batch = 4 * seg.tile_rows;
    EXPECT_LT(tiles.scratchBytesPerWorker(batch, true),
              tiles.scratchBytesPerWorker(batch, false))
        << model->planSummary();

    const std::string summary = model->planSummary();
    EXPECT_NE(summary.find("tiled executor"), std::string::npos);
    EXPECT_NE(summary.find("scratch planes/worker"), std::string::npos);

    // Forcing a tile size is honored verbatim by the partition.
    serve::PlanOptions forced = plan;
    forced.tile_rows = 96;
    EXPECT_EQ(model->withPlan(forced).tilePlan().segments[0].tile_rows,
              96);

    // Disabling restores the phase-barrier accounting: no segments, and
    // the full-batch figure on both sides.
    serve::PlanOptions off = plan;
    off.tile_rows = -1;
    const serve::FrozenModel untiled = model->withPlan(off);
    EXPECT_TRUE(untiled.tilePlan().segments.empty());
    EXPECT_EQ(untiled.tilePlan().scratchBytesPerWorker(batch, true),
              untiled.tilePlan().scratchBytesPerWorker(batch, false));
}

// ---------------------------------------------------------------------------
// Multi-worker race: tiles are the work-stealing unit, so a 4-worker
// engine splitting one big batch into per-tile tasks must stay bit-exact
// with the single-threaded untiled sweep — across MLP, CNN, and
// transformer graphs.

TEST(InferenceEngine, TiledTasksRaceBitExactMlp)
{
    serve::PlanOptions untiled;
    untiled.table_precision = serve::TablePrecision::Int8;
    untiled.tile_rows = -1;
    serve::FrozenModel baseline = makeTraceModel(untiled);
    const Tensor x = randomRows(192, 24, 3);
    const Tensor reference = baseline.forwardBatch(x);

    serve::PlanOptions tiled_plan = untiled;
    tiled_plan.tile_rows = 16;  // 12 tiles: plenty to steal
    const serve::FrozenModel tiled = baseline.withPlan(tiled_plan);

    serve::EngineOptions options;
    options.threads = 4;
    options.max_batch = 256;
    auto engine = serve::InferenceEngine::create(tiled, options);
    ASSERT_TRUE(engine.ok()) << engine.status().toString();
    for (int round = 0; round < 8; ++round) {
        auto result = engine.value()->submit(x);
        ASSERT_TRUE(result.ok()) << result.status().toString();
        EXPECT_TRUE(result->equals(reference))
            << "round " << round << " maxdiff="
            << Tensor::maxAbsDiff(*result, reference);
    }
    engine.value()->shutdown();
}

TEST(InferenceEngine, TiledTasksRaceBitExactCnn)
{
    vq::PQConfig pq;
    pq.v = 3;
    pq.c = 8;
    ConvGeometry g;
    g.in_channels = 1;
    g.out_channels = 4;
    g.kernel = 3;
    g.stride = 1;
    g.padding = 1;
    auto model = std::make_shared<nn::Sequential>(std::vector<nn::LayerPtr>{
        std::make_shared<lutboost::LutConv2d>(g, pq, /*bias=*/true, 31),
        std::make_shared<nn::ReLU>(),
        std::make_shared<nn::MaxPool2d>(2),
        std::make_shared<nn::Flatten>(),
        std::make_shared<lutboost::LutLinear>(4 * 4 * 4, 5, pq,
                                              /*bias=*/true, 32)});
    for (lutboost::LutLinear *layer : lutboost::findLutLayers(model))
        layer->refreshInferenceLut();

    serve::PlanOptions off;
    off.tile_rows = -1;
    auto baseline = serve::FrozenModel::fromModel(
        model, serve::ServeInputShape{8, 8}, off);
    ASSERT_TRUE(baseline.ok()) << baseline.status().toString();
    const Tensor x = randomRows(64, 64, 9);
    const Tensor reference = baseline->forwardBatch(x);

    serve::PlanOptions tiled_plan;
    tiled_plan.tile_rows = 8;  // conv stages stay barriers; the
                               // flatten -> lut-gemm tail streams
    const serve::FrozenModel tiled = baseline->withPlan(tiled_plan);
    ASSERT_FALSE(tiled.tilePlan().segments.empty());

    serve::EngineOptions options;
    options.threads = 4;
    options.max_batch = 64;
    auto engine = serve::InferenceEngine::create(tiled, options);
    ASSERT_TRUE(engine.ok()) << engine.status().toString();
    auto result = engine.value()->submit(x);
    ASSERT_TRUE(result.ok()) << result.status().toString();
    EXPECT_TRUE(result->equals(reference))
        << "maxdiff=" << Tensor::maxAbsDiff(*result, reference);
    engine.value()->shutdown();
}

TEST(InferenceEngine, TiledTasksRaceBitExactTransformer)
{
    constexpr int64_t kInWidth = 12, kDModel = 16, kDff = 32;
    constexpr int64_t kSeqLen = 16;
    vq::PQConfig pq;
    pq.v = 4;
    pq.c = 8;
    auto model = std::make_shared<nn::Sequential>(std::vector<nn::LayerPtr>{
        std::make_shared<lutboost::LutLinear>(kInWidth, kDModel, pq,
                                              /*bias=*/true, 61),
        std::make_shared<nn::TransformerBlock>(kSeqLen, kDModel, 4, kDff,
                                               62)});
    lutboost::ConvertOptions opts;
    opts.pq = pq;
    opts.min_in_features = 0;
    ASSERT_EQ(lutboost::replaceOperators(model, opts), 6);
    for (lutboost::LutLinear *layer : lutboost::findLutLayers(model))
        layer->refreshInferenceLut();

    serve::PlanOptions off;
    off.tile_rows = -1;
    auto baseline = serve::FrozenModel::fromModel(model, {}, off);
    ASSERT_TRUE(baseline.ok()) << baseline.status().toString();
    const Tensor x = randomRows(8 * kSeqLen, kInWidth, 13);
    const Tensor reference = baseline->forwardBatch(x);

    serve::PlanOptions tiled_plan;
    tiled_plan.tile_rows = 8;
    const serve::FrozenModel tiled = baseline->withPlan(tiled_plan);
    // Skip-save / residual-add / attention stay barriers; the embedding
    // gemm and the FFN run between skip edges form the segments.
    ASSERT_FALSE(tiled.tilePlan().segments.empty());
    for (const serve::TilePlan &seg : tiled.tilePlan().segments)
        for (int64_t s = seg.begin; s < seg.end; ++s)
            EXPECT_TRUE(
                tiled.stages()[static_cast<size_t>(s)]->rowTileable());

    serve::EngineOptions options;
    options.threads = 4;
    options.max_batch = 128;
    auto engine = serve::InferenceEngine::create(tiled, options);
    ASSERT_TRUE(engine.ok()) << engine.status().toString();
    auto result = engine.value()->submit(x);
    ASSERT_TRUE(result.ok()) << result.status().toString();
    EXPECT_TRUE(result->equals(reference))
        << "maxdiff=" << Tensor::maxAbsDiff(*result, reference);
    engine.value()->shutdown();
}

// ---------------------------------------------------------------------------
// Deployment freeze: a trace lowered under a quantized plan serves the
// bits of an authoring (float-plan) model replanned to the same plan,
// while its arenas hold only the float source their bound banks read.

/** A ragged tail subspace (26 % 4), a fused width adapt (40 -> 36) and
 * odd output widths. */
const std::vector<sim::GemmShape> kFreezeGemms{
    {4, 26, 40, "a"}, {4, 36, 17, "b"}, {4, 17, 9, "c"}};

vq::PQConfig
freezePq()
{
    vq::PQConfig pq;
    pq.v = 4;
    pq.c = 16;
    return pq;
}

/** int4 + int8 encode, int8, and a mixed plan: int4 + int8 encode, a
 * float table under int8 encode, and an untouched float stage. */
std::vector<serve::PlanOptions>
freezePlans()
{
    serve::PlanOptions int4_int8enc, int8, mixed;
    int4_int8enc.table_precision = serve::TablePrecision::Int4;
    int4_int8enc.encode_precision = serve::EncodePrecision::Int8;
    int8.table_precision = serve::TablePrecision::Int8;
    mixed.stage_precision = {serve::TablePrecision::Int4,
                             serve::TablePrecision::Float32,
                             serve::TablePrecision::Float32};
    mixed.stage_encode_precision = {serve::EncodePrecision::Int8,
                                    serve::EncodePrecision::Int8,
                                    serve::EncodePrecision::Float32};
    return {int4_int8enc, int8, mixed};
}

/** The trace model under `plan`, lowered straight to it (frozen) or as
 * a float authoring model replanned to it. */
serve::FrozenModel
freezeModel(const serve::PlanOptions &plan, bool frozen)
{
    const serve::PlanOptions lowering = frozen ? plan : serve::PlanOptions{};
    auto model = serve::FrozenModel::fromTrace(kFreezeGemms, freezePq(), {},
                                               91, lowering);
    EXPECT_TRUE(model.ok()) << model.status().toString();
    return frozen ? model.take() : model->withPlan(plan);
}

/**
 * Check what a model's arenas hold: a stage that gathers from the float
 * bank keeps the PSum table, one with a float encode keeps the
 * codebooks, nothing else of the float source stays (trace arenas have
 * no bias), and residentBytes() is that plus the bound banks.
 */
void
expectHoldsOnlyBoundSource(const serve::FrozenModel &model)
{
    int64_t resident = 0;
    for (const serve::StagePtr &stage : model.stages()) {
        const auto *gemm = dynamic_cast<const serve::ArenaStage *>(stage.get());
        if (gemm == nullptr)
            continue;
        const lutboost::LutTableArena &arena = *gemm->arena();
        const bool float_table =
            gemm->backend().precision() == serve::TablePrecision::Float32;
        const bool float_encode =
            gemm->encodePrecision() == serve::EncodePrecision::Float32;
        EXPECT_EQ(arena.frozen(), !(float_table && float_encode))
            << gemm->description();
        const int64_t entries = arena.numSubspaces() * arena.numCentroids();
        const int64_t held_floats =
            (float_table ? entries * arena.outFeatures() : 0) +
            (float_encode ? entries * arena.subvectorLen() : 0);
        EXPECT_EQ(arena.sizeBytes(),
                  held_floats * static_cast<int64_t>(sizeof(float)))
            << gemm->description();
        resident += arena.sizeBytes() + gemm->binding().banks().residentBytes();
    }
    EXPECT_EQ(model.residentBytes(), resident) << model.describe();
}

TEST(FrozenModel, TraceLoweredFrozenMatchesAuthoringReplanBitExact)
{
    for (const serve::PlanOptions &plan : freezePlans()) {
        const serve::FrozenModel authoring = freezeModel(plan, false);
        const serve::FrozenModel frozen = freezeModel(plan, true);
        ASSERT_EQ(frozen.describe(), authoring.describe());
        // Tiled (auto) and untiled executors: a frozen model still
        // replans tiling at its bound precisions.
        for (const int64_t tile_rows : {int64_t{0}, int64_t{-1}}) {
            serve::PlanOptions p = plan;
            p.tile_rows = tile_rows;
            const serve::FrozenModel a = authoring.withPlan(p);
            const serve::FrozenModel f = frozen.withPlan(p);
            for (const int64_t rows : {1, 64, 193}) {
                const Tensor x = randomRows(rows, 26, 40 + rows);
                const Tensor want = a.forwardBatch(x);
                const Tensor got = f.forwardBatch(x);
                EXPECT_TRUE(got.equals(want))
                    << frozen.describe() << " tile_rows=" << tile_rows
                    << " rows=" << rows
                    << " maxdiff=" << Tensor::maxAbsDiff(got, want);
            }
        }
    }
}

TEST(FrozenModel, FrozenResidentBytesCountBoundBanksPlusHeldSource)
{
    for (const serve::PlanOptions &plan : freezePlans()) {
        const serve::FrozenModel frozen = freezeModel(plan, true);
        expectHoldsOnlyBoundSource(frozen);
        // Replanned copies see the same arenas and the same sum.
        serve::PlanOptions untiled = plan;
        untiled.tile_rows = -1;
        expectHoldsOnlyBoundSource(frozen.withPlan(untiled));
        EXPECT_LT(frozen.residentBytes(),
                  freezeModel(plan, false).residentBytes())
            << frozen.describe();
    }
    // The float plan freezes nothing: an authoring model.
    const serve::FrozenModel authoring =
        freezeModel(serve::PlanOptions{}, true);
    expectHoldsOnlyBoundSource(authoring);
}

TEST(FrozenModel, FrozenArenaRefusesOtherPrecisions)
{
    const serve::FrozenModel frozen = freezeModel(freezePlans()[0], true);
    const auto *gemm =
        dynamic_cast<const serve::ArenaStage *>(frozen.stages()[0].get());
    ASSERT_NE(gemm, nullptr);
    const lutboost::LutTableArena &arena = *gemm->arena();
    ASSERT_TRUE(arena.frozen());
    EXPECT_DEATH(arena.tableBank(lutboost::TablePrecision::Float32),
                 "float32 table bank is gone: the deployment freeze");
    EXPECT_DEATH(arena.tableBank(lutboost::TablePrecision::Int8),
                 "int8 table bank is gone: the deployment freeze");
    EXPECT_DEATH(arena.encodeBank(lutboost::EncodePrecision::Float32),
                 "float32 encode bank is gone: the deployment freeze");
    EXPECT_DEATH(frozen.withPlan(serve::PlanOptions{}),
                 "deployment freeze");
    // A fromModel model shares its arenas with the source layers.
    vq::PQConfig pq = freezePq();
    auto source = std::make_shared<nn::Sequential>(std::vector<nn::LayerPtr>{
        std::make_shared<lutboost::LutLinear>(16, 8, pq, true, 5)});
    lutboost::findLutLayers(source)[0]->refreshInferenceLut();
    auto lowered = serve::FrozenModel::fromModel(source);
    ASSERT_TRUE(lowered.ok()) << lowered.status().toString();
    serve::FrozenModel from_model = lowered.take();
    EXPECT_EQ(from_model.freeze().code(), api::StatusCode::FailedPrecondition);
    // A trace model whose arenas a sibling still reads cannot freeze.
    const serve::FrozenModel authoring =
        freezeModel(serve::PlanOptions{}, true);
    serve::FrozenModel sibling = authoring.withPlan(freezePlans()[0]);
    EXPECT_EQ(sibling.freeze().code(), api::StatusCode::FailedPrecondition);
}

TEST(FrozenModel, AutoTunedTraceEngineEndsFrozen)
{
    api::ServeOptions options;
    options.engine.threads = 2;
    options.autoTunePrecision(0.0);  // every move fits: all stages quantize
    options.auto_tune_options.probe_rows = 64;
    auto engine = api::makeTraceEngine(kFreezeGemms, freezePq(), options);
    ASSERT_TRUE(engine.ok()) << engine.status().toString();
    const serve::FrozenModel &model = engine.value()->model();

    serve::PlanOptions tuned;
    for (const serve::StagePlan &p : model.plan())
        if (p.code_bits > 0) {
            tuned.stage_precision.push_back(p.precision);
            tuned.stage_encode_precision.push_back(p.encode_precision);
            EXPECT_NE(p.precision, serve::TablePrecision::Float32)
                << model.planSummary();
        }
    expectHoldsOnlyBoundSource(model);

    // It serves the tuned plan's bits.
    const Tensor x = randomRows(64, 26, 7);
    const Tensor want = freezeModel(tuned, false).forwardBatch(x);
    auto result = engine.value()->submit(x);
    ASSERT_TRUE(result.ok()) << result.status().toString();
    EXPECT_TRUE(result->equals(want))
        << "maxdiff=" << Tensor::maxAbsDiff(*result, want);
    engine.value()->shutdown();
}

// ---------------------------------------------------------------------------
// Cyclic view: a fused width-adapt prologue encodes its source rows in
// place (arena column j reads source column j % source width). The fused
// plan must serve the bits of the unfused one, whose explicit
// WidthAdaptStage materializes the adapted rows for a plain ArenaStage.

/** Widths at v = 4: 10 -> 37 wraps subspaces (4 does not divide 10) and
 * leaves a ragged tail (37 % 4); 40 -> 22 truncates with a ragged tail;
 * 9 -> 64 wraps and replicates past 7 periods; 3 -> 13 is narrower than
 * one subvector, so every subspace wraps. */
const std::vector<sim::GemmShape> kAdaptGemms{
    {4, 12, 10, "a"}, {4, 37, 40, "b"}, {4, 22, 9, "c"},
    {4, 64, 11, "d"}, {4, 26, 3, "e"},  {4, 13, 5, "f"}};

/** The adapt trace lowered straight to `plan` with the prologue fused
 * (`fuse`) or left as explicit WidthAdaptStage nodes. */
serve::FrozenModel
adaptModel(serve::PlanOptions plan, bool fuse, bool bf16)
{
    plan.fuse = fuse;
    vq::LutPrecision precision;
    precision.bf16_similarity = bf16;
    auto model = serve::FrozenModel::fromTrace(kAdaptGemms, freezePq(),
                                               precision, 91, plan);
    EXPECT_TRUE(model.ok()) << model.status().toString();
    return model.take();
}

/** Every (table, encode) precision pair. */
std::vector<serve::PlanOptions>
adaptPlans()
{
    std::vector<serve::PlanOptions> plans;
    for (const auto table :
         {serve::TablePrecision::Float32, serve::TablePrecision::Int8,
          serve::TablePrecision::Int4})
        for (const auto encode : {serve::EncodePrecision::Float32,
                                  serve::EncodePrecision::Int8}) {
            serve::PlanOptions plan;
            plan.table_precision = table;
            plan.encode_precision = encode;
            plans.push_back(plan);
        }
    return plans;
}

/** Fused widths adapt inside the arena stages; unfused ones stay
 * explicit stages. */
void
expectAdaptFusion(const serve::FrozenModel &model, bool fused)
{
    int64_t adapt_stages = 0, prologues = 0;
    for (const serve::StagePtr &stage : model.stages()) {
        adapt_stages += stage->kind() == "width-adapt";
        if (const auto *gemm =
                dynamic_cast<const serve::ArenaStage *>(stage.get()))
            prologues += gemm->adaptInWidth() > 0;
    }
    EXPECT_EQ(adapt_stages, fused ? 0 : 5) << model.describe();
    EXPECT_EQ(prologues, fused ? 5 : 0) << model.describe();
}

TEST(CyclicView, FusedAdaptMatchesExplicitAdaptBitExact)
{
    const int64_t host_chunk =
        lutboost::simd::shuffleGatherChunkRows(util::simdLevel());
    const int64_t chunk = host_chunk > 0 ? host_chunk : 32;
    for (const bool bf16 : {false, true})
        for (const serve::PlanOptions &plan : adaptPlans()) {
            const serve::FrozenModel fused = adaptModel(plan, true, bf16);
            const serve::FrozenModel explicit_adapt =
                adaptModel(plan, false, bf16);
            expectAdaptFusion(fused, true);
            expectAdaptFusion(explicit_adapt, false);
            // Tiled (auto) and untiled (whole-batch forwardTile)
            // executors over the fused stages.
            serve::PlanOptions untiled = plan;
            untiled.tile_rows = -1;
            const serve::FrozenModel fused_untiled = fused.withPlan(untiled);
            for (const int64_t rows :
                 {int64_t{1}, int64_t{15}, int64_t{16}, int64_t{17},
                  chunk - 1, chunk, chunk + 1, int64_t{193}}) {
                const Tensor x = randomRows(rows, 12, 300 + rows);
                const Tensor want = explicit_adapt.forwardBatch(x);
                for (const serve::FrozenModel *model :
                     {&fused, &fused_untiled}) {
                    const Tensor got = model->forwardBatch(x);
                    EXPECT_TRUE(got.equals(want))
                        << fused.describe() << " bf16=" << bf16
                        << " rows=" << rows << " tiled="
                        << !model->tilePlan().segments.empty()
                        << " maxdiff=" << Tensor::maxAbsDiff(got, want);
                }
            }
        }
}

TEST(CyclicView, ShardedFusedAdaptMatchesExplicitAdaptBitExact)
{
    // Untiled, so each fused stage sees the whole batch and shards its
    // encode (encodeBlock over the cyclic view) and gather across the
    // engine's workers: 193 rows at 16-row shards is 13 blocks.
    for (const bool bf16 : {false, true})
        for (serve::PlanOptions plan : adaptPlans()) {
            plan.tile_rows = -1;
            plan.shard_rows = 16;
            const serve::FrozenModel fused = adaptModel(plan, true, bf16);
            const serve::FrozenModel explicit_adapt =
                adaptModel(plan, false, bf16);
            const Tensor x = randomRows(193, 12, 77);
            const Tensor want = explicit_adapt.forwardBatch(x);

            serve::EngineOptions options;
            options.threads = 4;
            options.max_batch = 256;
            auto engine = serve::InferenceEngine::create(fused, options);
            ASSERT_TRUE(engine.ok()) << engine.status().toString();
            for (int round = 0; round < 3; ++round) {
                auto result = engine.value()->submit(x);
                ASSERT_TRUE(result.ok()) << result.status().toString();
                EXPECT_TRUE(result->equals(want))
                    << fused.describe() << " bf16=" << bf16 << " round "
                    << round
                    << " maxdiff=" << Tensor::maxAbsDiff(*result, want);
            }
            engine.value()->shutdown();
        }
}

} // namespace
} // namespace lutdla
