/**
 * @file
 * The two closed-loop workloads, served through serve::InferenceEngine:
 *
 *  - resnet18-int4: the resnet18 GEMM trace (21 LUT stages, v=8, c=16) on
 *    the int4-table + int8-encode plan via api::makeTraceEngine.
 *  - transformer-f32: a BERT-style block (d=64, T=64, 4 heads, FFN 128)
 *    LUTBoost-replaced with v=4, c=16, on the default bit-exact float32
 *    plan via api::makeEngine.
 *
 * One generator thread keeps a fixed window of 64-row requests
 * outstanding. It sleeps on the oldest request for at most kPoll and then
 * collects every finished one, so a request that finishes before an older
 * one is timed when it finishes, and the generator does not take a core
 * from the engine's workers. The engine runs one worker fewer than the
 * host has cores, so a neighbour on a shared host takes the spare core
 * rather than stalling a batch. See perfbench/README.md for why these two
 * workloads were chosen.
 */

#include <algorithm>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <stdexcept>

#include "api/serving.h"
#include "api/workload_registry.h"
#include "common.h"
#include "lutboost/converter.h"
#include "lutboost/lut_linear.h"
#include "nn/attention.h"
#include "nn/sequential.h"
#include "traced.h"
#include "util/rng.h"

namespace perfbench {

using lutdla::Tensor;
namespace api = lutdla::api;
namespace serve = lutdla::serve;

namespace {

constexpr int64_t kRequestRows = 64;
constexpr int kWindow = 32;        ///< requests kept outstanding
constexpr int kEngineThreads = 3;
/** Longest the generator sleeps before it looks for finished requests. */
constexpr std::chrono::microseconds kPoll(100);
/** Completed requests per block of the latency percentiles. */
constexpr size_t kLatencyBlock = 100;
constexpr int64_t kMaxBatch = 256;
constexpr int kPoolRequests = 32;  ///< distinct 64-row inputs per run
constexpr int kTraceReps = 15;     ///< traced passes per run

serve::EngineOptions
engineOptions()
{
    serve::EngineOptions options;
    options.threads = workerCount(kEngineThreads);
    options.max_batch = kMaxBatch;
    options.max_wait_us = 200;
    options.queue_capacity = 4 * kWindow;
    return options;
}

/** What one closed-loop phase observed. */
struct LoopOutcome
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t mismatched = 0;
    std::vector<double> latency_us;   ///< in order of completion
    std::vector<double> window_rows;  ///< rows completed per whole second

    /** Median over blocks of kLatencyBlock consecutive completions of
     * each block's percentile `p`. A host stall delays the requests of a
     * few blocks, so it moves those blocks rather than the run's figure. */
    double
    blocked(double p) const
    {
        std::vector<double> per_block;
        for (size_t first = 0; first + kLatencyBlock <= latency_us.size();
             first += kLatencyBlock)
            per_block.push_back(percentile(
                std::vector<double>(latency_us.begin() + first,
                                    latency_us.begin() + first +
                                        kLatencyBlock),
                p));
        return per_block.empty() ? percentile(latency_us, p)
                                 : median(per_block);
    }
};

/**
 * Keep `kWindow` requests drawn from `pool` outstanding for `seconds`;
 * check every response against `reference` (row-aligned with `pool`).
 * Throughput and latency count requests completed in the phase's whole
 * seconds (all of a phase shorter than one second); requests still in
 * flight at the deadline are drained and checked.
 */
LoopOutcome
closedLoop(serve::InferenceEngine &engine, const Tensor &pool,
           const Tensor &reference, double seconds, lutdla::Rng &rng)
{
    struct Pending
    {
        std::future<api::Result<Tensor>> future;
        Clock::time_point sent;
        int64_t first_row;
    };
    const int64_t requests_in_pool = pool.dim(0) / kRequestRows;
    const size_t windows = std::max<size_t>(1, static_cast<size_t>(seconds));
    LoopOutcome out;
    out.window_rows.resize(windows);
    std::deque<Pending> pending;
    auto submit = [&] {
        const int64_t first =
            rng.uniformInt(0, requests_in_pool - 1) * kRequestRows;
        pending.push_back({engine.submitAsync(
                               sliceRows(pool, first, kRequestRows)),
                           Clock::now(), first});
        ++out.attempted;
    };

    const auto start = Clock::now();
    const auto stop =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    for (int i = 0; i < kWindow; ++i)
        submit();
    while (!pending.empty()) {
        pending.front().future.wait_for(kPoll);
        const auto now = Clock::now();
        const bool measuring = now < stop;
        std::deque<Pending> still;
        int done = 0;
        for (size_t i = 0; i < pending.size(); ++i) {
            Pending &p = pending[i];
            if (p.future.wait_for(std::chrono::seconds(0)) !=
                std::future_status::ready) {
                still.push_back(std::move(p));
                continue;
            }
            ++done;
            api::Result<Tensor> result = p.future.get();
            if (!result.ok()) {
                ++out.failed;
                continue;
            }
            if (!equalsRows(*result, reference, p.first_row)) {
                ++out.mismatched;
                ++out.failed;
                continue;
            }
            const size_t w = static_cast<size_t>(
                std::chrono::duration<double>(now - start).count());
            if (measuring && w < windows) {
                out.latency_us.push_back(microsBetween(p.sent, now));
                out.window_rows[w] += static_cast<double>(result->dim(0));
            }
        }
        pending.swap(still);
        if (measuring)
            for (int i = 0; i < done; ++i)
                submit();
    }
    return out;
}

/** One closed-loop workload: how to stand it up and check it. */
struct ClosedWorkload
{
    /** Stand up the serving engine (the timed set-up). */
    std::function<api::EngineHandle()> setup;
    /** Reference outputs for `inputs`, from an independent path. */
    std::function<Tensor(const serve::InferenceEngine &, const Tensor &)>
        reference;
    /** Traced-run extras beyond the common per-stage metrics. */
    std::function<void(Result &, const StageTrace &)> traced_extras;
    /** Timed set-up split for the traced run: {lower_s, bank_build_s}. */
    std::function<std::pair<double, double>()> setup_split;
    /** Timed set-ups per run: one in this process, the rest in child
     * processes. */
    int setup_reps = 5;
};

Result
runClosed(const Args &args, const ClosedWorkload &w)
{
    Result result;

    // Set-up: timed in fresh child processes, then once more here for
    // the engine that serves.
    std::vector<double> setup_s, lower_s, bank_s;
    const auto timings = timeInChildren(
        w.setup_reps - 1, [&]() -> std::vector<double> {
            if (args.trace) {
                const auto [lower, bank] = w.setup_split();
                return {lower, bank};
            }
            const auto t0 = Clock::now();
            const api::EngineHandle discarded = w.setup();
            return {secondsSince(t0)};
        });
    for (const std::vector<double> &t : timings) {
        if (args.trace) {
            lower_s.push_back(t.at(0));
            bank_s.push_back(t.at(1));
        } else {
            setup_s.push_back(t.at(0));
        }
    }
    const auto setup_start = Clock::now();
    const api::EngineHandle engine = w.setup();
    setup_s.push_back(secondsSince(setup_start));
    const serve::FrozenModel &model = engine->model();

    const Tensor pool =
        randomRows(kPoolRequests * kRequestRows, model.inputWidth(),
                   args.seed);
    // Reference outputs one request at a time, so the reference path's
    // planes stay request-sized and do not inflate the peak RSS.
    Tensor reference(lutdla::Shape{pool.dim(0), model.outputWidth()});
    for (int64_t r = 0; r < pool.dim(0); r += kRequestRows) {
        const Tensor ref =
            w.reference(*engine, sliceRows(pool, r, kRequestRows));
        std::copy(ref.data(), ref.data() + ref.numel(),
                  reference.data() + r * model.outputWidth());
    }

    lutdla::Rng rng(args.seed ^ 0x9e3779b97f4a7c15ull);
    const double warmup = std::max(0.5, 0.1 * args.seconds);
    const LoopOutcome warm = closedLoop(*engine, pool, reference, warmup,
                                        rng);
    const LoopOutcome run =
        closedLoop(*engine, pool, reference, args.seconds, rng);
    engine->shutdown();

    result.attempted = run.attempted;
    result.failed = run.failed;
    result.mismatched = run.mismatched + warm.mismatched;
    result.correct = result.mismatched == 0;
    if (warm.failed > 0)
        result.note("warmup_failed", static_cast<double>(warm.failed));

    // Throughput is the median over one-second windows, so a short host
    // stall moves one window rather than the run's figure.
    const double rows_per_s =
        median(run.window_rows) / std::min(1.0, args.seconds);
    const double p50 = run.blocked(50.0);
    std::string windows = "[";
    for (double rows : run.window_rows)
        windows += (windows.size() > 1 ? ", " : "") +
                   std::to_string(static_cast<int64_t>(rows));
    result.note("window_rows", windows + "]");
    result.note("latency_samples",
                static_cast<double>(run.latency_us.size()));
    result.note("latency_p99_pooled_us", percentile(run.latency_us, 99.0));
    result.note("failed_frac",
                run.attempted ? static_cast<double>(run.failed) /
                                    static_cast<double>(run.attempted)
                              : 0.0);

    if (!args.trace) {
        result.add("rows_per_s", rows_per_s, "rows/s");
        result.add("latency_p50_us", p50, "us");
        result.add("latency_p99_us", run.blocked(99.0), "us");
        // Closed loops carry only throughput traffic, so their bulk
        // lane is the whole stream.
        result.add("bulk_latency_p50_us", p50, "us");
        // The saturated request rate: a closed loop runs at capacity.
        result.add("max_rate_rps", rows_per_s / kRequestRows, "1/s");
        result.add("setup_s", median(setup_s), "s");
        result.add("peak_rss_mb", peakRssMb(), "MB");
        return result;
    }

    const serve::EngineStats stats = engine->stats();
    result.add("engine.batch_fill", stats.avgBatchFill(), "rows");
    result.add("engine.active_workers", stats.active_workers, "count");
    result.add("engine.queue_wait_p50_us", stats.p50_queue_us, "us");
    result.add("engine.service_p50_us", stats.p50_service_us, "us");
    result.add("setup.lower_s", median(lower_s), "s");
    result.add("setup.bank_build_s", median(bank_s), "s");
    result.add("lutboost.resident_table_mb",
               static_cast<double>(model.residentBytes() +
                                   model.encodeBytes()) /
                   1e6,
               "MB");
    result.note("peak_rss_mb", peakRssMb());

    const Tensor batch = sliceRows(pool, 0, kMaxBatch);
    const StageTrace trace = traceStages(model, batch, kTraceReps);
    if (!trace.output_matches) {
        result.correct = false;
        result.note("traced_output_mismatch", "true");
    }
    addTraceMetrics(result, trace);
    if (w.traced_extras)
        w.traced_extras(result, trace);
    return result;
}

// ---- resnet18-int4 -------------------------------------------------------

constexpr uint64_t kTraceSeed = 91;  // model weights; fixed across seeds

lutdla::vq::PQConfig
resnetPq()
{
    lutdla::vq::PQConfig pq;
    pq.v = 8;
    pq.c = 16;
    return pq;
}

std::vector<lutdla::sim::GemmShape>
resnetGemms()
{
    auto spec = api::findWorkload("resnet18");
    if (!spec.ok())
        throw std::runtime_error(spec.status().toString());
    return spec->network().gemms;
}

serve::PlanOptions
resnetPlan()
{
    serve::PlanOptions plan;
    plan.table_precision = serve::TablePrecision::Int4;
    plan.encode_precision = serve::EncodePrecision::Int8;
    return plan;
}

// ---- transformer-f32 -----------------------------------------------------

constexpr int64_t kSeqLen = 64, kHeads = 4, kDModel = 64, kDff = 128;

/** The LUTBoost-replaced (not yet frozen) transformer model. */
lutdla::nn::LayerPtr
buildTransformer()
{
    lutdla::lutboost::ConvertOptions opts;
    opts.pq.v = 4;
    opts.pq.c = 16;
    opts.min_in_features = 0;
    auto model = std::make_shared<lutdla::nn::Sequential>(
        std::vector<lutdla::nn::LayerPtr>{
            std::make_shared<lutdla::lutboost::LutLinear>(
                kDModel, kDModel, opts.pq, /*bias=*/true, 131),
            std::make_shared<lutdla::nn::TransformerBlock>(
                kSeqLen, kDModel, kHeads, kDff, 132)});
    lutdla::lutboost::replaceOperators(model, opts);
    return model;
}

} // namespace

Result
runResnet18Int4(const Args &args)
{
    const auto gemms = resnetGemms();
    ClosedWorkload w;
    w.setup = [&] {
        api::ServeOptions options(engineOptions());
        options.plan = resnetPlan();
        return orThrow(api::makeTraceEngine(gemms, resnetPq(), options, {},
                                            kTraceSeed));
    };
    // Same plan, untiled executor, one thread: an independent path.
    std::optional<serve::FrozenModel> untiled;
    w.reference = [&](const serve::InferenceEngine &engine,
                      const Tensor &inputs) {
        if (!untiled) {
            serve::PlanOptions plan = resnetPlan();
            plan.tile_rows = -1;
            untiled = engine.model().withPlan(plan);
        }
        return untiled->forwardBatch(inputs);
    };
    w.setup_split = [&] {
        const auto t0 = Clock::now();
        const serve::FrozenModel lowered = orThrow(
            serve::FrozenModel::fromTrace(gemms, resnetPq(), {}, kTraceSeed));
        const double lower = secondsSince(t0);
        const auto t1 = Clock::now();
        // Replanning builds the int4 table and int8 encode banks.
        const serve::FrozenModel planned = lowered.withPlan(resnetPlan());
        return std::make_pair(lower, secondsSince(t1));
    };
    w.traced_extras = [&](Result &result, const StageTrace &trace) {
        addSimShares(result, trace, gemms, resnetPq().v, resnetPq().c);
    };
    return runClosed(args, w);
}

Result
runTransformerF32(const Args &args)
{
    ClosedWorkload w;
    w.setup_reps = 15;
    w.setup = [] {
        return orThrow(api::makeEngine(
            buildTransformer(), api::ServeOptions(engineOptions())));
    };
    // The converted model's eval forward, on a second copy built the same
    // deterministic way as the served one.
    lutdla::nn::LayerPtr ref_model;
    w.reference = [&](const serve::InferenceEngine &, const Tensor &inputs) {
        if (!ref_model) {
            ref_model = buildTransformer();
            for (auto *layer : lutdla::lutboost::findLutLayers(ref_model))
                layer->refreshInferenceLut();
        }
        return ref_model->forward(inputs, /*train=*/false);
    };
    w.setup_split = [] {
        lutdla::nn::LayerPtr model = buildTransformer();
        const auto t0 = Clock::now();
        for (auto *layer : lutdla::lutboost::findLutLayers(model))
            layer->refreshInferenceLut();
        const double bank = secondsSince(t0);
        const auto t1 = Clock::now();
        orThrow(serve::FrozenModel::fromModel(model));
        return std::make_pair(secondsSince(t1), bank);
    };
    return runClosed(args, w);
}

} // namespace perfbench
