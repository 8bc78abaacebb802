#include "traced.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "serve/stage_transformer.h"
#include "sim/lutdla_sim.h"
#include "sim/report.h"

namespace perfbench {

using lutdla::Tensor;
using lutdla::serve::FrozenModel;
using lutdla::serve::FrozenStage;
using lutdla::serve::StageScratch;

namespace {

int64_t
ceilDiv(int64_t a, int64_t b)
{
    return (a + b - 1) / b;
}

/**
 * Table bytes one call of `stage` over `rows` request rows streams: the
 * stage's tableBytes() once per gather granule of GEMM rows (a conv
 * stage's GEMM has one row per output pixel). Computed, not measured.
 */
double
sweptTableBytes(const FrozenStage &stage, int64_t rows)
{
    const int64_t bytes = stage.tableBytes();
    if (bytes == 0)
        return 0.0;
    int64_t gemm_rows = rows;
    int64_t granule = stage.tileGranuleRows();
    if (const auto *conv =
            dynamic_cast<const lutdla::serve::ConvStage *>(&stage)) {
        gemm_rows = rows * conv->geometry().outSize(conv->height()) *
                    conv->geometry().outSize(conv->width());
        granule = conv->backend().gatherGranuleRows(*conv->arena());
    } else if (const auto *attn = dynamic_cast<
                   const lutdla::serve::AttentionStage *>(&stage)) {
        granule = attn->backend().gatherGranuleRows(*attn->arenas().q);
    }
    return static_cast<double>(bytes) *
           static_cast<double>(ceilDiv(gemm_rows, std::max<int64_t>(
                                                      granule, 1)));
}

/** Per-stage sums of one traced pass. */
struct PassSample
{
    std::vector<double> us, encode_us, gather_us, table_bytes;

    explicit PassSample(size_t stages)
        : us(stages), encode_us(stages), gather_us(stages),
          table_bytes(stages)
    {
    }
};

/**
 * Run one stage call and charge its wall time and phase counters to
 * stage `s` of `sample`.
 */
template <typename Call>
void
timedCall(PassSample &sample, size_t s, const FrozenStage &stage,
          int64_t rows, StageScratch &scratch, const Call &call)
{
    const uint64_t enc0 = scratch.encode_ns, gat0 = scratch.gather_ns;
    const auto t0 = Clock::now();
    call();
    sample.us[s] += microsBetween(t0, Clock::now());
    sample.encode_us[s] += (scratch.encode_ns - enc0) * 1e-3;
    sample.gather_us[s] += (scratch.gather_ns - gat0) * 1e-3;
    sample.table_bytes[s] += sweptTableBytes(stage, rows);
}

/**
 * Forward `x` through `model` stage by stage on the executor's schedule
 * (see FrozenModel::forwardBatch), timing every stage call.
 */
Tensor
tracedForward(const FrozenModel &model, const Tensor &x,
              StageScratch &scratch, PassSample &sample)
{
    const auto &stages = model.stages();
    const auto &segments = model.tilePlan().segments;
    const int64_t rows = x.dim(0);
    std::vector<float> cur(x.data(), x.data() + x.numel());
    std::vector<float> next, tile_a, tile_b;

    size_t i = 0;
    while (i < stages.size()) {
        const lutdla::serve::TilePlan *seg = nullptr;
        for (const auto &candidate : segments)
            if (candidate.begin == static_cast<int64_t>(i))
                seg = &candidate;
        if (seg != nullptr && rows > seg->tile_rows) {
            const size_t begin = static_cast<size_t>(seg->begin);
            const size_t end = static_cast<size_t>(seg->end);
            const int64_t tile = seg->tile_rows;
            const int64_t in_w = stages[begin]->inWidth();
            const int64_t out_w = stages[end - 1]->outWidth();
            int64_t widest = in_w;
            for (size_t s = begin; s < end; ++s)
                widest = std::max(widest, stages[s]->outWidth());
            tile_a.resize(static_cast<size_t>(tile * widest));
            tile_b.resize(static_cast<size_t>(tile * widest));
            next.resize(static_cast<size_t>(rows * out_w));
            size_t last_oop = begin;
            for (size_t s = begin; s < end; ++s)
                if (!stages[s]->inPlace())
                    last_oop = s;

            for (int64_t r0 = 0; r0 < rows; r0 += tile) {
                const int64_t rn = std::min(tile, rows - r0);
                const float *src = cur.data() + r0 * in_w;
                float *live = nullptr;
                for (size_t s = begin; s < end; ++s) {
                    const FrozenStage &stage = *stages[s];
                    float *to_out =
                        s >= last_oop ? next.data() + r0 * out_w : nullptr;
                    if (stage.inPlace()) {
                        if (live == nullptr) {
                            live = to_out ? to_out : tile_a.data();
                            std::memcpy(live, src,
                                        static_cast<size_t>(
                                            rn * stage.inWidth()) *
                                            sizeof(float));
                        }
                        timedCall(sample, s, stage, rn, scratch, [&] {
                            stage.forwardInPlace(live, rn, scratch);
                        });
                    } else {
                        float *dst = to_out ? to_out
                                     : live == tile_a.data()
                                         ? tile_b.data()
                                         : tile_a.data();
                        const float *in = live ? live : src;
                        timedCall(sample, s, stage, rn, scratch, [&] {
                            stage.forward(in, rn, dst, scratch);
                        });
                        live = dst;
                    }
                }
            }
            cur.swap(next);
            i = end;
            continue;
        }

        const FrozenStage &stage = *stages[i];
        if (stage.inPlace()) {
            timedCall(sample, i, stage, rows, scratch, [&] {
                stage.forwardInPlace(cur.data(), rows, scratch);
            });
        } else {
            next.resize(static_cast<size_t>(rows * stage.outWidth()));
            timedCall(sample, i, stage, rows, scratch, [&] {
                stage.forward(cur.data(), rows, next.data(), scratch);
            });
            cur.swap(next);
        }
        ++i;
    }

    Tensor y(lutdla::Shape{rows, model.outputWidth()});
    std::memcpy(y.data(), cur.data(),
                static_cast<size_t>(y.numel()) * sizeof(float));
    return y;
}

/** "stage.NN.<suffix>" with a two-digit stage index. */
std::string
stageMetric(size_t index, const char *suffix)
{
    char buf[48];
    std::snprintf(buf, sizeof buf, "stage.%02zu.%s", index, suffix);
    return buf;
}

} // namespace

StageTrace
traceStages(const FrozenModel &model, const Tensor &batch, int reps)
{
    const size_t n = model.stages().size();
    StageScratch traced_scratch, plain_scratch;
    std::vector<PassSample> samples;
    std::vector<double> sums, forwards;
    StageTrace out;
    out.rows = batch.dim(0);

    // One untimed pass of each first: scratch planes grow, tables load.
    PassSample warm(n);
    tracedForward(model, batch, traced_scratch, warm);
    model.forwardBatch(batch, plain_scratch);

    for (int rep = 0; rep < reps; ++rep) {
        PassSample sample(n);
        const Tensor traced =
            tracedForward(model, batch, traced_scratch, sample);
        const auto t0 = Clock::now();
        const Tensor plain = model.forwardBatch(batch, plain_scratch);
        forwards.push_back(microsBetween(t0, Clock::now()));
        if (!traced.equals(plain))
            out.output_matches = false;
        double sum = 0.0;
        for (double us : sample.us)
            sum += us;
        sums.push_back(sum);
        samples.push_back(std::move(sample));
    }

    auto perStage = [&](std::vector<double> PassSample::*field) {
        std::vector<double> result(n);
        for (size_t s = 0; s < n; ++s) {
            std::vector<double> values;
            for (const PassSample &sample : samples)
                values.push_back((sample.*field)[s]);
            result[s] = median(values);
        }
        return result;
    };
    out.us = perStage(&PassSample::us);
    out.encode_us = perStage(&PassSample::encode_us);
    out.gather_us = perStage(&PassSample::gather_us);
    out.table_bytes = perStage(&PassSample::table_bytes);
    out.stage_sum_us = median(sums);
    out.forward_us = median(forwards);
    return out;
}


void
addTraceMetrics(Result &result, const StageTrace &trace)
{
    double encode = 0.0, gather = 0.0, bytes = 0.0;
    for (size_t s = 0; s < trace.us.size(); ++s) {
        const double lut = trace.encode_us[s] + trace.gather_us[s];
        result.add(stageMetric(s, "us"), trace.us[s], "us");
        result.add(stageMetric(s, "encode_frac"),
                   lut > 0 ? trace.encode_us[s] / lut : 0.0, "ratio");
        encode += trace.encode_us[s];
        gather += trace.gather_us[s];
        bytes += trace.table_bytes[s];
    }
    const double rows = static_cast<double>(trace.rows);
    result.add("lutboost.encode_us_per_row", encode / rows, "us");
    result.add("lutboost.gather_us_per_row", gather / rows, "us");
    result.add("lutboost.gather_gbps",
               gather > 0 ? bytes / (gather * 1e-6) / 1e9 : 0.0, "GB/s");
    result.add("executor.forward_us_per_row", trace.forward_us / rows, "us");
    result.add("executor.trace_gap_frac",
               trace.forward_us > 0 ? trace.stage_sum_us / trace.forward_us
                                    : 0.0,
               "ratio");
    result.note("traced_batch_rows", rows);
    result.note("traced_stage_sum_us", trace.stage_sum_us);
    result.note("untraced_forward_us", trace.forward_us);
}

void
addSimShares(Result &result, const StageTrace &trace,
             const std::vector<lutdla::sim::GemmShape> &gemms, int64_t v,
             int64_t c)
{
    if (trace.us.size() != gemms.size())
        throw std::runtime_error(
            "sim shares need one lowered stage per traced GEMM");
    std::vector<lutdla::sim::GemmShape> served = gemms;
    for (auto &gemm : served)
        gemm.m = trace.rows;
    lutdla::sim::SimConfig config;
    config.v = v;
    config.c = c;
    const lutdla::sim::NetworkReport report = lutdla::sim::profileNetwork(
        lutdla::sim::LutDlaSimulator(config), served);

    double total = 0.0;
    for (double us : trace.us)
        total += us;
    double tvd = 0.0;
    for (size_t s = 0; s < report.layers.size(); ++s) {
        const double sim_share = report.layers[s].cycle_share;
        result.add(stageMetric(s, "sim_share"), sim_share, "ratio");
        tvd += std::abs(sim_share - (total > 0 ? trace.us[s] / total : 0));
    }
    result.add("sim.share_tvd", 0.5 * tvd, "ratio");
}

} // namespace perfbench
