#ifndef PERFBENCH_TRACED_H
#define PERFBENCH_TRACED_H

/**
 * @file
 * The traced pass: drives a FrozenModel's stages one call at a time from
 * the benchmark, on the executor's own schedule (tiled segments stream
 * tile by tile through all their stages; barrier stages run on the full
 * batch), and times every call. Nothing inside the library is
 * instrumented. Also places the measured per-stage shares next to the
 * LUT-DLA cycle model's per-layer shares for the same GEMMs.
 */

#include <cstdint>
#include <vector>

#include "common.h"
#include "serve/frozen_model.h"
#include "sim/config.h"

namespace perfbench {

/** Medians over the traced repetitions of one batch. */
struct StageTrace
{
    int64_t rows = 0;                ///< rows in the traced batch
    std::vector<double> us;          ///< per stage, us per batch
    std::vector<double> encode_us;   ///< per stage, encode-phase us
    std::vector<double> gather_us;   ///< per stage, gather-phase us
    /** Per stage, table bytes streamed per batch, COMPUTED as the
     * stage's tableBytes() times its gather sweeps (one sweep per gather
     * granule of GEMM rows in each call). */
    std::vector<double> table_bytes;
    double stage_sum_us = 0.0;       ///< traced stage sum per batch
    double forward_us = 0.0;         ///< untraced forwardBatch per batch
    bool output_matches = true;      ///< traced output == forwardBatch
};

/**
 * Trace `reps` single-threaded passes of `batch` through `model`,
 * interleaved with untraced single-threaded forwardBatch calls of the
 * same batch.
 */
StageTrace traceStages(const lutdla::serve::FrozenModel &model,
                       const lutdla::Tensor &batch, int reps);

/**
 * Add the per-stage and kernel/executor per-layer metrics of `trace`:
 * stage.NN.us, stage.NN.encode_frac, lutboost.encode_us_per_row,
 * lutboost.gather_us_per_row, lutboost.gather_gbps,
 * executor.forward_us_per_row and executor.trace_gap_frac.
 */
void addTraceMetrics(Result &result, const StageTrace &trace);

/**
 * Add stage.NN.sim_share (the cycle model's LayerReport::cycle_share
 * for `gemms` with m set to the traced batch's rows) and sim.share_tvd,
 * the total-variation distance between those shares and the measured
 * stage.NN.us shares. Stage i must be the LUT stage of gemms[i].
 */
void addSimShares(Result &result, const StageTrace &trace,
                  const std::vector<lutdla::sim::GemmShape> &gemms,
                  int64_t v, int64_t c);

} // namespace perfbench

#endif // PERFBENCH_TRACED_H
