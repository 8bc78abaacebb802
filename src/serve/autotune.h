#ifndef LUTDLA_SERVE_AUTOTUNE_H
#define LUTDLA_SERVE_AUTOTUNE_H

/**
 * @file
 * Per-stage mixed-precision auto-tuner for the serving data plane: the
 * serving-side sibling of the co-design search engine (dse/search.h,
 * Algorithm 2). Where the DSE walks the (v, c) grid under an accuracy
 * probe, this walks the JOINT per-stage (table, encode) precision space
 * — assigning each LUT stage float32, INT8, or INT4 gather tables AND
 * float32 or INT8 encode arithmetic under a top-1 agreement budget
 * measured against the all-float32 plan.
 *
 * Algorithm (greedy bytes-saved-per-accuracy-lost descent):
 *  1. Replan the model all-float32 and record the reference top-1 labels
 *     over a deterministic Gaussian probe batch (the same top-1
 *     agreement harness the serving tests pin).
 *  2. Score every single-stage move (stage i -> INT8 tables, stage i ->
 *     INT4 tables, stage i -> INT8 encode) in isolation: bytes saved
 *     (gather stream + encode stream together — one currency, since
 *     both phases pull their tables through the same cache) and
 *     agreement lost vs the reference.
 *  3. Apply moves in descending bytes-saved-per-agreement-lost order,
 *     re-measuring the COMBINED plan after each application and
 *     reverting any move that drops agreement below the budget (stale
 *     single-move scores order the walk; the combined re-measure is
 *     what enforces the constraint, exactly like Algorithm 2's
 *     expand-then-check loop). Table and encode moves compete in one
 *     ranking, so a stage may quantize either phase, both, or neither.
 *
 * Encode moves on stages whose arena cannot carry the INT8 encode bank
 * (non-L2 metric) resolve to Float32 and save zero bytes, so the
 * descent skips them structurally — no special-casing.
 *
 * Cost: ~6L probe forwards for L LUT stages. Candidate replans share
 * every arena with the input model (FrozenModel::withPlan), so each
 * (arena, precision) bank is quantized at most once across the whole
 * search. The tuner is deterministic: seeded probe rows, stable sort
 * with index tie-breaks, no wall-clock or host dependence beyond the
 * kernel dispatch (which cannot change the measured top-1 labels
 * because every tier of a bank is bit-identical).
 *
 * Surfaced through api::ServeOptions::autoTunePrecision(budget); the
 * chosen assignment lands in PlanOptions::stage_precision +
 * stage_encode_precision and is therefore visible in planSummary() /
 * describe().
 */

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "serve/frozen_model.h"
#include "serve/plan.h"

namespace lutdla::serve {

/** Knobs for the precision auto-tuner; defaults match the serving
 * tests' 90% top-1 agreement bar. */
struct AutoTuneOptions
{
    /** Minimum top-1 agreement (fraction of probe rows whose argmax
     * matches the all-float32 plan) the tuned plan must keep. */
    double agreement_budget = 0.90;
    /** Probe rows to measure agreement over (rounded up to the model's
     * rowGroup so attention models see whole sequences). */
    int64_t probe_rows = 256;
    /** Seed for the deterministic Gaussian probe batch. */
    uint64_t seed = 17;
    /** Consider the INT4 bank (else the search is float32/INT8 only). */
    bool allow_int4 = true;
    /** Consider INT8 encode moves (else the search walks the table axis
     * only, reproducing the pre-joint tuner exactly). */
    bool allow_int8_encode = true;
};

/** One scored single-stage move, kept for reports and tests. */
struct AutoTuneMove
{
    int64_t lut_stage = 0;        ///< LUT stage index in chain order
    /** Table precision this move binds (table moves only). */
    TablePrecision precision = TablePrecision::Float32;
    /** True for an encode move (stage -> INT8 encode); `precision` is
     * then unused and the move leaves the stage's tables alone. */
    bool encode_move = false;
    int64_t bytes_saved = 0;      ///< vs the all-float32 plan
    double solo_agreement = 1.0;  ///< agreement with only this move
    bool applied = false;         ///< survived the combined re-measure
};

/** Auto-tuner output: the per-stage assignment plus how it was won. */
struct AutoTuneResult
{
    /** Per-LUT-stage precision in chain order — drop into
     * PlanOptions::stage_precision. */
    std::vector<TablePrecision> stage_precision;
    /** Per-LUT-stage encode precision in chain order — drop into
     * PlanOptions::stage_encode_precision. All-Float32 when
     * allow_int8_encode is off or no encode move survived. */
    std::vector<EncodePrecision> stage_encode_precision;
    /** Combined top-1 agreement of the final assignment. */
    double agreement = 1.0;
    /** Gather-stream table bytes of the final plan. */
    int64_t table_bytes = 0;
    /** Encode-stream bytes of the final plan (the other half of the
     * descent's byte currency). */
    int64_t encode_bytes = 0;
    /** Probe forwards spent (the search's cost meter). */
    int64_t evals = 0;
    /** Every move the search scored, in application order. */
    std::vector<AutoTuneMove> moves;

    /** Compact human-readable table assignment, e.g.
     * "int8/int4/float32" (table axis only — benches pin this). */
    std::string assignmentString() const;

    /** Compact encode assignment, e.g. "int8/float32/int8". */
    std::string encodeAssignmentString() const;
};

/**
 * Agreement probe: fraction in [0, 1] of probe rows whose top-1 output
 * matches the all-float32 reference under `plan`. Patterned on
 * dse::AccuracyProbe so tests can inject a synthetic landscape; the
 * default harness forwards the shared probe batch through
 * FrozenModel::withPlan(plan).
 */
using AgreementProbe = std::function<double(const PlanOptions &plan)>;

/**
 * Run the greedy descent over `model` starting from `base` (whose
 * fusion / sharding knobs are preserved; its precision fields are
 * overwritten per candidate). The returned stage_precision has exactly
 * model.numLutStages() entries. Models without LUT stages return an
 * empty assignment with agreement 1.
 *
 * `probe` overrides the built-in top-1 harness when provided (tests);
 * production callers omit it.
 */
AutoTuneResult autoTunePrecision(const FrozenModel &model,
                                 const PlanOptions &base,
                                 const AutoTuneOptions &options = {},
                                 AgreementProbe probe = nullptr);

} // namespace lutdla::serve

#endif // LUTDLA_SERVE_AUTOTUNE_H
