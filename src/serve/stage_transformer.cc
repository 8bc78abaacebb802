#include "serve/stage_transformer.h"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "nn/activations.h"
#include "nn/attention.h"
#include "util/logging.h"

namespace lutdla::serve {

namespace {

using Clock = std::chrono::steady_clock;

uint64_t
nanosSince(Clock::time_point start)
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count());
}

/** Size a skip slot's plane, growing the slot vector on first use. */
std::vector<float> &
skipPlane(StageScratch &scratch, int64_t slot, int64_t total)
{
    if (static_cast<size_t>(slot) >= scratch.skip.size())
        scratch.skip.resize(static_cast<size_t>(slot) + 1);
    std::vector<float> &plane = scratch.skip[static_cast<size_t>(slot)];
    if (plane.size() < static_cast<size_t>(total))
        plane.resize(static_cast<size_t>(total));
    return plane;
}

} // namespace

std::string
SkipSaveStage::description() const
{
    return "skip-save#" + std::to_string(slot_);
}

void
SkipSaveStage::forwardInPlace(float *data, int64_t rows,
                              StageScratch &scratch) const
{
    const int64_t total = rows * width_;
    std::vector<float> &plane = skipPlane(scratch, slot_, total);
    std::memcpy(plane.data(), data,
                static_cast<size_t>(total) * sizeof(float));
}

std::string
ResidualAddStage::description() const
{
    return "residual-add#" + std::to_string(slot_);
}

void
ResidualAddStage::forwardInPlace(float *data, int64_t rows,
                                 StageScratch &scratch) const
{
    const int64_t total = rows * width_;
    LUTDLA_CHECK(static_cast<size_t>(slot_) < scratch.skip.size() &&
                     scratch.skip[static_cast<size_t>(slot_)].size() >=
                         static_cast<size_t>(total),
                 "residual-add slot ", slot_,
                 " has no saved plane of ", total,
                 " floats; SkipSaveStage must precede it");
    const float *saved = scratch.skip[static_cast<size_t>(slot_)].data();
    for (int64_t i = 0; i < total; ++i)
        data[i] += saved[i];
}

void
SoftmaxStage::forwardInPlace(float *data, int64_t rows,
                             StageScratch &) const
{
    nn::softmaxForward(data, rows, width_, data);
}

namespace {

/** The four projection arenas in Q, K, V, O order; checked non-null. */
std::vector<const lutboost::LutTableArena *>
projectionArenas(const AttentionStage::Arenas &arenas)
{
    LUTDLA_CHECK(arenas.q && arenas.k && arenas.v && arenas.o,
                 "AttentionStage needs all four projection arenas");
    return {arenas.q.get(), arenas.k.get(), arenas.v.get(),
            arenas.o.get()};
}

} // namespace

AttentionStage::AttentionStage(Arenas arenas, int64_t seq_len,
                               int64_t heads, lutboost::TablePrecision table,
                               std::vector<PointwiseOp> epilogue,
                               int64_t shard_rows,
                               lutboost::EncodePrecision encode)
    : arenas_(std::move(arenas)), seq_len_(seq_len), heads_(heads),
      d_model_(arenas_.q ? arenas_.q->outFeatures() : 0),
      binding_(projectionArenas(arenas_), table, encode),
      epilogue_(std::move(epilogue)), shard_rows_(shard_rows)
{
    LUTDLA_CHECK(seq_len_ >= 1, "seq_len must be >= 1");
    LUTDLA_CHECK(heads_ >= 1 && d_model_ % heads_ == 0,
                 "heads must divide d_model");
}

std::string
AttentionStage::description() const
{
    return binding_.describe("attention(h" + std::to_string(heads_) +
                                 ",t" + std::to_string(seq_len_) + ")",
                             epilogue_);
}

void
AttentionStage::forward(const float *in, int64_t rows, float *out,
                        StageScratch &scratch) const
{
    LUTDLA_CHECK(rows % seq_len_ == 0, "attention batch of ", rows,
                 " rows is not a multiple of seq_len ", seq_len_,
                 "; the engine admits whole sequences only");
    const int64_t total = rows * d_model_;
    scratch.attn_q.resize(static_cast<size_t>(total));
    scratch.attn_k.resize(static_cast<size_t>(total));
    scratch.attn_v.resize(static_cast<size_t>(total));
    scratch.attn_ctx.resize(static_cast<size_t>(total));

    // Three projection LUT-GEMMs into the worker's attention planes; the
    // shared arena body shards them over rows exactly like ArenaStage.
    static const std::vector<PointwiseOp> kNoEpilogue;
    arenaGemmForward(binding_.banks(0), in, rows,
                     scratch.attn_q.data(), shard_rows_, kNoEpilogue,
                     scratch);
    arenaGemmForward(binding_.banks(1), in, rows,
                     scratch.attn_k.data(), shard_rows_, kNoEpilogue,
                     scratch);
    arenaGemmForward(binding_.banks(2), in, rows,
                     scratch.attn_v.data(), shard_rows_, kNoEpilogue,
                     scratch);

    // Scaled-dot-product core: the shared eval kernel per sequence, into
    // a zeroed context plane. Sequences are independent, so sharding over
    // them is bit-exact (disjoint context rows); each participant brings
    // its own probability plane. Charged to the gather phase.
    const auto t0 = Clock::now();
    std::fill(scratch.attn_ctx.begin(),
              scratch.attn_ctx.begin() + static_cast<size_t>(total), 0.0f);
    const int64_t sequences = rows / seq_len_;
    const int64_t probs_floats = heads_ * seq_len_ * seq_len_;
    const int64_t keys_t_floats = d_model_ * seq_len_;
    const float *q = scratch.attn_q.data();
    const float *k = scratch.attn_k.data();
    const float *v = scratch.attn_v.data();
    float *ctx = scratch.attn_ctx.data();
    const auto run_sequence = [&](int64_t b, StageScratch &local) {
        local.attn_probs.resize(
            static_cast<size_t>(probs_floats + keys_t_floats));
        float *probs = local.attn_probs.data();
        const int64_t off = b * seq_len_ * d_model_;
        nn::attentionSequenceContext(q + off, k + off, v + off, seq_len_,
                                     heads_, d_model_, ctx + off, probs,
                                     probs + probs_floats);
    };
    if (scratch.pool != nullptr && sequences >= 2) {
        scratch.pool->parallelFor(sequences, run_sequence, scratch);
    } else {
        for (int64_t b = 0; b < sequences; ++b)
            run_sequence(b, scratch);
    }
    scratch.gather_ns += nanosSince(t0);

    // Output projection (with any fused epilogue) into the stage output.
    arenaGemmForward(binding_.banks(3), ctx, rows, out, shard_rows_,
                     epilogue_, scratch);
}

} // namespace lutdla::serve
