#include "serve/stage.h"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "nn/activations.h"
#include "nn/norm.h"
#include "util/logging.h"
#include "vq/code_buffer.h"

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

} // namespace

void
applyPointwiseOps(const std::vector<PointwiseOp> &ops, float *data,
                  int64_t total)
{
    for (PointwiseOp op : ops) {
        if (op == PointwiseOp::Relu) {
            for (int64_t i = 0; i < total; ++i)
                data[i] = nn::reluForward(data[i]);
        } else {
            nn::geluForward(data, total);
        }
    }
}

LutBinding::LutBinding(
    const std::vector<const lutboost::LutTableArena *> &arenas,
    lutboost::TablePrecision table, lutboost::EncodePrecision encode)
    : backend_(table), encode_(encode)
{
    // The stage is one plan unit, so the encode choice is all-or-nothing
    // across its arenas (attention's four projections share metric and
    // geometry in practice, so this is not restrictive).
    for (const lutboost::LutTableArena *arena : arenas)
        if (!arena->int8EncodeSupported())
            encode_ = lutboost::EncodePrecision::Float32;
    for (const lutboost::LutTableArena *arena : arenas)
        banks_.push_back(
            {&arena->tableBank(table), &arena->encodeBank(encode_)});
}

int64_t
LutBinding::tableBytes() const
{
    int64_t bytes = 0;
    for (const lutboost::BankPair &banks : banks_)
        bytes += banks.table->tableBytes();
    return bytes;
}

int64_t
LutBinding::encodeBytes() const
{
    int64_t bytes = 0;
    for (const lutboost::BankPair &banks : banks_)
        bytes += banks.encode->tableBytes();
    return bytes;
}

int64_t
LutBinding::residentBytes() const
{
    int64_t bytes = 0;
    for (const lutboost::BankPair &banks : banks_)
        bytes += banks.table->arena().sizeBytes() + banks.residentBytes();
    return bytes;
}

std::string
LutBinding::describe(std::string base,
                     const std::vector<PointwiseOp> &epilogue) const
{
    // The default float/float32 plan adds nothing, so its strings stay
    // exactly as tests pin them.
    if (!backend_.bitExact())
        base += std::string("[") + backend_.name() + "]";
    if (encode_ == lutboost::EncodePrecision::Int8)
        base += "[enc:int8]";
    for (PointwiseOp op : epilogue)
        base += op == PointwiseOp::Relu ? "+relu" : "+gelu";
    return base;
}

void
FrozenStage::forward(const float *in, int64_t rows, float *out,
                     StageScratch &scratch) const
{
    // Adapter for in-place stages driven through the out-of-place entry
    // point (e.g. by callers without a reusable buffer chain).
    LUTDLA_CHECK(inPlace(), "stage '", kind(),
                 "' implements neither forward nor forwardInPlace");
    std::memcpy(out, in,
                static_cast<size_t>(rows * inWidth()) * sizeof(float));
    forwardInPlace(out, rows, scratch);
}

void
FrozenStage::forwardInPlace(float *, int64_t, StageScratch &) const
{
    panic("stage '", kind(), "' is not an in-place stage");
}

ArenaStage::ArenaStage(std::shared_ptr<const lutboost::LutTableArena> arena,
                       lutboost::TablePrecision table,
                       std::vector<PointwiseOp> epilogue,
                       int64_t adapt_in_width, int64_t shard_rows,
                       lutboost::EncodePrecision encode)
    : arena_(std::move(arena)),
      binding_({arena_.get()}, table, encode),
      epilogue_(std::move(epilogue)),
      adapt_in_(adapt_in_width),
      shard_rows_(shard_rows)
{
}

std::string
ArenaStage::description() const
{
    return binding_.describe(adapt_in_ > 0 ? "adapt+lut-gemm" : "lut-gemm",
                             epilogue_);
}

int64_t
ArenaStage::tileGranuleRows() const
{
    return backend().gatherGranuleRows(*arena_);
}

int64_t
ArenaStage::tileScratchBytesPerRow() const
{
    // Packed centroid codes the tile carries between encode and gather,
    // plus, when a width-adapt prologue was fused in, the K floats per
    // row the encode's cyclic view reads: nothing is staged, but a source
    // row narrower than K is re-read K / pitch times per tile, and
    // keeping the term holds the tile size that measured fastest.
    // Knowingly approximate for fused quantized tiles: they hand off one
    // chunk's [Nc, chunk] code bytes and [N, chunk] colmajor floats,
    // which do not grow with tile rows, instead of packed codes.
    const int64_t code_bits = vq::codeBitsFor(arena_->numCentroids());
    int64_t bytes = (arena_->numSubspaces() * code_bits + 7) / 8;
    if (adapt_in_ > 0)
        bytes += arena_->inFeatures() *
                 static_cast<int64_t>(sizeof(float));
    return bytes;
}

void
arenaGemmForward(const lutboost::BankPair &banks, const float *in,
                 int64_t rows, float *out, int64_t shard_rows,
                 const std::vector<PointwiseOp> &epilogue,
                 StageScratch &scratch, int64_t pitch)
{
    // Shard both phases over the serving worker pool when the batch is
    // big enough to split (rows are independent, so the sharded sweep is
    // bit-exact with the single-thread one). Phase timing stays on the
    // initiating worker only, so encode_ns / gather_ns deltas measure the
    // batch's per-phase WALL time regardless of how many workers helped.
    const auto t0 = Clock::now();
    const int64_t shard = shard_rows;
    const lutboost::LutTableArena &arena = banks.table->arena();
    const int64_t out_width = arena.outFeatures();
    const bool sharded =
        scratch.pool != nullptr && shard > 0 && rows >= 2 * shard;
    if (!sharded) {
        // The fused tile entry point: whole-batch execution is just the
        // one-tile case of the streaming executor's per-tile sweep.
        banks.forwardTile(in, rows, out, scratch.kernel, &scratch.encode_ns,
                          &scratch.gather_ns, pitch);
        const auto t1 = Clock::now();
        applyPointwiseOps(epilogue, out, rows * out_width);
        scratch.gather_ns += nanosSince(t1);
        return;
    }

    const int64_t blocks = (rows + shard - 1) / shard;
    vq::CodeBuffer &codes = scratch.kernel.codes;
    codes.reset(rows, arena.numSubspaces(), arena.numCentroids());
    scratch.pool->parallelFor(
        blocks,
        [&](int64_t block, StageScratch &local) {
            const int64_t r0 = block * shard;
            const int64_t rn = std::min(shard, rows - r0);
            banks.encode->encodeBlock(in, r0, rn, codes,
                                      local.kernel.encode, pitch);
        },
        scratch);
    scratch.encode_ns += nanosSince(t0);

    const auto t1 = Clock::now();
    scratch.pool->parallelFor(
        blocks,
        [&](int64_t block, StageScratch &local) {
            const int64_t r0 = block * shard;
            const int64_t rn = std::min(shard, rows - r0);
            banks.table->gather(codes, r0, rn, out, local.kernel.gather);
            // Epilogue per shard: elementwise, so shard boundaries cannot
            // change it, and the slab is still cache-hot.
            applyPointwiseOps(epilogue, out + r0 * out_width,
                              rn * out_width);
        },
        scratch);
    scratch.gather_ns += nanosSince(t1);
}

void
ArenaStage::forward(const float *in, int64_t rows, float *out,
                    StageScratch &scratch) const
{
    // A fused width-adapt prologue costs nothing here: the encode reads
    // the adapt_in_-wide rows in place through its cyclic view.
    arenaGemmForward(binding_.banks(), in, rows, out, shard_rows_,
                     epilogue_, scratch, adapt_in_);
}

ConvStage::ConvStage(ConvGeometry geom, int64_t height, int64_t width,
                     std::shared_ptr<const lutboost::LutTableArena> arena,
                     lutboost::TablePrecision table,
                     std::vector<PointwiseOp> epilogue,
                     lutboost::EncodePrecision encode)
    : geom_(geom), h_(height), w_(width), arena_(std::move(arena)),
      binding_({arena_.get()}, table, encode),
      epilogue_(std::move(epilogue))
{
}

std::string
ConvStage::description() const
{
    return binding_.describe("conv", epilogue_);
}

void
ConvStage::forward(const float *in, int64_t rows, float *out,
                   StageScratch &scratch) const
{
    lutboost::convArenaForward(binding_.banks(), geom_, in, rows, h_, w_,
                               out, scratch.conv, scratch.kernel,
                               &scratch.encode_ns, &scratch.gather_ns);
    if (!epilogue_.empty()) {
        // Elementwise, so it commutes with the NCHW reshape; applying it
        // on the final plane keeps it a single cache-hot sweep.
        const auto t1 = Clock::now();
        applyPointwiseOps(epilogue_, out, rows * outWidth());
        scratch.gather_ns += nanosSince(t1);
    }
}

void
PointwiseStage::forwardInPlace(float *data, int64_t rows,
                               StageScratch &) const
{
    applyPointwiseOps({op_}, data, rows * width_);
}

void
MaxPoolStage::forward(const float *in, int64_t rows, float *out,
                      StageScratch &) const
{
    nn::maxPool2dForward(in, rows, c_, h_, w_, k_, out, nullptr);
}

void
GlobalAvgPoolStage::forward(const float *in, int64_t rows, float *out,
                            StageScratch &) const
{
    nn::globalAvgPoolForward(in, rows, c_, h_, w_, out);
}

void
BatchNormStage::forwardInPlace(float *data, int64_t rows,
                               StageScratch &) const
{
    nn::batchNorm2dEval(data, rows, static_cast<int64_t>(mean_.size()),
                        h_ * w_, mean_.data(), var_.data(), gamma_.data(),
                        beta_.data(), eps_, data);
}

void
LayerNormStage::forwardInPlace(float *data, int64_t rows,
                               StageScratch &) const
{
    nn::layerNormForward(data, rows, inWidth(), gamma_.data(), beta_.data(),
                         eps_, data, nullptr, nullptr);
}

void
WidthAdaptStage::forward(const float *in, int64_t rows, float *out,
                         StageScratch &) const
{
    for (int64_t r = 0; r < rows; ++r) {
        const float *src = in + r * in_;
        float *dst = out + r * out_;
        if (out_ > in_) {
            for (int64_t j = 0; j < out_; j += in_)
                std::memcpy(dst + j, src,
                            static_cast<size_t>(std::min(in_, out_ - j)) *
                                sizeof(float));
        } else {
            std::memcpy(dst, src, static_cast<size_t>(out_) *
                                      sizeof(float));
        }
    }
}

} // namespace lutdla::serve
