#include "lutboost/table_arena.h"

#include <algorithm>

#include "util/logging.h"
#include "vq/quant.h"

namespace lutdla::lutboost {

LutTableArena::LutTableArena(const vq::ProductQuantizer &pq,
                             vq::LookupTable lut, const Tensor *bias,
                             bool bf16_inputs)
    : in_features_(pq.featureDim()),
      out_features_(lut.outDim()),
      subvector_len_(pq.config().v),
      num_centroids_(pq.config().c),
      num_subspaces_(pq.numSubspaces()),
      metric_(pq.config().metric),
      bf16_inputs_(bf16_inputs),
      has_bias_(bias != nullptr)
{
    LUTDLA_CHECK(pq.trained(), "arena needs a trained quantizer");
    LUTDLA_CHECK(lut.numSubspaces() == num_subspaces_ &&
                     lut.numCentroids() == num_centroids_,
                 "quantizer/table geometry mismatch in LutTableArena");
    if (bias)
        LUTDLA_CHECK(bias->numel() == out_features_,
                     "bias width ", bias->numel(), " != N ", out_features_);

    // Codebooks land transposed ([v, c] per subspace): the encode kernel
    // walks centroids contiguously for a fixed subvector element.
    codebooks_.resize(static_cast<size_t>(num_subspaces_ * num_centroids_ *
                                          subvector_len_));
    for (int64_t s = 0; s < num_subspaces_; ++s) {
        const Tensor &cb = pq.codebook(s);
        float *dst = codebooks_.data() + s * num_centroids_ * subvector_len_;
        for (int64_t j = 0; j < num_centroids_; ++j)
            for (int64_t t = 0; t < subvector_len_; ++t)
                dst[t * num_centroids_ + j] = cb.at(j, t);
    }
    table_ = std::move(lut).takeTable();
    if (has_bias_)
        bias_.assign(bias->data(), bias->data() + out_features_);
}

int64_t
LutTableArena::sourceBytes() const
{
    return (num_subspaces_ * num_centroids_ *
                (subvector_len_ + out_features_) +
            (has_bias_ ? out_features_ : 0)) *
           static_cast<int64_t>(sizeof(float));
}

bool
LutTableArena::int8EncodeSupported() const
{
    // The integer score norm - 2 * dot is bounded by
    // v * (127^2 + 2 * 127 * 128); capping v keeps it inside int32 — every
    // realistic PQ subvector is orders of magnitude shorter.
    return metric_ == vq::Metric::L2 && subvector_len_ <= 32768;
}

const TableBank &
LutTableArena::tableBank(TablePrecision precision) const
{
    const auto i = static_cast<size_t>(precision);
    if (frozen_) {
        LUTDLA_CHECK(table_banks_[i] != nullptr, "the ",
                     tablePrecisionName(precision),
                     " table bank is gone: the deployment freeze kept only "
                     "the bank its plan bound");
        return *table_banks_[i];
    }
    std::call_once(table_once_[i], [&] {
        table_banks_[i] = makeTableBank(*this, precision);
        table_built_[i].store(true, std::memory_order_release);
    });
    return *table_banks_[i];
}

bool
LutTableArena::tableBankBuilt(TablePrecision precision) const
{
    return table_built_[static_cast<size_t>(precision)].load(
        std::memory_order_acquire);
}

const EncodeBank &
LutTableArena::encodeBank(EncodePrecision precision) const
{
    const auto i = static_cast<size_t>(precision);
    if (frozen_) {
        LUTDLA_CHECK(encode_banks_[i] != nullptr, "the ",
                     encodePrecisionName(precision),
                     " encode bank is gone: the deployment freeze kept "
                     "only the bank its plan bound");
        return *encode_banks_[i];
    }
    std::call_once(encode_once_[i], [&] {
        encode_banks_[i] = makeEncodeBank(*this, precision);
        encode_built_[i].store(true, std::memory_order_release);
    });
    return *encode_banks_[i];
}

bool
LutTableArena::encodeBankBuilt(EncodePrecision precision) const
{
    return encode_built_[static_cast<size_t>(precision)].load(
        std::memory_order_acquire);
}

void
LutTableArena::freeze(TablePrecision table, EncodePrecision encode)
{
    LUTDLA_CHECK(!frozen_, "the arena is already frozen");
    LUTDLA_CHECK(tableBankBuilt(table) && encodeBankBuilt(encode),
                 "freeze keeps the bound banks; build them first");
    for (size_t i = 0; i < 3; ++i)
        if (i != static_cast<size_t>(table)) {
            table_banks_[i].reset();
            table_built_[i].store(false, std::memory_order_release);
        }
    for (size_t i = 0; i < 2; ++i)
        if (i != static_cast<size_t>(encode)) {
            encode_banks_[i].reset();
            encode_built_[i].store(false, std::memory_order_release);
        }
    // swap, not clear(): clear() keeps the capacity allocated.
    if (table != TablePrecision::Float32)
        std::vector<float>().swap(table_);
    if (encode != EncodePrecision::Float32)
        std::vector<float>().swap(codebooks_);
    frozen_ = true;
}

const float *
LutTableArena::subspaceRows(const float *x, int64_t rows, int64_t pitch,
                            int64_t s, EncodeScratch &scratch,
                            int64_t &stride) const
{
    const int64_t v = subvector_len_;
    const int64_t base = s * v;
    const int64_t offset = base % pitch;
    if (base + v <= in_features_ && offset + v <= pitch) {
        stride = pitch;
        return x + offset;
    }
    // A subspace that wraps the source row, or the ragged tail: gather it
    // through the cyclic view, zero past K.
    scratch.padded.assign(static_cast<size_t>(rows * v), 0.0f);
    const int64_t width = std::min(v, in_features_ - base);
    for (int64_t i = 0; i < rows; ++i) {
        const float *row = x + i * pitch;
        float *dst = scratch.padded.data() + i * v;
        for (int64_t t = 0, col = offset; t < width; ++t) {
            dst[t] = row[col];
            col = col + 1 == pitch ? 0 : col + 1;
        }
    }
    stride = v;
    return scratch.padded.data();
}

const float *
LutTableArena::stageInputs(const float *x, int64_t rows, int64_t pitch,
                           EncodeScratch &scratch) const
{
    if (!bf16_inputs_)
        return x;
    scratch.staging.assign(x, x + rows * pitch);
    for (float &value : scratch.staging)
        value = vq::toBf16(value);
    return scratch.staging.data();
}

void
LutTableArena::addBias(float *yb, int64_t bn) const
{
    if (!has_bias_)
        return;
    const int64_t n = out_features_;
    const float *__restrict__ bias = bias_.data();
    for (int64_t r = 0; r < bn; ++r) {
        float *__restrict__ yr = yb + r * n;
        for (int64_t col = 0; col < n; ++col)
            yr[col] += bias[col];
    }
}

void
LutTableArena::forwardBatch(const float *x, int64_t rows, float *y) const
{
    vq::CodeBuffer codes;
    EncodeScratch encode_scratch;
    GatherScratch gather_scratch;
    encodeBank(EncodePrecision::Float32)
        .encodeBatch(x, rows, codes, encode_scratch);
    tableBank(TablePrecision::Float32)
        .gather(codes, 0, rows, y, gather_scratch);
}

Tensor
LutTableArena::forwardBatch(const Tensor &x) const
{
    LUTDLA_CHECK(x.rank() == 2 && x.dim(1) == in_features_,
                 "LutTableArena expects [rows, ", in_features_, "], got ",
                 shapeStr(x.shape()));
    Tensor y(Shape{x.dim(0), out_features_});
    forwardBatch(x.data(), x.dim(0), y.data());
    return y;
}

} // namespace lutdla::lutboost
