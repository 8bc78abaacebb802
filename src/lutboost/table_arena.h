#ifndef LUTDLA_LUTBOOST_TABLE_ARENA_H
#define LUTDLA_LUTBOOST_TABLE_ARENA_H

/**
 * @file
 * LutTableArena: one frozen LUT layer's float source — per-subspace
 * codebooks, the precomputed PSum table and the bias, each in its own
 * flat buffer — plus one lazily built table bank and encode bank per
 * precision (lutboost/table_bank.h).
 *
 * Rationale: LutLinear's training-time state scatters the tables the
 * inference path needs across several heap objects (one Tensor per codebook
 * inside ProductQuantizer, a separate table Tensor inside LookupTable, the
 * bias parameter). Serving wants the opposite: everything the gather loop
 * touches in one flat table so a batch of rows sweeps each subspace's table
 * bank while it is hot in L1/L2, instead of chasing per-layer allocations
 * row by row. The arena is immutable after construction (the banks are
 * built once each under std::call_once), which is what makes its kernels
 * safe to call from many threads at once.
 *
 * The arena owns the geometry and the float source; everything that runs
 * on it is a bank. tableBank(p) / encodeBank(p) build the bank of one
 * precision for the running SIMD tier on first use. Tests and benches that
 * compare tiers build their own banks with makeTableBank / makeEncodeBank.
 *
 * Deployment freeze: once a plan has bound its (table, encode) pair, the
 * quantized banks read nothing from the float PSum table, and the INT8
 * encode bank reads nothing from the codebooks. freeze() keeps only the
 * bound pair and releases the float buffers no bound bank reads (the bias
 * always stays), one way: a LUT accelerator's table memory holds the
 * quantized partial sums, never the float tables they came from.
 *
 * Numerics contract: `forwardBatch` (the float encode bank + float table
 * bank) is bit-exact with the reference eval-mode path in
 * LutLinear::forward (encode with the same argminCentroid, accumulate
 * partial sums in ascending subspace order into a zero-initialized
 * output, add the bias last). Tests enforce this.
 */

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "lutboost/table_bank.h"
#include "tensor/tensor.h"
#include "vq/code_buffer.h"
#include "vq/distance.h"
#include "vq/lut.h"
#include "vq/pq.h"

namespace lutdla::lutboost {

/** One frozen LUT layer's float source and banks. Immutable, except for
 * the one-way freeze(). */
class LutTableArena
{
  public:
    /**
     * Pack a trained quantizer + precomputed lookup table (+ optional bias)
     * into the arena.
     *
     * @param pq          Trained quantizer; codebooks are copied as-is, so
     *                    any BF16 rounding must already be applied.
     * @param lut         Precomputed PSum table over the same quantizer
     *                    (already INT8-round-tripped when requested); the
     *                    arena takes its buffer, so pass an rvalue to skip
     *                    the copy.
     * @param bias        Optional [N] bias added after accumulation; may be
     *                    null.
     * @param bf16_inputs When true, input rows are rounded to BF16 before
     *                    encoding, mirroring LutPrecision::bf16_similarity.
     */
    LutTableArena(const vq::ProductQuantizer &pq, vq::LookupTable lut,
                  const Tensor *bias, bool bf16_inputs);

    /** Input width K this layer consumes. */
    int64_t inFeatures() const { return in_features_; }

    /** Output width N this layer produces. */
    int64_t outFeatures() const { return out_features_; }

    /** Number of subspaces Nc = ceil(K / v). */
    int64_t numSubspaces() const { return num_subspaces_; }

    /** Centroids per codebook c. */
    int64_t numCentroids() const { return num_centroids_; }

    /** Subvector length v. */
    int64_t subvectorLen() const { return subvector_len_; }

    /** True when inputs are rounded to BF16 before encoding. */
    bool bf16Inputs() const { return bf16_inputs_; }

    /** True when a bias row is packed into the arena. */
    bool hasBias() const { return has_bias_; }

    /** Bytes of the float source the arena still holds (codebooks +
     * PSum table + bias, less what freeze() released). */
    int64_t sizeBytes() const
    {
        return static_cast<int64_t>(
            (codebooks_.size() + table_.size() + bias_.size()) *
            sizeof(float));
    }

    /** Bytes of the whole float source as built, freeze or not: the float
     * table bank's canonical traffic. */
    int64_t sourceBytes() const;

    /** Distance metric the encode argmin uses. */
    vq::Metric metric() const { return metric_; }

    /** True when this arena can serve INT8 encode at all (L2 metric). */
    bool int8EncodeSupported() const;

    /**
     * The table bank of `precision`, built for the running SIMD tier on
     * first use (once, thread-safe) and kept for the arena's lifetime. The
     * planner calls this at lowering time so serving never pays the
     * build.
     */
    const TableBank &tableBank(TablePrecision precision) const;

    /** The encode bank of `precision`, built like tableBank(). Int8
     * requires int8EncodeSupported(). */
    const EncodeBank &encodeBank(EncodePrecision precision) const;

    /** True once tableBank(`precision`) has been built. Banks build
     * lazily and independently, so a plan pays the memory of exactly
     * the banks it reads. */
    bool tableBankBuilt(TablePrecision precision) const;

    /** True once encodeBank(`precision`) has been built. */
    bool encodeBankBuilt(EncodePrecision precision) const;

    /**
     * Deployment freeze, one way: keep only the (`table`, `encode`) bank
     * pair (both must be built) and release every other bank, the float
     * PSum table unless `table` is Float32, and the codebooks unless
     * `encode` is Float32. The bias stays. The released buffers are
     * really freed, so sizeBytes() drops. Afterwards tableBank() /
     * encodeBank() of any other precision panics. Not thread-safe: call
     * it before the arena serves, with no other bank user alive.
     */
    void freeze(TablePrecision table, EncodePrecision encode);

    /** True once freeze() has run. */
    bool frozen() const { return frozen_; }

    // ---- Raw views of the float source, for the banks -----------------

    /**
     * Codebook of subspace `s`, stored TRANSPOSED as [v, c] so the encode
     * kernel's inner loop runs contiguously over centroids (SIMD-friendly)
     * instead of strided over subvector elements.
     */
    const float *
    codebookT(int64_t s) const
    {
        return codebooks_.data() + s * num_centroids_ * subvector_len_;
    }

    /** PSum table row of (subspace s, centroid j): N floats. */
    const float *
    entry(int64_t s, int64_t j) const
    {
        return table_.data() + (s * num_centroids_ + j) * out_features_;
    }

    /** Add the packed bias row to `bn` output rows (no-op without bias). */
    void addBias(float *yb, int64_t bn) const;

    /** BF16-round rows [0, rows) of `x` into scratch.staging when the
     * arena demands it; returns the rows the encode kernels read. */
    const float *stageInputs(const float *x, int64_t rows,
                             EncodeScratch &scratch) const;

    /**
     * Rows of subspace `s` as the encode kernels read them: in place
     * (stride K) for a full subspace, or — for the ragged tail of
     * K % v != 0 — zero-padded into scratch.padded ([rows, v], stride v),
     * exactly like ProductQuantizer::extractSubvector.
     */
    const float *subspaceRows(const float *x, int64_t rows, int64_t s,
                              EncodeScratch &scratch,
                              int64_t &stride) const;

    /**
     * Batched lookup-accumulate: y[rows, N] = gather(x) + bias, through
     * the float encode bank and the float table bank. The gather runs in
     * kRowBlock-row blocks and, within a block, walks subspace-major so
     * one codebook's table rows stay cache-resident across the whole
     * block. Thread-safe; `x` and `y` must not alias.
     */
    void forwardBatch(const float *x, int64_t rows, float *y) const;

    /** Tensor-typed convenience wrapper over the raw kernel. */
    Tensor forwardBatch(const Tensor &x) const;

    /** Rows per internal block of the batched kernel. */
    static constexpr int64_t kRowBlock = 256;

    /** Subspace banks folded per output-slab sweep in the grouped path. */
    static constexpr int64_t kSubspaceGroup = 8;

    /** Minimum block rows before the grouped sweep beats the simple one. */
    static constexpr int64_t kTileMinRows = 8;

    /**
     * Output columns sharing one INT8 dequantization scale. Wide enough
     * that the per-block scale handling amortizes over many vector
     * iterations of the gather inner loop — at 32 the broadcasts
     * dominated the pre-shuffle sweep and the INT8 path measured ~0.7x
     * the float sweep; at 128 it wins even when the float bank is
     * LLC-resident.
     */
    static constexpr int64_t kInt8BlockCols = 128;

    /**
     * Subspaces sharing one INT8 scale (per output block). Grouping is
     * what lets both gather paths accumulate exact int16/int32 partial
     * sums across the group before a single dequantizing mul + add: 16
     * entries of |q| <= 127 sum to <= 2032, comfortably inside int16.
     */
    static constexpr int64_t kInt8ScaleGroup = 16;

    /** Symmetric INT8 range: entries clamp to [-127, 127] (scale =
     * max_abs / 127). */
    static constexpr int64_t kInt8MaxLevel = 127;

    /**
     * Output columns sharing one INT4 scale. Same geometry as the INT8
     * bank — kept even so a packed column pair never straddles a scale
     * block (2p and 2p+1 always share a block when the width is even),
     * which lets every kernel dequantize a whole pair with one scale.
     */
    static constexpr int64_t kInt4BlockCols = kInt8BlockCols;

    /**
     * Subspaces sharing one INT4 scale (per output block). 16 bias-
     * shifted nibbles of <= 15 sum to <= 240, so the shuffle kernels sum
     * a whole group in uint8 lanes (a static_assert beside them pins
     * this) before the single bias-correcting subtract + dequantizing
     * mul + add per group.
     */
    static constexpr int64_t kInt4ScaleGroup = kInt8ScaleGroup;

    /**
     * Symmetric INT4 range: entries clamp to [-7, 7] (scale =
     * max_abs / 7) and are stored bias-shifted by +8 as unsigned
     * nibbles 1..15; nibble 8 is the exact zero the padding uses.
     */
    static constexpr int64_t kInt4MaxLevel = 7;

  private:
    int64_t in_features_;
    int64_t out_features_;
    int64_t subvector_len_;
    int64_t num_centroids_;
    int64_t num_subspaces_;
    vq::Metric metric_;
    bool bf16_inputs_;
    bool has_bias_;
    bool frozen_ = false;
    std::vector<float> codebooks_;  ///< [Nc, v, c] transposed codebooks
    std::vector<float> table_;      ///< [Nc, c, N] float PSum table
    std::vector<float> bias_;       ///< [N], empty without bias

    // One lazily built bank per precision: logically-immutable caches,
    // each built at most once under its flag (the planner triggers them
    // eagerly). Independent — a plan serving only one precision never
    // materializes another bank. freeze() resets every unbound one.
    mutable std::once_flag table_once_[3];
    mutable std::unique_ptr<TableBank> table_banks_[3];
    mutable std::atomic<bool> table_built_[3] = {};
    mutable std::once_flag encode_once_[2];
    mutable std::unique_ptr<EncodeBank> encode_banks_[2];
    mutable std::atomic<bool> encode_built_[2] = {};
};

} // namespace lutdla::lutboost

#endif // LUTDLA_LUTBOOST_TABLE_ARENA_H
