#ifndef LUTDLA_VQ_LUT_H
#define LUTDLA_VQ_LUT_H

/**
 * @file
 * Precomputed lookup tables and LUT-based approximate GEMM
 * (Fig. 2 steps 2-4: precompute, compare similarity, lookup & accumulate).
 *
 * This is the bit-exact software-functional model of what the IMM hardware
 * executes; the cycle simulator in src/sim reuses it for result checking.
 */

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"
#include "vq/pq.h"
#include "vq/quant.h"

namespace lutdla::vq {

/** Precision options mirroring the paper's BF16 + INT8 study (Table IV). */
struct LutPrecision
{
    bool bf16_similarity = false;  ///< round inputs/centroids to BF16 in CCM
    bool int8_entries = false;     ///< store LUT psums as symmetric INT8

    /** Bytes per stored LUT entry under these options. */
    int64_t entryBytes() const { return int8_entries ? 1 : 4; }
};

/**
 * The PSum LUT: for subspace s, centroid j, output column n it stores
 *   lut[s][j][n] = sum_t centroids[s][j][t] * W[s*v + t][n].
 */
class LookupTable
{
  public:
    /**
     * Precompute the table from a trained quantizer and weight matrix.
     *
     * @param pq        Trained product quantizer over K.
     * @param weights   [K, N] weight matrix.
     * @param precision Storage precision options.
     */
    LookupTable(const ProductQuantizer &pq, const Tensor &weights,
                LutPrecision precision = {});

    /** Output width N. */
    int64_t outDim() const { return out_dim_; }

    /** Number of subspaces Nc. */
    int64_t numSubspaces() const { return num_subspaces_; }

    /** Centroids per codebook c. */
    int64_t numCentroids() const { return num_centroids_; }

    /** Raw table [Nc, c, N] (already dequantized if int8_entries). */
    const Tensor &table() const { return table_; }

    /** Move the raw table's [Nc * c * N] floats out without a copy. */
    std::vector<float> takeTable() && { return std::move(table_).takeData(); }

    /** One table row: psums for (subspace s, centroid j), length N. */
    const float *entry(int64_t s, int64_t j) const;

    /** Total stored size in bytes under the precision options. */
    int64_t sizeBytes() const;

    /**
     * Lookup-accumulate a full output matrix.
     *
     * @param codes Row-major [M, Nc] indices from ProductQuantizer::encode.
     * @param m     Number of rows M.
     * @return [M, N] approximate product.
     */
    Tensor lookupGemm(const std::vector<int32_t> &codes, int64_t m) const;

  private:
    int64_t out_dim_;
    int64_t num_subspaces_;
    int64_t num_centroids_;
    LutPrecision precision_;
    Tensor table_;
};

/**
 * End-to-end approximate matmul engine: owns a quantizer + table and
 * replaces C = A * W with encode + lookup.
 */
class LutGemmEngine
{
  public:
    /**
     * Build the engine.
     *
     * @param config    VQ hyperparameters (v, c, metric).
     * @param weights   [K, N] weights, captured by copy.
     * @param samples   [n, K] calibration rows used to train codebooks.
     * @param precision Precision options.
     */
    LutGemmEngine(PQConfig config, const Tensor &weights,
                  const Tensor &samples, LutPrecision precision = {});

    /** Approximate A([M, K]) * W. */
    Tensor matmul(const Tensor &a) const;

    /** Exact product for error measurement. */
    Tensor exactMatmul(const Tensor &a) const;

    /** Relative Frobenius error of the approximation on `a`. */
    double approximationError(const Tensor &a) const;

    const ProductQuantizer &quantizer() const { return pq_; }
    const LookupTable &lut() const { return lut_; }

  private:
    ProductQuantizer pq_;
    Tensor weights_;
    LutPrecision precision_;
    LookupTable lut_;
};

} // namespace lutdla::vq

#endif // LUTDLA_VQ_LUT_H
