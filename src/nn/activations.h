#ifndef LUTDLA_NN_ACTIVATIONS_H
#define LUTDLA_NN_ACTIVATIONS_H

/**
 * @file
 * Pointwise activations and shape plumbing layers. In the accelerator these
 * map onto the IMM's element-wise/dequant path (Sec. IV-A); in software they
 * are exact.
 */

#include "nn/layer.h"
#include "util/cpu_features.h"

namespace lutdla::nn {

/**
 * @name Shared float math (nn/simd_math.cc)
 *
 * One definition each, shared by the eval layers and the serving stages,
 * so the engine's bit-exactness contract holds by construction. Each runs
 * one template body per SIMD tier (generic scalar, AVX2, AVX-512) with
 * separate IEEE mul/add (never FMA), so every tier returns the same bits
 * and none depends on the C math library. `level` defaults to the
 * runtime-dispatched tier (util::simdLevel(), LUTDLA_SIMD cap included);
 * tests force each tier, which must not exceed util::simdLevel().
 * @{
 */

/**
 * Deterministic e^x over `n` floats: Cody-Waite range reduction, a
 * polynomial, and an exact 2^n scale. Within 1 ulp of the correctly
 * rounded result over the whole float range, denormal results
 * included; overflows to +inf past FLT_MAX, NaN in gives NaN out.
 * In-place operation (y == x) is allowed.
 */
void expForward(const float *x, int64_t n, float *y,
                util::SimdLevel level = util::simdLevel());

/**
 * In-place tanh-approximation GELU (as in BERT) over `n` floats, as
 * 0.5 x (1 + tanh u) == x / (1 + e^(-2u)), u = sqrt(2/pi) (x + 0.044715
 * x^3), with e^ from expForward. GELU::forward and the serving layer's
 * fused epilogues both run it.
 */
void geluForward(float *data, int64_t n,
                 util::SimdLevel level = util::simdLevel());

/** Scalar ReLU; the single definition ReLU::forward and serving share. */
inline float
reluForward(float x)
{
    return x > 0.0f ? x : 0.0f;
}

/**
 * Raw NCHW max-pool kernel (stride == kernel, floor division), shared by
 * MaxPool2d::forward and the serving layer's pooling stage so both paths
 * are one definition and therefore bit-exact.
 *
 * @param x      Input [n, c, h, w], row-major contiguous.
 * @param y      Output [n, c, h/kernel, w/kernel], caller-allocated.
 * @param argmax When non-null, receives the flat input index of each
 *               output's winning element (training needs it for backward;
 *               serving passes nullptr).
 */
void maxPool2dForward(const float *x, int64_t n, int64_t c, int64_t h,
                      int64_t w, int64_t kernel, float *y, int64_t *argmax);

/**
 * Raw NCHW global-average-pool kernel, shared by GlobalAvgPool::forward
 * and the serving layer's pooling stage (single definition, bit-exact).
 * `y` is the caller-allocated [n, c] output.
 */
void globalAvgPoolForward(const float *x, int64_t n, int64_t c, int64_t h,
                          int64_t w, float *y);

/**
 * Numerically stable row-wise softmax: y[r, :] = softmax(x[r, :]), with
 * the row max (NaN skipped, from -inf) subtracted before exponentiation
 * so logits anywhere in float range (|x| ~ 1e4 and beyond, or all below
 * -1e30) never overflow exp. Each row's denominator is summed in
 * ascending column order. Single definition shared by Softmax::forward,
 * MultiHeadSelfAttention's probability rows, and the serving layer's
 * SoftmaxStage. In-place operation (y == x) is allowed.
 */
void softmaxForward(const float *x, int64_t rows, int64_t features,
                    float *y, util::SimdLevel level = util::simdLevel());

/** @} */

/** max(0, x). */
class ReLU : public Layer
{
  public:
    std::string name() const override { return "ReLU"; }
    Tensor forward(const Tensor &x, bool train) override;
    Tensor backward(const Tensor &grad_out) override;

  private:
    Tensor mask_;
};

/** Gaussian error linear unit (tanh approximation, as in BERT). */
class GELU : public Layer
{
  public:
    std::string name() const override { return "GELU"; }
    Tensor forward(const Tensor &x, bool train) override;
    Tensor backward(const Tensor &grad_out) override;

  private:
    Tensor cached_input_;
};

/** Row-wise softmax over [N, C] (stable; see softmaxForward). */
class Softmax : public Layer
{
  public:
    std::string name() const override { return "Softmax"; }
    Tensor forward(const Tensor &x, bool train) override;
    Tensor backward(const Tensor &grad_out) override;

  private:
    Tensor probs_;
};

/** Collapse NCHW to [N, C*H*W] for classifier heads. */
class Flatten : public Layer
{
  public:
    std::string name() const override { return "Flatten"; }
    Tensor forward(const Tensor &x, bool train) override;
    Tensor backward(const Tensor &grad_out) override;

  private:
    Shape input_shape_;
};

/** Non-overlapping max pooling with stride == kernel. */
class MaxPool2d : public Layer
{
  public:
    explicit MaxPool2d(int64_t kernel) : kernel_(kernel) {}

    std::string name() const override { return "MaxPool2d"; }
    Tensor forward(const Tensor &x, bool train) override;
    Tensor backward(const Tensor &grad_out) override;

    /** Pooling window (== stride); the serving lowering pass reads it. */
    int64_t kernel() const { return kernel_; }

  private:
    int64_t kernel_;
    Shape input_shape_;
    std::vector<int64_t> argmax_;
};

/** Global average pooling: NCHW -> [N, C]. */
class GlobalAvgPool : public Layer
{
  public:
    std::string name() const override { return "GlobalAvgPool"; }
    Tensor forward(const Tensor &x, bool train) override;
    Tensor backward(const Tensor &grad_out) override;

  private:
    Shape input_shape_;
};

} // namespace lutdla::nn

#endif // LUTDLA_NN_ACTIVATIONS_H
