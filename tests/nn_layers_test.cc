/**
 * @file
 * Gradient and behaviour tests for every NN layer. Gradients are checked
 * against central finite differences through a random linear functional of
 * the layer output.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "nn/activations.h"
#include "nn/attention.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/norm.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"
#include "util/rng.h"

namespace lutdla::nn {
namespace {

Tensor
randomTensor(const Shape &shape, uint64_t seed, double std = 1.0)
{
    Tensor t(shape);
    Rng rng(seed);
    for (int64_t i = 0; i < t.numel(); ++i)
        t.at(i) = static_cast<float>(rng.gaussian(0.0, std));
    return t;
}

/** loss(x) = sum(layer(x) .* r); returns analytic dloss/dx via backward. */
double
lossOf(Layer &layer, const Tensor &x, const Tensor &r)
{
    Tensor y = layer.forward(x, true);
    double loss = 0.0;
    for (int64_t i = 0; i < y.numel(); ++i)
        loss += static_cast<double>(y.at(i)) * r.at(i);
    return loss;
}

/** Max relative error between analytic and numeric input gradients. */
double
checkInputGradient(Layer &layer, Tensor x, const Shape &out_shape,
                   uint64_t seed, double eps = 1e-2)
{
    Tensor r = randomTensor(out_shape, seed);
    (void)lossOf(layer, x, r);
    Tensor analytic = layer.backward(r);

    double worst = 0.0;
    for (int64_t i = 0; i < x.numel(); ++i) {
        const float orig = x.at(i);
        x.at(i) = orig + static_cast<float>(eps);
        const double lp = lossOf(layer, x, r);
        x.at(i) = orig - static_cast<float>(eps);
        const double lm = lossOf(layer, x, r);
        x.at(i) = orig;
        const double numeric = (lp - lm) / (2.0 * eps);
        const double denom =
            std::max({std::fabs(numeric), std::fabs(
                          static_cast<double>(analytic.at(i))), 1e-2});
        worst = std::max(
            worst, std::fabs(numeric - analytic.at(i)) / denom);
    }
    return worst;
}

/** Same check for one parameter tensor. */
double
checkParamGradient(Layer &layer, const Tensor &x, Parameter &param,
                   const Shape &out_shape, uint64_t seed,
                   double eps = 1e-2)
{
    Tensor r = randomTensor(out_shape, seed);
    param.zeroGrad();
    (void)lossOf(layer, x, r);
    (void)layer.backward(r);
    Tensor analytic = param.grad;

    double worst = 0.0;
    for (int64_t i = 0; i < param.value.numel(); ++i) {
        const float orig = param.value.at(i);
        param.value.at(i) = orig + static_cast<float>(eps);
        const double lp = lossOf(layer, x, r);
        param.value.at(i) = orig - static_cast<float>(eps);
        const double lm = lossOf(layer, x, r);
        param.value.at(i) = orig;
        const double numeric = (lp - lm) / (2.0 * eps);
        const double denom =
            std::max({std::fabs(numeric), std::fabs(
                          static_cast<double>(analytic.at(i))), 1e-2});
        worst = std::max(
            worst, std::fabs(numeric - analytic.at(i)) / denom);
    }
    return worst;
}

TEST(Linear, ForwardMatchesManual)
{
    Linear lin(2, 2, true, 1);
    lin.weight().value = Tensor(Shape{2, 2}, std::vector<float>{1, 2, 3, 4});
    lin.bias().value = Tensor(Shape{2}, std::vector<float>{10, 20});
    Tensor x(Shape{1, 2}, std::vector<float>{1, 1});
    Tensor y = lin.forward(x, false);
    EXPECT_FLOAT_EQ(y.at(0, 0), 14.0f);
    EXPECT_FLOAT_EQ(y.at(0, 1), 26.0f);
}

TEST(Linear, InputGradient)
{
    Linear lin(5, 4, true, 2);
    Tensor x = randomTensor({3, 5}, 3);
    EXPECT_LT(checkInputGradient(lin, x, {3, 4}, 4), 2e-2);
}

TEST(Linear, WeightAndBiasGradients)
{
    Linear lin(4, 3, true, 5);
    Tensor x = randomTensor({2, 4}, 6);
    EXPECT_LT(checkParamGradient(lin, x, lin.weight(), {2, 3}, 7), 2e-2);
    EXPECT_LT(checkParamGradient(lin, x, lin.bias(), {2, 3}, 8), 2e-2);
}

TEST(Conv2d, InputGradient)
{
    ConvGeometry g;
    g.in_channels = 2;
    g.out_channels = 3;
    g.kernel = 3;
    g.padding = 1;
    Conv2d conv(g, true, 9);
    Tensor x = randomTensor({2, 2, 4, 4}, 10);
    EXPECT_LT(checkInputGradient(conv, x, {2, 3, 4, 4}, 11), 2e-2);
}

TEST(Conv2d, WeightGradient)
{
    ConvGeometry g;
    g.in_channels = 1;
    g.out_channels = 2;
    g.kernel = 3;
    g.stride = 2;
    g.padding = 1;
    Conv2d conv(g, true, 12);
    Tensor x = randomTensor({1, 1, 6, 6}, 13);
    EXPECT_LT(checkParamGradient(conv, x, conv.weight(), {1, 2, 3, 3}, 14),
              2e-2);
}

TEST(ReLU, ForwardAndGradient)
{
    ReLU relu;
    Tensor x(Shape{1, 4}, std::vector<float>{-1, 2, -3, 4});
    Tensor y = relu.forward(x, true);
    EXPECT_EQ(y.at(0), 0.0f);
    EXPECT_EQ(y.at(1), 2.0f);
    Tensor g = relu.backward(Tensor(Shape{1, 4}, 1.0f));
    EXPECT_EQ(g.at(0), 0.0f);
    EXPECT_EQ(g.at(3), 1.0f);
}

TEST(GELU, Gradient)
{
    GELU gelu;
    Tensor x = randomTensor({2, 6}, 15);
    EXPECT_LT(checkInputGradient(gelu, x, {2, 6}, 16), 2e-2);
}

TEST(GELU, KnownValues)
{
    GELU gelu;
    Tensor x(Shape{1, 6}, std::vector<float>{0.0f, 3.0f, -3.0f, 1.0f,
                                              -20.0f, 20.0f});
    Tensor y = gelu.forward(x, false);
    EXPECT_NEAR(y.at(0), 0.0f, 1e-6f);
    EXPECT_NEAR(y.at(1), 2.996f, 5e-3f);
    EXPECT_NEAR(y.at(2), -0.00364f, 1e-5f);
    EXPECT_NEAR(y.at(3), 0.8412f, 1e-4f);
    EXPECT_EQ(y.at(4), 0.0f);
    EXPECT_EQ(y.at(5), 20.0f);
}

TEST(GELU, ForwardIsTheSharedSpanKernel)
{
    // GELU::forward and the serving epilogue both run geluForward's span.
    GELU gelu;
    const Tensor x = randomTensor({3, 37}, 18, 3.0);
    Tensor span = x;
    geluForward(span.data(), span.numel());
    EXPECT_TRUE(gelu.forward(x, false).equals(span));
}

TEST(MaxPool2d, ForwardAndGradient)
{
    MaxPool2d pool(2);
    Tensor x(Shape{1, 1, 2, 2}, std::vector<float>{1, 5, 3, 2});
    Tensor y = pool.forward(x, true);
    EXPECT_EQ(y.at(0), 5.0f);
    Tensor g = pool.backward(Tensor(Shape{1, 1, 1, 1}, 2.0f));
    EXPECT_EQ(g.at4(0, 0, 0, 1), 2.0f);
    EXPECT_EQ(g.at4(0, 0, 0, 0), 0.0f);
}

TEST(GlobalAvgPool, ForwardAndGradient)
{
    GlobalAvgPool pool;
    Tensor x = randomTensor({2, 3, 4, 4}, 17);
    EXPECT_LT(checkInputGradient(pool, x, {2, 3}, 18), 2e-2);
}

TEST(BatchNorm2d, NormalizesTrainingBatch)
{
    BatchNorm2d bn(2);
    Tensor x = randomTensor({4, 2, 3, 3}, 19, 5.0);
    Tensor y = bn.forward(x, true);
    // Per-channel mean ~0, var ~1.
    for (int64_t c = 0; c < 2; ++c) {
        double mean = 0.0, var = 0.0;
        for (int64_t n = 0; n < 4; ++n)
            for (int64_t h = 0; h < 3; ++h)
                for (int64_t w = 0; w < 3; ++w)
                    mean += y.at4(n, c, h, w);
        mean /= 36.0;
        for (int64_t n = 0; n < 4; ++n)
            for (int64_t h = 0; h < 3; ++h)
                for (int64_t w = 0; w < 3; ++w)
                    var += std::pow(y.at4(n, c, h, w) - mean, 2);
        var /= 36.0;
        EXPECT_NEAR(mean, 0.0, 1e-4);
        EXPECT_NEAR(var, 1.0, 1e-2);
    }
}

TEST(BatchNorm2d, InputGradient)
{
    BatchNorm2d bn(2);
    Tensor x = randomTensor({3, 2, 2, 2}, 20);
    EXPECT_LT(checkInputGradient(bn, x, {3, 2, 2, 2}, 21), 3e-2);
}

TEST(LayerNorm, InputGradient)
{
    LayerNorm ln(6);
    Tensor x = randomTensor({4, 6}, 22);
    EXPECT_LT(checkInputGradient(ln, x, {4, 6}, 23), 3e-2);
}

TEST(LayerNorm, NormalizesRows)
{
    LayerNorm ln(8);
    Tensor x = randomTensor({2, 8}, 24, 3.0);
    Tensor y = ln.forward(x, false);
    for (int64_t r = 0; r < 2; ++r) {
        double mean = 0.0;
        for (int64_t j = 0; j < 8; ++j)
            mean += y.at(r, j);
        EXPECT_NEAR(mean / 8.0, 0.0, 1e-4);
    }
}

TEST(Attention, OutputShapeAndGradient)
{
    MultiHeadSelfAttention attn(4, 8, 2, 25);
    Tensor x = randomTensor({8, 8}, 26);  // B=2, T=4, D=8
    Tensor y = attn.forward(x, true);
    EXPECT_EQ(y.dim(0), 8);
    EXPECT_EQ(y.dim(1), 8);
    EXPECT_LT(checkInputGradient(attn, x, {8, 8}, 27), 4e-2);
}

TEST(TransformerBlock, GradientFlowsThroughResiduals)
{
    TransformerBlock block(4, 8, 2, 16, 28);
    Tensor x = randomTensor({4, 8}, 29);  // B=1
    EXPECT_LT(checkInputGradient(block, x, {4, 8}, 30), 5e-2);
}

TEST(Sequential, ChainsAndBackprops)
{
    auto seq = std::make_shared<Sequential>();
    seq->add(std::make_shared<Linear>(4, 8, true, 31));
    seq->add(std::make_shared<ReLU>());
    seq->add(std::make_shared<Linear>(8, 2, true, 32));
    Tensor x = randomTensor({3, 4}, 33);
    EXPECT_LT(checkInputGradient(*seq, x, {3, 2}, 34), 2e-2);
    EXPECT_EQ(collectParameters(seq).size(), 4u);
}

TEST(ResidualBlock, IdentitySkipGradient)
{
    auto main = std::make_shared<Sequential>();
    main->add(std::make_shared<Linear>(6, 6, true, 35));
    ResidualBlock block(main);
    Tensor x = randomTensor({2, 6}, 36);
    EXPECT_LT(checkInputGradient(block, x, {2, 6}, 37), 2e-2);
}

TEST(Loss, SoftmaxCrossEntropyKnownValue)
{
    SoftmaxCrossEntropy loss;
    Tensor logits(Shape{1, 2}, std::vector<float>{0.0f, 0.0f});
    const double l = loss.forward(logits, {0});
    EXPECT_NEAR(l, std::log(2.0), 1e-6);
    Tensor g = loss.backward();
    EXPECT_NEAR(g.at(0, 0), -0.5f, 1e-6f);
    EXPECT_NEAR(g.at(0, 1), 0.5f, 1e-6f);
}

TEST(Softmax, FiniteLogitsBelowMinusOneE30Regression)
{
    // The row max used to start at -1e30, so a row of finite logits all
    // below it subtracted the wrong max, every exp underflowed to 0, and
    // 0 / 0 gave NaN. It starts at -inf now.
    Tensor x(Shape{1, 3}, std::vector<float>{-2e30f, -3e30f, -2e30f});
    Tensor y(Shape{1, 3});
    softmaxForward(x.data(), 1, 3, y.data());
    EXPECT_EQ(y.at(0, 0), 0.5f);
    EXPECT_EQ(y.at(0, 1), 0.0f);
    EXPECT_EQ(y.at(0, 2), 0.5f);
}

TEST(Loss, SoftmaxCrossEntropyFiniteBelowMinusOneE30Regression)
{
    // Same -1e30 row-max start as softmaxForward had: the loss was NaN.
    SoftmaxCrossEntropy loss;
    Tensor logits(Shape{1, 3}, std::vector<float>{-2e30f, -3e30f, -2e30f});
    EXPECT_NEAR(loss.forward(logits, {0}), std::log(2.0), 1e-6);
    Tensor g = loss.backward();
    EXPECT_NEAR(g.at(0, 0), -0.5f, 1e-6f);
    EXPECT_NEAR(g.at(0, 1), 0.0f, 1e-6f);
    EXPECT_NEAR(g.at(0, 2), 0.5f, 1e-6f);
}

TEST(Loss, Accuracy)
{
    Tensor logits(Shape{2, 3},
                  std::vector<float>{1, 5, 2, 9, 0, 1});
    EXPECT_DOUBLE_EQ(accuracy(logits, {1, 0}), 1.0);
    EXPECT_DOUBLE_EQ(accuracy(logits, {0, 0}), 0.5);
}

TEST(Optimizer, SgdDescendsQuadratic)
{
    // Minimize f(w) = (w - 3)^2 by hand-fed gradients.
    Parameter w("w", Tensor(Shape{1}));
    Sgd sgd({&w}, 0.1, 0.0, 0.0);
    for (int i = 0; i < 200; ++i) {
        w.zeroGrad();
        w.grad.at(0) = 2.0f * (w.value.at(0) - 3.0f);
        sgd.step();
    }
    EXPECT_NEAR(w.value.at(0), 3.0f, 1e-3f);
}

TEST(Optimizer, AdamDescendsQuadratic)
{
    Parameter w("w", Tensor(Shape{1}));
    Adam adam({&w}, 0.1);
    for (int i = 0; i < 500; ++i) {
        w.zeroGrad();
        w.grad.at(0) = 2.0f * (w.value.at(0) - 3.0f);
        adam.step();
    }
    EXPECT_NEAR(w.value.at(0), 3.0f, 1e-2f);
}

} // namespace
} // namespace lutdla::nn
