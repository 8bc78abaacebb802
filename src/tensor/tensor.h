#ifndef LUTDLA_TENSOR_TENSOR_H
#define LUTDLA_TENSOR_TENSOR_H

/**
 * @file
 * Dense float tensor used across the library.
 *
 * Row-major, contiguous, up to 4 dimensions (enough for NCHW activations,
 * weight matrices, and attention tensors). The LUT-DLA code paths only need
 * float32; reduced-precision effects (BF16/INT8 LUT entries) are modelled by
 * explicit quantize/dequantize helpers in vq/quant.h rather than by storage
 * types.
 */

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace lutdla {

/** Shape of a tensor: a small vector of dimension sizes. */
using Shape = std::vector<int64_t>;

/** Render a shape as "[a, b, c]" for error messages. */
std::string shapeStr(const Shape &shape);

/** Number of elements a shape spans. */
int64_t shapeNumel(const Shape &shape);

/**
 * A dense row-major float tensor.
 *
 * Cheap to copy semantically (deep copy); all hot loops take raw pointers
 * via data() so there is no abstraction penalty in kernels.
 */
class Tensor
{
  public:
    /** Empty tensor (rank 0, no storage). */
    Tensor() = default;

    /** Allocate a zero-initialized tensor of the given shape. */
    explicit Tensor(Shape shape);

    /** Allocate and fill with a constant. */
    Tensor(Shape shape, float fill_value);

    /** Wrap existing data (copied) with a shape. */
    Tensor(Shape shape, std::vector<float> data);

    /** The tensor's shape. */
    const Shape &shape() const { return shape_; }

    /** Number of dimensions. */
    int64_t rank() const { return static_cast<int64_t>(shape_.size()); }

    /** Size along dimension `d` (negative indexes from the back). */
    int64_t dim(int64_t d) const;

    /** Total number of elements. */
    int64_t numel() const { return static_cast<int64_t>(data_.size()); }

    /** Raw storage access. */
    float *data() { return data_.data(); }
    const float *data() const { return data_.data(); }

    /** Move the storage out without a copy, leaving an empty tensor. */
    std::vector<float>
    takeData() &&
    {
        shape_.clear();
        return std::move(data_);
    }

    /** Flat element access with bounds check in debug builds. */
    float &at(int64_t i) { return data_[static_cast<size_t>(i)]; }
    float at(int64_t i) const { return data_[static_cast<size_t>(i)]; }

    /** 2-D element access for matrices (row-major). */
    float &
    at(int64_t r, int64_t c)
    {
        return data_[static_cast<size_t>(r * shape_[1] + c)];
    }
    float
    at(int64_t r, int64_t c) const
    {
        return data_[static_cast<size_t>(r * shape_[1] + c)];
    }

    /** 4-D element access for NCHW tensors. */
    float &at4(int64_t n, int64_t c, int64_t h, int64_t w);
    float at4(int64_t n, int64_t c, int64_t h, int64_t w) const;

    /** Reinterpret with a new shape of identical numel. */
    Tensor reshaped(Shape new_shape) const;

    /** Fill with a constant. */
    void fill(float value);

    /** Set all elements to zero. */
    void zero() { fill(0.0f); }

    /** Elementwise in-place operations. */
    Tensor &operator+=(const Tensor &rhs);
    Tensor &operator-=(const Tensor &rhs);
    Tensor &operator*=(float s);

    /** Elementwise binary operations (shapes must match). */
    Tensor operator+(const Tensor &rhs) const;
    Tensor operator-(const Tensor &rhs) const;

    /** Sum of all elements. */
    double sum() const;

    /** Mean of all elements (0 for empty). */
    double mean() const;

    /** Squared L2 norm of all elements. */
    double squaredNorm() const;

    /** Max absolute element. */
    float absMax() const;

    /** 2-D transpose (rank must be 2). */
    Tensor transposed2d() const;

    /** Extract row `r` of a matrix as a rank-1 tensor. */
    Tensor row(int64_t r) const;

    /** True when shapes and all elements match exactly. */
    bool equals(const Tensor &rhs) const;

    /** Max |a-b| across elements; shapes must match. */
    static float maxAbsDiff(const Tensor &a, const Tensor &b);

    /** Relative Frobenius error ||a-b|| / max(||b||, eps). */
    static double relError(const Tensor &a, const Tensor &b);

  private:
    Shape shape_;
    std::vector<float> data_;
};

} // namespace lutdla

#endif // LUTDLA_TENSOR_TENSOR_H
