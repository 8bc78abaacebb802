#include "vq/code_buffer.h"

#include <algorithm>

#include "util/logging.h"

namespace lutdla::vq {

int
codeBitsFor(int64_t num_centroids)
{
    if (num_centroids <= 16)
        return 4;
    if (num_centroids <= 256)
        return 8;
    return 16;
}

void
CodeBuffer::reset(int64_t rows, int64_t subspaces, int64_t num_centroids)
{
    LUTDLA_CHECK(rows >= 0 && subspaces >= 1,
                 "CodeBuffer needs rows >= 0 and subspaces >= 1");
    LUTDLA_CHECK(num_centroids >= 1 && num_centroids <= 65536,
                 "CodeBuffer supports up to 65536 centroids, got ",
                 num_centroids);
    rows_ = rows;
    subspaces_ = subspaces;
    bits_ = codeBitsFor(num_centroids);
    stride_ = (subspaces * bits_ + 7) / 8;
    data_.assign(static_cast<size_t>(rows_ * stride_), 0);
}

void
CodeBuffer::setPlane(int64_t row0, int64_t s,
                     const uint8_t *__restrict__ plane, int64_t n)
{
    const int64_t stride = stride_;
    switch (bits_) {
      case 4: {
        uint8_t *out = data_.data() + row0 * stride + (s >> 1);
        const int shift = (s & 1) ? 4 : 0;
        const auto keep = static_cast<uint8_t>(~(0xF << shift));
        for (int64_t i = 0; i < n; ++i)
            out[i * stride] = static_cast<uint8_t>(
                (out[i * stride] & keep) | ((plane[i] & 0xF) << shift));
        return;
      }
      case 8: {
        uint8_t *out = data_.data() + row0 * stride + s;
        for (int64_t i = 0; i < n; ++i)
            out[i * stride] = plane[i];
        return;
      }
      default: {
        uint8_t *out = data_.data() + row0 * stride + 2 * s;
        for (int64_t i = 0; i < n; ++i) {
            out[i * stride] = plane[i];
            out[i * stride + 1] = 0;
        }
        return;
      }
    }
}

void
CodeBuffer::unpackRow(int64_t row, int32_t *out) const
{
    const uint8_t *base = data_.data() + row * stride_;
    switch (bits_) {
      case 4: {
        const int64_t pairs = subspaces_ / 2;
        for (int64_t p = 0; p < pairs; ++p) {
            const uint8_t byte = base[p];
            out[2 * p] = byte & 0xF;
            out[2 * p + 1] = byte >> 4;
        }
        if (subspaces_ & 1)
            out[subspaces_ - 1] = base[pairs] & 0xF;
        return;
      }
      case 8:
        for (int64_t s = 0; s < subspaces_; ++s)
            out[s] = base[s];
        return;
      default:
        for (int64_t s = 0; s < subspaces_; ++s)
            out[s] = static_cast<int32_t>(base[2 * s]) |
                     (static_cast<int32_t>(base[2 * s + 1]) << 8);
        return;
    }
}

void
CodeBuffer::unpackRows(int64_t row0, int64_t n, int32_t *out) const
{
    LUTDLA_CHECK(row0 >= 0 && row0 + n <= rows_,
                 "CodeBuffer::unpackRows range [", row0, ", ", row0 + n,
                 ") exceeds ", rows_, " rows");
    for (int64_t i = 0; i < n; ++i)
        unpackRow(row0 + i, out + i * subspaces_);
}

void
CodeBuffer::unpackPlanar(int64_t row0, int64_t n, uint8_t *out,
                         int64_t stride) const
{
    LUTDLA_CHECK(row0 >= 0 && row0 + n <= rows_,
                 "CodeBuffer::unpackPlanar range [", row0, ", ", row0 + n,
                 ") exceeds ", rows_, " rows");
    LUTDLA_CHECK(bits_ <= 8,
                 "planar unpack carries one byte per code; bits() is ",
                 bits_);
    if (stride == 0)
        stride = n;
    LUTDLA_CHECK(stride >= n, "planar stride ", stride, " < ", n, " rows");
    if (bits_ == 4) {
        for (int64_t i = 0; i < n; ++i) {
            const uint8_t *base = data_.data() + (row0 + i) * stride_;
            const int64_t pairs = subspaces_ / 2;
            for (int64_t p = 0; p < pairs; ++p) {
                const uint8_t byte = base[p];
                out[(2 * p) * stride + i] = byte & 0xF;
                out[(2 * p + 1) * stride + i] = byte >> 4;
            }
            if (subspaces_ & 1)
                out[(subspaces_ - 1) * stride + i] = base[pairs] & 0xF;
        }
        return;
    }
    for (int64_t i = 0; i < n; ++i) {
        const uint8_t *base = data_.data() + (row0 + i) * stride_;
        for (int64_t s = 0; s < subspaces_; ++s)
            out[s * stride + i] = base[s];
    }
}

} // namespace lutdla::vq
