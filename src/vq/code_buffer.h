#ifndef LUTDLA_VQ_CODE_BUFFER_H
#define LUTDLA_VQ_CODE_BUFFER_H

/**
 * @file
 * CodeBuffer: bit-packed storage for the per-subspace centroid indices the
 * encode phase produces and the gather phase consumes.
 *
 * LUT-DLA's whole premise is that a frozen activation is an *extreme
 * low-bit* object: one ceil(log2 c)-bit index per subspace. Storing those
 * indices as int32 (as the original fused kernel did) wastes 2-8x the
 * bytes the hardware would move between the CCM (encode) and IMM (gather)
 * units. CodeBuffer commits to the packed layout: the code width is chosen
 * from the centroid count (4, 8, or 16 bits), rows are byte-aligned so
 * concurrent writers never share a row, and packing is lossless — tests
 * sweep awkward shapes (c not a power of two, single rows, ragged
 * subspace counts) and require exact round-trips.
 *
 * Layout: row-major; within a row, code `s` occupies bits
 * [s*bits, (s+1)*bits) little-endian (4-bit codes pack low nibble first).
 * Each row starts on a byte boundary (`rowStrideBytes`).
 */

#include <cstdint>
#include <vector>

namespace lutdla::vq {

/** Packed bits per code for a codebook of `num_centroids` entries: 4 when
 * the index fits a nibble, 8 when it fits a byte, 16 otherwise. */
int codeBitsFor(int64_t num_centroids);

/** Bit-packed [rows, subspaces] matrix of centroid indices. */
class CodeBuffer
{
  public:
    CodeBuffer() = default;

    /**
     * Size the buffer for `rows` x `subspaces` codes addressing
     * `num_centroids` centroids (chooses the packed width) and zero it.
     * Reuses capacity across calls, so per-batch resets do not allocate
     * once the buffer has grown to the largest batch seen.
     */
    void reset(int64_t rows, int64_t subspaces, int64_t num_centroids);

    /** Rows currently stored. */
    int64_t rows() const { return rows_; }

    /** Codes per row. */
    int64_t subspaces() const { return subspaces_; }

    /** Packed bits per code (4, 8, or 16). */
    int bits() const { return bits_; }

    /** Bytes one packed row occupies (rows are byte-aligned). */
    int64_t rowStrideBytes() const { return stride_; }

    /** Total packed payload bytes (rows * rowStrideBytes). */
    int64_t sizeBytes() const { return rows_ * stride_; }

    /** Store code `value` for (row, s); value must fit bits(). */
    void
    set(int64_t row, int64_t s, int32_t value)
    {
        uint8_t *base = data_.data() + row * stride_;
        switch (bits_) {
          case 4: {
            uint8_t &byte = base[s >> 1];
            const int shift = (s & 1) ? 4 : 0;
            byte = static_cast<uint8_t>(
                (byte & ~(0xF << shift)) | ((value & 0xF) << shift));
            return;
          }
          case 8:
            base[s] = static_cast<uint8_t>(value);
            return;
          default:
            base[2 * s] = static_cast<uint8_t>(value & 0xFF);
            base[2 * s + 1] = static_cast<uint8_t>((value >> 8) & 0xFF);
            return;
        }
    }

    /**
     * Store one subspace plane: plane[i] becomes the code of (row0 + i,
     * s) for i in [0, n). Same bits as n set() calls, with the width
     * switch taken once per plane instead of once per code.
     */
    void setPlane(int64_t row0, int64_t s, const uint8_t *plane, int64_t n);

    /** Read back the code for (row, s). */
    int32_t
    get(int64_t row, int64_t s) const
    {
        const uint8_t *base = data_.data() + row * stride_;
        switch (bits_) {
          case 4:
            return (base[s >> 1] >> ((s & 1) ? 4 : 0)) & 0xF;
          case 8:
            return base[s];
          default:
            return static_cast<int32_t>(base[2 * s]) |
                   (static_cast<int32_t>(base[2 * s + 1]) << 8);
        }
    }

    /** Unpack one row's codes into `out` (subspaces() entries). */
    void unpackRow(int64_t row, int32_t *out) const;

    /**
     * Unpack rows [row0, row0 + n) into `out` ([n, subspaces] row-major
     * int32) — the gather sweeps run on unpacked blocks so their inner
     * loops stay branch-free.
     */
    void unpackRows(int64_t row0, int64_t n, int32_t *out) const;

    /**
     * Unpack rows [row0, row0 + n) PLANAR: out[s * stride + i] is the
     * code of (row0 + i, subspace s), one byte each (stride 0 means n).
     * This is the lane layout the shuffle-gather kernels consume — all
     * rows' codes for one subspace land contiguously, so a vector
     * register loads one subspace's lane block directly; a stride wider
     * than n leaves the pad lanes untouched (callers zero them to run a
     * ragged tail through a full-width chunk). Requires bits() <= 8 (the
     * shuffle path only exists for c <= 256, and in practice c <= 16).
     */
    void unpackPlanar(int64_t row0, int64_t n, uint8_t *out,
                      int64_t stride = 0) const;

  private:
    int64_t rows_ = 0;
    int64_t subspaces_ = 0;
    int bits_ = 8;
    int64_t stride_ = 0;
    std::vector<uint8_t> data_;
};

} // namespace lutdla::vq

#endif // LUTDLA_VQ_CODE_BUFFER_H
