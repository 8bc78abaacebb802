#ifndef LUTDLA_LUTBOOST_TABLE_BANK_H
#define LUTDLA_LUTBOOST_TABLE_BANK_H

/**
 * @file
 * Table banks: one object per (layer, precision) that holds the layouts
 * its kernels read, runs those kernels, and reports its bytes.
 *
 * A frozen LUT layer (lutboost/table_arena.h) executes in two phases, and
 * each phase reads one bank:
 *
 *  - encode: an EncodeBank argmin-encodes input rows into centroid codes.
 *    The float bank scans the arena's transposed float codebooks (the
 *    bit-exact contract); the INT8 bank quantizes rows onto a per-subspace
 *    7-bit grid and scores them in exact int32 arithmetic.
 *  - gather: a TableBank accumulates the PSum table rows the codes select.
 *    The float bank sweeps the arena's float table; the INT8 and INT4
 *    banks hold quantized copies under per-(subspace group, column block)
 *    symmetric scales.
 *
 * A bank is built for one util::SimdLevel tier and holds only the layouts
 * that tier reads (see docs/SERVING.md for the per-tier list):
 *
 *  - INT8 gather: the row-major table always (the small-tail sweep reads
 *    it), plus the quad-interleaved VNNI layout on the VNNI tier or the
 *    16-entry interleaved shuffle layout on the AVX2 / AVX-512 tiers
 *    (c <= 16 only).
 *  - INT4 gather: the packed row-major table, plus its interleaved
 *    shuffle layout on SIMD tiers (c <= 16).
 *  - INT8 encode: the quad-interleaved signed codebooks on SIMD tiers
 *    (c <= 16, v <= 128), otherwise the row-major signed codebooks.
 *
 * Every kernel a bank of one precision runs, at any tier, returns the same
 * bits: the quantized banks accumulate exact integers per scale group and
 * dequantize with one mul + add per group, and the encode tiers score the
 * same int32 values with the same lowest-index tie-break. Tests compare
 * banks built for every tier at or below the host's.
 *
 * Two byte counts per bank: tableBytes() is the canonical traffic model
 * (what one sweep streams at c = 16, independent of the host, so the
 * auto-tuner's assignments are host-independent); residentBytes() is
 * exactly what the bank allocated on this tier. The float banks allocate
 * nothing — they read the arena's own float source, which
 * LutTableArena::sizeBytes() counts for as long as the arena holds it
 * (LutTableArena::freeze releases what no bound bank reads).
 *
 * Banks are immutable after construction and thread-safe; all per-call
 * state lives in the caller's EncodeScratch / GatherScratch.
 */

#include <cstdint>
#include <memory>
#include <vector>

#include "util/cpu_features.h"
#include "vq/code_buffer.h"

namespace lutdla::lutboost {

/** The frozen layer a bank reads (lutboost/table_arena.h). */
class LutTableArena;

/** Gather-phase table precision: which TableBank a LUT GEMM reads. */
enum class TablePrecision
{
    Float32,  ///< bit-exact float bank (the arena's own table)
    Int8,     ///< INT8 bank with per-(subspace group, block) scales
    Int4      ///< nibble-packed INT4 bank, two columns per byte
};

/** Stable tag for plans and reports: "float32" / "int8" / "int4". */
const char *tablePrecisionName(TablePrecision precision);

/**
 * Encode-phase precision, orthogonal to the table precision: Float32 is
 * the bit-exact argmin every numerics contract pins; Int8 runs the
 * integer argmin over the INT8 encode bank (L2 metric only) and carries
 * a top-1 agreement envelope instead.
 */
enum class EncodePrecision
{
    Float32,  ///< exact float argmin (default; bit-exact contract)
    Int8      ///< integer argmin over the INT8 encode bank (L2 only)
};

/** Stable tag for plans and reports: "float32" / "int8". */
const char *encodePrecisionName(EncodePrecision precision);

/**
 * Reusable per-caller encode scratch: the BF16-rounded input rows, the
 * zero-padded ragged tail subspace, one subspace's code plane on its way
 * into a packed CodeBuffer, and the scalar scans' per-row buffers.
 * Caller-owned so steady-state batches perform no allocations; one per
 * concurrent caller.
 */
struct EncodeScratch
{
    std::vector<float> staging;  ///< BF16-rounded input rows
    std::vector<float> padded;   ///< [rows, v] zero-padded tail subspace
    std::vector<uint8_t> plane;  ///< [rows] one subspace's codes
    std::vector<float> dist;     ///< [c] float scan distances
    std::vector<int32_t> xq;     ///< [v] INT8 scan grid levels
};

/**
 * Reusable per-caller gather scratch: the per-block unpacked codes the
 * scalar sweeps run on, plus the planar code lanes and column-major
 * accumulator plane the chunk kernels use. Caller-owned so steady-state
 * batches perform no allocations; one per concurrent caller.
 */
struct GatherScratch
{
    std::vector<int32_t> unpacked;  ///< [block rows, Nc] row-major codes
    std::vector<uint8_t> planar;    ///< [Nc, chunk] planar code lanes
    std::vector<float> colmajor;    ///< [N, chunk] chunk accumulators
};

/**
 * The gather phase of one layer at one precision and tier. The sweep
 * structure is shared: a bank without a chunk kernel (chunkRows() == 0)
 * sweeps kRowBlock-row blocks of unpacked codes; a bank with one runs
 * planar chunks, and below chunk / 4 rows a chunk falls back to the same
 * scalar sweep (bit-identical by the bank's integer contract).
 *
 * Every serving worker reads a bank's members on every kernel call, so
 * banks are cache-line aligned: no heap neighbour that a worker writes
 * shares their lines (the same holds for EncodeBank).
 */
class alignas(64) TableBank
{
  public:
    virtual ~TableBank() = default;

    /**
     * Shardable gather span: fill output rows [row0, row0 + rows) of `y`
     * (the FULL [codes.rows(), N] output base) from the same rows of
     * `codes`, bias included. Disjoint spans never race.
     */
    void gather(const vq::CodeBuffer &codes, int64_t row0, int64_t rows,
                float *y, GatherScratch &scratch) const;

    /**
     * Rows one planar chunk covers (64 on the AVX-512 tiers, 32 on AVX2);
     * 0 when this bank has no chunk kernel, so the fused encode -> gather
     * tile never runs over it.
     */
    int64_t chunkRows() const { return chunk_; }

    /**
     * Gather one chunk whose codes already sit in scratch.planar
     * ([Nc, chunkRows()] lanes): fill rows [0, rows) of `y` ([rows, N],
     * bias included), 1 <= rows <= chunkRows(). Lanes past `rows` are
     * reset to code 0 and computed, never copied out.
     */
    void gatherPlanar(int64_t rows, float *y, GatherScratch &scratch) const;

    /** Bytes one sweep streams in the canonical layout (host-independent;
     * the auto-tuner's byte currency). */
    virtual int64_t tableBytes() const = 0;

    /** Bytes this bank allocated (0 for the float bank, which reads the
     * arena's float source). */
    virtual int64_t residentBytes() const = 0;

    /** Stable kernel tag for plans, e.g. "grouped-sweep" /
     * "shuffle-vnni" / "shuffle-avx2" / "scalar". */
    virtual const char *kernelName() const = 0;

    /** The arena this bank reads. */
    const LutTableArena &arena() const { return arena_; }

  protected:
    /** Checks that `level` runs on this CPU. */
    TableBank(const LutTableArena &arena, util::SimdLevel level);

    /** Accumulate `bn` rows of row-major codes ([bn, Nc]) into the
     * zero-filled `yb` ([bn, N]); the bias is added by the caller. */
    virtual void sweepRows(const int32_t *codes, int64_t bn,
                           float *yb) const = 0;

    /** Overwrite `colmajor` ([N, chunk]) with one full chunk's sums over
     * `planar` codes; only called when chunkRows() > 0. */
    virtual void chunkKernel(const uint8_t *planar, float *colmajor) const;

    const LutTableArena &arena_;
    util::SimdLevel level_;
    int64_t chunk_ = 0;
};

/** Where an encode bank writes its codes: packed CodeBuffer rows or
 * planar code lanes (defined with the banks). */
struct CodeSink;

/**
 * The encode phase of one layer at one precision and tier: argmin-encode
 * rows into a packed CodeBuffer span or straight into planar code lanes.
 * BF16 input rounding (when the arena demands it) and zero padding of a
 * ragged tail subspace apply in every entry point.
 */
class alignas(64) EncodeBank
{
  public:
    virtual ~EncodeBank() = default;

    /** Resize `codes` for [rows, Nc] at the arena's code width and fill
     * it. Thread-safe with distinct scratch. */
    void encodeBatch(const float *x, int64_t rows, vq::CodeBuffer &codes,
                     EncodeScratch &scratch) const;

    /**
     * Shardable encode span: encode rows [row0, row0 + rows) of the full
     * batch `x` into an already-reset `codes`. Packed rows are
     * byte-aligned, so shards writing disjoint row spans never race.
     */
    void encodeBlock(const float *x, int64_t row0, int64_t rows,
                     vq::CodeBuffer &codes, EncodeScratch &scratch) const;

    /**
     * Encode `rows` rows of `x` into planar code lanes: the code of
     * (row i, subspace s) lands at planar[s * stride + i] (rows <=
     * stride; lanes past `rows` are untouched) — the layout
     * TableBank::gatherPlanar reads. Requires c <= 256.
     */
    void encodePlanar(const float *x, int64_t rows, uint8_t *planar,
                      int64_t stride, EncodeScratch &scratch) const;

    /** Bytes one encode sweep streams in the canonical layout (float
     * codebooks, or INT8 codes + norms + grid; host-independent). */
    virtual int64_t tableBytes() const = 0;

    /** Bytes this bank allocated (0 for the float bank). */
    virtual int64_t residentBytes() const = 0;

    /** Stable kernel tag for plans, e.g. "avx512-c16" / "generic" /
     * "int8-dot-vnni" / "int8-scalar". */
    virtual const char *kernelName() const = 0;

  protected:
    /** Checks that `level` runs on this CPU. */
    EncodeBank(const LutTableArena &arena, util::SimdLevel level);

    /** Encode `rows` already-staged rows into `sink`. */
    virtual void encodeRows(const float *x, int64_t rows,
                            EncodeScratch &scratch,
                            const CodeSink &sink) const = 0;

    const LutTableArena &arena_;
    util::SimdLevel level_;
};

/**
 * Build the `precision` table bank of `arena` for SIMD tier `level`
 * (default: the running level, which LUTDLA_SIMD caps). Panics when
 * `level` is above what this CPU provides. The bank reads `arena`, which
 * must outlive it.
 */
std::unique_ptr<TableBank>
makeTableBank(const LutTableArena &arena, TablePrecision precision,
              util::SimdLevel level = util::simdLevel());

/**
 * Build the `precision` encode bank of `arena` for tier `level`. Int8
 * requires arena.int8EncodeSupported() (panics otherwise); the same tier
 * check as makeTableBank applies.
 */
std::unique_ptr<EncodeBank>
makeEncodeBank(const LutTableArena &arena, EncodePrecision precision,
               util::SimdLevel level = util::simdLevel());

} // namespace lutdla::lutboost

#endif // LUTDLA_LUTBOOST_TABLE_BANK_H
