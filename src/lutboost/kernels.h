#ifndef LUTDLA_LUTBOOST_KERNELS_H
#define LUTDLA_LUTBOOST_KERNELS_H

/**
 * @file
 * The serving data plane's kernel entry points over an arena's banks.
 *
 * A frozen LUT layer executes in two phases — encode (argmin each row's
 * subvectors against the codebooks, producing centroid codes) and gather
 * (accumulate the indexed PSum table rows into the output) — and each
 * phase runs over one bank of the layer's arena (lutboost/table_bank.h).
 * A serving stage binds one BankPair per arena at plan time and runs
 * BankPair::forwardTile (or the banks' shardable encodeBlock / gather
 * spans) on it. The gather-phase TablePrecision picks the table bank:
 *
 *  - Float32: the float table bank; with Float32 encode it is bit-exact
 *    with eval-mode LutLinear::forward (the numerics contract every
 *    serving test pins).
 *  - Int8: the INT8-quantized bank (per-(subspace group, output block)
 *    symmetric scales, ~4x less table traffic). Approximate —
 *    docs/SERVING.md documents the error envelope, and tests bound top-1
 *    disagreement.
 *  - Int4: the nibble-packed INT4 bank (two output columns per byte, ~8x
 *    less traffic than float). Coarser still; the per-stage
 *    mixed-precision auto-tuner (serve/autotune.h) decides where it is
 *    safe.
 *
 * The ENCODE phase has its own, orthogonal precision axis
 * (EncodePrecision): Float32 by default, and Int8 runs the integer
 * argmin over the arena's INT8 encode bank where the arena supports it.
 *
 * Banks are immutable; all mutable per-batch state lives in the
 * caller-owned KernelScratch, so one BankPair serves every worker thread
 * concurrently. KernelBackend is the small precision value a stage
 * reports (name, bit-exactness, gather granule).
 */

#include <cstdint>
#include <string>
#include <vector>

#include "lutboost/table_arena.h"
#include "vq/code_buffer.h"

namespace lutdla::lutboost {

/**
 * Issue software prefetches for the first `bytes` of `p` (one per cache
 * line, read-intent, moderate temporal locality). The row-tiled segment
 * executor uses this to pull the NEXT tile's input rows toward L1/L2
 * while the current tile is still streaming through the segment, hiding
 * the cold-plane latency the full-batch executor paid at every stage
 * boundary. Callers cap `bytes` — prefetching beyond a few tens of KB
 * just evicts what the current tile is using.
 */
inline void
prefetchSpan(const void *p, int64_t bytes)
{
#if defined(__GNUC__) || defined(__clang__)
    const char *line = static_cast<const char *>(p);
    for (int64_t off = 0; off < bytes; off += 64)
        __builtin_prefetch(line + off, 0, 2);
#else
    (void)p;
    (void)bytes;
#endif
}

/**
 * Reusable per-caller buffers for one in-flight batch of kernel calls:
 * the packed code buffer the encode phase fills and the gather phase
 * reads, the encode-side scratch (BF16 staging, ragged-tail and wrapped
 * subspace padding, code planes), and the gather-side scratch (unpacked
 * codes, planar code lanes, shuffle accumulators). Owned by the
 * serving StageScratch so steady-state batches perform no allocations.
 * When a batch is sharded across workers, the CodeBuffer of the
 * INITIATING worker is shared (disjoint row spans never race) while each
 * participant brings its own encode/gather scratch.
 */
struct KernelScratch
{
    vq::CodeBuffer codes;   ///< bit-packed [rows, Nc] indices
    EncodeScratch encode;   ///< staging / padding / code planes
    GatherScratch gather;   ///< unpacked / planar / colmajor scratch
};

/** The (table bank, encode bank) pair one LUT GEMM runs on; both banks
 * read the same arena. */
struct BankPair
{
    const TableBank *table = nullptr;
    const EncodeBank *encode = nullptr;

    /** Bytes both banks allocated, beyond the arena's float source. */
    int64_t
    residentBytes() const
    {
        return table->residentBytes() + encode->residentBytes();
    }

    /**
     * Encode `rows` rows of `x`, `pitch` floats apart (0 means the
     * arena's K; any other pitch reads each row through the encode
     * banks' cyclic view, see EncodeBank), and gather them into `y`. When
     * the table bank has a chunk kernel (TableBank::chunkRows() > 0),
     * each chunk is encoded straight into the gather's planar code lanes
     * and gathered from there — no CodeBuffer pack or unpack. Otherwise
     * it is encodeBatch into scratch.codes + gather. Phase wall times are
     * accumulated per chunk into *encode_ns / *gather_ns (either may be
     * null). Bit-exact with the split pair: every encode tier selects
     * the same codes and every gather tier of a precision yields the
     * same bits.
     */
    void forwardTile(const float *x, int64_t rows, float *y,
                     KernelScratch &scratch, uint64_t *encode_ns,
                     uint64_t *gather_ns, int64_t pitch = 0) const;
};

/**
 * The gather-phase precision a serving stage was planned with: its tags
 * and the gather granule its table bank imposes on row tiles. The
 * kernels themselves run on the stage's BankPair.
 */
class KernelBackend
{
  public:
    explicit KernelBackend(TablePrecision table = TablePrecision::Float32)
        : table_(table)
    {
    }

    /** The gather-phase precision this backend runs. */
    TablePrecision precision() const { return table_; }

    /** Stable backend tag for plans and reports, e.g. "float32". */
    const char *name() const { return tablePrecisionName(table_); }

    /** True when gather runs over the bit-exact float bank. */
    bool bitExact() const { return table_ == TablePrecision::Float32; }

    /**
     * Rows one full sweep of this backend's table bank covers: one
     * planar chunk (64 on AVX-512, 32 on AVX2) for the vectorized
     * INT8/INT4 banks, else kRowBlock (256) — the float bank's grouped
     * sweep and the scalar quantized sweeps. Row tiles that are a
     * multiple of this granule add NO extra table traffic versus the
     * untiled sweep — the planner's tile-size model rounds to it.
     */
    int64_t gatherGranuleRows(const LutTableArena &arena) const;

  private:
    TablePrecision table_;
};

} // namespace lutdla::lutboost

#endif // LUTDLA_LUTBOOST_KERNELS_H
