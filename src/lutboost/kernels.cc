#include "lutboost/kernels.h"

#include <algorithm>
#include <chrono>

namespace lutdla::lutboost {

namespace {

uint64_t
nanosSince(std::chrono::steady_clock::time_point start)
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
}

} // namespace

void
BankPair::forwardTile(const float *x, int64_t rows, float *y,
                      KernelScratch &scratch, uint64_t *encode_ns,
                      uint64_t *gather_ns) const
{
    const int64_t chunk = table->chunkRows();
    if (chunk == 0) {
        const auto t0 = std::chrono::steady_clock::now();
        encode->encodeBatch(x, rows, scratch.codes, scratch.encode);
        if (encode_ns != nullptr)
            *encode_ns += nanosSince(t0);
        const auto t1 = std::chrono::steady_clock::now();
        table->gather(scratch.codes, 0, rows, y, scratch.gather);
        if (gather_ns != nullptr)
            *gather_ns += nanosSince(t1);
        return;
    }
    // Fused: the encode kernels write each chunk's codes straight into
    // the gather's planar lanes (the CCM -> IMM hand-off of the paper's
    // pipeline), so codes never round-trip through a packed CodeBuffer.
    const LutTableArena &arena = table->arena();
    const int64_t k = arena.inFeatures(), n = arena.outFeatures();
    std::vector<uint8_t> &planar = scratch.gather.planar;
    planar.resize(static_cast<size_t>(arena.numSubspaces() * chunk));
    for (int64_t r0 = 0; r0 < rows; r0 += chunk) {
        const int64_t m = std::min(chunk, rows - r0);
        const auto t0 = std::chrono::steady_clock::now();
        encode->encodePlanar(x + r0 * k, m, planar.data(), chunk,
                             scratch.encode);
        if (encode_ns != nullptr)
            *encode_ns += nanosSince(t0);
        const auto t1 = std::chrono::steady_clock::now();
        table->gatherPlanar(m, y + r0 * n, scratch.gather);
        if (gather_ns != nullptr)
            *gather_ns += nanosSince(t1);
    }
}

int64_t
KernelBackend::gatherGranuleRows(const LutTableArena &arena) const
{
    // One chunk when a vector gather kernel runs, else one table pass per
    // kRowBlock rows (float grouped sweep, scalar group sweeps).
    const int64_t chunk = arena.tableBank(table_).chunkRows();
    return chunk > 0 ? chunk : LutTableArena::kRowBlock;
}

} // namespace lutdla::lutboost
