#ifndef LUTDLA_SERVE_STAGE_H
#define LUTDLA_SERVE_STAGE_H

/**
 * @file
 * The serving stage-graph IR: a FrozenModel is an ordered chain of
 * immutable FrozenStage nodes, each transforming a batch of flat
 * activation rows. A single lowering pass (FrozenModel::fromModel) maps
 * every LUTBoost-converted layer kind onto one of the concrete stages
 * here — arena LUT-GEMM for LutLinear, im2col + arena LUT-GEMM for
 * LutConv2d, pooling / flatten / norm / pointwise for the glue layers —
 * then a planning pass (serve/plan.h) picks each LUT stage's kernel
 * backend and folds fusable neighbors into it, so the engine's batch loop
 * is topology-agnostic: MLPs, CNNs, and future attention graphs all
 * execute as "for stage in stages: stage.forward".
 *
 * Execution model: LUT stages do no inline math. Each binds one (table
 * bank, encode bank) pair per arena at plan time (LutBinding: float =
 * bit-exact, INT8 / INT4 tables, float or INT8 encode), runs encode
 * (rows -> centroid codes) and gather (codes -> accumulated table rows)
 * through those banks, and then applies any epilogue ops
 * the planner fused in (pointwise activations) while the output is still
 * cache-hot. A fused trace width adaptation costs no pass of its own:
 * the encode reads the source rows through a cyclic view. The two phase
 * times are accumulated into StageScratch for EngineStats.
 *
 * Layout contract: a batch is always a [rows, width] row-major matrix of
 * floats. Spatial stages interpret each row as a flattened NCHW image
 * (the C*H*W geometry is baked into the stage at lowering time), which is
 * exactly the layout nn::Flatten produces — so flattening is a zero-cost
 * identity stage and conv/pool stages never reshape the batch dimension.
 *
 * Numerics contract: every stage reuses the nn:: eval-path math (shared
 * free functions, not copies) or the arena kernels behind the reference
 * backend, so a lowered chain under the default plan is bit-exact with
 * eval-mode model->forward() — epilogue fusion reorders nothing, it only
 * moves where the same float ops run. Tests enforce this across
 * precisions. Quantized-backend stages are deterministic but approximate.
 *
 * Thread safety: stages are immutable after construction; all mutable
 * state lives in the caller-owned StageScratch, so one FrozenModel can
 * run concurrent batches from many workers.
 */

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "lutboost/kernels.h"
#include "lutboost/lut_conv.h"
#include "lutboost/table_arena.h"
#include "tensor/im2col.h"

namespace lutdla::serve {

/** Defined below; forward-declared for ShardFn / IntraBatchPool. */
struct StageScratch;

/** One shard of an intra-batch parallel phase: `block` indexes the shard,
 * `scratch` is the EXECUTING worker's scratch (each participant brings
 * its own buffers; shared state is captured by the closure). */
using ShardFn = std::function<void(int64_t block, StageScratch &scratch)>;

/**
 * Intra-batch parallelism seam: the worker pool (FrontDoor) hands each
 * worker's StageScratch a pool pointer, and LUT stages shard their encode / gather
 * phases over it instead of sweeping the whole batch on one thread.
 * parallelFor() blocks until every shard ran; the CALLER participates
 * (running shards with `caller` scratch) while idle workers steal the
 * rest from a shared block queue, so progress never depends on another
 * worker being free.
 */
class IntraBatchPool
{
  public:
    virtual ~IntraBatchPool() = default;

    /** Run fn(block, scratch) for block in [0, blocks); returns when all
     * blocks completed. Safe to call only from a pool worker. */
    virtual void parallelFor(int64_t blocks, const ShardFn &fn,
                             StageScratch &caller) = 0;
};

/** Elementwise op a PointwiseStage applies — and, after fusion, the op an
 * arena-sweep epilogue applies in place of that stage. */
enum class PointwiseOp
{
    Relu,
    Gelu
};

/**
 * Per-worker reusable buffers for one in-flight batch: the ping-pong
 * activation planes the stage chain alternates between, the conv path's
 * im2col/GEMM scratch, the kernel backend's packed-code buffers, and the
 * encode/gather phase-time accumulators the engine folds into its stats.
 * Engine workers each own one, so steady-state serving performs no
 * per-batch allocations once the buffers have grown to the largest batch
 * seen.
 */
struct StageScratch
{
    std::vector<float> ping;           ///< activation buffer A
    std::vector<float> pong;           ///< activation buffer B
    lutboost::ConvScratch conv;        ///< im2col + flat-GEMM scratch
    lutboost::KernelScratch kernel;    ///< packed codes + staging planes
    /**
     * Skip-edge planes, indexed by the slot a SkipSaveStage was lowered
     * with: saving copies the live activations ASIDE, out of the
     * ping-pong rotation, so any number of out-of-place stages may
     * alternate ping/pong before the matching ResidualAddStage reads the
     * plane back. Slots nest (transformer blocks reuse slot 0 and 1 in
     * sequence), and like ping/pong they grow once and are then reused.
     */
    std::vector<std::vector<float>> skip;
    /** Attention working planes (Q/K/V projections and the per-sequence
     * context accumulator), sized [rows, d_model] by AttentionStage. */
    std::vector<float> attn_q, attn_k, attn_v, attn_ctx;
    /** Attention probability rows [heads, T, T] followed by the
     * transposed K [d_model, T]; per-PARTICIPANT scratch (each sharded
     * sequence runs with its executing worker's plane). */
    std::vector<float> attn_probs;
    /**
     * Tile-local activation planes for the row-tiled segment executor
     * (FrozenModel::forwardBatch): while a segment streams one row tile
     * through its stages, the intermediate planes live here at
     * [tile_rows, width] instead of full-batch size — ping/pong only
     * carry segment boundaries. This is where the per-worker steady-state
     * scratch shrink planSummary() reports comes from.
     */
    std::vector<float> tile_a, tile_b;
    uint64_t encode_ns = 0;            ///< accumulated encode-phase time
    uint64_t gather_ns = 0;            ///< accumulated gather-phase time
    /** Intra-batch worker pool (FrontDoor-owned); null = single-threaded.
     * Phase times stay wall-clock: only the initiating worker's timers
     * run while shards execute in parallel. */
    IntraBatchPool *pool = nullptr;
};

/**
 * One node of the serving stage graph. Implementations are immutable and
 * thread-safe; `forward` maps [rows, inWidth()] to [rows, outWidth()].
 * Width-preserving elementwise stages advertise inPlace() and implement
 * forwardInPlace() instead — the executor then mutates the current buffer
 * directly and skips a copy.
 */
class FrozenStage
{
  public:
    virtual ~FrozenStage() = default;

    /** Stage kind tag for error messages and plans, e.g. "conv". */
    virtual std::string kind() const = 0;

    /**
     * Human-readable node label for describe(): the kind plus any planner
     * decorations (fused epilogues, table precision), e.g.
     * "lut-gemm[int8]+relu". Defaults to kind().
     */
    virtual std::string description() const { return kind(); }

    /** Flat row width this stage consumes. */
    virtual int64_t inWidth() const = 0;

    /** Flat row width this stage produces. */
    virtual int64_t outWidth() const = 0;

    /** Table bytes the stage's gather streams (0 for non-LUT stages). */
    virtual int64_t tableBytes() const { return 0; }

    /**
     * Bytes the stage's ENCODE phase streams per full sweep: the
     * transposed float codebooks under Float32 encode, the INT8 encode
     * bank (quantized codebooks + centroid norms + grid parameters)
     * under Int8. 0 for non-LUT stages. Together with tableBytes() this
     * is the byte currency the joint (table, encode) auto-tuner descends
     * on (serve/autotune.h).
     */
    virtual int64_t encodeBytes() const { return 0; }

    /** Bytes resident for the stage's tables: what its arenas still hold
     * of their float source (codebooks, PSum table, bias; a deployment
     * freeze releases what the bound banks do not read) plus the banks
     * the plan reads. 0 for non-LUT stages. */
    virtual int64_t residentBytes() const { return 0; }

    /** True when the stage mutates rows in place (inWidth==outWidth). */
    virtual bool inPlace() const { return false; }

    /**
     * True when the row-tiled segment executor may stream this stage one
     * row tile at a time: forward() must be row-independent AND touch
     * nothing outside the rows handed to it — no skip-edge planes
     * (SkipSave/ResidualAdd), no whole-sequence coupling (attention), no
     * batch-shaped internal scratch (conv's im2col plane). Stages that
     * return false are structural barriers: they execute full-batch and
     * partition the chain into the fusible segments the planner tiles.
     * Defaults to false so future stages are barriers until proven
     * tileable.
     */
    virtual bool rowTileable() const { return false; }

    /**
     * Rows one gather sweep of this stage's tables covers (see
     * KernelBackend::gatherGranuleRows); tiling below this granule adds
     * whole extra table sweeps per batch. 1 for glue stages — any tile
     * size is free for them.
     */
    virtual int64_t tileGranuleRows() const { return 1; }

    /**
     * Per-row kernel-scratch bytes a tile of this stage streams beyond
     * its in/out planes (packed codes, a width-adapted encode's cyclic
     * reads); input to the planner's tile-size model. 0 for glue stages.
     */
    virtual int64_t tileScratchBytesPerRow() const { return 0; }

    /**
     * Out-of-place execution: read [rows, inWidth()] from `in`, write
     * [rows, outWidth()] to `out` (caller-sized; never aliases `in`).
     * In-place stages inherit this adapter, which copies then mutates.
     */
    virtual void forward(const float *in, int64_t rows, float *out,
                         StageScratch &scratch) const;

    /** In-place execution; only called when inPlace() is true. Skip-edge
     * stages read/write scratch.skip; pure elementwise stages ignore it. */
    virtual void forwardInPlace(float *data, int64_t rows,
                                StageScratch &scratch) const;
};

/** Shared-ownership handle to an immutable stage. */
using StagePtr = std::shared_ptr<const FrozenStage>;

/** Apply fused pointwise epilogue ops to `total` contiguous floats. */
void applyPointwiseOps(const std::vector<PointwiseOp> &ops, float *data,
                       int64_t total);

/**
 * The banks the planner bound to one LUT stage: one table precision and
 * one RESOLVED encode precision over the stage's arenas (one for
 * lut-gemm and conv, four for attention), i.e. one (table bank, encode
 * bank) pair per arena. Int8 encode resolves all-or-nothing: only when
 * every arena supports the INT8 encode bank (L2 metric), else Float32.
 * Construction builds every bank, so serving never pays a lazy build.
 */
class LutBinding
{
  public:
    LutBinding(const std::vector<const lutboost::LutTableArena *> &arenas,
               lutboost::TablePrecision table,
               lutboost::EncodePrecision encode);

    /** The kernel backend of the bound table precision. */
    const lutboost::KernelBackend &backend() const { return backend_; }

    /** The resolved encode precision. */
    lutboost::EncodePrecision encode() const { return encode_; }

    /** The bank pair bound to the `i`-th arena (constructor order). */
    const lutboost::BankPair &banks(size_t i = 0) const { return banks_[i]; }

    /** Gather bytes one sweep streams, summed over the arenas. */
    int64_t tableBytes() const;

    /** Encode bytes one sweep streams, summed over the arenas. */
    int64_t encodeBytes() const;

    /** What the arenas still hold of their float source (all of it until
     * a deployment freeze) plus the bound banks' allocations. */
    int64_t residentBytes() const;

    /** `base` decorated with the precisions and fused ops, e.g.
     * "lut-gemm[int8][enc:int8]+relu"; the float/float32 binding adds
     * no tag. */
    std::string describe(std::string base,
                         const std::vector<PointwiseOp> &epilogue) const;

  private:
    lutboost::KernelBackend backend_;
    lutboost::EncodePrecision encode_;
    std::vector<lutboost::BankPair> banks_;
};

/**
 * The arena LUT-GEMM execution body shared by ArenaStage and
 * AttentionStage's four projection GEMMs: encode `in` ([rows, pitch];
 * pitch 0 means the arena's K, any other pitch is read through the
 * encode banks' cyclic view) then gather into `out` ([rows, arena N])
 * over `banks` (one arena's
 * bound pair, see LutBinding), applying `epilogue` on the output while
 * it is cache-hot, with phase times accumulated into scratch.encode_ns /
 * gather_ns. When `shard_rows` > 0 and `scratch.pool` is set, batches of
 * at least two shards run each phase as a parallel-for over row blocks
 * (bit-exact with the single-thread sweep; see ArenaStage); sharded and
 * unsharded sweeps read the same banks, so the result never depends on
 * batch size.
 */
void arenaGemmForward(const lutboost::BankPair &banks, const float *in,
                      int64_t rows, float *out, int64_t shard_rows,
                      const std::vector<PointwiseOp> &epilogue,
                      StageScratch &scratch, int64_t pitch = 0);

/**
 * Arena-backed LUT-GEMM stage (lowered LutLinear): encode -> gather
 * over the bound bank pair, then any fused epilogue. The
 * optional `adapt_in_width` prologue absorbs a preceding WidthAdaptStage
 * (trace models): the stage then consumes `adapt_in_width`-wide rows and
 * the encode reads them in place through a cyclic view (arena column j
 * reads source column j % adapt_in_width), so no adapted row is ever
 * materialized. When the planner set a shard granularity (`shard_rows`)
 * and the executing scratch carries an IntraBatchPool, batches of at least
 * two shards run each phase as a parallel-for over row blocks: encode
 * shards fill disjoint rows of one shared CodeBuffer, gather shards fill
 * disjoint output rows (epilogue included, still cache-hot) — bit-exact
 * with the single-thread sweep because rows are independent.
 *
 * `table` and `encode` pick the stage's bank pair (see LutBinding): Int8
 * encode is honored only when the arena supports the quantized encode
 * bank (L2 metric); otherwise the stage silently resolves to Float32,
 * exactly as the planner would.
 */
class ArenaStage : public FrozenStage
{
  public:
    explicit ArenaStage(
        std::shared_ptr<const lutboost::LutTableArena> arena,
        lutboost::TablePrecision table = lutboost::TablePrecision::Float32,
        std::vector<PointwiseOp> epilogue = {},
        int64_t adapt_in_width = 0, int64_t shard_rows = 0,
        lutboost::EncodePrecision encode =
            lutboost::EncodePrecision::Float32);

    std::string kind() const override { return "lut-gemm"; }
    std::string description() const override;
    int64_t
    inWidth() const override
    {
        return adapt_in_ > 0 ? adapt_in_ : arena_->inFeatures();
    }
    int64_t outWidth() const override { return arena_->outFeatures(); }
    int64_t tableBytes() const override { return binding_.tableBytes(); }
    int64_t encodeBytes() const override { return binding_.encodeBytes(); }
    int64_t
    residentBytes() const override
    {
        return binding_.residentBytes();
    }
    void forward(const float *in, int64_t rows, float *out,
                 StageScratch &scratch) const override;

    /** Rows are independent (encode and gather are both per-row), so the
     * streaming executor may tile the stage freely. */
    bool rowTileable() const override { return true; }
    int64_t tileGranuleRows() const override;
    int64_t tileScratchBytesPerRow() const override;

    /** The frozen arena this stage gathers from. */
    const std::shared_ptr<const lutboost::LutTableArena> &
    arena() const
    {
        return arena_;
    }

    /** The kernel backend the planner chose. */
    const lutboost::KernelBackend &
    backend() const
    {
        return binding_.backend();
    }

    /** The banks the planner bound (see LutBinding). */
    const LutBinding &binding() const { return binding_; }

    /** Fused epilogue ops (empty before planning). */
    const std::vector<PointwiseOp> &epilogue() const { return epilogue_; }

    /** Fused width-adapt prologue input width (0 when absent). */
    int64_t adaptInWidth() const { return adapt_in_; }

    /** Intra-batch shard granularity in rows (0 = never shard). */
    int64_t shardRows() const { return shard_rows_; }

    /** The RESOLVED encode precision (Int8 only when the arena supports
     * the quantized encode bank; Float32 otherwise). */
    lutboost::EncodePrecision
    encodePrecision() const
    {
        return binding_.encode();
    }

  private:
    std::shared_ptr<const lutboost::LutTableArena> arena_;
    LutBinding binding_;
    std::vector<PointwiseOp> epilogue_;
    int64_t adapt_in_;
    int64_t shard_rows_;
};

/**
 * Im2col-lowered convolution stage (lowered LutConv2d): fixed input
 * geometry (C, H, W baked in at lowering time), batched im2col into
 * scratch, encode -> gather over the bound bank pair, NCHW reshape,
 * then any fused epilogue (elementwise, so it commutes with the
 * reshape). Rows are flattened NCHW images.
 */
class ConvStage : public FrozenStage
{
  public:
    ConvStage(ConvGeometry geom, int64_t height, int64_t width,
              std::shared_ptr<const lutboost::LutTableArena> arena,
              lutboost::TablePrecision table =
                  lutboost::TablePrecision::Float32,
              std::vector<PointwiseOp> epilogue = {},
              lutboost::EncodePrecision encode =
                  lutboost::EncodePrecision::Float32);

    std::string kind() const override { return "conv"; }
    std::string description() const override;
    int64_t
    inWidth() const override
    {
        return geom_.in_channels * h_ * w_;
    }
    int64_t
    outWidth() const override
    {
        return geom_.out_channels * geom_.outSize(h_) * geom_.outSize(w_);
    }
    int64_t tableBytes() const override { return binding_.tableBytes(); }
    int64_t encodeBytes() const override { return binding_.encodeBytes(); }
    int64_t
    residentBytes() const override
    {
        return binding_.residentBytes();
    }
    void forward(const float *in, int64_t rows, float *out,
                 StageScratch &scratch) const override;

    /** Conv stages are segment barriers for the row-tiled executor (the
     * inherited rowTileable() == false): the im2col expansion reshapes
     * the working set into a batch-shaped scratch plane whose patch rows
     * outnumber the batch rows, so the planner's row-tile size model does
     * not describe it. The conv path keeps its own internal blocking. */

    /** The conv geometry this stage was lowered with. */
    const ConvGeometry &geometry() const { return geom_; }

    /** The frozen arena this stage gathers from. */
    const std::shared_ptr<const lutboost::LutTableArena> &
    arena() const
    {
        return arena_;
    }

    /** The kernel backend the planner chose. */
    const lutboost::KernelBackend &
    backend() const
    {
        return binding_.backend();
    }

    /** The banks the planner bound (see LutBinding). */
    const LutBinding &binding() const { return binding_; }

    /** Fused epilogue ops (empty before planning). */
    const std::vector<PointwiseOp> &epilogue() const { return epilogue_; }

    /** Input image height baked in at lowering time. */
    int64_t height() const { return h_; }

    /** Input image width baked in at lowering time. */
    int64_t width() const { return w_; }

    /** The RESOLVED encode precision (see ArenaStage). */
    lutboost::EncodePrecision
    encodePrecision() const
    {
        return binding_.encode();
    }

  private:
    ConvGeometry geom_;
    int64_t h_, w_;
    std::shared_ptr<const lutboost::LutTableArena> arena_;
    LutBinding binding_;
    std::vector<PointwiseOp> epilogue_;
};

/** Pointwise activation stage (lowered ReLU / GELU); in place. */
class PointwiseStage : public FrozenStage
{
  public:
    /** Which nn:: eval function the stage applies. */
    using Op = PointwiseOp;

    PointwiseStage(Op op, int64_t width) : op_(op), width_(width) {}

    std::string
    kind() const override
    {
        return op_ == Op::Relu ? "relu" : "gelu";
    }
    int64_t inWidth() const override { return width_; }
    int64_t outWidth() const override { return width_; }
    bool inPlace() const override { return true; }
    bool rowTileable() const override { return true; }
    void forwardInPlace(float *data, int64_t rows,
                        StageScratch &scratch) const override;

    /** The elementwise op this stage applies (read by the fusion pass). */
    Op op() const { return op_; }

  private:
    Op op_;
    int64_t width_;
};

/**
 * Flatten marker stage: NCHW rows are already stored flat, so this is an
 * identity — it exists so describe() shows the spatial->flat transition
 * and widths keep chaining through the graph.
 */
class FlattenStage : public FrozenStage
{
  public:
    explicit FlattenStage(int64_t width) : width_(width) {}

    std::string kind() const override { return "flatten"; }
    int64_t inWidth() const override { return width_; }
    int64_t outWidth() const override { return width_; }
    bool inPlace() const override { return true; }
    bool rowTileable() const override { return true; }
    void
    forwardInPlace(float *, int64_t, StageScratch &) const override
    {
    }

  private:
    int64_t width_;
};

/** Non-overlapping max-pool stage (lowered MaxPool2d). */
class MaxPoolStage : public FrozenStage
{
  public:
    MaxPoolStage(int64_t channels, int64_t height, int64_t width,
                 int64_t kernel)
        : c_(channels), h_(height), w_(width), k_(kernel)
    {
    }

    std::string kind() const override { return "maxpool"; }
    int64_t inWidth() const override { return c_ * h_ * w_; }
    int64_t
    outWidth() const override
    {
        return c_ * (h_ / k_) * (w_ / k_);
    }
    bool rowTileable() const override { return true; }
    void forward(const float *in, int64_t rows, float *out,
                 StageScratch &scratch) const override;

  private:
    int64_t c_, h_, w_, k_;
};

/** Global-average-pool stage (lowered GlobalAvgPool): NCHW -> [C]. */
class GlobalAvgPoolStage : public FrozenStage
{
  public:
    GlobalAvgPoolStage(int64_t channels, int64_t height, int64_t width)
        : c_(channels), h_(height), w_(width)
    {
    }

    std::string kind() const override { return "gpool"; }
    int64_t inWidth() const override { return c_ * h_ * w_; }
    int64_t outWidth() const override { return c_; }
    bool rowTileable() const override { return true; }
    void forward(const float *in, int64_t rows, float *out,
                 StageScratch &scratch) const override;

  private:
    int64_t c_, h_, w_;
};

/**
 * Frozen batch-norm stage (lowered BatchNorm2d): an immutable snapshot
 * of the layer's running statistics and affine parameters, applied with
 * the same nn::batchNorm2dEval kernel the live layer uses in eval mode.
 */
class BatchNormStage : public FrozenStage
{
  public:
    BatchNormStage(std::vector<float> mean, std::vector<float> var,
                   std::vector<float> gamma, std::vector<float> beta,
                   float eps, int64_t height, int64_t width)
        : mean_(std::move(mean)), var_(std::move(var)),
          gamma_(std::move(gamma)), beta_(std::move(beta)), eps_(eps),
          h_(height), w_(width)
    {
    }

    std::string kind() const override { return "batchnorm"; }
    int64_t
    inWidth() const override
    {
        return static_cast<int64_t>(mean_.size()) * h_ * w_;
    }
    int64_t outWidth() const override { return inWidth(); }
    bool inPlace() const override { return true; }
    bool rowTileable() const override { return true; }
    void forwardInPlace(float *data, int64_t rows,
                        StageScratch &scratch) const override;

  private:
    std::vector<float> mean_, var_, gamma_, beta_;
    float eps_;
    int64_t h_, w_;
};

/**
 * Frozen layer-norm stage (lowered LayerNorm): snapshot of gamma/beta,
 * applied with the shared nn::layerNormForward kernel.
 */
class LayerNormStage : public FrozenStage
{
  public:
    LayerNormStage(std::vector<float> gamma, std::vector<float> beta,
                   float eps)
        : gamma_(std::move(gamma)), beta_(std::move(beta)), eps_(eps)
    {
    }

    std::string kind() const override { return "layernorm"; }
    int64_t
    inWidth() const override
    {
        return static_cast<int64_t>(gamma_.size());
    }
    int64_t outWidth() const override { return inWidth(); }
    bool inPlace() const override { return true; }
    bool rowTileable() const override { return true; }
    void forwardInPlace(float *data, int64_t rows,
                        StageScratch &scratch) const override;

  private:
    std::vector<float> gamma_, beta_;
    float eps_;
};

/**
 * Cyclic width adapter used only by trace-synthesized models, whose
 * consecutive GEMM widths need not chain: each output column j copies
 * input column j % inWidth, preserving each traced layer's true gather
 * workload. The planner fuses these into the following ArenaStage, whose
 * encode then reads the same columns in place through a cyclic view; an
 * unfused node (the one place adapted rows are materialized) survives
 * only when fusion is off or no LUT stage follows.
 */
class WidthAdaptStage : public FrozenStage
{
  public:
    WidthAdaptStage(int64_t in_width, int64_t out_width)
        : in_(in_width), out_(out_width)
    {
    }

    std::string kind() const override { return "width-adapt"; }
    int64_t inWidth() const override { return in_; }
    int64_t outWidth() const override { return out_; }
    bool rowTileable() const override { return true; }
    void forward(const float *in, int64_t rows, float *out,
                 StageScratch &scratch) const override;

  private:
    int64_t in_, out_;
};

} // namespace lutdla::serve

#endif // LUTDLA_SERVE_STAGE_H
