#ifndef LUTDLA_SERVE_ENGINE_H
#define LUTDLA_SERVE_ENGINE_H

/**
 * @file
 * InferenceEngine: batched multi-threaded serving of ONE frozen model.
 *
 * Once LUTBoost freezes a model, inference is pure table-gather-and-
 * accumulate — an embarrassingly batchable workload. The engine is a thin
 * one-model façade over the serving stack's single scheduler, FrontDoor
 * (serve/frontdoor.h): create() publishes the model once into a private
 * front door and maps EngineOptions onto it — `threads`,
 * `queue_capacity` and `autostart` become FrontDoorOptions, `max_batch`
 * and `max_wait_us` become a ModelSlo at priority 0 with no deadline.
 * One model at one priority with no deadline reduces the front door's
 * priority + EDF batch former to FIFO dynamic batching: a worker opens a
 * batch with the oldest request, then keeps admitting requests until the
 * batch holds `max_batch` rows or `max_wait_us` has elapsed since it
 * opened. Large batches shard their LUT-stage encode/gather phases over
 * the idle workers (IntraBatchPool), bit-exact with the unsharded sweep.
 *
 * Request lifecycle: submitAsync() validates, stamps, and enqueues the
 * request and returns a future; a worker later fulfills the promise with
 * the [rows, outputWidth] result or a typed api::Status. submit() is the
 * blocking convenience wrapper. Every error is data — the engine never
 * panics on a bad request.
 *
 * Admission control: the classic submitAsync() blocks for backpressure
 * when the bounded queue is full — correct for trusted in-process
 * producers, wrong under overload from many tenants (the producer hangs
 * unboundedly). AdmitOptions bounds that wait: max_wait_us = 0 is the
 * non-blocking trySubmit path, > 0 waits at most that long; either way a
 * full queue answers with a typed ResourceExhausted instead of blocking.
 * With no worker running (before start(), or after shutdown()) a
 * submission that cannot be queued answers FailedPrecondition.
 *
 * Shutdown contract: shutdown() refuses new submissions, lets workers
 * drain everything already queued, then joins them; every accepted request
 * still gets its result. Destroying the engine shuts it down the same
 * way.
 */

#include <future>
#include <memory>

#include "api/status.h"
#include "serve/frontdoor.h"
#include "serve/frozen_model.h"
#include "serve/stats.h"
#include "tensor/tensor.h"

namespace lutdla::serve {

/** Engine tuning knobs; see docs/SERVING.md for the tuning guide. */
struct EngineOptions
{
    /** Worker threads; 0 means std::thread::hardware_concurrency(). */
    int threads = 0;
    /** Max rows per executed batch (also the per-request row cap). */
    int64_t max_batch = 64;
    /** Max microseconds a batch waits for more rows after it opens. */
    int64_t max_wait_us = 200;
    /** Bounded request-queue capacity (requests, not rows). */
    int64_t queue_capacity = 256;
    /**
     * Spawn workers in the constructor. Turn off to pre-fill the queue and
     * then start() — deterministic batch composition, used by tests and
     * the serving demo. While workers are not running, submissions beyond
     * queue_capacity fail fast with FailedPrecondition instead of
     * blocking (nothing could ever drain the queue).
     */
    bool autostart = true;
};

/**
 * How long a submission may wait for queue space before it is refused
 * with ResourceExhausted: -1 blocks indefinitely (the classic
 * backpressure behavior), 0 never waits (trySubmit), > 0 waits at most
 * that many microseconds.
 */
struct AdmitOptions
{
    int64_t max_wait_us = -1;

    /** Non-blocking admission (fail fast when the queue is full). */
    static AdmitOptions
    nonBlocking()
    {
        return {0};
    }

    /** Wait at most `us` microseconds for queue space. */
    static AdmitOptions
    boundedWait(int64_t us)
    {
        return {us};
    }
};

/** Batched multi-threaded inference engine over one frozen LUT model:
 * a FrontDoor with that model published once. */
class InferenceEngine
{
  public:
    /**
     * Validate options and build an engine. InvalidArgument on nonsense
     * knobs (threads < 0, max_batch < 1 or below the model's row group,
     * ...; messages name the FrontDoorOptions / ModelSlo field the knob
     * maps to); FailedPrecondition for a model with no stages. The
     * returned engine is ready for submissions (workers already running
     * when autostart).
     */
    static api::Result<std::shared_ptr<InferenceEngine>>
    create(FrozenModel model, const EngineOptions &options = {});

    InferenceEngine(const InferenceEngine &) = delete;
    InferenceEngine &operator=(const InferenceEngine &) = delete;

    /** Spawn the worker pool; idempotent; no-op after shutdown(). */
    void start();

    /**
     * Refuse new submissions, drain queued work, join workers. Idempotent.
     * If the engine was never start()ed, queued requests are failed with
     * FailedPrecondition instead of hanging.
     */
    void shutdown();

    /**
     * Serve one request of [rows, inputWidth()] and block for the result.
     * Errors come back as statuses: InvalidArgument for zero rows, width
     * mismatch, rows > max_batch, or rows not a multiple of the model's
     * rowGroup(); FailedPrecondition after shutdown().
     */
    api::Result<Tensor> submit(const Tensor &rows);

    /** Fire-and-wait-later variant of submit(). */
    std::future<api::Result<Tensor>> submitAsync(Tensor rows);

    /**
     * submitAsync() with explicit admission control: when the queue is
     * full, wait at most admit.max_wait_us for space (0 = don't wait)
     * and answer ResourceExhausted on timeout instead of blocking the
     * submitter unboundedly.
     */
    std::future<api::Result<Tensor>> submitAsync(Tensor rows,
                                                 AdmitOptions admit);

    /**
     * Non-blocking submit: serve the request if the queue has space
     * right now, otherwise return ResourceExhausted immediately (still
     * blocks for the RESULT like submit(); only admission never waits).
     */
    api::Result<Tensor> trySubmit(const Tensor &rows);

    /** Consistent snapshot of the lifetime serving statistics, read from
     * the front door's books. */
    EngineStats stats() const;

    /** The frozen model being served. */
    const FrozenModel &model() const { return snapshot_->model; }

    /** The options the engine runs with. */
    const EngineOptions &options() const { return options_; }

  private:
    InferenceEngine(std::shared_ptr<FrontDoor> door, SnapshotPtr snapshot,
                    const EngineOptions &options);

    /** Sole owner; destroying it is the graceful shutdown(). */
    std::shared_ptr<FrontDoor> door_;
    SnapshotPtr snapshot_;  ///< the one published version
    EngineOptions options_;
};

} // namespace lutdla::serve

#endif // LUTDLA_SERVE_ENGINE_H
