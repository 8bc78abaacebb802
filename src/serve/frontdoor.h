#ifndef LUTDLA_SERVE_FRONTDOOR_H
#define LUTDLA_SERVE_FRONTDOOR_H

/**
 * @file
 * FrontDoor: the multi-tenant serving entry point — one shared worker
 * pool multiplexing every model published in its ModelRegistry
 * (serve/registry.h), with per-request deadlines, cancellation,
 * priority-aware scheduling, and typed load shedding instead of
 * unbounded blocking.
 *
 * Scheduling model: each published model carries a ModelSlo (priority
 * stratum, batch window, max batch, default deadline). Queued requests
 * live in per-model queues kept in EDF (earliest-deadline-first) order;
 * an idle worker always dispatches the model whose head request has the
 * highest priority, breaking ties by earliest deadline. Once a batch
 * opens it admits further requests for the SAME model snapshot in EDF
 * order until `slo.max_batch` rows or the `slo.batch_window_us` window
 * closes — and the window closes early when strictly higher-priority
 * work arrives for another model, so an interactive model never waits
 * out a bulk model's batch window.
 *
 * Overload contract: admission never blocks the submitter. When the
 * bounded queue is full, the scheduler sheds — an incoming request of
 * strictly higher priority evicts the lowest-priority, latest-deadline
 * queued request (which is answered with ResourceExhausted); otherwise
 * the incoming request itself is refused with ResourceExhausted. A
 * request whose deadline expires before its batch opens is answered
 * with DeadlineExceeded WITHOUT executing. Every shed is a typed
 * api::Status and a per-model/per-tenant overload counter — nothing is
 * silently dropped, and nothing blocks.
 *
 * Hot-swap contract: a request pins the registry snapshot it resolved
 * at submission, so ModelRegistry::publish() of a new version is
 * drain-free — queued and in-flight requests finish on the version they
 * were admitted against, new submissions ride the new version, and no
 * batch ever mixes versions. See registry.h for the version semantics.
 *
 * Intra-batch sharding: the worker pool implements IntraBatchPool. A
 * worker that executes a large batch publishes each LUT stage's
 * encode/gather phase as a ShardTask of row blocks, runs blocks itself,
 * and waits for stragglers; idle workers steal blocks through the task's
 * atomic cursor (a wait-free claim) and run them with their OWN
 * StageScratch. One mutex/condition pair covers requests AND shard
 * tasks, so an idle worker wakes for whichever arrives first. Busy
 * workers simply don't help — progress never depends on a free worker —
 * and results are bit-exact with the unsharded sweep because shards
 * cover disjoint rows.
 *
 * This is the only scheduler in src/serve: InferenceEngine
 * (serve/engine.h) is a one-model façade over a FrontDoor.
 */

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/status.h"
#include "serve/registry.h"
#include "serve/stage.h"
#include "serve/stats.h"
#include "tensor/tensor.h"

namespace lutdla::serve {

/** Front-door pool knobs; per-model policy lives in ModelSlo. */
struct FrontDoorOptions
{
    /** Worker threads; 0 means std::thread::hardware_concurrency(). */
    int threads = 0;
    /** Bounded pending-request capacity across ALL models (requests). */
    int64_t queue_capacity = 256;
    /**
     * Spawn workers in the constructor. Turn off to pre-fill queues and
     * then start() — deterministic scheduling order, used by tests and
     * the serving demo. Admission control (capacity shedding, priority
     * eviction) is active either way; nothing ever blocks.
     */
    bool autostart = true;
};

/**
 * Per-request overrides and attribution. Unset optionals inherit from
 * the model's published ModelSlo; `tenant` only buckets statistics.
 */
struct RequestOptions
{
    /**
     * Deadline in microseconds from submission; 0 = unbounded. Unset =
     * the model's slo.default_deadline_us. Expired requests are answered
     * with DeadlineExceeded and never execute.
     */
    std::optional<int64_t> deadline_us;
    /** Priority override; unset = the model's slo.priority. */
    std::optional<int> priority;
    /** Stats bucket this request is attributed to. */
    std::string tenant = "default";
};

/**
 * Cancellable submission: the future plus a cancel() that marks the
 * request so the scheduler answers it with Cancelled instead of
 * executing. Best-effort — a request already inside a batch completes
 * normally; cancel() after completion is a no-op.
 */
struct RequestTicket
{
    std::future<api::Result<Tensor>> future;

    /** Request the scheduler drop this request before execution. */
    void
    cancel()
    {
        if (cancelled)
            cancelled->store(true, std::memory_order_relaxed);
    }

    /** Shared flag polled by the scheduler at dispatch time. */
    std::shared_ptr<std::atomic<bool>> cancelled;
};

/** Declared below; Tenant handles forward their submissions to it. */
class FrontDoor;

/**
 * Tenant handle: binds a stats bucket plus default deadline/priority
 * overrides, so callers hold one object per traffic class instead of
 * re-stating RequestOptions per call. Must not outlive the FrontDoor
 * that minted it.
 */
class Tenant
{
  public:
    Tenant() = default;

    /** Serve one request under this tenant's defaults and block. */
    api::Result<Tensor> submit(const std::string &model,
                               const Tensor &rows) const;

    /** Fire-and-wait-later variant of submit(). */
    std::future<api::Result<Tensor>> submitAsync(const std::string &model,
                                                 Tensor rows) const;

    /** submitAsync() plus a cancellation handle. */
    RequestTicket submitCancellable(const std::string &model,
                                    Tensor rows) const;

    /** The stats bucket this handle submits under. */
    const std::string &name() const { return defaults_.tenant; }

    /** The defaults applied to every submission. */
    const RequestOptions &defaults() const { return defaults_; }

  private:
    friend class FrontDoor;
    Tenant(FrontDoor *door, RequestOptions defaults)
        : door_(door), defaults_(std::move(defaults))
    {
    }

    FrontDoor *door_ = nullptr;
    RequestOptions defaults_;
};

/**
 * Multi-tenant serving front door: a ModelRegistry plus one shared
 * worker pool with deadline-aware, priority-stratified scheduling.
 * Implements IntraBatchPool so LUT stages shard big batches across the
 * pool.
 */
class FrontDoor : private IntraBatchPool
{
  public:
    /**
     * Validate options and build a front door with an EMPTY registry;
     * publish models through registry() (or the api:: facade helpers).
     * InvalidArgument on nonsense knobs.
     */
    static api::Result<std::shared_ptr<FrontDoor>>
    create(const FrontDoorOptions &options = {});

    /** Prefer create(); this constructor trusts `options` blindly. */
    explicit FrontDoor(const FrontDoorOptions &options);

    FrontDoor(const FrontDoor &) = delete;
    FrontDoor &operator=(const FrontDoor &) = delete;

    /** Graceful shutdown() — accepted requests are always answered. */
    ~FrontDoor() override;

    /** The registry of published models (thread-safe). */
    ModelRegistry &registry() { return registry_; }
    const ModelRegistry &registry() const { return registry_; }

    /** Convenience forward to registry().publish(). */
    api::Result<uint64_t> publish(const std::string &name,
                                  FrozenModel model, ModelSlo slo = {});

    /** Spawn the worker pool; idempotent; no-op after shutdown(). */
    void start();

    /**
     * Refuse new submissions, answer everything already queued (serving
     * what still fits its deadline, shedding what does not), join
     * workers. Idempotent. Never-started front doors fail queued
     * requests with FailedPrecondition instead of hanging.
     */
    void shutdown();

    /**
     * Serve one request of [rows, model's inputWidth()] against the
     * CURRENT version of `model` and block for the result. Typed
     * failures: NotFound (model not published), InvalidArgument (shape,
     * row cap), ResourceExhausted (shed under overload),
     * DeadlineExceeded (deadline passed before execution), Cancelled,
     * FailedPrecondition (after shutdown()).
     */
    api::Result<Tensor> submit(const std::string &model, const Tensor &rows,
                               const RequestOptions &options = {});

    /** Fire-and-wait-later variant of submit(). Never blocks. */
    std::future<api::Result<Tensor>>
    submitAsync(const std::string &model, Tensor rows,
                const RequestOptions &options = {});

    /** submitAsync() plus a cancellation handle. */
    RequestTicket submitCancellable(const std::string &model, Tensor rows,
                                    const RequestOptions &options = {});

    /** Mint a tenant handle carrying `defaults` (see Tenant). */
    Tenant tenant(std::string name, RequestOptions defaults = {});

    /** Consistent snapshot of the lifetime serving statistics. */
    FrontDoorStats stats() const;

    /** The options the front door runs with. */
    const FrontDoorOptions &options() const { return options_; }

  private:
    friend class InferenceEngine;
    using Clock = std::chrono::steady_clock;

    /**
     * One intra-batch parallel-for in flight: `blocks` shards claimed via
     * the atomic `next` cursor (work-stealing without a lock), `completed`
     * counts finished shards. Helpers hold shared_ptr copies, so the task
     * outlives its removal from tasks_.
     */
    struct ShardTask
    {
        ShardFn fn;                        ///< runs one block on any worker
        int64_t blocks = 0;                ///< total shard count
        std::atomic<int64_t> next{0};      ///< next unclaimed block
        std::atomic<int64_t> completed{0}; ///< finished blocks
    };

    struct Req
    {
        Tensor input;
        std::promise<api::Result<Tensor>> promise;
        SnapshotPtr snapshot;  ///< pinned at submit: the hot-swap contract
        Clock::time_point enqueued;
        Clock::time_point deadline = Clock::time_point::max();
        bool has_deadline = false;
        int priority = 0;
        int64_t rows = 0;
        uint64_t seq = 0;  ///< FIFO tiebreak within equal deadlines
        std::string tenant;
        std::shared_ptr<std::atomic<bool>> cancelled;  ///< may be null
    };

    /** Internal accumulator behind one LaneStats bucket. */
    struct LaneAccum
    {
        uint64_t accepted = 0, served = 0, rows = 0, rejected = 0;
        uint64_t shed_capacity = 0, shed_deadline = 0, cancelled = 0;
        uint64_t with_deadline = 0, deadline_met = 0;
        LatencyHistogram latency, queue_wait, service;
    };
    /** A LaneAccum counter: rejected, accepted or one of the sheds. */
    using Counter = uint64_t LaneAccum::*;

    /**
     * The one admission path. `engine_wait_us` is set only by
     * InferenceEngine and carries its AdmitOptions::max_wait_us: when the
     * queue is full it waits for space (< 0 forever, > 0 at most that
     * long, 0 not at all) instead of shedding at once, and answers
     * FailedPrecondition when no worker runs to ever make space.
     */
    std::future<api::Result<Tensor>>
    enqueue(const std::string &model, Tensor rows,
            const RequestOptions &options,
            std::shared_ptr<std::atomic<bool>> cancel_flag,
            std::optional<int64_t> engine_wait_us = std::nullopt);

    void workerLoop(int slot);
    /** Pop the highest-priority earliest-deadline head. mu_ held. */
    Req popBestLocked();
    /** Any queued head strictly above `priority`? mu_ held. */
    bool higherPriorityPendingLocked(int priority) const;
    /** Claimable shard task, or nullptr. mu_ held. */
    std::shared_ptr<ShardTask> claimableTaskLocked() const;
    /** Claim-and-run loop every shard participant executes; returns
     * whether this participant ran at least one block. */
    bool runShards(ShardTask &task, StageScratch &scratch);
    void parallelFor(int64_t blocks, const ShardFn &fn,
                     StageScratch &caller) override;
    void executeBatch(std::vector<Req> &batch, int64_t rows,
                      const SnapshotPtr &snapshot, StageScratch &scratch,
                      int slot);
    void failRemaining();

    /** Bump `counter` in the total, model and tenant buckets. */
    void count(Counter counter, const std::string &model,
               const std::string &tenant);
    /** Settle a request with a typed error and bump its shed counter. */
    void shed(Req &req, Counter counter, api::Status status);
    /** Shed `req` if it was cancelled or its deadline has passed. */
    bool shedIfDead(Req &req);

    FrontDoorOptions options_;
    ModelRegistry registry_;

    std::mutex mu_;  ///< queues + shard tasks + lifecycle flags
    std::condition_variable work_;       ///< requests OR shard work
    std::condition_variable task_done_;  ///< shard-task completion
    std::condition_variable space_;      ///< queue space (engine admission)
    std::map<std::string, std::deque<Req>> queues_;  ///< EDF per model
    std::vector<std::shared_ptr<ShardTask>> tasks_;
    int64_t total_queued_ = 0;
    uint64_t next_seq_ = 0;
    bool started_ = false;
    bool closed_ = false;
    std::vector<std::thread> workers_;

    void snapshotLane(const LaneAccum &accum, LaneStats &out) const;

    mutable std::mutex stats_mu_;
    uint64_t batches_ = 0;
    std::vector<uint64_t> batch_fill_;
    uint64_t encode_ns_ = 0;
    uint64_t gather_ns_ = 0;
    std::vector<uint8_t> worker_active_;  ///< per-slot: batch or shard ran
    Clock::time_point first_enqueued_ = Clock::time_point::max();
    Clock::time_point last_done_;
    LaneAccum total_accum_;
    std::map<std::string, LaneAccum> model_accum_;
    std::map<std::string, LaneAccum> tenant_accum_;
    std::map<std::string, uint64_t> last_version_;
};

} // namespace lutdla::serve

#endif // LUTDLA_SERVE_FRONTDOOR_H
