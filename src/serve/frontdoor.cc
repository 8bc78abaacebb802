#include "serve/frontdoor.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace lutdla::serve {

api::Result<std::shared_ptr<FrontDoor>>
FrontDoor::create(const FrontDoorOptions &options)
{
    if (options.threads < 0 || options.threads > 1024)
        return api::Status::invalidArgument(
            "threads must be in [0, 1024] (got " +
            std::to_string(options.threads) + ")");
    if (options.queue_capacity < 1)
        return api::Status::invalidArgument(
            "queue_capacity must be >= 1 (got " +
            std::to_string(options.queue_capacity) + ")");
    return std::make_shared<FrontDoor>(options);
}

FrontDoor::FrontDoor(const FrontDoorOptions &options) : options_(options)
{
    if (options_.threads == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        options_.threads = hw == 0 ? 1 : static_cast<int>(hw);
    }
    if (options_.autostart)
        start();
}

FrontDoor::~FrontDoor()
{
    shutdown();
}

api::Result<uint64_t>
FrontDoor::publish(const std::string &name, FrozenModel model, ModelSlo slo)
{
    return registry_.publish(name, std::move(model), slo);
}

void
FrontDoor::start()
{
    std::unique_lock<std::mutex> lock(mu_);
    if (started_ || closed_)
        return;
    started_ = true;
    {
        std::unique_lock<std::mutex> stats_lock(stats_mu_);
        worker_active_.assign(static_cast<size_t>(options_.threads), 0);
    }
    workers_.reserve(static_cast<size_t>(options_.threads));
    for (int i = 0; i < options_.threads; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

void
FrontDoor::shutdown()
{
    {
        std::unique_lock<std::mutex> lock(mu_);
        if (closed_)
            return;
        closed_ = true;
        work_.notify_all();
        task_done_.notify_all();
        space_.notify_all();
    }
    for (std::thread &worker : workers_)
        worker.join();
    workers_.clear();
    // Never-started front doors still owe answers for queued requests.
    failRemaining();
}

void
FrontDoor::failRemaining()
{
    std::map<std::string, std::deque<Req>> orphans;
    {
        std::unique_lock<std::mutex> lock(mu_);
        orphans.swap(queues_);
        total_queued_ = 0;
    }
    for (auto &entry : orphans)
        for (Req &req : entry.second)
            req.promise.set_value(api::Status::failedPrecondition(
                "front door shut down before this request was served"));
}

Tenant
FrontDoor::tenant(std::string name, RequestOptions defaults)
{
    defaults.tenant = std::move(name);
    return Tenant(this, std::move(defaults));
}

api::Result<Tensor>
FrontDoor::submit(const std::string &model, const Tensor &rows,
                  const RequestOptions &options)
{
    return submitAsync(model, rows, options).get();
}

std::future<api::Result<Tensor>>
FrontDoor::submitAsync(const std::string &model, Tensor rows,
                       const RequestOptions &options)
{
    return enqueue(model, std::move(rows), options, nullptr);
}

RequestTicket
FrontDoor::submitCancellable(const std::string &model, Tensor rows,
                             const RequestOptions &options)
{
    RequestTicket ticket;
    ticket.cancelled = std::make_shared<std::atomic<bool>>(false);
    ticket.future =
        enqueue(model, std::move(rows), options, ticket.cancelled);
    return ticket;
}

std::future<api::Result<Tensor>>
FrontDoor::enqueue(const std::string &model, Tensor rows,
                   const RequestOptions &options,
                   std::shared_ptr<std::atomic<bool>> cancel_flag,
                   std::optional<int64_t> engine_wait_us)
{
    std::promise<api::Result<Tensor>> promise;
    std::future<api::Result<Tensor>> future = promise.get_future();
    const std::string tenant =
        options.tenant.empty() ? "default" : options.tenant;

    // Validation failures are `rejected`, not `shed`: the request was
    // never admissible, as opposed to admissible traffic dropped under
    // overload.
    auto reject = [&](api::Status status) {
        count(&LaneAccum::rejected, model, tenant);
        promise.set_value(std::move(status));
        return std::move(future);
    };

    const SnapshotPtr snapshot = registry_.resolve(model);
    if (!snapshot)
        return reject(api::Status::notFound(
            "model '" + model + "' is not published; publish() it first"));
    const ModelSlo &slo = snapshot->slo;
    if (rows.rank() != 2 ||
        rows.dim(1) != snapshot->model.inputWidth())
        return reject(api::Status::invalidArgument(
            "request for '" + model + "' must be [rows, " +
            std::to_string(snapshot->model.inputWidth()) + "], got " +
            shapeStr(rows.shape())));
    if (rows.dim(0) < 1)
        return reject(api::Status::invalidArgument(
            "request must carry at least one row"));
    if (rows.dim(0) > slo.max_batch)
        return reject(api::Status::invalidArgument(
            "request of " + std::to_string(rows.dim(0)) +
            " rows exceeds '" + model + "' slo.max_batch " +
            std::to_string(slo.max_batch) + "; split it"));
    if (rows.dim(0) % snapshot->model.rowGroup() != 0)
        return reject(api::Status::invalidArgument(
            "request of " + std::to_string(rows.dim(0)) +
            " rows is not a multiple of the model's sequence length " +
            std::to_string(snapshot->model.rowGroup()) +
            "; attention models serve whole [B*seq_len, D] sequences"));

    Req req;
    req.rows = rows.dim(0);
    req.input = std::move(rows);
    req.snapshot = snapshot;
    req.enqueued = Clock::now();
    req.priority = options.priority ? *options.priority : slo.priority;
    req.tenant = tenant;
    req.cancelled = std::move(cancel_flag);
    const int64_t deadline_us = options.deadline_us
                                    ? *options.deadline_us
                                    : slo.default_deadline_us;
    if (deadline_us < 0)
        return reject(api::Status::invalidArgument(
            "deadline_us must be >= 0 (got " +
            std::to_string(deadline_us) + ")"));
    if (deadline_us > 0) {
        req.has_deadline = true;
        req.deadline =
            req.enqueued + std::chrono::microseconds(deadline_us);
    }

    std::unique_lock<std::mutex> lock(mu_);
    // The engine's backpressure: wait for space while workers run.
    const auto has_space = [&] {
        return closed_ || total_queued_ < options_.queue_capacity;
    };
    if (engine_wait_us && *engine_wait_us != 0 && started_) {
        if (*engine_wait_us < 0)
            space_.wait(lock, has_space);
        else
            space_.wait_for(lock,
                            std::chrono::microseconds(*engine_wait_us),
                            has_space);
    }
    if (closed_ || (engine_wait_us && !started_ && !has_space())) {
        const bool closed = closed_;
        lock.unlock();
        return reject(api::Status::failedPrecondition(
            closed ? "front door is shut down; create a new one"
                   : "request queue is full and no workers are "
                     "running; call start() or raise queue_capacity"));
    }
    req.promise = std::move(promise);

    if (total_queued_ >= options_.queue_capacity) {
        // Overload: the front door never blocks the submitter (an engine
        // submission has already waited above). Evict the worst queued
        // request (lowest priority, then latest deadline, then newest)
        // iff the incoming one strictly outranks it; otherwise refuse
        // the incoming request. Either way the loser gets a typed
        // ResourceExhausted and an overload counter tick.
        auto victim_queue = queues_.end();
        std::deque<Req>::iterator victim_it;
        for (auto qit = queues_.begin(); qit != queues_.end(); ++qit) {
            for (auto rit = qit->second.begin(); rit != qit->second.end();
                 ++rit) {
                if (victim_queue == queues_.end()) {
                    victim_queue = qit;
                    victim_it = rit;
                    continue;
                }
                const Req &cur = *victim_it;
                if (rit->priority < cur.priority ||
                    (rit->priority == cur.priority &&
                     (rit->deadline > cur.deadline ||
                      (rit->deadline == cur.deadline &&
                       rit->seq > cur.seq)))) {
                    victim_queue = qit;
                    victim_it = rit;
                }
            }
        }
        if (victim_queue != queues_.end() &&
            victim_it->priority < req.priority) {
            Req victim = std::move(*victim_it);
            victim_queue->second.erase(victim_it);
            if (victim_queue->second.empty())
                queues_.erase(victim_queue);
            --total_queued_;
            shed(victim, &LaneAccum::shed_capacity,
                 api::Status::resourceExhausted(
                     "shed under overload: evicted by higher-priority "
                     "traffic while the queue was full"));
        } else {
            Req refused = std::move(req);
            lock.unlock();
            shed(refused, &LaneAccum::shed_capacity,
                 api::Status::resourceExhausted(
                     engine_wait_us && *engine_wait_us > 0
                         ? "shed under overload: queue stayed full for " +
                               std::to_string(*engine_wait_us) + " us"
                         : "shed under overload: queue is full and no "
                           "lower-priority request can be evicted"));
            return future;
        }
    }

    // EDF insertion: before the first queued request with a later
    // deadline (equal deadlines stay FIFO via seq).
    req.seq = next_seq_++;
    std::deque<Req> &queue = queues_[model];
    auto pos = queue.begin();
    while (pos != queue.end() && pos->deadline <= req.deadline)
        ++pos;
    queue.insert(pos, std::move(req));
    ++total_queued_;
    count(&LaneAccum::accepted, model, tenant);
    work_.notify_one();
    return future;
}

void
FrontDoor::count(Counter counter, const std::string &model,
                 const std::string &tenant)
{
    std::unique_lock<std::mutex> stats_lock(stats_mu_);
    ++(total_accum_.*counter);
    ++(model_accum_[model].*counter);
    ++(tenant_accum_[tenant].*counter);
}

void
FrontDoor::shed(Req &req, Counter counter, api::Status status)
{
    count(counter, req.snapshot->name, req.tenant);
    req.promise.set_value(std::move(status));
}

bool
FrontDoor::shedIfDead(Req &req)
{
    if (req.cancelled && req.cancelled->load(std::memory_order_relaxed))
        shed(req, &LaneAccum::cancelled,
             api::Status::cancelled("request cancelled before execution"));
    else if (Clock::now() > req.deadline)
        shed(req, &LaneAccum::shed_deadline,
             api::Status::deadlineExceeded(
                 "deadline expired before the request was scheduled"));
    else
        return false;
    return true;
}

FrontDoor::Req
FrontDoor::popBestLocked()
{
    auto best = queues_.end();
    for (auto it = queues_.begin(); it != queues_.end(); ++it) {
        const Req &head = it->second.front();
        if (best == queues_.end()) {
            best = it;
            continue;
        }
        const Req &cur = best->second.front();
        if (head.priority > cur.priority ||
            (head.priority == cur.priority &&
             (head.deadline < cur.deadline ||
              (head.deadline == cur.deadline && head.seq < cur.seq))))
            best = it;
    }
    Req out = std::move(best->second.front());
    best->second.pop_front();
    if (best->second.empty())
        queues_.erase(best);
    --total_queued_;
    space_.notify_all();
    return out;
}

bool
FrontDoor::higherPriorityPendingLocked(int priority) const
{
    for (const auto &entry : queues_)
        if (entry.second.front().priority > priority)
            return true;
    return false;
}

std::shared_ptr<FrontDoor::ShardTask>
FrontDoor::claimableTaskLocked() const
{
    for (const auto &task : tasks_)
        if (task->next.load(std::memory_order_relaxed) < task->blocks)
            return task;
    return nullptr;
}

bool
FrontDoor::runShards(ShardTask &task, StageScratch &scratch)
{
    bool ran = false;
    while (true) {
        const int64_t block =
            task.next.fetch_add(1, std::memory_order_relaxed);
        if (block >= task.blocks)
            return ran;
        task.fn(block, scratch);
        ran = true;
        if (task.completed.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            task.blocks) {
            std::unique_lock<std::mutex> lock(mu_);
            task_done_.notify_all();
        }
    }
}

void
FrontDoor::parallelFor(int64_t blocks, const ShardFn &fn,
                       StageScratch &caller)
{
    if (blocks <= 1) {
        for (int64_t b = 0; b < blocks; ++b)
            fn(b, caller);
        return;
    }
    // Publish, participate, then wait for stolen stragglers. The caller
    // always claims blocks itself, so the phase completes even when every
    // other worker is busy with its own batch.
    auto task = std::make_shared<ShardTask>();
    task->fn = fn;
    task->blocks = blocks;
    {
        std::unique_lock<std::mutex> lock(mu_);
        tasks_.push_back(task);
        work_.notify_all();
    }
    runShards(*task, caller);
    std::unique_lock<std::mutex> lock(mu_);
    task_done_.wait(lock, [&] {
        return task->completed.load(std::memory_order_acquire) ==
               task->blocks;
    });
    for (size_t i = 0; i < tasks_.size(); ++i) {
        if (tasks_[i] == task) {
            tasks_.erase(tasks_.begin() + static_cast<long>(i));
            break;
        }
    }
}

void
FrontDoor::workerLoop(int slot)
{
    // Worker-lifetime scratch: the stage chain's ping-pong activation
    // planes and conv im2col buffers grow to the largest batch seen and
    // are reused for every later batch; with more than one worker the
    // scratch carries the intra-batch pool so LUT stages this worker
    // initiates can shard across the pool.
    StageScratch scratch;
    if (options_.threads > 1)
        scratch.pool = this;

    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
        work_.wait(lock, [&] {
            return closed_ || total_queued_ > 0 ||
                   claimableTaskLocked() != nullptr;
        });
        if (auto task = claimableTaskLocked()) {
            lock.unlock();
            // A worker that only steals shard blocks still counts as
            // active: batch coalescing can funnel every request through
            // one initiator.
            if (runShards(*task, scratch)) {
                std::unique_lock<std::mutex> stats_lock(stats_mu_);
                worker_active_[static_cast<size_t>(slot)] = 1;
            }
            lock.lock();
            continue;
        }
        if (total_queued_ == 0) {
            if (closed_)
                return;  // drained: requests AND shard work
            continue;    // spurious wake (shard task drained under us)
        }

        Req first = popBestLocked();
        const auto opened = Clock::now();
        if (shedIfDead(first))
            continue;

        // Open a batch pinned to this request's snapshot — never to the
        // registry's CURRENT version, which may change mid-batch.
        const SnapshotPtr snapshot = first.snapshot;
        const ModelSlo &slo = snapshot->slo;
        const std::string model_name = snapshot->name;
        std::vector<Req> batch;
        int64_t rows = first.rows;
        batch.push_back(std::move(first));
        const auto window_end =
            opened + std::chrono::microseconds(slo.batch_window_us);

        while (rows < slo.max_batch) {
            // Admit every same-snapshot request queued right now, in EDF
            // order, settling dead (cancelled / expired) ones on the way
            // without executing them.
            bool admitted = false;
            const int64_t queued_before = total_queued_;
            auto queue_it = queues_.find(model_name);
            if (queue_it != queues_.end()) {
                auto &queue = queue_it->second;
                for (auto pos = queue.begin();
                     pos != queue.end() && rows < slo.max_batch;) {
                    if (pos->snapshot != snapshot) {
                        ++pos;  // other version: next batch's problem
                        continue;
                    }
                    if (shedIfDead(*pos)) {
                        pos = queue.erase(pos);
                        --total_queued_;
                        continue;
                    }
                    if (rows + pos->rows > slo.max_batch) {
                        ++pos;
                        continue;
                    }
                    rows += pos->rows;
                    batch.push_back(std::move(*pos));
                    pos = queue.erase(pos);
                    --total_queued_;
                    admitted = true;
                }
                if (queue.empty())
                    queues_.erase(queue_it);
            }
            if (total_queued_ < queued_before)
                space_.notify_all();
            if (rows >= slo.max_batch || closed_)
                break;
            if (admitted)
                continue;  // drained the backlog; re-check the window
            const auto remaining = window_end - Clock::now();
            if (remaining <= Clock::duration::zero())
                break;
            // Strictly higher-priority pending work closes the window
            // early: an interactive model never waits out a bulk
            // model's batch window.
            if (higherPriorityPendingLocked(slo.priority))
                break;
            work_.wait_for(lock, remaining);
        }

        lock.unlock();
        executeBatch(batch, rows, snapshot, scratch, slot);
        lock.lock();
    }
}

void
FrontDoor::executeBatch(std::vector<Req> &batch, int64_t rows,
                        const SnapshotPtr &snapshot, StageScratch &scratch,
                        int slot)
{
    const FrozenModel &model = snapshot->model;
    const int64_t in_width = model.inputWidth();
    const auto exec_start = Clock::now();
    Tensor packed(Shape{rows, in_width});
    int64_t offset = 0;
    for (const Req &req : batch) {
        std::memcpy(packed.data() + offset * in_width, req.input.data(),
                    static_cast<size_t>(req.rows * in_width) *
                        sizeof(float));
        offset += req.rows;
    }

    // The stage chain accumulates its encode/gather phase times into the
    // worker's scratch; the deltas around this batch are what the batch
    // contributed.
    const uint64_t encode_before = scratch.encode_ns;
    const uint64_t gather_before = scratch.gather_ns;
    const Tensor output = model.forwardBatch(packed, scratch);
    const int64_t out_width = output.dim(1);
    const auto done = Clock::now();

    // Record stats BEFORE fulfilling promises: a caller woken by its
    // future must already see this batch reflected in stats().
    {
        std::unique_lock<std::mutex> stats_lock(stats_mu_);
        batches_++;
        if (batch_fill_.size() <= static_cast<size_t>(rows))
            batch_fill_.resize(static_cast<size_t>(rows) + 1, 0);
        batch_fill_[static_cast<size_t>(rows)]++;
        encode_ns_ += scratch.encode_ns - encode_before;
        gather_ns_ += scratch.gather_ns - gather_before;
        worker_active_[static_cast<size_t>(slot)] = 1;
        last_done_ = done;
        last_version_[snapshot->name] = snapshot->version;
        LaneAccum &model_lane = model_accum_[snapshot->name];
        for (const Req &req : batch) {
            first_enqueued_ = std::min(first_enqueued_, req.enqueued);
            const auto micros = [](Clock::duration d) {
                return static_cast<uint64_t>(std::max<int64_t>(
                    0, std::chrono::duration_cast<std::chrono::microseconds>(
                           d)
                           .count()));
            };
            const uint64_t queue_us = micros(exec_start - req.enqueued);
            const uint64_t service_us = micros(done - exec_start);
            const uint64_t latency_us = micros(done - req.enqueued);
            auto record = [&](LaneAccum &lane) {
                lane.served++;
                lane.rows += static_cast<uint64_t>(req.rows);
                lane.latency.record(latency_us);
                lane.queue_wait.record(queue_us);
                lane.service.record(service_us);
                if (req.has_deadline) {
                    lane.with_deadline++;
                    if (done <= req.deadline)
                        lane.deadline_met++;
                }
            };
            record(total_accum_);
            record(model_lane);
            record(tenant_accum_[req.tenant]);
        }
    }

    offset = 0;
    for (Req &req : batch) {
        Tensor slice(Shape{req.rows, out_width});
        std::memcpy(slice.data(), output.data() + offset * out_width,
                    static_cast<size_t>(req.rows * out_width) *
                        sizeof(float));
        offset += req.rows;
        req.promise.set_value(std::move(slice));
    }
}

void
FrontDoor::snapshotLane(const LaneAccum &accum, LaneStats &out) const
{
    out.accepted = accum.accepted;
    out.served = accum.served;
    out.rows = accum.rows;
    out.rejected = accum.rejected;
    out.shed_capacity = accum.shed_capacity;
    out.shed_deadline = accum.shed_deadline;
    out.cancelled = accum.cancelled;
    out.with_deadline = accum.with_deadline;
    out.deadline_met = accum.deadline_met;
    out.mean_latency_us = accum.latency.meanMicros();
    out.p50_latency_us = accum.latency.percentileMicros(50.0);
    out.p99_latency_us = accum.latency.percentileMicros(99.0);
    out.mean_queue_us = accum.queue_wait.meanMicros();
    out.p50_queue_us = accum.queue_wait.percentileMicros(50.0);
    out.p99_queue_us = accum.queue_wait.percentileMicros(99.0);
    out.mean_service_us = accum.service.meanMicros();
    out.p50_service_us = accum.service.percentileMicros(50.0);
    out.p99_service_us = accum.service.percentileMicros(99.0);
}

FrontDoorStats
FrontDoor::stats() const
{
    std::unique_lock<std::mutex> lock(stats_mu_);
    FrontDoorStats out;
    out.batches = batches_;
    out.batch_fill = batch_fill_;
    if (batches_ > 0)
        out.wall_seconds =
            std::chrono::duration<double>(last_done_ - first_enqueued_)
                .count();
    for (uint8_t ran : worker_active_)
        out.active_workers += ran != 0 ? 1 : 0;
    // Each worker's per-batch deltas are that batch's phase wall time
    // (sharded phases time only the initiator), so the cross-worker sum
    // divided by the active workers stays comparable across thread
    // counts instead of inflating with concurrency.
    const double active = std::max(out.active_workers, 1);
    out.encode_cpu_seconds = static_cast<double>(encode_ns_) * 1e-9;
    out.gather_cpu_seconds = static_cast<double>(gather_ns_) * 1e-9;
    out.encode_seconds = out.encode_cpu_seconds / active;
    out.gather_seconds = out.gather_cpu_seconds / active;
    snapshotLane(total_accum_, out.total);
    for (const auto &entry : model_accum_)
        snapshotLane(entry.second, out.models[entry.first]);
    for (const auto &entry : tenant_accum_)
        snapshotLane(entry.second, out.tenants[entry.first]);
    out.last_version = last_version_;
    return out;
}

api::Result<Tensor>
Tenant::submit(const std::string &model, const Tensor &rows) const
{
    return submitAsync(model, rows).get();
}

std::future<api::Result<Tensor>>
Tenant::submitAsync(const std::string &model, Tensor rows) const
{
    return submitCancellable(model, std::move(rows)).future;
}

RequestTicket
Tenant::submitCancellable(const std::string &model, Tensor rows) const
{
    if (!door_) {
        RequestTicket ticket;
        std::promise<api::Result<Tensor>> promise;
        promise.set_value(api::Status::failedPrecondition(
            "tenant handle is not bound to a front door"));
        ticket.future = promise.get_future();
        return ticket;
    }
    return door_->submitCancellable(model, std::move(rows), defaults_);
}

} // namespace lutdla::serve
