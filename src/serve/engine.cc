#include "serve/engine.h"

#include <utility>

namespace lutdla::serve {

namespace {

/** The name the engine's one model is published under. */
const std::string kModelName = "engine";

} // namespace

api::Result<std::shared_ptr<InferenceEngine>>
InferenceEngine::create(FrozenModel model, const EngineOptions &options)
{
    FrontDoorOptions door_options;
    door_options.threads = options.threads;
    door_options.queue_capacity = options.queue_capacity;
    door_options.autostart = false;  // publish first, then start
    api::Result<std::shared_ptr<FrontDoor>> door =
        FrontDoor::create(door_options);
    if (!door.ok())
        return door.status();

    ModelSlo slo;
    slo.max_batch = options.max_batch;
    slo.batch_window_us = options.max_wait_us;
    if (api::Result<uint64_t> version =
            door.value()->publish(kModelName, std::move(model), slo);
        !version.ok())
        return version.status();

    EngineOptions resolved = options;
    resolved.threads = door.value()->options().threads;
    SnapshotPtr snapshot = door.value()->registry().resolve(kModelName);
    std::shared_ptr<InferenceEngine> engine(new InferenceEngine(
        door.take(), std::move(snapshot), resolved));
    if (resolved.autostart)
        engine->start();
    return engine;
}

InferenceEngine::InferenceEngine(std::shared_ptr<FrontDoor> door,
                                 SnapshotPtr snapshot,
                                 const EngineOptions &options)
    : door_(std::move(door)), snapshot_(std::move(snapshot)),
      options_(options)
{
}

void
InferenceEngine::start()
{
    door_->start();
}

void
InferenceEngine::shutdown()
{
    door_->shutdown();
}

std::future<api::Result<Tensor>>
InferenceEngine::submitAsync(Tensor rows)
{
    return submitAsync(std::move(rows), AdmitOptions{});
}

std::future<api::Result<Tensor>>
InferenceEngine::submitAsync(Tensor rows, AdmitOptions admit)
{
    return door_->enqueue(kModelName, std::move(rows), {}, nullptr,
                          admit.max_wait_us);
}

api::Result<Tensor>
InferenceEngine::trySubmit(const Tensor &rows)
{
    return submitAsync(rows, AdmitOptions::nonBlocking()).get();
}

api::Result<Tensor>
InferenceEngine::submit(const Tensor &rows)
{
    return submitAsync(rows).get();
}

EngineStats
InferenceEngine::stats() const
{
    // The door serves only this model, so its totals are the model's.
    const FrontDoorStats door = door_->stats();
    const LaneStats &lane = door.total;
    EngineStats out;
    static_cast<PoolStats &>(out) = door;
    out.requests = lane.served;
    out.rows = lane.rows;
    out.batches = door.batches;
    out.rejected = lane.rejected + lane.shed();
    out.wall_seconds = door.wall_seconds;
    out.mean_latency_us = lane.mean_latency_us;
    out.p50_latency_us = lane.p50_latency_us;
    out.p99_latency_us = lane.p99_latency_us;
    out.mean_queue_us = lane.mean_queue_us;
    out.p50_queue_us = lane.p50_queue_us;
    out.p99_queue_us = lane.p99_queue_us;
    out.mean_service_us = lane.mean_service_us;
    out.p50_service_us = lane.p50_service_us;
    out.p99_service_us = lane.p99_service_us;
    out.batch_fill = door.batch_fill;
    out.batch_fill.resize(static_cast<size_t>(options_.max_batch) + 1, 0);
    return out;
}

} // namespace lutdla::serve
