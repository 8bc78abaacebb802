/**
 * @file
 * two-tenant-open: one serve::FrontDoor (3 workers) serving two models
 * under open-loop Poisson arrivals from one generator thread.
 *
 *  - interactive: a LeNet-style CNN (conv/im2col path, float32 plan),
 *    priority 10, max_batch 32, 100 us window, 50 ms deadline, 1-row
 *    requests. Republished every half second, alternating two versions,
 *    so registry writes run beside reads.
 *  - bulk: a 3-layer int8-table trace model, priority 0, max_batch 64,
 *    200 us window, 8-row requests.
 *
 * Latency is timed from each request's due send time, so a late
 * generator shows up in it; the generator's own lateness is reported
 * too. The generator spins between sends (sleeping would wake it late)
 * and polls outstanding requests for completion while it waits.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <future>
#include <limits>
#include <random>
#include <stdexcept>

#include "api/serving.h"
#include "common.h"
#include "lutboost/converter.h"
#include "lutboost/lut_linear.h"
#include "nn/models.h"
#include "traced.h"
#include "util/rng.h"

namespace perfbench {

using lutdla::Tensor;
namespace api = lutdla::api;
namespace serve = lutdla::serve;

namespace {

constexpr int kDoorThreads = 3;
constexpr double kBaseInteractiveRps = 16000.0;
constexpr double kBaseBulkRps = 4000.0;
/** Offered-rate ladder, as multiples of the base rates. */
constexpr double kLadder[] = {1.0, 1.5, 2.0};
/** Shares of --seconds spent at the base rate and on each ladder rung. */
constexpr double kBaseShare = 0.55;
constexpr double kRungShare = 0.15;
/** Attempts per rung; a rung passes when one attempt passes. */
constexpr int kRungAttempts = 4;
/** Latency and lateness are judged per window of this length. */
constexpr double kWindowSeconds = 0.025;
constexpr int kSetupReps = 15;
/** Interactive p99 limit a ladder rate must meet (failures miss it). */
constexpr double kP99LimitUs = 2000.0;
/** A window counts as on schedule while the generator's p99 lateness in
 * it stays below this. */
constexpr double kLagLimitUs = 200.0;
constexpr int64_t kInteractiveDeadlineUs = 50'000;
constexpr double kPublishEverySeconds = 0.5;
constexpr int64_t kImage = 12;         ///< interactive input is 1x12x12
constexpr int64_t kBulkRequestRows = 8;
constexpr int64_t kInteractivePool = 512;
constexpr int64_t kBulkPool = 64;
constexpr int kTraceReps = 31;

const char *const kInteractive = "interactive";
const char *const kBulk = "bulk";

serve::ModelSlo
interactiveSlo()
{
    serve::ModelSlo slo;
    slo.priority = 10;
    slo.max_batch = 32;
    slo.batch_window_us = 100;
    slo.default_deadline_us = kInteractiveDeadlineUs;
    return slo;
}

serve::ModelSlo
bulkSlo()
{
    serve::ModelSlo slo;
    slo.priority = 0;
    slo.max_batch = 64;
    slo.batch_window_us = 200;
    slo.default_deadline_us = 0;
    return slo;
}

serve::PlanOptions
bulkPlan()
{
    serve::PlanOptions plan;
    plan.table_precision = serve::TablePrecision::Int8;
    return plan;
}

/** LeNet-style CNN, LUTBoost-replaced (v=3, c=16), tables not built. */
lutdla::nn::LayerPtr
lenet(uint64_t seed)
{
    lutdla::nn::LayerPtr net = lutdla::nn::makeLeNetStyle(10, seed);
    lutdla::lutboost::ConvertOptions opts;
    opts.pq.v = 3;
    opts.pq.c = 16;
    lutdla::lutboost::replaceOperators(net, opts);
    return net;
}

/** Everything the set-up stands up. */
struct Deployment
{
    std::shared_ptr<serve::FrontDoor> door;
    lutdla::nn::LayerPtr nets[2];           ///< interactive versions
    serve::FrozenModel interactive[2];
    serve::FrozenModel bulk;
    double lower_s = 0.0;
    double bank_build_s = 0.0;
};

Deployment
deploy()
{
    Deployment d;
    serve::FrontDoorOptions options;
    options.threads = workerCount(kDoorThreads);
    options.queue_capacity = 1024;
    d.door = orThrow(api::makeFrontDoor(options));

    for (int v = 0; v < 2; ++v) {
        d.nets[v] = lenet(100 + 10 * static_cast<uint64_t>(v));
        auto t0 = Clock::now();
        for (auto *layer : lutdla::lutboost::findLutLayers(d.nets[v]))
            layer->refreshInferenceLut();
        d.bank_build_s += secondsSince(t0);
        t0 = Clock::now();
        d.interactive[v] = orThrow(serve::FrozenModel::fromModel(
            d.nets[v], serve::ServeInputShape{kImage, kImage}));
        d.lower_s += secondsSince(t0);
    }

    const std::vector<lutdla::sim::GemmShape> gemms{
        {64, 256, 256, "l1"}, {64, 256, 128, "l2"}, {64, 128, 64, "l3"}};
    lutdla::vq::PQConfig pq;
    pq.v = 8;
    pq.c = 16;
    auto t0 = Clock::now();
    const serve::FrozenModel lowered =
        orThrow(serve::FrozenModel::fromTrace(gemms, pq, {}, 9));
    d.lower_s += secondsSince(t0);
    t0 = Clock::now();
    d.bulk = lowered.withPlan(bulkPlan());
    d.bank_build_s += secondsSince(t0);

    orThrow(d.door->publish(kInteractive, d.interactive[0],
                            interactiveSlo()));
    orThrow(d.door->publish(kBulk, d.bulk, bulkSlo()));
    return d;
}

/** Inputs and the outputs each may legitimately produce. */
struct Pools
{
    Tensor interactive;          ///< [kInteractivePool, 144]
    Tensor interactive_ref[2];   ///< per version, [kInteractivePool, 10]
    Tensor bulk;                 ///< [kBulkPool * 8, 256]
    Tensor bulk_ref;
};

Pools
makePools(const Deployment &d, uint64_t seed)
{
    Pools p;
    p.interactive =
        randomRows(kInteractivePool, d.interactive[0].inputWidth(), seed);
    const Tensor images = p.interactive.reshaped(
        lutdla::Shape{kInteractivePool, 1, kImage, kImage});
    for (int v = 0; v < 2; ++v)
        p.interactive_ref[v] = d.nets[v]->forward(images, /*train=*/false);
    p.bulk = randomRows(kBulkPool * kBulkRequestRows, d.bulk.inputWidth(),
                        seed + 1);
    serve::PlanOptions untiled = bulkPlan();
    untiled.tile_rows = -1;
    p.bulk_ref = d.bulk.withPlan(untiled).forwardBatch(p.bulk);
    return p;
}

/** One scheduled arrival. */
struct Arrival
{
    double at_s;
    bool interactive;
    int64_t first_row;
};

std::vector<Arrival>
poissonSchedule(double rate_i, double rate_b, double seconds,
                lutdla::Rng &rng)
{
    const double rate = rate_i + rate_b;
    std::vector<Arrival> out;
    out.reserve(static_cast<size_t>(rate * seconds * 1.1) + 16);
    std::exponential_distribution<double> gap(rate);
    for (double t = gap(rng.engine()); t < seconds; t += gap(rng.engine())) {
        const bool inter = rng.uniform() < rate_i / rate;
        const int64_t first =
            inter ? rng.uniformInt(0, kInteractivePool - 1)
                  : rng.uniformInt(0, kBulkPool - 1) * kBulkRequestRows;
        out.push_back({t, inter, first});
    }
    return out;
}

/**
 * What one open-loop phase observed. Samples are kept per window of
 * kWindowSeconds (by due time). A window in which the generator fell
 * behind (its p99 lateness above kLagLimitUs, which on a shared host
 * means the generator thread was descheduled) measured the host, not the
 * door; the phase's figures are medians over the windows in which the
 * generator kept schedule. The share of such windows is reported.
 */
struct PhaseOutcome
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t mismatched = 0;
    uint64_t served = 0;
    uint64_t rows = 0;
    /** Per window: interactive latency (failed = +inf), bulk latency,
     * generator lateness, all in microseconds. */
    std::vector<std::vector<double>> interactive, bulk, lag;
    std::vector<double> publish_us;
    bool backlog_grew = false;

    bool
    windowOnSchedule(size_t w) const
    {
        return percentile(lag[w], 99.0) <= kLagLimitUs;
    }

    /** Share of windows in which the generator kept schedule. */
    double
    onScheduleShare() const
    {
        size_t on = 0;
        for (size_t w = 0; w < lag.size(); ++w)
            on += windowOnSchedule(w) ? 1 : 0;
        return lag.empty() ? 0.0
                           : static_cast<double>(on) /
                                 static_cast<double>(lag.size());
    }

    /** The generator kept schedule in at least half the windows, so the
     * phase tested the door. */
    bool onSchedule() const { return onScheduleShare() >= 0.5; }

    /** Median over on-schedule windows of each window's percentile `p`
     * of `samples` (all windows when none kept schedule). */
    double
    windowed(const std::vector<std::vector<double>> &samples, double p) const
    {
        std::vector<double> on, all;
        for (size_t w = 0; w < samples.size(); ++w) {
            if (samples[w].empty())
                continue;
            const double value = percentile(samples[w], p);
            all.push_back(value);
            if (windowOnSchedule(w))
                on.push_back(value);
        }
        return median(on.empty() ? all : on);
    }

    /** All of a phase's samples of one kind, across windows. */
    static std::vector<double>
    pooled(const std::vector<std::vector<double>> &windows)
    {
        std::vector<double> all;
        for (const std::vector<double> &w : windows)
            all.insert(all.end(), w.begin(), w.end());
        return all;
    }

    /** A ladder rung passes when the generator kept schedule, the
     * interactive p99 met its limit (failures miss it), and the backlog
     * did not grow. */
    bool
    passes() const
    {
        return onSchedule() && windowed(interactive, 99.0) <= kP99LimitUs &&
               !backlog_grew;
    }
};

/**
 * Send `schedule` open-loop, polling for completions between sends, and
 * check every response. With `publish_every_s` > 0, republish the
 * interactive model (alternating versions) at that period.
 */
PhaseOutcome
runPhase(Deployment &d, const Pools &p, const std::vector<Arrival> &schedule,
         double seconds, double publish_every_s, int &live_version)
{
    struct Pending
    {
        std::future<api::Result<Tensor>> future;
        Clock::time_point due;
        size_t window;
        bool interactive;
        int64_t first_row;
    };
    PhaseOutcome out;
    const size_t windows = static_cast<size_t>(
        std::max(1.0, std::round(seconds / kWindowSeconds)));
    out.interactive.resize(windows);
    out.bulk.resize(windows);
    out.lag.resize(windows);
    std::vector<Pending> pending;
    pending.reserve(1024);

    serve::RequestOptions web, batch;
    web.tenant = "web";
    batch.tenant = "batch";

    // Outstanding requests sampled once a millisecond while sending, for
    // the backlog test.
    std::vector<double> backlog;
    const auto start = Clock::now() + std::chrono::milliseconds(1);
    auto next_sample = start;
    double next_publish_s = publish_every_s;
    auto at = [&](double s) {
        return start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(s));
    };

    auto complete = [&](Pending &req, Clock::time_point now) {
        api::Result<Tensor> result = req.future.get();
        bool ok = result.ok();
        if (ok) {
            ok = req.interactive
                     ? equalsRows(*result, p.interactive_ref[0],
                                  req.first_row) ||
                           equalsRows(*result, p.interactive_ref[1],
                                      req.first_row)
                     : equalsRows(*result, p.bulk_ref, req.first_row);
            out.mismatched += ok ? 0 : 1;
        }
        if (!ok) {
            ++out.failed;
            if (req.interactive)
                out.interactive[req.window].push_back(
                    std::numeric_limits<double>::infinity());
            return;
        }
        ++out.served;
        out.rows += static_cast<uint64_t>(result->dim(0));
        (req.interactive ? out.interactive : out.bulk)[req.window].push_back(
            microsBetween(req.due, now));
    };

    size_t next = 0;
    while (next < schedule.size() || !pending.empty()) {
        auto now = Clock::now();
        if (next < schedule.size()) {
            const Arrival &a = schedule[next];
            const auto due = at(a.at_s);
            if (now >= due) {
                const size_t window = std::min(
                    windows - 1, static_cast<size_t>(a.at_s / kWindowSeconds));
                Tensor rows =
                    a.interactive
                        ? sliceRows(p.interactive, a.first_row, 1)
                        : sliceRows(p.bulk, a.first_row, kBulkRequestRows);
                pending.push_back(
                    {d.door->submitAsync(a.interactive ? kInteractive
                                                       : kBulk,
                                         std::move(rows),
                                         a.interactive ? web : batch),
                     due, window, a.interactive, a.first_row});
                out.lag[window].push_back(microsBetween(due, Clock::now()));
                ++out.attempted;
                ++next;
                continue;
            }
            if (publish_every_s > 0 && now >= at(next_publish_s)) {
                live_version ^= 1;
                const auto t0 = Clock::now();
                orThrow(d.door->publish(kInteractive,
                                        d.interactive[live_version],
                                        interactiveSlo()));
                out.publish_us.push_back(microsBetween(t0, Clock::now()));
                next_publish_s += publish_every_s;
                continue;
            }
            if (now >= next_sample) {
                backlog.push_back(static_cast<double>(pending.size()));
                next_sample += std::chrono::milliseconds(1);
            }
        }
        now = Clock::now();
        for (size_t k = 0; k < pending.size();) {
            if (pending[k].future.wait_for(std::chrono::seconds(0)) ==
                std::future_status::ready) {
                complete(pending[k], now);
                pending[k] = std::move(pending.back());
                pending.pop_back();
            } else {
                ++k;
            }
        }
    }

    // The backlog grew when the last quarter of the phase held clearly
    // more outstanding requests than the second quarter did. Medians, so
    // the burst a generator stall leaves behind does not count.
    const size_t q = backlog.size() / 4;
    if (q > 0) {
        const auto quarter = [&](size_t first) {
            return median(std::vector<double>(backlog.begin() + first,
                                              backlog.begin() + first + q));
        };
        out.backlog_grew = quarter(backlog.size() - q) > 2.0 * quarter(q) + 8.0;
    }
    return out;
}

PhaseOutcome
runRate(Deployment &d, const Pools &pools, double multiple, double seconds,
        double publish_every_s, int &live_version, lutdla::Rng &rng)
{
    return runPhase(d, pools,
                    poissonSchedule(multiple * kBaseInteractiveRps,
                                    multiple * kBaseBulkRps, seconds, rng),
                    seconds, publish_every_s, live_version);
}

} // namespace

Result
runTwoTenantOpen(const Args &args)
{
    Result result;

    // Set-up: timed in fresh child processes, then once more here for
    // the deployment that serves.
    std::vector<double> setup_s, lower_s, bank_s;
    auto timedDeploy = [&](Deployment &out) -> std::vector<double> {
        const auto t0 = Clock::now();
        out = deploy();
        return {secondsSince(t0), out.lower_s, out.bank_build_s};
    };
    std::vector<std::vector<double>> timings =
        timeInChildren(kSetupReps - 1, [&] {
            Deployment discarded;
            return timedDeploy(discarded);
        });
    // The generator spins between sends, so it gets a CPU of its own: the
    // door's workers are created on the other CPUs, then this thread,
    // which becomes the generator, moves to the one left over.
    const std::vector<int> cpus = allowedCpus();
    const bool own_cpu =
        cpus.size() > static_cast<size_t>(workerCount(kDoorThreads)) &&
        pinCallingThread(std::vector<int>(cpus.begin(), cpus.end() - 1));
    Deployment d;
    timings.push_back(timedDeploy(d));
    if (own_cpu)
        pinCallingThread({cpus.back()});
    result.note("generator_cpu", own_cpu ? cpus.back() : -1.0);
    for (const std::vector<double> &t : timings) {
        setup_s.push_back(t.at(0));
        lower_s.push_back(t.at(1));
        bank_s.push_back(t.at(2));
    }

    const Pools pools = makePools(d, args.seed);
    lutdla::Rng rng(args.seed ^ 0x51ed270b27a1f3c5ull);
    int live_version = 0;

    const double warmup_s = std::max(0.5, 0.05 * args.seconds);
    const double base_s =
        args.trace ? args.seconds : kBaseShare * args.seconds;
    const PhaseOutcome warm =
        runRate(d, pools, 1.0, warmup_s, 0.0, live_version, rng);
    const PhaseOutcome base = runRate(d, pools, 1.0, base_s,
                                      kPublishEverySeconds, live_version, rng);
    const std::vector<double> lag = PhaseOutcome::pooled(base.lag);
    // Peak RSS while serving the base traffic. The ladder probes overload
    // and leaves bursts behind, so the whole run's peak (a detail field)
    // varies with host stalls.
    const double base_peak_rss_mb = peakRssMb();

    result.attempted = base.attempted;
    result.failed = base.failed;
    result.mismatched = warm.mismatched + base.mismatched;
    if (warm.failed > 0)
        result.note("warmup_failed", static_cast<double>(warm.failed));
    result.note("failed_frac",
                base.attempted ? static_cast<double>(base.failed) /
                                     static_cast<double>(base.attempted)
                               : 0.0);
    result.note("interactive_samples",
                static_cast<double>(
                    PhaseOutcome::pooled(base.interactive).size()));
    result.note("bulk_samples",
                static_cast<double>(PhaseOutcome::pooled(base.bulk).size()));
    result.note("windows", static_cast<double>(base.interactive.size()));
    result.note("windows_on_schedule", base.onScheduleShare());
    result.note("pooled_latency_p99_us",
                percentile(PhaseOutcome::pooled(base.interactive), 99.0));
    result.note("gen_lag_p50_us", percentile(lag, 50.0));
    result.note("gen_lag_p99_us", percentile(lag, 99.0));
    result.note("base_backlog_grew", base.backlog_grew ? "true" : "false");

    if (!args.trace) {
        // Ladder: climb until a rung fails (see PhaseOutcome::passes).
        const double rung_s = kRungShare * args.seconds;
        double max_rate = 0.0;
        std::string rungs = "[";
        for (double multiple : kLadder) {
            // A host stall can fail a healthy rung (the generator falls
            // behind, or the backlog it leaves looks like growth), so a
            // failed rung is run again; an overloaded door fails every
            // attempt.
            PhaseOutcome rung;
            for (int attempt = 0; attempt < kRungAttempts; ++attempt) {
                rung = runRate(d, pools, multiple, rung_s, 0.0, live_version,
                               rng);
                result.mismatched += rung.mismatched;
                char buf[200];
                std::snprintf(
                    buf, sizeof buf,
                    "%s{\"offered_rps\": %.0f, \"p99_us\": %.1f, "
                    "\"on_schedule\": %.2f, \"backlog_grew\": %s, "
                    "\"failed\": %llu}",
                    rungs.size() > 1 ? ", " : "",
                    multiple * (kBaseInteractiveRps + kBaseBulkRps),
                    rung.windowed(rung.interactive, 99.0),
                    rung.onScheduleShare(),
                    rung.backlog_grew ? "true" : "false",
                    static_cast<unsigned long long>(rung.failed));
                rungs += buf;
                if (rung.passes())
                    break;
            }
            if (!rung.passes())
                break;
            max_rate = static_cast<double>(rung.served) / rung_s;
        }
        result.note("ladder", rungs + "]");
        d.door->shutdown();
        result.correct = result.mismatched == 0;

        result.add("rows_per_s", static_cast<double>(base.rows) / base_s,
                   "rows/s");
        result.add("latency_p50_us",
                   base.windowed(base.interactive, 50.0), "us");
        result.add("latency_p99_us",
                   base.windowed(base.interactive, 99.0), "us");
        result.add("bulk_latency_p50_us",
                   base.windowed(base.bulk, 50.0), "us");
        result.add("max_rate_rps", max_rate, "1/s");
        result.add("setup_s", median(setup_s), "s");
        result.add("peak_rss_mb", base_peak_rss_mb, "MB");
        result.note("run_peak_rss_mb", peakRssMb());
        return result;
    }

    d.door->shutdown();
    result.correct = result.mismatched == 0;
    const serve::FrontDoorStats stats = d.door->stats();
    const serve::LaneStats &inter = stats.models.at(kInteractive);
    result.add("frontdoor.queue_wait_p99_us", inter.p99_queue_us, "us");
    result.add("frontdoor.rows_per_batch",
               stats.batches ? static_cast<double>(stats.total.rows) /
                                   static_cast<double>(stats.batches)
                             : 0.0,
               "rows");
    result.add("frontdoor.shed_capacity",
               static_cast<double>(stats.total.shed_capacity), "count");
    result.add("frontdoor.shed_deadline",
               static_cast<double>(stats.total.shed_deadline), "count");
    result.add("frontdoor.slo_attainment", inter.sloAttainment(), "ratio");
    result.add("registry.publish_us", median(base.publish_us), "us");
    result.add("gen.lag_p50_us", percentile(lag, 50.0), "us");
    result.add("gen.lag_p99_us", percentile(lag, 99.0), "us");
    result.add("setup.lower_s", median(lower_s), "s");
    result.add("setup.bank_build_s", median(bank_s), "s");
    int64_t resident = d.bulk.residentBytes() + d.bulk.encodeBytes();
    for (const serve::FrozenModel &m : d.interactive)
        resident += m.residentBytes() + m.encodeBytes();
    result.add("lutboost.resident_table_mb",
               static_cast<double>(resident) / 1e6, "MB");
    result.note("peak_rss_mb", peakRssMb());

    // Traced pass over the latency-critical model at its max batch.
    const StageTrace trace = traceStages(
        d.interactive[0],
        sliceRows(pools.interactive, 0, interactiveSlo().max_batch),
        kTraceReps);
    if (!trace.output_matches) {
        result.correct = false;
        result.note("traced_output_mismatch", "true");
    }
    addTraceMetrics(result, trace);
    return result;
}

} // namespace perfbench
