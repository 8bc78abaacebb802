#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

/**
 * @file
 * Shared pieces of the repository benchmark: command-line arguments, the
 * result record every workload fills, order statistics, seeded inputs,
 * and host facts. See perfbench/README.md for the workloads and metrics.
 */

#include <chrono>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "api/status.h"
#include "tensor/tensor.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Parsed command line. */
struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/** One named measurement with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * What one workload run produced. `attempted` counts requests sent in
 * the measured phase; `failed` counts those that failed, were shed, or
 * returned a wrong output. `correct` is false as soon as one output
 * mismatched its reference. `detail` holds extra JSON fields (already
 * encoded) that are printed on the line before the result.
 */
struct Result
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t mismatched = 0;
    std::vector<Metric> metrics;
    std::vector<std::pair<std::string, std::string>> detail;

    void add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
    void note(const std::string &key, const std::string &json_value)
    {
        detail.emplace_back(key, json_value);
    }
    void note(const std::string &key, double value);
};

/** Seconds elapsed since `t0`. */
double secondsSince(Clock::time_point t0);

/** Microseconds between two time points. */
double microsBetween(Clock::time_point a, Clock::time_point b);

/** Median of `values` (0 when empty). */
double median(std::vector<double> values);

/**
 * Percentile `p` in [0, 100] of `values` by the nearest-rank rule on the
 * sorted sample (0 when empty).
 */
double percentile(std::vector<double> values, double p);

/** [rows, width] standard-normal rows drawn from `seed`. */
lutdla::Tensor randomRows(int64_t rows, int64_t width, uint64_t seed);

/** Rows [first, first + count) of `x` as a new tensor. */
lutdla::Tensor sliceRows(const lutdla::Tensor &x, int64_t first,
                         int64_t count);

/** True when `y` equals rows [first, first + y.rows) of `ref` bit for bit. */
bool equalsRows(const lutdla::Tensor &y, const lutdla::Tensor &ref,
                int64_t first);

/**
 * Run `setup` `reps` times, each in a fresh child process, and return
 * the numbers each run produced. Every repetition is a cold start, and
 * the caller's peak RSS stays that of the one deployment it serves.
 * Throws when a child fails.
 */
std::vector<std::vector<double>>
timeInChildren(int reps, const std::function<std::vector<double>()> &setup);

/** Peak resident set size of this process in MB (10^6 bytes). */
double peakRssMb();

/** `wanted` worker threads, capped at one fewer than the host's hardware
 * threads so the load generator keeps a core of its own. */
int workerCount(int wanted);

/** The CPUs this process may run on (empty when the host will not say). */
std::vector<int> allowedCpus();

/**
 * Restrict the calling thread to `cpus`; threads it creates afterwards
 * inherit the restriction. Returns false when `cpus` is empty or the
 * host refuses.
 */
bool pinCallingThread(const std::vector<int> &cpus);

/** The value of `result`, or a std::runtime_error carrying its status. */
template <typename T>
T
orThrow(lutdla::api::Result<T> result)
{
    if (!result.ok())
        throw std::runtime_error(result.status().toString());
    return result.take();
}

/** Print the detail line and then the final result line. */
void printResult(const Result &result, const Args &args);

/** Workload entry points (closed_loop.cc, two_tenant.cc). */
Result runResnet18Int4(const Args &args);
Result runTransformerF32(const Args &args);
Result runTwoTenantOpen(const Args &args);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
