#include "common.h"

#include <cpuid.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "util/cpu_features.h"
#include "util/rng.h"

namespace perfbench {

void
Result::note(const std::string &key, double value)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", value);
    detail.emplace_back(key, std::isfinite(value) ? buf : "null");
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
microsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 50.0);
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    const size_t n = values.size();
    size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
    rank = std::clamp<size_t>(rank, 1, n);
    std::nth_element(values.begin(), values.begin() + (rank - 1),
                     values.end());
    return values[rank - 1];
}

lutdla::Tensor
randomRows(int64_t rows, int64_t width, uint64_t seed)
{
    lutdla::Rng rng(seed);
    lutdla::Tensor x(lutdla::Shape{rows, width});
    for (int64_t i = 0; i < x.numel(); ++i)
        x.data()[i] = static_cast<float>(rng.gaussian(0.0, 1.0));
    return x;
}

lutdla::Tensor
sliceRows(const lutdla::Tensor &x, int64_t first, int64_t count)
{
    const int64_t width = x.dim(1);
    lutdla::Tensor out(lutdla::Shape{count, width});
    std::memcpy(out.data(), x.data() + first * width,
                static_cast<size_t>(count * width) * sizeof(float));
    return out;
}

bool
equalsRows(const lutdla::Tensor &y, const lutdla::Tensor &ref,
           int64_t first)
{
    if (y.rank() != 2 || y.dim(1) != ref.dim(1) ||
        first + y.dim(0) > ref.dim(0))
        return false;
    return std::memcmp(y.data(), ref.data() + first * ref.dim(1),
                       static_cast<size_t>(y.numel()) * sizeof(float)) == 0;
}

std::vector<std::vector<double>>
timeInChildren(int reps, const std::function<std::vector<double>()> &setup)
{
    std::vector<std::vector<double>> out;
    for (int rep = 0; rep < reps; ++rep) {
        int fds[2];
        if (pipe(fds) != 0)
            throw std::runtime_error("pipe failed");
        std::fflush(nullptr);
        const pid_t pid = fork();
        if (pid < 0)
            throw std::runtime_error("fork failed");
        if (pid == 0) {
            close(fds[0]);
            int code = 0;
            try {
                const std::vector<double> values = setup();
                const size_t bytes = values.size() * sizeof(double);
                if (write(fds[1], values.data(), bytes) !=
                    static_cast<ssize_t>(bytes))
                    code = 3;
            } catch (...) {
                code = 3;
            }
            close(fds[1]);
            _exit(code);
        }
        close(fds[1]);
        std::vector<double> values;
        double value = 0.0;
        while (read(fds[0], &value, sizeof value) ==
               static_cast<ssize_t>(sizeof value))
            values.push_back(value);
        close(fds[0]);
        int status = 0;
        waitpid(pid, &status, 0);
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || values.empty())
            throw std::runtime_error("set-up failed in a child process");
        out.push_back(std::move(values));
    }
    return out;
}

int
workerCount(int wanted)
{
    const int hw = static_cast<int>(std::thread::hardware_concurrency());
    return hw > 0 ? std::max(1, std::min(wanted, hw - 1)) : wanted;
}

std::vector<int>
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return cpus;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
        if (CPU_ISSET(cpu, &set))
            cpus.push_back(cpu);
    return cpus;
}

bool
pinCallingThread(const std::vector<int> &cpus)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int cpu : cpus)
        CPU_SET(cpu, &set);
    return !cpus.empty() &&
           pthread_setaffinity_np(pthread_self(), sizeof set, &set) == 0;
}

double
peakRssMb()
{
    struct rusage usage;
    std::memset(&usage, 0, sizeof usage);
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // kB
}

namespace {

/** CPU brand string from cpuid leaves 0x80000002..4 ("unknown" if absent). */
std::string
cpuModel()
{
    unsigned regs[12] = {};
    unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
    if (max_ext < 0x80000004u)
        return "unknown";
    for (unsigned leaf = 0; leaf < 3; ++leaf)
        __get_cpuid(0x80000002u + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                    &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string out(brand);
    const size_t first = out.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : out.substr(first);
}

/** JSON string literal for `s` (quotes and backslashes escaped). */
std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char ch : s) {
        if (ch == '"' || ch == '\\')
            out += '\\';
        if (static_cast<unsigned char>(ch) >= 0x20)
            out += ch;
    }
    return out + "\"";
}

/** Host and provenance facts for the result's detail line. */
std::string
hostJson(const Args &args)
{
    return "{\"nproc\": " +
           std::to_string(std::thread::hardware_concurrency()) +
           ", \"isa\": " +
           jsonString(lutdla::util::simdLevelName(lutdla::util::simdLevel())) +
           ", \"cpu\": " + jsonString(cpuModel()) +
           ", \"build_type\": " + jsonString(PERFBENCH_BUILD_TYPE) +
           ", \"compiler\": " + jsonString(__VERSION__) +
           ", \"seed\": " + std::to_string(args.seed) + "}";
}

std::string
number(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

} // namespace

void
printResult(const Result &result, const Args &args)
{
    std::string detail = "{\"workload\": " + jsonString(args.workload) +
                         ", \"trace\": " + (args.trace ? "1" : "0") +
                         ", \"host\": " + hostJson(args) +
                         ", \"mismatched\": " +
                         std::to_string(result.mismatched);
    for (const auto &[key, value] : result.detail)
        detail += ", " + jsonString(key) + ": " + value;
    detail += "}";
    std::printf("detail %s\n", detail.c_str());

    std::string metrics;
    for (const Metric &m : result.metrics) {
        if (!metrics.empty())
            metrics += ", ";
        metrics += jsonString(m.name) + ": {\"value\": " + number(m.value) +
                   ", \"unit\": " + jsonString(m.unit) + "}";
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                result.correct ? "true" : "false",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed),
                metrics.c_str());
    std::fflush(stdout);
}

} // namespace perfbench
