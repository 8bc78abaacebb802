/**
 * @file
 * Repository benchmark binary. Usage:
 *
 *   perfbench --workload <resnet18-int4|transformer-f32|two-tenant-open>
 *             --seed <n> --seconds <s> --trace <0|1>
 *
 * Prints a `detail {...}` line with host and provenance facts, then one
 * JSON result line: {"correct", "attempted", "failed", "metrics"}.
 * --trace 0 reports the end-to-end metrics; --trace 1 the per-layer ones.
 * Exits 1 when an output mismatched its reference, 2 on a usage or
 * set-up error. perfbench/run.py builds this binary and runs it.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.h"

int
main(int argc, char **argv)
{
    perfbench::Args args;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char *value = argv[i + 1];
        if (key == "--workload")
            args.workload = value;
        else if (key == "--seed")
            args.seed = std::strtoull(value, nullptr, 10);
        else if (key == "--seconds")
            args.seconds = std::strtod(value, nullptr);
        else if (key == "--trace")
            args.trace = std::strcmp(value, "0") != 0;
        else {
            std::fprintf(stderr, "unknown argument %s\n", key.c_str());
            return 2;
        }
    }
    if (!(args.seconds > 0.0)) {
        std::fprintf(stderr, "--seconds must be positive\n");
        return 2;
    }

    try {
        perfbench::Result result;
        if (args.workload == "resnet18-int4")
            result = perfbench::runResnet18Int4(args);
        else if (args.workload == "transformer-f32")
            result = perfbench::runTransformerF32(args);
        else if (args.workload == "two-tenant-open")
            result = perfbench::runTwoTenantOpen(args);
        else {
            std::fprintf(stderr, "unknown workload '%s'\n",
                         args.workload.c_str());
            return 2;
        }
        perfbench::printResult(result, args);
        return result.correct ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
