/**
 * @file
 * Build stamp of the perfbench benchmark (perfbench/): which
 * compiler and build type produced the measured binaries and how
 * many hardware threads the measuring host has, so a result line
 * says what it was measured with.
 */

#ifndef MORPHCACHE_PERF_BENCH_HH
#define MORPHCACHE_PERF_BENCH_HH

#include <string>

namespace morphcache {

/** Build and host stamp of a benchmark run. */
struct BenchEnv
{
    /** Compiler id string (__VERSION__ of the harness build). */
    std::string compiler;
    std::string buildType;
    /** Hardware threads of the measuring host. */
    unsigned hostThreads = 0;
};

/** Compiler/build-type stamp compiled into the harness. */
BenchEnv localBenchEnv();

} // namespace morphcache

#endif // MORPHCACHE_PERF_BENCH_HH
