/**
 * @file
 * Shared plumbing for the paper-experiment bench binaries.
 *
 * Every bench prints the rows/series of one table or figure from
 * the paper, normalized the way the paper normalizes them, next to
 * the paper's published values where point comparisons exist.
 *
 * Environment knobs:
 *   MC_PAPER_SCALE=1  run Table 3 capacities verbatim (slow)
 *   MC_EPOCHS=N       recorded epochs per run (default 12)
 *   MC_REFS=N         references per core per epoch (default 24000)
 *   MC_SEED=N         base RNG seed (default 42)
 *   MC_JOBS=N         worker threads for the per-mix sweep loops
 *                     (default: all hardware threads; 1 = serial)
 */

#ifndef MORPHCACHE_BENCH_COMMON_HH
#define MORPHCACHE_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "baselines/dsr.hh"
#include "baselines/ideal_offline.hh"
#include "baselines/pipp.hh"
#include "runner/sweep.hh"
#include "sim/config.hh"
#include "sim/simulation.hh"
#include "workload/generator.hh"

namespace morphcache {
namespace bench {

inline std::uint64_t
envOr(const char *name, std::uint64_t fallback)
{
    const char *value = std::getenv(name);
    return value && value[0] ? std::strtoull(value, nullptr, 10)
                             : fallback;
}

inline SimParams
defaultSim()
{
    SimParams sim;
    sim.epochs = static_cast<std::uint32_t>(envOr("MC_EPOCHS", 12));
    sim.warmupEpochs = 2;
    sim.refsPerEpochPerCore = envOr("MC_REFS", 24000);
    return sim;
}

inline std::uint64_t
baseSeed()
{
    return envOr("MC_SEED", 42);
}

/** Bench worker-thread count (0 = all hardware threads). */
inline unsigned
benchJobs()
{
    return static_cast<unsigned>(envOr("MC_JOBS", 0));
}

/**
 * Fan `fn(i)` for i in [0, n) across MC_JOBS threads and return the
 * results in index order (parallelMap). Each call is one independent
 * simulation cell (own workload, hierarchy, stats), so the printed
 * figures are byte-identical to a serial loop.
 */
template <typename Fn>
auto
parallelRows(std::size_t n, const Fn &fn)
{
    return parallelMap(n, benchJobs(), fn);
}

/** Per-mix dispatch: runs `fn(m)` for mixes m in [1, num_mixes]. */
template <typename Fn>
auto
forEachMix(int num_mixes, Fn fn)
{
    return parallelRows(static_cast<std::size_t>(num_mixes),
                        [&fn](std::size_t i) {
                            return fn(static_cast<int>(i) + 1);
                        });
}

/** The five static topologies the paper evaluates, baseline first. */
inline std::vector<Topology>
paperStaticTopologies()
{
    return {
        Topology::symmetric(16, 16, 1, 1), // (16:1:1) baseline
        Topology::symmetric(16, 1, 1, 16), // (1:1:16)
        Topology::symmetric(16, 4, 4, 1),  // (4:4:1)
        Topology::symmetric(16, 8, 2, 1),  // (8:2:1)
        Topology::symmetric(16, 1, 16, 1), // (1:16:1)
    };
}

/** One mix under one static topology: run metrics. */
inline RunResult
runStaticMix(const MixSpec &mix, const Topology &topology,
             const HierarchyParams &hier, const GeneratorParams &gen,
             const SimParams &sim, std::uint64_t seed)
{
    MixWorkload workload(mix, gen, seed);
    StaticTopologySystem system(hier, topology);
    Simulation simulation(system, workload, sim);
    return simulation.run();
}

/** One mix under MorphCache. */
inline RunResult
runMorphMix(const MixSpec &mix, const HierarchyParams &hier,
            const GeneratorParams &gen, const SimParams &sim,
            std::uint64_t seed, const MorphConfig &config,
            ReconfigStats *stats_out = nullptr,
            std::string *final_topology = nullptr)
{
    MixWorkload workload(mix, gen, seed);
    MorphCacheSystem system(hier, config);
    Simulation simulation(system, workload, sim);
    RunResult result = simulation.run();
    if (stats_out)
        *stats_out = system.controller().stats();
    if (final_topology)
        *final_topology = system.hierarchy().topology().name();
    return result;
}

/** Print a labelled series of per-mix normalized values. */
inline void
printSeries(const char *label,
            const std::vector<double> &values)
{
    std::printf("%-12s", label);
    double sum = 0.0;
    for (double v : values) {
        std::printf(" %6.3f", v);
        sum += v;
    }
    if (!values.empty())
        std::printf("  | avg %6.3f",
                    sum / static_cast<double>(values.size()));
    std::printf("\n");
}

inline void
printMixHeader()
{
    std::printf("%-12s", "scheme");
    for (int m = 1; m <= 12; ++m)
        std::printf("  Mix%02d", m);
    std::printf("  |    avg\n");
}

} // namespace bench
} // namespace morphcache

#endif // MORPHCACHE_BENCH_COMMON_HH
