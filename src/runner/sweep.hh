/**
 * @file
 * Deterministic parallel map, and sweep cell seeding.
 *
 * parallelMap() is the one fan-out primitive outside the campaign
 * executor: the non-durable `--sweep` (runSweep, campaign.hh) and
 * the figure benches (bench/common.hh:parallelRows) run their
 * independent cells through it. Its output is byte-identical for
 * any job count because:
 *
 *  - every call fn(i) owns its full simulation state (workload,
 *    memory system, stats registry) — nothing simulated is shared;
 *  - cell seeds derive only from (base seed, cell index) via
 *    sweepCellSeed(), never from thread identity or time;
 *  - result i lands in slot i of a pre-sized vector (disjoint
 *    writes, no reordering), read only after every thread joined;
 *  - the remaining process-wide state (the log sinks and the phase
 *    Profiler) is mutex-guarded / atomic and feeds no simulated
 *    numbers.
 */

#ifndef MORPHCACHE_RUNNER_SWEEP_HH
#define MORPHCACHE_RUNNER_SWEEP_HH

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <system_error>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/rng.hh"

namespace morphcache {

/**
 * Seed of sweep cell `index` under base seed `base`: one SplitMix64
 * step over `base ^ index`. Pure function of its arguments, so a
 * cell's stream is identical whichever worker runs it — and
 * well-mixed, so neighbouring cells never see correlated streams
 * the way raw `base + index` seeding would give them.
 */
inline std::uint64_t
sweepCellSeed(std::uint64_t base, std::uint64_t index)
{
    std::uint64_t state = base ^ index;
    return splitMix64(state);
}

/** The `jobs == 0` rule: every hardware thread, at least one. */
inline unsigned
defaultJobs()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

/**
 * Run `fn(i)` for every i in [0, n) on `jobs` std::threads (0 =
 * defaultJobs(), never more than n) and return the values in index
 * order. The threads pull indices from one atomic counter and write
 * value i into slot i. A throwing call does not stop the others:
 * every call runs, every thread is joined, and then the exception
 * of the lowest failing index is rethrown — the same one for any
 * schedule.
 */
template <typename Fn,
          typename R = std::invoke_result_t<const Fn &, std::size_t>>
std::vector<R>
parallelMap(std::size_t n, unsigned jobs, const Fn &fn)
{
    static_assert(!std::is_same_v<R, bool>,
                  "std::vector<bool> packs slots into shared words");
    std::vector<R> values(n);
    std::vector<std::exception_ptr> errors(n);
    std::atomic<std::size_t> next{0};
    const std::size_t threads = std::min<std::size_t>(
        n, jobs != 0 ? jobs : defaultJobs());
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) {
        try {
            workers.emplace_back([&next, &values, &errors, &fn, n]() {
                for (std::size_t i = next++; i < n; i = next++) {
                    try {
                        values[i] = fn(i);
                    } catch (...) {
                        errors[i] = std::current_exception();
                    }
                }
            });
        } catch (const std::system_error &) {
            if (workers.empty())
                throw;
            break; // out of threads: the ones running finish the map
        }
    }
    for (std::thread &worker : workers)
        worker.join();
    for (const std::exception_ptr &error : errors) {
        if (error)
            std::rethrow_exception(error);
    }
    return values;
}

} // namespace morphcache

#endif // MORPHCACHE_RUNNER_SWEEP_HH
