/**
 * @file
 * Trial statistics for the perfbench benchmark: warmup discard
 * and the median, kept pure so tests/perf_test.cc can verify the
 * protocol math without running a simulator.
 *
 * Protocol: a measurement runs `warmup + trials` times; the first
 * `warmup` samples are discarded (cold caches, lazy first-touch
 * allocation, branch-predictor training), and the remaining
 * `trials` samples are summarized by their median. Median over mean
 * because a single preempted trial must not drag the headline
 * number.
 */

#ifndef MORPHCACHE_PERF_BENCHSTAT_HH
#define MORPHCACHE_PERF_BENCHSTAT_HH

#include <cstddef>
#include <functional>
#include <vector>

namespace morphcache {

/** Median of `values` (empty input returns 0). */
double median(std::vector<double> values);

/**
 * Run `warmup + trials` invocations of `one_trial` and return only
 * the post-warmup samples, in run order. The discard happens here —
 * not in the caller — so every harness gets the same protocol.
 */
std::vector<double> runTrials(std::size_t warmup,
                              std::size_t trials,
                              const std::function<double()> &one_trial);

} // namespace morphcache

#endif // MORPHCACHE_PERF_BENCHSTAT_HH
