#include "perf/benchstat.hh"

#include <algorithm>

namespace morphcache {

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    const std::size_t mid = values.size() / 2;
    std::nth_element(values.begin(), values.begin() + mid,
                     values.end());
    const double upper = values[mid];
    if (values.size() % 2 == 1)
        return upper;
    // Even count: the lower middle is the max of the left half.
    const double lower =
        *std::max_element(values.begin(), values.begin() + mid);
    return (lower + upper) / 2.0;
}

std::vector<double>
runTrials(std::size_t warmup, std::size_t trials,
          const std::function<double()> &one_trial)
{
    std::vector<double> samples;
    samples.reserve(trials);
    for (std::size_t i = 0; i < warmup + trials; ++i) {
        const double sample = one_trial();
        if (i >= warmup)
            samples.push_back(sample);
    }
    return samples;
}

} // namespace morphcache
