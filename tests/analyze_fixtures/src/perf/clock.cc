// mc_analyze clean fixture: the clock shim's own path. Naming a
// kernel clock is sanctioned in src/perf/clock.cc only. Must
// produce no findings.

#include <chrono>
#include <cstdint>
#include <ctime>

namespace fixture {

std::uint64_t
perfNowNs()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    auto t = std::chrono::steady_clock::now();
    (void)t;
    return static_cast<std::uint64_t>(ts.tv_nsec);
}

} // namespace fixture
