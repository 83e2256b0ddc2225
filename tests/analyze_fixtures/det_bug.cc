// mc_analyze mutation fixture: determinism violations — unordered
// iteration feeding an ordered sink, libc entropy, wall-clock reads
// (direct and through aliases), and a StatsRegistry bypass.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <unordered_map>

namespace fixture {

// A namespace-scope clock alias: naming the clock is the read.
using WallClock = std::chrono::steady_clock;

// Entropy in a namespace-scope initializer, outside any function.
static const int kJ = std::rand();

void
dumpStats()
{
    std::unordered_map<std::uint64_t, std::uint64_t> counts;
    counts[3] = 1;
    // Hash-order iteration: output order varies across libstdc++
    // versions and ASLR seeds.
    for (const auto &kv : counts) {
        std::printf("%llu\n",
                    static_cast<unsigned long long>(kv.second));
    }
    // Entropy in simulation code.
    int jitter = rand();
    // Wall-clock read outside the sanctioned sites.
    auto t0 = std::chrono::steady_clock::now();
    (void)jitter;
    (void)t0;
}

std::int64_t
sampleWall()
{
    auto a = WallClock::now();
    // A function-local alias.
    using C = std::chrono::system_clock;
    auto b = C::now();
    return (b.time_since_epoch() - a.time_since_epoch()).count() + kJ;
}

} // namespace fixture
