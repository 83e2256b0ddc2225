#include "perf/bench.hh"

#include <thread>

namespace morphcache {

BenchEnv
localBenchEnv()
{
    BenchEnv env;
    env.compiler = __VERSION__;
#ifdef NDEBUG
    env.buildType = "release";
#else
    env.buildType = "debug";
#endif
    env.hostThreads = std::thread::hardware_concurrency();
    return env;
}

} // namespace morphcache
