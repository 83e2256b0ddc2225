// mc_analyze clean fixture: the logging registry's own path, one of
// the sanctioned homes of process-wide mutable state. Must produce
// no findings.

#include <atomic>

namespace fixture {

std::atomic<int> gLogLevel{0};

} // namespace fixture
