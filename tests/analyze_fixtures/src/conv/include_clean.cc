// mc_analyze clean fixture: own header first, then src/-relative
// project includes that resolve, then system headers. Must produce
// no findings.

#include "conv/include_clean.hh"

#include <cstdint>

#include "conv/guard_clean.hh"

namespace fixture {

int
includeClean()
{
    return guarded();
}

} // namespace fixture
