// mc_analyze mutation fixture: a .cc whose first project include is
// not its own header, so nothing proves conv/own_bug.hh compiles on
// its own.

#include "conv/guard_clean.hh"
#include "conv/own_bug.hh"

namespace fixture {

int
ownBug()
{
    return guarded();
}

} // namespace fixture
