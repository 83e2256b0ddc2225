// mc_analyze mutation fixture: a header guard that does not match
// the header's path (src/conv/guard_bug.hh wants
// MORPHCACHE_CONV_GUARD_BUG_HH).

#ifndef GUARD_BUG_HH
#define GUARD_BUG_HH

namespace fixture {

int guarded();

} // namespace fixture

#endif // GUARD_BUG_HH
