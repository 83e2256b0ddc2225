// mc_analyze clean fixture: the guard named after the header's path
// below src/. Must produce no findings.

#ifndef MORPHCACHE_CONV_GUARD_CLEAN_HH
#define MORPHCACHE_CONV_GUARD_CLEAN_HH

namespace fixture {

int guarded();

} // namespace fixture

#endif // MORPHCACHE_CONV_GUARD_CLEAN_HH
