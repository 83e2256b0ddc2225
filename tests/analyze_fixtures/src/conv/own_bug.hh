// Header of the own_bug.cc mutation fixture; clean on its own.

#ifndef MORPHCACHE_CONV_OWN_BUG_HH
#define MORPHCACHE_CONV_OWN_BUG_HH

namespace fixture {

int ownBug();

} // namespace fixture

#endif // MORPHCACHE_CONV_OWN_BUG_HH
