// Header of the include_clean.cc fixture. Must produce no findings.

#ifndef MORPHCACHE_CONV_INCLUDE_CLEAN_HH
#define MORPHCACHE_CONV_INCLUDE_CLEAN_HH

namespace fixture {

int includeClean();

} // namespace fixture

#endif // MORPHCACHE_CONV_INCLUDE_CLEAN_HH
