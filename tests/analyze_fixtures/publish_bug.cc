// mc_analyze mutation fixture: a second publication path. Raw
// rename(2)/link(2) place files at their final path without the
// sanctioned writers' fsync and read-back.

#include <cstdio>
#include <unistd.h>

namespace fixture {

void
publish(const char *tmp, const char *path)
{
    ::rename(tmp, path);
    std::rename(tmp, path);
    ::link(tmp, path);
}

} // namespace fixture
