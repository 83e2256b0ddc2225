// mc_analyze clean fixture: writes through vfs(), reads through the
// kernel. Must produce no findings.

#include <unistd.h>

namespace fixture {

struct Vfs
{
    int writeFd(int fd, const char *buf, int n);
    int fsyncFd(int fd);
    int unlinkPath(const char *path);
};

Vfs &vfs();

int
persist(int fd, const char *path, char *buf, int n)
{
    vfs().writeFd(fd, buf, n);
    vfs().fsyncFd(fd);
    vfs().unlinkPath(path);
    return static_cast<int>(::read(fd, buf, static_cast<unsigned>(n)));
}

} // namespace fixture
