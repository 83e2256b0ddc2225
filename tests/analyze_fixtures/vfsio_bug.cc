// mc_analyze mutation fixture: raw kernel write-path I/O outside the
// Vfs seam, where the fault injector never reaches.

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace fixture {

void
persist(const char *dir, const char *path, const char *buf, int n)
{
    ::mkdir(dir, 0755);
    int fd = ::open(path, O_WRONLY | O_CREAT, 0644);
    ::write(fd, buf, n);
    fsync(fd);
    ::close(fd);
    ::unlink(path);
}

} // namespace fixture
