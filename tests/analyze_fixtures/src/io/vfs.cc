// mc_analyze clean fixture: the Vfs seam's own path. src/io/vfs.cc
// is the sanctioned home of raw write-path I/O, so the same calls
// that fail write_bug.cc, publish_bug.cc and vfsio_bug.cc pass
// here. Must produce no findings.

#include <cstdio>
#include <fcntl.h>
#include <unistd.h>

namespace fixture {

void
realWrite(const char *tmp, const char *path, const char *buf, int n)
{
    std::FILE *f = std::fopen(tmp, "w");
    std::fclose(f);
    int fd = ::open(tmp, O_WRONLY);
    ::write(fd, buf, n);
    ::fsync(fd);
    ::rename(tmp, path);
    ::link(path, tmp);
    ::unlink(tmp);
}

} // namespace fixture
