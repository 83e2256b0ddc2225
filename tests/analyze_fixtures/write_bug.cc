// mc_analyze mutation fixture: file writes that bypass the atomic
// write-then-rename helper. A crash mid-write leaves a torn file.

#include <cstdio>
#include <fstream>

namespace fixture {

void
dumpReport(const char *path)
{
    std::FILE *f = std::fopen(path, "w");
    std::fclose(f);
    std::FILE *log = fopen(path,
                           "ab");
    std::fclose(log);
    std::ofstream out(path);
    out << "report\n";
}

} // namespace fixture
