// mc_analyze clean fixture: read-side file access only. A comment
// naming fopen(path, "w") or std::ofstream is not a write. Must
// produce no findings.

#include <cstdio>
#include <fstream>
#include <string>

namespace fixture {

std::string
loadReport(const char *path)
{
    std::FILE *f = std::fopen(path, "rb");
    std::fclose(f);
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    const char *doc = "never std::ofstream or fopen(p, \"w\")";
    (void)doc;
    return line;
}

} // namespace fixture
