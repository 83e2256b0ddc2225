// mc_analyze clean fixture: publication through the Vfs seam's
// methods. Must produce no findings.

namespace fixture {

struct Vfs
{
    int renamePath(const char *from, const char *to);
    int linkPath(const char *from, const char *to);
};

Vfs &vfs();

void
publish(Vfs &store, const char *tmp, const char *path)
{
    vfs().renamePath(tmp, path);
    vfs().linkPath(tmp, path);
    store.renamePath(tmp, path);
}

} // namespace fixture
