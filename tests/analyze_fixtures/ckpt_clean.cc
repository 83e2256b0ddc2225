// mc_analyze clean fixture: full serialization coverage — direct
// references, coverage through a same-class helper, and both
// annotation forms with valid arguments. Must produce no findings.

#include <cstdint>

class CkptWriter;
class CkptReader;

namespace fixture {

class Gadget
{
  public:
    Gadget() = default;

    void
    saveState(CkptWriter &w) const
    {
        putU64(w, count_);
        saveExtras(w);
    }

    void
    loadState(CkptReader &r)
    {
        count_ = readU64(r);
        loadExtras(r);
    }

  private:
    // Transitive coverage: extra_ is referenced only through these
    // helpers, which the closure walk must follow.
    void
    saveExtras(CkptWriter &w) const
    {
        putU64(w, extra_);
    }

    void
    loadExtras(CkptReader &r)
    {
        extra_ = readU64(r);
    }

    static void putU64(CkptWriter &w, std::uint64_t v);
    static std::uint64_t readU64(CkptReader &r);

    std::uint64_t count_ = 0;
    std::uint64_t extra_ = 0;
    std::uint64_t cachedMask_ = 0; // ckpt: derived(Gadget)
    std::uint64_t scratch_ = 0; // ckpt: transient(per-call scratch)
};

} // namespace fixture
