// mc_analyze mutation fixture: serialization-coverage violations.
// `missing_` is the added-but-never-checkpointed member that
// silently diverges a resume; `halfDone_` is saved but not loaded;
// `badSite_` carries a derived annotation naming nothing real.

#include <cstdint>

class CkptWriter;
class CkptReader;

namespace fixture {

class Widget
{
  public:
    void
    saveState(CkptWriter &w) const
    {
        putU64(w, count_);
        putU64(w, halfDone_);
    }

    void
    loadState(CkptReader &r)
    {
        count_ = readU64(r);
    }

  private:
    static void putU64(CkptWriter &w, std::uint64_t v);
    static std::uint64_t readU64(CkptReader &r);

    std::uint64_t count_ = 0;
    std::uint64_t missing_ = 0;
    std::uint64_t halfDone_ = 0;
    std::uint64_t badSite_ = 0; // ckpt: derived(noSuchFunctionAnywhere)
};

} // namespace fixture
