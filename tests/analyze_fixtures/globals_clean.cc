// mc_analyze clean fixture: namespace-scope constants, declarations
// and per-object state only. Must produce no findings.

#include <cstdint>

namespace fixture {

constexpr std::uint64_t kLineBytes = 64;
const char *const kSchemeName = "morph";
static const std::uint64_t kTable[4] = {1, 2, 3, 4};
extern const int kDefinedElsewhere;
using Cycle = std::uint64_t;
class Forward;

class Counter
{
  public:
    explicit Counter(std::uint64_t base);
    void bump() { ++seen_; }

  private:
    // Per-object state: one Counter per cell.
    std::uint64_t base_;
    std::uint64_t seen_;
    static constexpr int kMax = 8;
};

Counter::Counter(std::uint64_t base) : base_{base}, seen_{0}
{
    std::uint64_t local = base;
    (void)local;
}

std::uint64_t
scaled(std::uint64_t v)
{
    static const std::uint64_t kScale = 3;
    return v * kScale;
}

} // namespace fixture
