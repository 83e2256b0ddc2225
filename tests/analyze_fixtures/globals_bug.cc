// mc_analyze mutation fixture: mutable namespace-scope state. Every
// cell of a -jN run shares these, so results depend on schedule.

#include <cstdint>

namespace fixture {

// A plain global, a `static` one and an array.
std::uint64_t gRefsSeen = 0;
static int sLastEpoch;
std::uint64_t gHistogram[16] = {};

class Counter
{
  public:
    explicit Counter(std::uint64_t base);

  private:
    std::uint64_t base_;
    std::uint64_t seen_;
};

// Brace member initializers must not hide the global after them.
Counter::Counter(std::uint64_t base) : base_{base}, seen_{0} {}

std::uint64_t gAfterCtor = 0;

} // namespace fixture
