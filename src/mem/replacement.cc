#include "mem/replacement.hh"

#include "common/bitops.hh"

namespace morphcache {

PlruTree::PlruTree(std::uint32_t assoc)
    : assoc_(assoc), levels_(levelsFor(assoc))
{
}

std::uint32_t
PlruTree::levelsFor(std::uint32_t assoc)
{
    MC_ASSERT(assoc >= 1 && isPowerOf2(assoc));
    MC_ASSERT(assoc <= 64, "PlruTree supports at most 64 ways");
    return assoc > 1 ? exactLog2(assoc) : 0;
}

std::uint64_t
PlruTree::touched(std::uint64_t bits, std::uint32_t levels,
                  std::uint32_t way)
{
    // Walk from the root; at each level decide whether `way` lies in
    // the left or right half, and point the bit at the *other* half.
    std::uint32_t node = 1;
    for (std::uint32_t level = 0; level < levels; ++level) {
        const std::uint32_t shift = levels - 1 - level;
        const std::uint32_t dir = (way >> shift) & 1;
        if (dir)
            bits &= ~(1ULL << node); // way is right; victim left
        else
            bits |= (1ULL << node);  // way is left; victim right
        node = node * 2 + dir;
    }
    return bits;
}

std::uint32_t
PlruTree::victimOf(std::uint64_t bits, std::uint32_t levels)
{
    std::uint32_t node = 1;
    std::uint32_t way = 0;
    for (std::uint32_t level = 0; level < levels; ++level) {
        const std::uint32_t dir =
            static_cast<std::uint32_t>((bits >> node) & 1);
        way = (way << 1) | dir;
        node = node * 2 + dir;
    }
    return way;
}

} // namespace morphcache
