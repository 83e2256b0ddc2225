#include "mem/slice.hh"

#include "common/logging.hh"

namespace morphcache {

TagArena::TagArena(std::uint32_t num_slices, const CacheGeometry &geom,
                   ReplPolicy policy)
    : policy_(policy), numSlices_(num_slices),
      assoc_(geom.assoc), numSets_(geom.numSets()),
      setMask_(geom.numSets() - 1),
      waysMask_(geom.assoc >= 64 ? ~std::uint64_t{0}
                                 : (std::uint64_t{1} << geom.assoc) - 1),
      rowStride_(std::size_t{num_slices} * geom.assoc),
      tags_(num_slices * geom.numLines(), 0),
      stamps_(num_slices * geom.numLines(), 0),
      fps_(num_slices * geom.numLines() + 8, 0),
      validBits_(num_slices * geom.numSets(), 0),
      dirtyBits_(num_slices * geom.numSets(), 0),
      reusedBits_(num_slices * geom.numSets(), 0),
      plruLevels_(PlruTree::levelsFor(geom.assoc)),
      plruBits_(num_slices * geom.numSets(), 0)
{
    MC_ASSERT(geom.valid());
    // The per-set flag words cap associativity at one machine word,
    // and holders()'s slice masks cap the slice count the same way.
    MC_ASSERT(geom.assoc <= 64);
    MC_ASSERT(num_slices >= 1 && num_slices <= 64);
}

void
CacheSlice::invalidateAll()
{
    TagArena &a = *arena_;
    for (std::uint64_t set = 0; set < a.numSets_; ++set) {
        a.validBits_[word(set)] = 0;
        a.dirtyBits_[word(set)] = 0;
        for (std::uint32_t way = 0; way < a.assoc_; ++way)
            a.fps_[row(set) + way] = 0;
    }
}

std::uint64_t
CacheSlice::validLineCount() const
{
    std::uint64_t count = 0;
    for (std::uint64_t set = 0; set < arena_->numSets_; ++set)
        count += static_cast<std::uint64_t>(
            std::popcount(arena_->validBits_[word(set)]));
    return count;
}

void
CacheSlice::saveState(CkptWriter &w) const
{
    const TagArena &a = *arena_;
    w.u64(a.numSets_ * a.assoc_);
    for (std::uint64_t set = 0; set < a.numSets_; ++set) {
        for (std::uint32_t way = 0; way < a.assoc_; ++way) {
            w.u64(a.tags_[row(set) + way]);
            w.u8(static_cast<std::uint8_t>(
                (validAt(set, way) ? 1u : 0u) |
                (dirtyAt(set, way) ? 2u : 0u) |
                (reusedAt(set, way) ? 4u : 0u)));
            w.u64(a.stamps_[row(set) + way]);
        }
    }
    w.u64(a.numSets_);
    for (std::uint64_t set = 0; set < a.numSets_; ++set)
        w.u64(a.plruBits_[word(set)]);
}

void
CacheSlice::loadState(CkptReader &r)
{
    TagArena &a = *arena_;
    r.expectU64("slice line count", a.numSets_ * a.assoc_);
    for (std::uint64_t set = 0; set < a.numSets_; ++set) {
        std::uint64_t valid = 0;
        std::uint64_t dirty = 0;
        std::uint64_t reused = 0;
        for (std::uint32_t way = 0; way < a.assoc_; ++way) {
            const std::uint64_t bit = std::uint64_t{1} << way;
            const Addr line_addr = r.u64();
            const std::uint8_t flags = r.u8();
            if (flags > 7)
                r.fail("cache-line flags byte is " +
                       std::to_string(flags) + ", expected <= 7");
            valid |= (flags & 1) ? bit : 0;
            dirty |= (flags & 2) ? bit : 0;
            reused |= (flags & 4) ? bit : 0;
            a.tags_[row(set) + way] = line_addr;
            a.fps_[row(set) + way] =
                (flags & 1) ? fingerprintOf(line_addr) : 0;
            a.stamps_[row(set) + way] = r.u64();
        }
        a.validBits_[word(set)] = valid;
        a.dirtyBits_[word(set)] = dirty;
        a.reusedBits_[word(set)] = reused;
    }
    r.expectU64("PLRU tree count", a.numSets_);
    for (std::uint64_t set = 0; set < a.numSets_; ++set)
        a.plruBits_[word(set)] = r.u64();
}

} // namespace morphcache
