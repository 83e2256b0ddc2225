/**
 * @file
 * Cache slices — the unit MorphCache merges and splits — as views
 * onto one level-wide, set-major line arena.
 */

#ifndef MORPHCACHE_MEM_SLICE_HH
#define MORPHCACHE_MEM_SLICE_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/logging.hh"
#include "common/serial.hh"
#include "common/types.hh"
#include "mem/geometry.hh"
#include "mem/line.hh"
#include "mem/replacement.hh"

namespace morphcache {

class TagArena;

/**
 * 8-bit partial tag of a line (Kessler et al.'s partial compare):
 * 1..255 for a valid line, so 0 can mark an invalid way. Equal
 * fingerprints do not imply equal lines; a match is only a
 * candidate for the full-tag compare.
 */
inline std::uint8_t
fingerprintOf(Addr line_addr)
{
    const auto fp = static_cast<std::uint8_t>(
        (line_addr * 0x9E3779B97F4A7C15ULL) >> 56);
    return fp == 0 ? 1 : fp;
}

/**
 * One physical slice of cache (e.g. one 256 KB 8-way L2 slice), as
 * a view onto the TagArena that stores it.
 *
 * A slice is only a window on state; *policy* over one or more
 * slices (group lookup, cross-slice victim choice, inclusion) is
 * implemented by CacheLevelModel in the hierarchy library. This
 * split is what makes splitting a merged group O(1): every line
 * physically lives in exactly one slice's ways at all times, so
 * un-merging is just a change of view.
 *
 * The view is two words (arena, slice index) and is handed out by
 * value; it stays valid as long as its arena, and a copied arena
 * hands out views of its own. Every mutator here keeps the way's
 * fingerprint in step with its valid bit and tag, so callers that
 * mutate a slice directly need no extra bookkeeping. The
 * checkpoint encoding is the original record-per-line one:
 * saveState() walks set-major way order emitting (lineAddr, flags,
 * stamp) triples byte for byte, and fingerprints are rebuilt on
 * load.
 */
class CacheSlice
{
  public:
    /** Set index this slice uses for a line address. */
    std::uint64_t setIndex(Addr line_addr) const;

    /**
     * Look up a line in this slice: scan the set's valid ways in
     * ascending way order (first match wins) comparing stored line
     * addresses. Single-slice operations use this plain scan;
     * group-wide queries go through TagArena::holders().
     * @return The way holding it, or std::nullopt on miss.
     */
    std::optional<std::uint32_t> probe(Addr line_addr) const;

    // --- Per-way field access (unchecked hot-path accessors) -----

    /** Block number stored at (set, way); meaningful when valid. */
    Addr lineAddrAt(std::uint64_t set, std::uint32_t way) const;

    /** Recency stamp at (set, way). */
    std::uint64_t stampAt(std::uint64_t set, std::uint32_t way) const;

    /** Overwrite the recency stamp at (set, way). */
    void setStampAt(std::uint64_t set, std::uint32_t way,
                    std::uint64_t stamp);

    /** Valid bit at (set, way). */
    bool validAt(std::uint64_t set, std::uint32_t way) const;

    /** Dirty bit at (set, way). */
    bool dirtyAt(std::uint64_t set, std::uint32_t way) const;

    /** Reused bit at (set, way). */
    bool reusedAt(std::uint64_t set, std::uint32_t way) const;

    /** Mark (set, way) dirty (writeback from above). */
    void setDirtyAt(std::uint64_t set, std::uint32_t way);

    /** Word of valid bits for a set (bit k = way k). */
    std::uint64_t validMask(std::uint64_t set) const;

    /**
     * Lowest invalid way of a set, or the associativity when the set is full
     * (one complement-and-scan over the valid word).
     */
    std::uint32_t firstInvalidWay(std::uint64_t set) const;

    /**
     * Record a hit on (set, way): bumps the recency stamp, the
     * reused bit and the PLRU tree.
     */
    void touch(std::uint64_t set, std::uint32_t way,
               std::uint64_t stamp);

    /**
     * Way this slice would evict from `set`, preferring invalid
     * ways, then the policy's victim.
     */
    std::uint32_t victimWay(std::uint64_t set) const;

    /**
     * Install `line_addr` into (set, way).
     * @return What was displaced.
     */
    Eviction fill(std::uint64_t set, std::uint32_t way, Addr line_addr,
                  bool dirty, std::uint64_t stamp);

    /**
     * Invalidate the (valid) line at a known location — the
     * probe-free form of invalidate() for callers that already
     * resolved the line's way (e.g. a group lookup dropping a merge
     * duplicate it just found). Identical state effects: valid and
     * dirty clear, the address, stamp, and reused bit stay.
     */
    Eviction invalidateAt(std::uint64_t set, std::uint32_t way);

    /**
     * Invalidate a line if present. Only the valid and dirty bits
     * clear; the stored address, stamp, and reused bit stay (the
     * checkpoint encoding serializes them regardless of validity).
     * @return The eviction record (valid=false if it wasn't here).
     */
    Eviction invalidate(Addr line_addr);

    /** Invalidate every line in the slice. */
    void invalidateAll();

    /** Number of valid lines currently resident. */
    std::uint64_t validLineCount() const;

    /**
     * Serialize all line + replacement state. The byte stream is
     * the original record-per-line encoding: a line count, then
     * (u64 lineAddr, u8 flags, u64 stamp) per way in set-major
     * order, then the PLRU trees.
     */
    void saveState(CkptWriter &w) const;
    void loadState(CkptReader &r);

  private:
    friend class TagArena;

    CacheSlice(TagArena *arena, SliceId index)
        : arena_(arena), index_(index)
    {
    }

    /** Arena index of (set, way 0) in the per-way arrays. */
    std::size_t row(std::uint64_t set) const;
    /** Arena index of this slice's flag words for `set`. */
    std::size_t word(std::uint64_t set) const;

    // ckpt: transient(view wiring; TagArena::slice rebuilds it)
    TagArena *arena_;
    // ckpt: transient(view wiring; TagArena::slice rebuilds it)
    SliceId index_;
};

/**
 * Line state of every slice of one cache level, set-major.
 *
 * Per-way arrays (line addresses, recency stamps, fingerprints) are
 * indexed `[set][slice][way]` and the per-set words (valid, dirty,
 * reused bits; PLRU tree bits) `[set][slice]`, so one set of the whole
 * level — the rows of every group that could ever form over it —
 * is one contiguous block. A group-wide query is then one pass
 * over that block (holders()) however the members are arranged:
 * neighbour or not, sorted or not. The per-set flag words bound
 * `assoc` at 64 and holders()'s slice masks bound the slice count
 * at 64 (both asserted at construction).
 *
 * A private L1 is the same code over a one-slice arena.
 */
class TagArena
{
  public:
    /**
     * @param num_slices Slices stored (1..64).
     * @param geom Geometry of every slice (validated; assoc <= 64).
     * @param policy Replacement policy for intra-slice victims.
     */
    TagArena(std::uint32_t num_slices, const CacheGeometry &geom,
             ReplPolicy policy = ReplPolicy::LRU);

    /** View of one slice. */
    CacheSlice
    slice(SliceId index)
    {
        MC_ASSERT(index < numSlices_);
        return CacheSlice(this, index);
    }

    /** Read-only view of one slice. */
    const CacheSlice
    slice(SliceId index) const
    {
        MC_ASSERT(index < numSlices_);
        return CacheSlice(const_cast<TagArena *>(this), index);
    }

    /** Set index of a line (shared by every slice). */
    std::uint64_t
    setIndex(Addr line_addr) const
    {
        return line_addr & setMask_;
    }

    /**
     * Which of the slices in `slices` (bit s = slice s) hold
     * `line_addr`: one pass over the set's fingerprint block that
     * reads each member's `assoc` bytes eight at a time, compares
     * all of them against the line's fingerprint at once (SWAR),
     * and checks the full tag only on a fingerprint match.
     *
     * @param ways For each holder s, ways[s] receives the lowest
     *        way holding the line (what CacheSlice::probe returns);
     *        other entries are left untouched.
     * @return Bit s set iff slice s holds the line.
     */
    std::uint64_t
    holders(std::uint64_t set, Addr line_addr, std::uint64_t slices,
            std::uint8_t *ways) const
    {
        const std::uint64_t pattern =
            0x0101010101010101ULL * fingerprintOf(line_addr);
        const std::size_t base = set * rowStride_;
        std::uint64_t found = 0;
        while (slices != 0) {
            const auto s =
                static_cast<std::uint32_t>(std::countr_zero(slices));
            slices &= slices - 1;
            const std::size_t row = base + std::size_t{s} * assoc_;
            const std::uint32_t way = findInRow(row, line_addr, pattern);
            if (way != assoc_) {
                found |= std::uint64_t{1} << s;
                ways[s] = static_cast<std::uint8_t>(way);
            }
        }
        return found;
    }

  private:
    friend class CacheSlice;

    /** 0x80 in every byte of `x` that is zero, 0 elsewhere (exact). */
    static std::uint64_t
    zeroBytes(std::uint64_t x)
    {
        constexpr std::uint64_t low7 = 0x7F7F7F7F7F7F7F7FULL;
        return ~(((x & low7) + low7) | x | low7);
    }

    /**
     * Lowest way of the row starting at `row` whose fingerprint
     * matches `pattern` (the line's fingerprint in every byte) and
     * whose tag is `line_addr`, or assoc_ if none.
     */
    std::uint32_t
    findInRow(std::size_t row, Addr line_addr,
              std::uint64_t pattern) const
    {
        for (std::uint32_t lane = 0; lane < assoc_; lane += 8) {
            std::uint64_t match =
                zeroBytes(load8(fps_.data() + row + lane) ^ pattern);
            if (assoc_ - lane < 8)
                match &= ~std::uint64_t{0} >> (64 - 8 * (assoc_ - lane));
            while (match != 0) {
                const std::uint32_t way =
                    lane +
                    static_cast<std::uint32_t>(std::countr_zero(match)) /
                        8;
                if (tags_[row + way] == line_addr)
                    return way;
                match &= match - 1;
            }
        }
        return assoc_;
    }

    /**
     * Eight bytes as a little-endian word. Spelled out byte by byte
     * so it is portable; compilers fold it into one load (a loop
     * form does not fold).
     */
    static std::uint64_t
    load8(const std::uint8_t *p)
    {
        return std::uint64_t{p[0]} | std::uint64_t{p[1]} << 8 |
               std::uint64_t{p[2]} << 16 | std::uint64_t{p[3]} << 24 |
               std::uint64_t{p[4]} << 32 | std::uint64_t{p[5]} << 40 |
               std::uint64_t{p[6]} << 48 | std::uint64_t{p[7]} << 56;
    }

    ReplPolicy policy_;
    std::uint32_t numSlices_;
    std::uint32_t assoc_;
    std::uint64_t numSets_;
    /** numSets_ - 1 (set-index mask; replaces the modulo). */
    std::uint64_t setMask_;
    /** Low `assoc_` bits set (valid-word scan mask). */
    std::uint64_t waysMask_;
    /** Ways per set over all slices: numSlices_ * assoc_. */
    std::size_t rowStride_;
    /** Stored block numbers, [set][slice][way]. */
    std::vector<Addr> tags_;
    /** Recency stamps, [set][slice][way]. */
    std::vector<std::uint64_t> stamps_;
    /**
     * Fingerprints, [set][slice][way]: fingerprintOf(tag) for a
     * valid way, 0 for an invalid one, plus 8 bytes of tail padding
     * so holders() can read a whole word past a narrow last row.
     */
    std::vector<std::uint8_t> fps_;
    /** Valid bits, one word per (set, slice), [set][slice]. */
    std::vector<std::uint64_t> validBits_;
    /** Dirty bits, [set][slice]. */
    std::vector<std::uint64_t> dirtyBits_;
    /** Reused bits, [set][slice]. */
    std::vector<std::uint64_t> reusedBits_;
    /** PlruTree::levelsFor(assoc_). */
    std::uint32_t plruLevels_;
    /** PLRU tree direction bits (see PlruTree), [set][slice]. */
    std::vector<std::uint64_t> plruBits_;
};

// --- CacheSlice inline definitions (need the complete arena) -----

inline std::size_t
CacheSlice::row(std::uint64_t set) const
{
    return set * arena_->rowStride_ + std::size_t{index_} * arena_->assoc_;
}

inline std::size_t
CacheSlice::word(std::uint64_t set) const
{
    return set * arena_->numSlices_ + index_;
}

inline std::uint64_t
CacheSlice::setIndex(Addr line_addr) const
{
    return line_addr & arena_->setMask_;
}

inline std::optional<std::uint32_t>
CacheSlice::probe(Addr line_addr) const
{
    const std::uint64_t set = line_addr & arena_->setMask_;
    const Addr *tags = arena_->tags_.data() + row(set);
    std::uint64_t m = arena_->validBits_[word(set)];
    while (m != 0) {
        const auto way = static_cast<std::uint32_t>(std::countr_zero(m));
        if (tags[way] == line_addr)
            return way;
        m &= m - 1;
    }
    return std::nullopt;
}

inline Addr
CacheSlice::lineAddrAt(std::uint64_t set, std::uint32_t way) const
{
    return arena_->tags_[row(set) + way];
}

inline std::uint64_t
CacheSlice::stampAt(std::uint64_t set, std::uint32_t way) const
{
    return arena_->stamps_[row(set) + way];
}

inline void
CacheSlice::setStampAt(std::uint64_t set, std::uint32_t way,
                       std::uint64_t stamp)
{
    arena_->stamps_[row(set) + way] = stamp;
}

inline bool
CacheSlice::validAt(std::uint64_t set, std::uint32_t way) const
{
    return (arena_->validBits_[word(set)] >> way) & 1;
}

inline bool
CacheSlice::dirtyAt(std::uint64_t set, std::uint32_t way) const
{
    return (arena_->dirtyBits_[word(set)] >> way) & 1;
}

inline bool
CacheSlice::reusedAt(std::uint64_t set, std::uint32_t way) const
{
    return (arena_->reusedBits_[word(set)] >> way) & 1;
}

inline void
CacheSlice::setDirtyAt(std::uint64_t set, std::uint32_t way)
{
    arena_->dirtyBits_[word(set)] |= std::uint64_t{1} << way;
}

inline std::uint64_t
CacheSlice::validMask(std::uint64_t set) const
{
    return arena_->validBits_[word(set)];
}

inline std::uint32_t
CacheSlice::firstInvalidWay(std::uint64_t set) const
{
    const std::uint64_t inv =
        ~arena_->validBits_[word(set)] & arena_->waysMask_;
    if (inv == 0)
        return arena_->assoc_;
    return static_cast<std::uint32_t>(std::countr_zero(inv));
}

inline void
CacheSlice::touch(std::uint64_t set, std::uint32_t way,
                  std::uint64_t stamp)
{
    const std::size_t w = word(set);
    arena_->stamps_[row(set) + way] = stamp;
    arena_->reusedBits_[w] |= std::uint64_t{1} << way;
    if (arena_->policy_ == ReplPolicy::TreePLRU) {
        arena_->plruBits_[w] = PlruTree::touched(
            arena_->plruBits_[w], arena_->plruLevels_, way);
    }
}

inline std::uint32_t
CacheSlice::victimWay(std::uint64_t set) const
{
    const std::size_t w = word(set);
    const std::uint64_t inv = ~arena_->validBits_[w] & arena_->waysMask_;
    if (inv != 0)
        return static_cast<std::uint32_t>(std::countr_zero(inv));
    if (arena_->policy_ == ReplPolicy::TreePLRU)
        return PlruTree::victimOf(arena_->plruBits_[w],
                                  arena_->plruLevels_);

    const std::uint64_t *stamps = arena_->stamps_.data() + row(set);
    std::uint32_t victim = 0;
    std::uint64_t oldest = stamps[0];
    for (std::uint32_t way = 1; way < arena_->assoc_; ++way) {
        if (stamps[way] < oldest) {
            oldest = stamps[way];
            victim = way;
        }
    }
    return victim;
}

inline Eviction
CacheSlice::fill(std::uint64_t set, std::uint32_t way, Addr line_addr,
                 bool dirty, std::uint64_t stamp)
{
    TagArena &a = *arena_;
    const std::size_t idx = row(set) + way;
    const std::size_t w = word(set);
    const std::uint64_t bit = std::uint64_t{1} << way;
    Eviction evicted;
    if (a.validBits_[w] & bit) {
        evicted.valid = true;
        evicted.lineAddr = a.tags_[idx];
        evicted.dirty = (a.dirtyBits_[w] & bit) != 0;
        evicted.reused = (a.reusedBits_[w] & bit) != 0;
    }
    a.tags_[idx] = line_addr;
    a.stamps_[idx] = stamp;
    a.fps_[idx] = fingerprintOf(line_addr);
    a.validBits_[w] |= bit;
    if (dirty)
        a.dirtyBits_[w] |= bit;
    else
        a.dirtyBits_[w] &= ~bit;
    a.reusedBits_[w] &= ~bit;
    if (a.policy_ == ReplPolicy::TreePLRU)
        a.plruBits_[w] =
            PlruTree::touched(a.plruBits_[w], a.plruLevels_, way);
    return evicted;
}

inline Eviction
CacheSlice::invalidateAt(std::uint64_t set, std::uint32_t way)
{
    TagArena &a = *arena_;
    const std::size_t idx = row(set) + way;
    const std::size_t w = word(set);
    const std::uint64_t bit = std::uint64_t{1} << way;
    MC_ASSERT(a.validBits_[w] & bit);
    Eviction evicted;
    evicted.valid = true;
    evicted.lineAddr = a.tags_[idx];
    evicted.dirty = (a.dirtyBits_[w] & bit) != 0;
    evicted.reused = (a.reusedBits_[w] & bit) != 0;
    a.validBits_[w] &= ~bit;
    a.dirtyBits_[w] &= ~bit;
    a.fps_[idx] = 0;
    return evicted;
}

inline Eviction
CacheSlice::invalidate(Addr line_addr)
{
    const auto way = probe(line_addr);
    if (!way)
        return Eviction{};
    return invalidateAt(setIndex(line_addr), *way);
}

} // namespace morphcache

#endif // MORPHCACHE_MEM_SLICE_HH
