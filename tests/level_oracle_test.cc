/**
 * @file
 * Differential oracle for CacheLevelModel.
 *
 * NaiveLevel is a deliberately plain model of one reconfigurable
 * level: one record per line (array of structs), plain recency
 * stamps, a bool-per-node PLRU tree, and linear scans for every
 * query. It shares no storage layout, bit trick or search shortcut
 * with the real level. The tests step both in lockstep over
 * randomized geometries and partitions (non-neighbour, unsorted
 * groups included), through every public operation, and after each
 * step compare the operation's outcome, the level statistics, and
 * every way of every set of every slice.
 *
 * Reconfiguring a level whose slices still hold lines is the only
 * way a group comes to hold duplicate copies of a line; the random
 * partitions below do that constantly over a small per-set address
 * pool, so lazy invalidation runs on most lookups.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/serial.hh"
#include "hierarchy/cache_level.hh"

namespace morphcache {
namespace {

struct NaiveLine
{
    Addr addr = 0;
    bool valid = false;
    bool dirty = false;
    bool reused = false;
    std::uint64_t stamp = 0;
};

/**
 * The naive level. Field-for-field it models what CacheLevelModel
 * documents: invalidation clears only the valid and dirty bits, a
 * probe finds the lowest matching way, a lookup keeps the
 * requester's copy (else the first in group order) and drops the
 * rest, an insert prefers the requester's invalid ways, then the
 * other members' (group order), then the group victim.
 */
class NaiveLevel
{
  public:
    explicit NaiveLevel(const LevelParams &params)
        : params_(params), assoc_(params.sliceGeom.assoc),
          sets_(params.sliceGeom.numSets()),
          lines_(std::size_t{params.numSlices} * sets_ * assoc_),
          plru_(std::size_t{params.numSlices} * sets_,
                std::vector<bool>(assoc_, false))
    {
        Partition all_private;
        for (std::uint32_t s = 0; s < params.numSlices; ++s)
            all_private.push_back({static_cast<SliceId>(s)});
        configure(all_private);
    }

    void
    configure(const Partition &partition)
    {
        partition_ = partition;
        rotor_.assign(partition.size(), 0);
    }

    NaiveLine &
    line(SliceId slice, std::uint64_t set, std::uint32_t way)
    {
        return lines_[(std::size_t{slice} * sets_ + set) * assoc_ + way];
    }

    std::uint64_t setOf(Addr line_addr) const { return line_addr % sets_; }

    const std::vector<SliceId> &
    groupOf(SliceId slice) const
    {
        for (const auto &group : partition_) {
            if (std::find(group.begin(), group.end(), slice) !=
                group.end())
                return group;
        }
        ADD_FAILURE() << "slice " << slice << " in no group";
        return partition_.front();
    }

    std::size_t
    groupIndex(SliceId slice) const
    {
        for (std::size_t g = 0; g < partition_.size(); ++g) {
            const auto &group = partition_[g];
            if (std::find(group.begin(), group.end(), slice) !=
                group.end())
                return g;
        }
        return 0;
    }

    std::optional<std::uint32_t>
    probe(SliceId slice, Addr line_addr)
    {
        const std::uint64_t set = setOf(line_addr);
        for (std::uint32_t way = 0; way < assoc_; ++way) {
            const NaiveLine &l = line(slice, set, way);
            if (l.valid && l.addr == line_addr)
                return way;
        }
        return std::nullopt;
    }

    /** PLRU tree of (slice, set): node k at index k, root 1. */
    std::vector<bool> &
    tree(SliceId slice, std::uint64_t set)
    {
        return plru_[std::size_t{slice} * sets_ + set];
    }

    void
    plruTouch(SliceId slice, std::uint64_t set, std::uint32_t way)
    {
        std::vector<bool> &nodes = tree(slice, set);
        std::uint32_t lo = 0;
        std::uint32_t hi = assoc_;
        std::uint32_t node = 1;
        while (hi - lo > 1) {
            const std::uint32_t mid = (lo + hi) / 2;
            const bool right = way >= mid;
            nodes[node] = !right; // point the victim away from `way`
            node = node * 2 + (right ? 1 : 0);
            if (right)
                lo = mid;
            else
                hi = mid;
        }
    }

    std::uint32_t
    plruVictim(SliceId slice, std::uint64_t set)
    {
        const std::vector<bool> &nodes = tree(slice, set);
        std::uint32_t lo = 0;
        std::uint32_t hi = assoc_;
        std::uint32_t node = 1;
        while (hi - lo > 1) {
            const std::uint32_t mid = (lo + hi) / 2;
            const bool right = nodes[node];
            node = node * 2 + (right ? 1 : 0);
            if (right)
                lo = mid;
            else
                hi = mid;
        }
        return lo;
    }

    std::optional<std::uint32_t>
    firstInvalid(SliceId slice, std::uint64_t set)
    {
        for (std::uint32_t way = 0; way < assoc_; ++way) {
            if (!line(slice, set, way).valid)
                return way;
        }
        return std::nullopt;
    }

    std::uint32_t
    victimWay(SliceId slice, std::uint64_t set)
    {
        if (const auto inv = firstInvalid(slice, set))
            return *inv;
        if (params_.policy == ReplPolicy::TreePLRU)
            return plruVictim(slice, set);
        std::uint32_t victim = 0;
        for (std::uint32_t way = 1; way < assoc_; ++way) {
            if (line(slice, set, way).stamp <
                line(slice, set, victim).stamp)
                victim = way;
        }
        return victim;
    }

    Eviction
    dropLine(NaiveLine &l)
    {
        Eviction ev;
        ev.valid = true;
        ev.lineAddr = l.addr;
        ev.dirty = l.dirty;
        ev.reused = l.reused;
        l.valid = false;
        l.dirty = false;
        return ev;
    }

    InsertOutcome
    fill(SliceId target, std::uint32_t way, Addr line_addr, bool dirty,
         std::uint64_t stamp)
    {
        const std::uint64_t set = setOf(line_addr);
        NaiveLine &l = line(target, set, way);
        InsertOutcome out;
        out.slice = target;
        out.evictedFrom = target;
        if (l.valid) {
            out.evicted.valid = true;
            out.evicted.lineAddr = l.addr;
            out.evicted.dirty = l.dirty;
            out.evicted.reused = l.reused;
            ++stats.evictions;
        }
        l.addr = line_addr;
        l.valid = true;
        l.dirty = dirty;
        l.reused = false;
        l.stamp = stamp;
        if (params_.policy == ReplPolicy::TreePLRU)
            plruTouch(target, set, way);
        ++stats.fills;
        ++stats.sliceProbes;
        return out;
    }

    LookupOutcome
    lookup(CoreId core, Addr line_addr)
    {
        const auto &group = groupOf(static_cast<SliceId>(core));
        const std::uint64_t set = setOf(line_addr);
        stats.sliceProbes += group.size();
        SliceId keep = invalidSlice;
        if (probe(static_cast<SliceId>(core), line_addr))
            keep = static_cast<SliceId>(core);
        for (SliceId member : group) {
            if (keep == invalidSlice && probe(member, line_addr))
                keep = member;
        }
        for (SliceId member : group) {
            if (member == keep)
                continue;
            if (const auto way = probe(member, line_addr)) {
                dropLine(line(member, set, *way));
                ++stats.lazyInvalidations;
            }
        }
        LookupOutcome out;
        out.latency = params_.localHitLatency;
        if (keep == invalidSlice) {
            ++stats.misses;
            return out;
        }
        out.hit = true;
        out.slice = keep;
        out.remote = keep != core;
        if (out.remote) {
            out.latency += params_.remoteHitExtraCycles;
            ++stats.remoteHits;
        } else {
            ++stats.localHits;
        }
        const std::uint32_t way = *probe(keep, line_addr);
        NaiveLine &l = line(keep, set, way);
        l.stamp = ++stamp_;
        l.reused = true;
        if (params_.policy == ReplPolicy::TreePLRU)
            plruTouch(keep, set, way);
        return out;
    }

    InsertOutcome
    insert(CoreId core, Addr line_addr, bool dirty)
    {
        const auto &group = groupOf(static_cast<SliceId>(core));
        const std::uint64_t set = setOf(line_addr);
        if (const auto inv =
                firstInvalid(static_cast<SliceId>(core), set)) {
            return fill(static_cast<SliceId>(core), *inv, line_addr,
                        dirty, ++stamp_);
        }
        for (SliceId member : group) {
            if (const auto inv = firstInvalid(member, set))
                return fill(member, *inv, line_addr, dirty, ++stamp_);
        }
        SliceId target = invalidSlice;
        std::uint32_t target_way = 0;
        if (params_.policy == ReplPolicy::LRU) {
            std::uint64_t oldest = 0;
            for (SliceId member : group) {
                const std::uint32_t way = victimWay(member, set);
                const std::uint64_t stamp = line(member, set, way).stamp;
                if (target == invalidSlice || stamp < oldest) {
                    oldest = stamp;
                    target = member;
                    target_way = way;
                }
            }
        } else {
            const std::size_t g = groupIndex(static_cast<SliceId>(core));
            target = group[rotor_[g]++ % group.size()];
            target_way = victimWay(target, set);
        }
        return fill(target, target_way, line_addr, dirty, ++stamp_);
    }

    InsertOutcome
    insertAtStackPosition(CoreId core, Addr line_addr, bool dirty,
                          std::uint32_t position)
    {
        const auto &group = groupOf(static_cast<SliceId>(core));
        const std::uint64_t set = setOf(line_addr);
        SliceId target = invalidSlice;
        std::uint32_t target_way = 0;
        for (SliceId member : group) {
            if (const auto inv = firstInvalid(member, set)) {
                target = member;
                target_way = *inv;
                break;
            }
        }
        if (target == invalidSlice) {
            std::uint64_t oldest = 0;
            for (SliceId member : group) {
                for (std::uint32_t way = 0; way < assoc_; ++way) {
                    const std::uint64_t stamp =
                        line(member, set, way).stamp;
                    if (target == invalidSlice || stamp < oldest) {
                        oldest = stamp;
                        target = member;
                        target_way = way;
                    }
                }
            }
        }
        std::vector<std::uint64_t> stamps;
        for (SliceId member : group) {
            for (std::uint32_t way = 0; way < assoc_; ++way) {
                const NaiveLine &l = line(member, set, way);
                if (l.valid && !(member == target && way == target_way))
                    stamps.push_back(l.stamp);
            }
        }
        std::sort(stamps.begin(), stamps.end());
        const std::uint64_t stamp =
            position < stamps.size() ? stamps[position] : ++stamp_;
        return fill(target, target_way, line_addr, dirty, stamp);
    }

    void
    promoteByOne(SliceId slice, std::uint64_t set, std::uint32_t way)
    {
        NaiveLine &self = line(slice, set, way);
        NaiveLine *above = nullptr;
        for (SliceId member : groupOf(slice)) {
            for (std::uint32_t w = 0; w < assoc_; ++w) {
                NaiveLine &other = line(member, set, w);
                if (&other == &self || !other.valid ||
                    other.stamp <= self.stamp)
                    continue;
                if (above == nullptr || other.stamp < above->stamp)
                    above = &other;
            }
        }
        if (above != nullptr)
            std::swap(above->stamp, self.stamp);
    }

    InsertOutcome
    insertIntoSlice(SliceId target, Addr line_addr, bool dirty)
    {
        const std::uint32_t way = victimWay(target, setOf(line_addr));
        return fill(target, way, line_addr, dirty, ++stamp_);
    }

    InsertOutcome
    fillAt(SliceId target, std::uint32_t way, Addr line_addr,
           bool dirty)
    {
        return fill(target, way, line_addr, dirty, ++stamp_);
    }

    bool
    markDirty(CoreId core, Addr line_addr)
    {
        for (SliceId member : groupOf(static_cast<SliceId>(core))) {
            if (const auto way = probe(member, line_addr)) {
                line(member, setOf(line_addr), *way).dirty = true;
                return true;
            }
        }
        return false;
    }

    bool
    presentInSlices(const std::vector<SliceId> &slices, Addr line_addr)
    {
        for (SliceId member : slices) {
            if (probe(member, line_addr))
                return true;
        }
        return false;
    }

    std::optional<SliceId>
    findInOtherGroups(CoreId core, Addr line_addr)
    {
        const auto &own = groupOf(static_cast<SliceId>(core));
        for (std::uint32_t s = 0; s < params_.numSlices; ++s) {
            const auto slice = static_cast<SliceId>(s);
            if (std::find(own.begin(), own.end(), slice) != own.end())
                continue;
            if (probe(slice, line_addr))
                return slice;
        }
        return std::nullopt;
    }

    /** Invalidate the line in `slice`; @return the dropped record. */
    Eviction
    invalidate(SliceId slice, Addr line_addr)
    {
        if (const auto way = probe(slice, line_addr))
            return dropLine(line(slice, setOf(line_addr), *way));
        return {};
    }

    bool
    invalidateIn(const std::vector<SliceId> &slices, Addr line_addr,
                 std::uint64_t &counter)
    {
        bool dirty = false;
        for (SliceId member : slices) {
            const Eviction ev = invalidate(member, line_addr);
            if (ev.valid) {
                dirty = dirty || ev.dirty;
                ++counter;
            }
        }
        return dirty;
    }

    std::vector<SliceId>
    outsideGroup(CoreId core) const
    {
        const auto &own = groupOf(static_cast<SliceId>(core));
        std::vector<SliceId> out;
        for (std::uint32_t s = 0; s < params_.numSlices; ++s) {
            const auto slice = static_cast<SliceId>(s);
            if (std::find(own.begin(), own.end(), slice) == own.end())
                out.push_back(slice);
        }
        return out;
    }

    LevelStats stats;

  private:
    LevelParams params_;
    std::uint32_t assoc_;
    std::uint64_t sets_;
    std::vector<NaiveLine> lines_;
    std::vector<std::vector<bool>> plru_;
    Partition partition_;
    std::vector<std::uint32_t> rotor_;
    std::uint64_t stamp_ = 0;
};

/** One randomized shape the oracle runs. */
struct OracleShape
{
    std::uint32_t slices;
    std::uint32_t assoc;
    std::uint64_t sets;
    ReplPolicy policy;
};

std::string
describe(const OracleShape &shape)
{
    return std::to_string(shape.slices) + " slices, " +
           std::to_string(shape.assoc) + "-way, " +
           std::to_string(shape.sets) + " sets, " +
           (shape.policy == ReplPolicy::LRU ? "LRU" : "TreePLRU");
}

LevelParams
oracleParams(const OracleShape &shape)
{
    LevelParams params;
    params.name = "L2";
    params.numSlices = shape.slices;
    params.sliceGeom =
        CacheGeometry{shape.sets * shape.assoc * 64, shape.assoc, 64};
    params.policy = shape.policy;
    params.localHitLatency = 10;
    // The segmented-bus model is not part of what the oracle checks;
    // a fixed remote premium keeps the latency comparable.
    params.chargeBusPenalty = false;
    params.remoteHitExtraCycles = 7;
    return params;
}

/**
 * A random partition: slices shuffled, then cut into random-size
 * groups, so groups are neither contiguous nor sorted. One draw in
 * four is all-private or a single all-slices group instead.
 */
Partition
randomPartition(Rng &rng, std::uint32_t slices)
{
    std::vector<SliceId> order(slices);
    for (std::uint32_t s = 0; s < slices; ++s)
        order[s] = static_cast<SliceId>(s);
    for (std::uint32_t i = slices; i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);
    Partition partition;
    const std::uint64_t shape = rng.below(8);
    if (shape == 0) {
        for (SliceId s : order)
            partition.push_back({s});
        return partition;
    }
    if (shape == 1)
        return {order};
    std::size_t at = 0;
    while (at < order.size()) {
        const std::size_t size = std::min<std::size_t>(
            order.size() - at, 1 + rng.below(slices));
        partition.emplace_back(order.begin() + at,
                               order.begin() + at + size);
        at += size;
    }
    return partition;
}

void
expectSameEviction(const Eviction &got, const Eviction &want)
{
    EXPECT_EQ(got.valid, want.valid);
    if (got.valid && want.valid) {
        EXPECT_EQ(got.lineAddr, want.lineAddr);
        EXPECT_EQ(got.dirty, want.dirty);
        EXPECT_EQ(got.reused, want.reused);
    }
}

void
expectSameInsert(const InsertOutcome &got, const InsertOutcome &want)
{
    EXPECT_EQ(got.slice, want.slice);
    EXPECT_EQ(got.evictedFrom, want.evictedFrom);
    expectSameEviction(got.evicted, want.evicted);
}

/** Every way of every set of every slice, plus the counters. */
void
expectSameState(const CacheLevelModel &level, NaiveLevel &naive,
                const OracleShape &shape)
{
    for (std::uint32_t s = 0; s < shape.slices; ++s) {
        const auto slice = static_cast<SliceId>(s);
        const CacheSlice &real = level.slice(slice);
        for (std::uint64_t set = 0; set < shape.sets; ++set) {
            for (std::uint32_t way = 0; way < shape.assoc; ++way) {
                const NaiveLine &want = naive.line(slice, set, way);
                ASSERT_EQ(real.validAt(set, way), want.valid)
                    << "slice " << s << " set " << set << " way " << way;
                ASSERT_EQ(real.lineAddrAt(set, way), want.addr)
                    << "slice " << s << " set " << set << " way " << way;
                ASSERT_EQ(real.dirtyAt(set, way), want.dirty)
                    << "slice " << s << " set " << set << " way " << way;
                ASSERT_EQ(real.reusedAt(set, way), want.reused)
                    << "slice " << s << " set " << set << " way " << way;
                ASSERT_EQ(real.stampAt(set, way), want.stamp)
                    << "slice " << s << " set " << set << " way " << way;
            }
        }
    }
    const LevelStats &got = level.stats();
    const LevelStats &want = naive.stats;
    EXPECT_EQ(got.localHits, want.localHits);
    EXPECT_EQ(got.remoteHits, want.remoteHits);
    EXPECT_EQ(got.misses, want.misses);
    EXPECT_EQ(got.fills, want.fills);
    EXPECT_EQ(got.evictions, want.evictions);
    EXPECT_EQ(got.lazyInvalidations, want.lazyInvalidations);
    EXPECT_EQ(got.coherenceInvalidations, want.coherenceInvalidations);
    EXPECT_EQ(got.inclusionInvalidations, want.inclusionInvalidations);
    EXPECT_EQ(got.sliceProbes, want.sliceProbes);
}

/** Replace `level` by a fresh level restored from its checkpoint. */
void
roundTrip(std::unique_ptr<CacheLevelModel> &level,
          const LevelParams &params)
{
    CkptWriter saved;
    level->saveState(saved);
    auto restored = std::make_unique<CacheLevelModel>(params);
    CkptReader reader("level", saved.buffer());
    restored->loadState(reader);
    CkptWriter resaved;
    restored->saveState(resaved);
    EXPECT_EQ(saved.buffer(), resaved.buffer());
    level = std::move(restored);
}

/** Step the real and the naive level through `ops` random operations. */
void
runOracle(const OracleShape &shape, std::uint64_t seed, int ops)
{
    const LevelParams params = oracleParams(shape);
    auto level = std::make_unique<CacheLevelModel>(params);
    NaiveLevel naive(params);
    Rng rng(seed);

    // A small per-set address pool: enough lines to overflow a large
    // group's set, few enough that lines recur across reconfigurations.
    const std::uint64_t pool = shape.assoc * shape.slices / 2 + 3;
    auto randomLine = [&]() -> Addr {
        return rng.below(shape.sets) +
               (1 + rng.below(pool)) * shape.sets;
    };
    auto randomCore = [&]() {
        return static_cast<CoreId>(rng.below(shape.slices));
    };
    auto randomSlices = [&]() {
        std::vector<SliceId> slices;
        for (std::uint32_t s = 0; s < shape.slices; ++s) {
            if (rng.below(2) == 0)
                slices.push_back(static_cast<SliceId>(s));
        }
        return slices;
    };

    for (int op = 0; op < ops; ++op) {
        SCOPED_TRACE(describe(shape) + ", op " + std::to_string(op));
        const std::uint64_t draw = rng.below(100);
        const CoreId core = randomCore();
        const Addr line = randomLine();
        const bool dirty = rng.below(2) == 1;
        if (draw < 28) {
            const LookupOutcome got = level->lookup(core, line, 0);
            const LookupOutcome want = naive.lookup(core, line);
            ASSERT_EQ(got.hit, want.hit);
            ASSERT_EQ(got.slice, want.slice);
            ASSERT_EQ(got.remote, want.remote);
            ASSERT_EQ(got.latency, want.latency);
        } else if (draw < 46) {
            expectSameInsert(level->insert(core, line, dirty),
                             naive.insert(core, line, dirty));
        } else if (draw < 53) {
            const auto position = static_cast<std::uint32_t>(
                rng.below(shape.slices * shape.assoc + 2));
            expectSameInsert(
                level->insertAtStackPosition(core, line, dirty,
                                             position),
                naive.insertAtStackPosition(core, line, dirty,
                                            position));
        } else if (draw < 57) {
            const auto slice = static_cast<SliceId>(core);
            const std::uint64_t set = rng.below(shape.sets);
            const auto way =
                static_cast<std::uint32_t>(rng.below(shape.assoc));
            if (naive.line(slice, set, way).valid) {
                level->promoteByOne(slice, set, way);
                naive.promoteByOne(slice, set, way);
            }
        } else if (draw < 61) {
            const auto target = static_cast<SliceId>(randomCore());
            expectSameInsert(
                level->insertIntoSlice(core, target, line, dirty),
                naive.insertIntoSlice(target, line, dirty));
        } else if (draw < 65) {
            const auto target = static_cast<SliceId>(randomCore());
            const auto way =
                static_cast<std::uint32_t>(rng.below(shape.assoc));
            expectSameInsert(
                level->fillAt(core, target, way, line, dirty),
                naive.fillAt(target, way, line, dirty));
        } else if (draw < 73) {
            ASSERT_EQ(level->markDirty(core, line),
                      naive.markDirty(core, line));
        } else if (draw < 76) {
            ASSERT_EQ(level->presentInGroup(core, line),
                      naive.presentInSlices(
                          naive.groupOf(static_cast<SliceId>(core)),
                          line));
        } else if (draw < 78) {
            const auto slices = randomSlices();
            ASSERT_EQ(level->presentInSlices(slices, line),
                      naive.presentInSlices(slices, line));
        } else if (draw < 82) {
            ASSERT_EQ(level->findInOtherGroups(core, line),
                      naive.findInOtherGroups(core, line));
        } else if (draw < 84) {
            const auto slices = randomSlices();
            ASSERT_EQ(level->invalidateInSlices(slices, line),
                      naive.invalidateIn(
                          slices, line,
                          naive.stats.inclusionInvalidations));
        } else if (draw < 86) {
            std::vector<SliceId> all;
            for (std::uint32_t s = 0; s < shape.slices; ++s)
                all.push_back(static_cast<SliceId>(s));
            ASSERT_EQ(level->invalidateEverywhere(line),
                      naive.invalidateIn(
                          all, line,
                          naive.stats.coherenceInvalidations));
        } else if (draw < 88) {
            ASSERT_EQ(level->invalidateOutsideGroup(core, line),
                      naive.invalidateIn(
                          naive.outsideGroup(core), line,
                          naive.stats.coherenceInvalidations));
        } else if (draw < 92) {
            // Direct slice mutation, as reconfiguration walks and
            // tests do: drop a known way, or a line by address.
            const auto slice = static_cast<SliceId>(core);
            const std::uint64_t set = rng.below(shape.sets);
            const auto way =
                static_cast<std::uint32_t>(rng.below(shape.assoc));
            if (naive.line(slice, set, way).valid) {
                expectSameEviction(
                    level->slice(slice).invalidateAt(set, way),
                    naive.dropLine(naive.line(slice, set, way)));
            }
            expectSameEviction(level->slice(slice).invalidate(line),
                               naive.invalidate(slice, line));
        } else if (draw < 98) {
            const Partition partition =
                randomPartition(rng, shape.slices);
            level->configure(partition);
            naive.configure(partition);
        } else {
            roundTrip(level, params);
        }
        expectSameState(*level, naive, shape);
        if (::testing::Test::HasFailure())
            return;
    }
    // The stream must reach the paths it is meant to check.
    EXPECT_GT(naive.stats.remoteHits + naive.stats.localHits, 0u);
    EXPECT_GT(naive.stats.evictions, 0u);
    if (shape.slices > 1) {
        EXPECT_GT(naive.stats.remoteHits, 0u);
        EXPECT_GT(naive.stats.lazyInvalidations, 0u);
    }
}

TEST(LevelOracle, LruMatchesNaiveLevel)
{
    const OracleShape shapes[] = {
        {1, 1, 2, ReplPolicy::LRU},   {2, 2, 4, ReplPolicy::LRU},
        {3, 2, 2, ReplPolicy::LRU},   {4, 4, 2, ReplPolicy::LRU},
        {5, 4, 1, ReplPolicy::LRU},   {8, 8, 2, ReplPolicy::LRU},
        {16, 8, 2, ReplPolicy::LRU},  {6, 16, 2, ReplPolicy::LRU},
        {16, 16, 1, ReplPolicy::LRU}, {3, 32, 2, ReplPolicy::LRU},
        {2, 64, 1, ReplPolicy::LRU},
    };
    std::uint64_t seed = 1;
    for (const OracleShape &shape : shapes) {
        runOracle(shape, seed++, 3000);
        if (HasFailure())
            return;
    }
}

TEST(LevelOracle, TreePlruMatchesNaiveLevel)
{
    const OracleShape shapes[] = {
        {1, 2, 2, ReplPolicy::TreePLRU},
        {4, 4, 2, ReplPolicy::TreePLRU},
        {7, 8, 2, ReplPolicy::TreePLRU},
        {16, 8, 1, ReplPolicy::TreePLRU},
        {16, 16, 2, ReplPolicy::TreePLRU},
        {3, 32, 1, ReplPolicy::TreePLRU},
    };
    std::uint64_t seed = 101;
    for (const OracleShape &shape : shapes) {
        runOracle(shape, seed++, 3000);
        if (HasFailure())
            return;
    }
}

/**
 * A merge of non-empty slices, step by step: every private slice
 * holds the same line, one merge later the group holds four copies,
 * and the first lookup keeps exactly the requester's.
 */
TEST(LevelOracle, MergeOfFullSlicesKeepsRequesterCopy)
{
    const OracleShape shape{4, 4, 2, ReplPolicy::LRU};
    const LevelParams params = oracleParams(shape);
    CacheLevelModel level(params);
    NaiveLevel naive(params);
    const Addr line = 1 + 5 * shape.sets;
    for (CoreId c = 0; c < 4; ++c) {
        expectSameInsert(level.insert(c, line, c == 2),
                         naive.insert(c, line, c == 2));
    }
    const Partition merged = {{3, 1, 0, 2}};
    level.configure(merged);
    naive.configure(merged);
    const LookupOutcome got = level.lookup(2, line, 0);
    const LookupOutcome want = naive.lookup(2, line);
    EXPECT_TRUE(got.hit);
    EXPECT_EQ(got.slice, 2);
    EXPECT_EQ(got.slice, want.slice);
    EXPECT_EQ(level.stats().lazyInvalidations, 3u);
    expectSameState(level, naive, shape);
    // The requester keeps its dirty copy.
    EXPECT_TRUE(level.markDirty(2, line));
    EXPECT_FALSE(level.presentInSlices({0, 1, 3}, line));
}

/**
 * Lines of one set whose fingerprints all equal the target's, but
 * whose tags differ: every fingerprint match below is a false
 * candidate the full-tag compare must reject, including one in a
 * lower way of the very row that holds the target.
 */
TEST(LevelOracle, EqualFingerprintsResolveByFullTag)
{
    const OracleShape shape{4, 8, 4, ReplPolicy::LRU};
    const LevelParams params = oracleParams(shape);
    CacheLevelModel level(params);
    NaiveLevel naive(params);
    const std::uint64_t set = 3;
    const Addr target = set + 1 * shape.sets;
    std::vector<Addr> twins;
    for (Addr k = 2; twins.size() < 6; ++k) {
        const Addr line = set + k * shape.sets;
        if (fingerprintOf(line) == fingerprintOf(target))
            twins.push_back(line);
    }
    const Partition shared = {{2, 0, 3, 1}};
    level.configure(shared);
    naive.configure(shared);
    // Twins in slices 0, 1 (two of them) and 3; nothing yet in 2.
    const SliceId homes[] = {0, 1, 1, 3};
    for (std::size_t i = 0; i < 4; ++i) {
        expectSameInsert(
            level.insertIntoSlice(0, homes[i], twins[i], false),
            naive.insertIntoSlice(homes[i], twins[i], false));
    }
    EXPECT_FALSE(level.lookup(2, target, 0).hit);
    EXPECT_FALSE(naive.lookup(2, target).hit);
    EXPECT_FALSE(level.markDirty(2, target));
    EXPECT_FALSE(level.presentInGroup(2, target));
    EXPECT_FALSE(level.findInOtherGroups(0, target).has_value());

    // The target lands in slice 1's way 2, behind two twins.
    expectSameInsert(level.insertIntoSlice(0, 1, target, false),
                     naive.insertIntoSlice(1, target, false));
    ASSERT_EQ(level.slice(1).probe(target),
              std::optional<std::uint32_t>(2));
    const LookupOutcome got = level.lookup(2, target, 0);
    const LookupOutcome want = naive.lookup(2, target);
    EXPECT_TRUE(got.hit);
    EXPECT_EQ(got.slice, 1);
    EXPECT_EQ(got.slice, want.slice);
    EXPECT_TRUE(level.markDirty(0, target));
    EXPECT_TRUE(naive.markDirty(0, target));
    EXPECT_TRUE(level.presentInGroup(3, target));

    // Split: the target is now in another group for slices 0 and 2.
    const Partition split = {{0, 2}, {1}, {3}};
    level.configure(split);
    naive.configure(split);
    EXPECT_EQ(level.findInOtherGroups(2, target),
              std::optional<SliceId>(1));
    EXPECT_EQ(level.findInOtherGroups(1, twins[4]), std::nullopt);
    EXPECT_FALSE(level.presentInGroup(0, target));
    expectSameState(level, naive, shape);
}

} // namespace
} // namespace morphcache
