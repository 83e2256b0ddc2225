/**
 * @file
 * Golden-bytes equivalence tests for the hot-path rework.
 *
 * Two layers of protection for "make it faster without changing one
 * simulated byte":
 *
 *  - golden stats fixtures: every scheme x a pair of mixes runs
 *    as one test-local cell and the full stats JSON is compared
 *    byte-for-byte against a committed fixture generated before the
 *    struct-of-arrays refactor, and the cell's RunResult (per-epoch
 *    throughput, IPC, and misses at %.17g) against a committed
 *    `.run.txt` fixture, which pins the schemes that register no
 *    stats (regenerate deliberately with MC_UPDATE_GOLDEN=1);
 *
 *  - naive reference models: victimWay, tree-PLRU victim descent,
 *    lazy invalidation of merge duplicates, and group-LRU victim
 *    choice are each pinned against a straightforward independent
 *    implementation, so the word-scan rewrites cannot silently
 *    change replacement semantics.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "hierarchy/cache_level.hh"
#include "mem/slice.hh"
#include "runner/run_factory.hh"
#include "sim/config.hh"
#include "sim/simulation.hh"
#include "stats/registry.hh"
#include "workload/generator.hh"
#include "workload/profiles.hh"

namespace morphcache {
namespace {

// ---------------------------------------------------------------
// Golden stats fixtures
// ---------------------------------------------------------------

const char *const kGoldenSchemes[] = {"morph", "static:2:2:1", "ucp",
                                      "pipp", "dsr"};
const int kGoldenMixes[] = {1, 8};

std::string
goldenDir()
{
    return std::string(MC_SOURCE_DIR) + "/tests/golden";
}

/**
 * Fixture filename for one cell ("static:4:2:1" -> "static-4-2-1"),
 * `ext` being ".json" or ".run.txt".
 */
std::string
fixturePath(const std::string &scheme, int mix, const char *ext)
{
    std::string tag = scheme;
    for (char &c : tag)
        if (c == ':')
            c = '-';
    char name[64];
    std::snprintf(name, sizeof(name), "/%s_mix%02d%s", tag.c_str(),
                  mix, ext);
    return goldenDir() + name;
}

/** What a golden cell is compared on. */
struct GoldenCell
{
    std::string statsJson;
    RunResult run;
};

/** One small deterministic 4-core cell with stats JSON on. */
GoldenCell
runGoldenCell(const std::string &scheme, int mix)
{
    const HierarchyParams hier = fastScaleHierarchy(4);
    const GeneratorParams gen = generatorFor(hier);
    char mix_name[16];
    std::snprintf(mix_name, sizeof(mix_name), "MIX %02d", mix);
    MixSpec spec_mix = mixByName(mix_name);
    spec_mix.benchmarks.resize(4);
    MixWorkload workload(spec_mix, gen, 42);
    const std::unique_ptr<MemorySystem> system =
        makeSchemeSystem(scheme, hier, 4, MorphConfig{});

    StatsRegistry registry;
    StatsMeta meta;
    meta.seed = 42;
    meta.configHash = configHashHex("golden " + scheme);
    registry.setMeta(meta);
    system->registerStats(registry);

    SimParams sim;
    sim.epochs = 3;
    sim.warmupEpochs = 1;
    sim.refsPerEpochPerCore = 1500;
    Simulation simulation(*system, workload, sim);
    simulation.setRegistry(&registry);
    GoldenCell cell;
    cell.run = simulation.run();
    cell.statsJson = registry.jsonString();
    return cell;
}

/** %.17g, so equal text means a bit-equal double. */
std::string
exact(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Text rendering of a RunResult, one line per metric row. */
std::string
renderRunResult(const RunResult &run)
{
    std::string out;
    for (std::size_t e = 0; e < run.epochs.size(); ++e) {
        const EpochMetrics &m = run.epochs[e];
        const std::string tag = "epoch " + std::to_string(e);
        out += tag + " throughput " + exact(m.throughput) + "\n";
        out += tag + " ipc";
        for (double ipc : m.ipc)
            out += " " + exact(ipc);
        out += "\n" + tag + " misses";
        for (std::uint64_t misses : m.misses)
            out += " " + std::to_string(misses);
        out += "\n";
    }
    out += "avg_ipc";
    for (double ipc : run.avgIpc)
        out += " " + exact(ipc);
    out += "\navg_throughput " + exact(run.avgThroughput) + "\n";
    out += "performance " + exact(run.performance) + "\n";
    return out;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return {};
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

TEST(GoldenStats, EverySchemeMatchesFixture)
{
    const bool update = std::getenv("MC_UPDATE_GOLDEN") != nullptr;
    if (update)
        std::filesystem::create_directories(goldenDir());

    for (const char *scheme : kGoldenSchemes) {
        for (int mix : kGoldenMixes) {
            SCOPED_TRACE(std::string(scheme) + " mix " +
                         std::to_string(mix));
            const GoldenCell cell = runGoldenCell(scheme, mix);
            ASSERT_FALSE(cell.statsJson.empty());
            const std::pair<const char *, std::string> rendered[] = {
                {".json", cell.statsJson},
                {".run.txt", renderRunResult(cell.run)}};
            for (const auto &[ext, text] : rendered) {
                const std::string path = fixturePath(scheme, mix, ext);
                if (update) {
                    std::ofstream out(path, std::ios::binary);
                    ASSERT_TRUE(out.good()) << path;
                    out << text;
                    continue;
                }
                const std::string golden = readFile(path);
                ASSERT_FALSE(golden.empty())
                    << "missing fixture " << path
                    << " (regenerate with MC_UPDATE_GOLDEN=1)";
                EXPECT_EQ(text, golden)
                    << "simulated output diverged from the fixture: "
                    << path;
            }
        }
    }
}

TEST(GoldenStats, CellIsDeterministic)
{
    // The fixture comparison is only meaningful if the cell itself
    // is run-to-run byte-stable.
    EXPECT_EQ(runGoldenCell("morph", 1).statsJson,
              runGoldenCell("morph", 1).statsJson);
}

// ---------------------------------------------------------------
// Naive reference models
// ---------------------------------------------------------------

/** Mirror of one way's replacement-relevant state. */
struct NaiveLine
{
    bool valid = false;
    Addr lineAddr = 0;
    std::uint64_t stamp = 0;
};

/** First invalid way in way order, else strict-min-stamp from way 0. */
std::uint32_t
naiveVictim(const std::vector<NaiveLine> &set)
{
    for (std::uint32_t way = 0; way < set.size(); ++way)
        if (!set[way].valid)
            return way;
    std::uint32_t victim = 0;
    std::uint64_t oldest = set[0].stamp;
    for (std::uint32_t way = 1; way < set.size(); ++way) {
        if (set[way].stamp < oldest) {
            oldest = set[way].stamp;
            victim = way;
        }
    }
    return victim;
}

TEST(ReferenceModel, VictimWayPrefersInvalidThenMinStamp)
{
    const CacheGeometry geom{8 * 1024, 8, 64}; // 16 sets x 8 ways
    TagArena arena(1, geom, ReplPolicy::LRU);
    CacheSlice slice = arena.slice(0);
    std::vector<std::vector<NaiveLine>> mirror(
        geom.numSets(), std::vector<NaiveLine>(geom.assoc));

    Rng rng(1234);
    std::uint64_t stamp = 0;
    for (int op = 0; op < 4000; ++op) {
        const std::uint64_t set = rng.below(geom.numSets());
        // Address that maps to `set` (numSets is a power of two).
        const Addr addr = set + rng.below(64) * geom.numSets();
        const std::uint64_t draw = rng.below(100);
        if (draw < 55) {
            // Fill at the victim way, like the level's LRU path.
            const std::uint32_t way = slice.victimWay(set);
            ASSERT_EQ(way, naiveVictim(mirror[set])) << "op " << op;
            slice.fill(set, way, addr, false, ++stamp);
            mirror[set][way] = {true, addr, stamp};
        } else if (draw < 85) {
            // Touch a resident line if this address is present.
            const auto way = slice.probe(addr);
            // First-match semantics, like probe() (duplicate fills
            // can leave one address in two ways).
            std::uint32_t naive_way = geom.assoc;
            for (std::uint32_t w = 0; w < geom.assoc; ++w)
                if (mirror[set][w].valid &&
                    mirror[set][w].lineAddr == addr) {
                    naive_way = w;
                    break;
                }
            ASSERT_EQ(way.has_value(), naive_way != geom.assoc);
            if (way) {
                ASSERT_EQ(*way, naive_way);
                slice.touch(set, *way, ++stamp);
                mirror[set][*way].stamp = stamp;
            }
        } else {
            // invalidate() drops only the first probe match.
            const Eviction ev = slice.invalidate(addr);
            bool naive_present = false;
            for (auto &line : mirror[set])
                if (line.valid && line.lineAddr == addr) {
                    line.valid = false;
                    naive_present = true;
                    break;
                }
            ASSERT_EQ(ev.valid, naive_present);
        }
        ASSERT_EQ(slice.victimWay(set), naiveVictim(mirror[set]))
            << "op " << op << " set " << set;
    }
}

/**
 * Independent generalized tree-PLRU: direction bits as a plain
 * array, victim by iterative root-to-leaf descent, touch by walking
 * the leaf-to-root path and pointing every node away from it.
 */
struct NaivePlru
{
    std::uint32_t assoc;
    std::vector<bool> bits; // 1-based heap order

    explicit NaivePlru(std::uint32_t a) : assoc(a), bits(2 * a, false)
    {
    }

    std::uint32_t
    victim() const
    {
        std::uint32_t node = 1;
        while (node < assoc)
            node = 2 * node + (bits[node] ? 1 : 0);
        return node - assoc;
    }

    void
    touch(std::uint32_t way)
    {
        std::uint32_t node = way + assoc;
        while (node > 1) {
            const std::uint32_t parent = node / 2;
            // Point the parent at the *other* subtree.
            bits[parent] = (node == 2 * parent) ? true : false;
            node = parent;
        }
    }
};

TEST(ReferenceModel, TreePlruVictimMatchesNaiveDescent)
{
    const CacheGeometry geom{4 * 1024, 8, 64}; // 8 sets x 8 ways
    TagArena arena(1, geom, ReplPolicy::TreePLRU);
    CacheSlice slice = arena.slice(0);
    std::vector<NaivePlru> mirror(geom.numSets(), NaivePlru(8));
    // Fill every way so victimWay reaches the PLRU tree.
    std::uint64_t stamp = 0;
    for (std::uint64_t set = 0; set < geom.numSets(); ++set)
        for (std::uint32_t way = 0; way < geom.assoc; ++way) {
            slice.fill(set, way,
                       set + (way + 1) * geom.numSets(), false,
                       ++stamp);
            mirror[set].touch(way);
        }

    Rng rng(99);
    for (int op = 0; op < 2000; ++op) {
        const std::uint64_t set = rng.below(geom.numSets());
        const std::uint32_t way =
            static_cast<std::uint32_t>(rng.below(geom.assoc));
        slice.touch(set, way, ++stamp);
        mirror[set].touch(way);
        ASSERT_EQ(slice.victimWay(set), mirror[set].victim())
            << "op " << op << " set " << set;
    }
}

LevelParams
tinyLevel(std::uint32_t slices)
{
    LevelParams params;
    params.name = "L2";
    params.numSlices = slices;
    params.sliceGeom = CacheGeometry{16 * 1024, 4, 64};
    params.localHitLatency = 10;
    params.chargeBusPenalty = true;
    return params;
}

/** Distinct lines all mapping to one set of the tiny geometry. */
Addr
tinyLineInSet(std::uint64_t set, std::uint64_t k)
{
    return set + (k + 1) * tinyLevel(2).sliceGeom.numSets();
}

TEST(ReferenceModel, LazyInvalidationDropsMergeDuplicates)
{
    CacheLevelModel level(tinyLevel(4));
    // Private phase: the same line lands in two physical slices.
    level.insert(0, 0x200, false);
    level.insert(1, 0x200, false);
    ASSERT_TRUE(level.presentInSlices({0}, 0x200));
    ASSERT_TRUE(level.presentInSlices({1}, 0x200));

    // Merge, then one lookup: the hit must resolve to exactly one
    // copy and lazily invalidate the duplicate.
    level.configure({{0, 1}, {2}, {3}});
    const std::uint64_t lazy_before = level.stats().lazyInvalidations;
    const LookupOutcome out = level.lookup(0, 0x200, 0);
    EXPECT_TRUE(out.hit);
    EXPECT_EQ(level.stats().lazyInvalidations, lazy_before + 1);
    const int copies = (level.presentInSlices({0}, 0x200) ? 1 : 0) +
                       (level.presentInSlices({1}, 0x200) ? 1 : 0);
    EXPECT_EQ(copies, 1);
}

TEST(ReferenceModel, GroupLruEvictsGloballyOldestLine)
{
    CacheLevelModel level(tinyLevel(2));
    level.configure({{0, 1}});
    const std::uint64_t set = 7;

    // Mirror of (line -> stamp) under the level's own stamp counter:
    // every insert and every default-promote hit takes one stamp.
    std::vector<Addr> resident;
    std::vector<std::uint64_t> stamps;
    std::uint64_t stamp = 0;
    for (std::uint64_t k = 0; k < 8; ++k) {
        level.insert(0, tinyLineInSet(set, k), false);
        resident.push_back(tinyLineInSet(set, k));
        stamps.push_back(++stamp);
    }
    // Touch a scattered subset so the naive LRU order is nontrivial.
    for (std::uint64_t k : {0ULL, 3ULL, 5ULL, 1ULL, 6ULL}) {
        ASSERT_TRUE(level.lookup(0, tinyLineInSet(set, k), 0).hit);
        stamps[k] = ++stamp;
    }

    for (std::uint64_t k = 8; k < 12; ++k) {
        // Naive prediction: strict-min-stamp across the whole group.
        std::size_t victim = 0;
        for (std::size_t i = 1; i < resident.size(); ++i)
            if (stamps[i] < stamps[victim])
                victim = i;
        const Addr predicted = resident[victim];

        const InsertOutcome out =
            level.insert(0, tinyLineInSet(set, k), false);
        ASSERT_TRUE(out.evicted.valid) << "k " << k;
        EXPECT_EQ(out.evicted.lineAddr, predicted) << "k " << k;
        EXPECT_FALSE(level.presentInGroup(0, predicted));

        resident[victim] = tinyLineInSet(set, k);
        stamps[victim] = ++stamp;
    }
}

/** Where and how a stack-position insert lands, and what it evicts. */
struct NaiveStackInsert
{
    SliceId slice = invalidSlice;
    std::uint32_t way = 0;
    std::uint64_t stamp = 0;
    Eviction evicted;
};

/**
 * Gather-and-sort reference for insertAtStackPosition: the victim
 * scan, then every valid stamp of the group's set except the
 * victim's gathered into a vector, fully sorted, and indexed at
 * `position` (`next_stamp` past the end).
 */
NaiveStackInsert
naiveStackPositionInsert(const CacheLevelModel &level, CoreId core,
                         Addr line_addr, std::uint32_t position,
                         std::uint64_t next_stamp)
{
    const auto &group = level.groupSlices(core);
    const std::uint32_t assoc = level.params().sliceGeom.assoc;
    const std::uint64_t set = level.slice(core).setIndex(line_addr);

    SliceId target = invalidSlice;
    std::uint32_t target_way = 0;
    std::uint64_t oldest = ~std::uint64_t{0};
    for (SliceId member : group) {
        const std::uint32_t inv = level.slice(member).firstInvalidWay(set);
        if (inv != assoc) {
            target = member;
            target_way = inv;
            break;
        }
        for (std::uint32_t way = 0; way < assoc; ++way) {
            const std::uint64_t stamp =
                level.slice(member).stampAt(set, way);
            if (stamp < oldest) {
                oldest = stamp;
                target = member;
                target_way = way;
            }
        }
    }

    std::vector<std::uint64_t> stamps;
    for (SliceId member : group) {
        for (std::uint32_t way = 0; way < assoc; ++way) {
            if (!level.slice(member).validAt(set, way))
                continue;
            if (member == target && way == target_way)
                continue;
            stamps.push_back(level.slice(member).stampAt(set, way));
        }
    }
    std::sort(stamps.begin(), stamps.end());

    NaiveStackInsert out;
    out.slice = target;
    out.way = target_way;
    out.stamp = position < stamps.size() ? stamps[position] : next_stamp;
    const CacheSlice &victim = level.slice(target);
    if (victim.validAt(set, target_way)) {
        out.evicted.valid = true;
        out.evicted.lineAddr = victim.lineAddrAt(set, target_way);
        out.evicted.dirty = victim.dirtyAt(set, target_way);
        out.evicted.reused = victim.reusedAt(set, target_way);
    }
    return out;
}

/**
 * Drive one level with random default inserts, hits, promotions,
 * invalidations, and positional inserts, checking every positional
 * insert against naiveStackPositionInsert.
 */
void
checkStackPositionInserts(std::uint32_t group_size, std::uint32_t assoc,
                          ReplPolicy policy)
{
    constexpr std::uint32_t kSlices = 16;
    constexpr std::uint64_t kSets = 4;
    LevelParams params = tinyLevel(kSlices);
    params.sliceGeom = CacheGeometry{kSets * assoc * 64, assoc, 64};
    params.policy = policy;
    CacheLevelModel level(params);
    Partition partition;
    for (std::uint32_t s = 0; s < kSlices; ++s) {
        if (s % group_size == 0)
            partition.emplace_back();
        partition.back().push_back(static_cast<SliceId>(s));
    }
    level.configure(partition);

    Rng rng(7 + group_size * 131 + assoc * 17 +
            (policy == ReplPolicy::LRU ? 0 : 1));
    // Mirror of the level's recency counter: each default insert,
    // default-promote hit, and past-the-end positional insert takes
    // one stamp.
    std::uint64_t counter = 0;
    std::vector<Addr> lines;
    Addr next_line = 0;
    auto stampOf = [&](SliceId slice, Addr line) -> std::uint64_t {
        const CacheSlice &sl = level.slice(slice);
        const auto way = sl.probe(line);
        EXPECT_TRUE(way.has_value());
        return way ? sl.stampAt(sl.setIndex(line), *way) : 0;
    };

    int positional = 0;
    for (int op = 0; op < 3000; ++op) {
        SCOPED_TRACE("op " + std::to_string(op));
        const CoreId core = static_cast<CoreId>(rng.below(kSlices));
        const std::uint64_t set = rng.below(kSets);
        const SliceId slice = static_cast<SliceId>(rng.below(kSlices));
        const auto way = static_cast<std::uint32_t>(rng.below(assoc));
        const std::uint64_t draw = rng.below(100);
        if (draw < 25) {
            const Addr line = set + (++next_line) * kSets;
            const InsertOutcome out =
                level.insert(core, line, rng.below(2) == 1);
            ASSERT_EQ(stampOf(out.slice, line), ++counter);
            lines.push_back(line);
        } else if (draw < 35 && !lines.empty()) {
            const Addr line = lines[rng.below(lines.size())];
            const LookupOutcome out = level.lookup(core, line, 0);
            if (out.hit) {
                ASSERT_EQ(stampOf(out.slice, line), ++counter);
            }
        } else if (draw < 50) {
            // promoteByOne swaps stamps, so it moves the duplicates
            // earlier positional inserts created.
            if (level.slice(slice).validAt(set, way))
                level.promoteByOne(slice, set, way);
        } else if (draw < 58) {
            // Leave the set partly invalid.
            if (level.slice(slice).validAt(set, way))
                level.slice(slice).invalidateAt(set, way);
        } else {
            const Addr line = set + (++next_line) * kSets;
            const auto position = static_cast<std::uint32_t>(
                rng.below(group_size * assoc + 2));
            const NaiveStackInsert want = naiveStackPositionInsert(
                level, core, line, position, counter + 1);
            const InsertOutcome got = level.insertAtStackPosition(
                core, line, rng.below(2) == 1, position);
            // Every resident stamp is <= counter, so only the
            // past-the-end branch can install counter + 1.
            if (want.stamp == counter + 1)
                ++counter;
            ++positional;
            ASSERT_EQ(got.slice, want.slice);
            ASSERT_EQ(got.evictedFrom, want.slice);
            ASSERT_EQ(level.slice(got.slice).probe(line),
                      std::optional<std::uint32_t>(want.way));
            ASSERT_EQ(stampOf(got.slice, line), want.stamp)
                << "position " << position;
            ASSERT_EQ(got.evicted.valid, want.evicted.valid);
            ASSERT_EQ(got.evicted.lineAddr, want.evicted.lineAddr);
            ASSERT_EQ(got.evicted.dirty, want.evicted.dirty);
            ASSERT_EQ(got.evicted.reused, want.evicted.reused);
            lines.push_back(line);
        }
    }
    EXPECT_GT(positional, 1000);
}

TEST(ReferenceModel, StackPositionInsertMatchesSortedReference)
{
    for (const std::uint32_t group_size : {1u, 2u, 4u, 16u}) {
        for (const std::uint32_t assoc : {4u, 8u, 16u}) {
            for (const ReplPolicy policy :
                 {ReplPolicy::LRU, ReplPolicy::TreePLRU}) {
                SCOPED_TRACE("group " + std::to_string(group_size) +
                             " assoc " + std::to_string(assoc) +
                             (policy == ReplPolicy::LRU ? " LRU"
                                                        : " TreePLRU"));
                checkStackPositionInserts(group_size, assoc, policy);
                if (HasFatalFailure())
                    return;
            }
        }
    }
}

} // namespace
} // namespace morphcache
