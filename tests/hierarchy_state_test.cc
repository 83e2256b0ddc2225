/**
 * @file
 * What the cache-state layout must not change: the checkpoint bytes
 * of a fixed run (pinned by digest, so a storage change that alters
 * the encoding fails here rather than in a resumed campaign), and
 * value semantics: a copied or moved Hierarchy owns its own state,
 * as the ideal-offline scheme's per-candidate copies require.
 */

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "common/serial.hh"
#include "hierarchy/hierarchy.hh"
#include "sim/config.hh"
#include "sim/simulation.hh"
#include "workload/generator.hh"
#include "workload/profiles.hh"

namespace morphcache {
namespace {

constexpr std::uint32_t kCores = 16;

std::vector<std::uint8_t>
stateBytes(const Hierarchy &h)
{
    CkptWriter w;
    h.saveState(w);
    return w.buffer();
}

std::uint64_t
stateDigest(const Hierarchy &h)
{
    const std::vector<std::uint8_t> bytes = stateBytes(h);
    return fnv1a64(bytes.data(), bytes.size());
}

/** Run `epochs` epochs of `refs` references per core. */
void
drive(Hierarchy &h, Workload &w, EpochId &epoch, std::uint32_t epochs,
      std::uint64_t refs)
{
    std::vector<double> cycles(kCores, 0.0);
    std::vector<double> instrs(kCores, 0.0);
    for (std::uint32_t e = 0; e < epochs; ++e) {
        w.beginEpoch(epoch++);
        runEpochAccesses(h, w, CoreModelParams{}, refs, cycles, instrs);
    }
}

/**
 * Fast scale, mix 8: static 4:4:1, then a merge of the warm slices
 * into 16:1:1 (duplicates for lazy invalidation), then 2:2:4.
 */
TEST(HierarchyState, FastScaleCheckpointDigestIsPinned)
{
    const HierarchyParams params = fastScaleHierarchy(kCores);
    Hierarchy h(params);
    MixWorkload w(mixByName("MIX 08"), generatorFor(params), 31);
    EpochId epoch = 0;
    h.reconfigure(Topology::symmetric(kCores, 4, 4, 1));
    drive(h, w, epoch, 2, 1500);
    h.reconfigure(Topology::symmetric(kCores, 16, 1, 1));
    drive(h, w, epoch, 2, 1500);
    h.reconfigure(Topology::symmetric(kCores, 2, 2, 4));
    drive(h, w, epoch, 1, 1500);
    EXPECT_EQ(stateDigest(h), 15419511137288536742ULL);
}

/** Paper scale, mix 8, static 16:1:1: the shared16-paper shape. */
TEST(HierarchyState, PaperScaleCheckpointDigestIsPinned)
{
    const HierarchyParams params = paperScaleHierarchy(kCores);
    Hierarchy h(params);
    MixWorkload w(mixByName("MIX 08"), generatorFor(params), 32);
    EpochId epoch = 0;
    h.reconfigure(Topology::symmetric(kCores, 16, 1, 1));
    drive(h, w, epoch, 2, 1000);
    EXPECT_EQ(stateDigest(h), 9056842933555560127ULL);
}

/**
 * Drive two hierarchies with one reference stream each (identical
 * streams), requiring identical results access by access.
 */
void
driveInLockstep(Hierarchy &a, Workload &wa, Hierarchy &b, Workload &wb,
                EpochId epoch, std::uint64_t refs)
{
    wa.beginEpoch(epoch);
    wb.beginEpoch(epoch);
    for (std::uint64_t r = 0; r < refs; ++r) {
        for (std::uint32_t c = 0; c < kCores; ++c) {
            const MemAccess x = wa.next(static_cast<CoreId>(c));
            const MemAccess y = wb.next(static_cast<CoreId>(c));
            ASSERT_EQ(x.addr, y.addr);
            const Cycle now = r * 10;
            const AccessResult ra = a.access(x, now);
            const AccessResult rb = b.access(y, now);
            ASSERT_EQ(ra.latency, rb.latency) << "ref " << r;
            ASSERT_EQ(ra.servedBy, rb.servedBy) << "ref " << r;
        }
    }
}

TEST(HierarchyState, CopyAndMoveAreIndependent)
{
    const HierarchyParams params = fastScaleHierarchy(kCores);
    Hierarchy h1(params);
    MixWorkload w1(mixByName("MIX 04"), generatorFor(params), 33);
    EpochId epoch = 0;
    h1.reconfigure(Topology::symmetric(kCores, 4, 4, 1));
    drive(h1, w1, epoch, 1, 1000);

    // A copy steps exactly like its source.
    Hierarchy h2 = h1; // NOLINT(performance-unnecessary-copy-initialization)
    std::unique_ptr<Workload> w2 = w1.clone();
    ASSERT_EQ(stateBytes(h1), stateBytes(h2));
    driveInLockstep(h1, w1, h2, *w2, epoch++, 800);
    ASSERT_EQ(stateBytes(h1), stateBytes(h2));

    // Mutating the copy leaves the source untouched.
    const std::vector<std::uint8_t> before = stateBytes(h1);
    std::unique_ptr<Workload> w3 = w1.clone();
    h2.reconfigure(Topology::symmetric(kCores, 16, 1, 1));
    drive(h2, *w3, epoch, 1, 800);
    EXPECT_EQ(stateBytes(h1), before);
    EXPECT_NE(stateBytes(h2), before);

    // Copy-assignment and move keep their own state too.
    h2 = h1;
    EXPECT_EQ(stateBytes(h2), before);
    Hierarchy h3(std::move(h2));
    EXPECT_EQ(stateBytes(h3), before);
    std::unique_ptr<Workload> w4 = w1.clone();
    driveInLockstep(h1, w1, h3, *w4, epoch++, 800);
    EXPECT_EQ(stateBytes(h1), stateBytes(h3));
    h3.reconfigure(Topology::symmetric(kCores, 2, 2, 4));
    drive(h3, *w4, epoch, 1, 400);
    EXPECT_NE(stateBytes(h1), stateBytes(h3));
    EXPECT_EQ(h1.topology().l2, Topology::symmetric(kCores, 4, 4, 1).l2);
}

} // namespace
} // namespace morphcache
