/**
 * @file
 * Tests for the deterministic parallel sweep: parallelMap (index
 * order, the lowest-index rethrow, join before rethrow), seed
 * derivation, and the headline contract — a -j1 sweep and a -j8
 * sweep of the same cells produce identical reports and stats-JSON
 * bytes, identical to the durable campaign's.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/ckpt.hh"
#include "runner/campaign.hh"
#include "runner/executor.hh"
#include "runner/sweep.hh"

namespace morphcache {
namespace {

TEST(ParallelMap, MoreCellsThanWorkersKeepIndexOrder)
{
    const auto values = parallelMap(64, 3, [](std::size_t i) {
        // Uneven cell durations shuffle *completion* order; results
        // must still come back in index order.
        if (i % 7 == 0) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1));
        }
        return i * i;
    });
    ASSERT_EQ(values.size(), 64u);
    for (std::size_t i = 0; i < values.size(); ++i)
        EXPECT_EQ(values[i], i * i);
}

TEST(ParallelMap, RethrowsLowestIndexFailure)
{
    // Cell 6 throws at once, cell 3 only after a delay: the rethrown
    // error must still be cell 3's, whatever finished first.
    try {
        parallelMap(8, 4, [](std::size_t i) {
            if (i == 3) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(20));
                throw std::runtime_error("cell three");
            }
            if (i == 6)
                throw std::runtime_error("cell six");
            return i;
        });
        FAIL() << "parallelMap swallowed the cell failures";
    } catch (const std::runtime_error &err) {
        EXPECT_STREQ(err.what(), "cell three");
    }
}

TEST(ParallelMap, JoinsEveryWorkerBeforeRethrow)
{
    // Cell 0 fails at once; every other cell still runs to the end
    // before the error reaches the caller, so nothing the cells
    // reference can go out of scope under a running thread.
    std::atomic<int> finished{0};
    EXPECT_THROW(parallelMap(12, 4,
                             [&finished](std::size_t i) {
                                 if (i == 0)
                                     throw std::runtime_error("boom");
                                 std::this_thread::sleep_for(
                                     std::chrono::milliseconds(5));
                                 ++finished;
                                 return i;
                             }),
                 std::runtime_error);
    EXPECT_EQ(finished.load(), 11);
}

TEST(SweepSeed, DeterministicAndWellSpread)
{
    std::set<std::uint64_t> seeds;
    for (std::uint64_t i = 0; i < 256; ++i) {
        const std::uint64_t seed = sweepCellSeed(42, i);
        EXPECT_EQ(seed, sweepCellSeed(42, i));
        seeds.insert(seed);
    }
    // SplitMix64 over base ^ index never collides on a small range.
    EXPECT_EQ(seeds.size(), 256u);
    EXPECT_NE(sweepCellSeed(42, 0), sweepCellSeed(43, 0));
}

/** Small 4-core sweep cells, laid out as the CLI's --sweep does. */
std::vector<CampaignCell>
sweepCells(const std::string &scheme = "morph")
{
    CampaignPlan plan;
    plan.base.scheme = scheme;
    plan.base.cores = 4;
    plan.base.epochs = 3;
    plan.base.refs = 1500;
    plan.base.seed = 42;
    plan.mixLo = 1;
    plan.mixHi = 4;
    return plan.cells();
}

TEST(SimSweep, SerialAndParallelRunsAreIdentical)
{
    const std::vector<CampaignCell> cells = sweepCells();
    const CampaignReport serial = runSweep(cells, 1, true);
    const CampaignReport parallel = runSweep(cells, 8, true);
    EXPECT_EQ(serial.done, cells.size());
    EXPECT_EQ(serial.reportText, parallel.reportText);
    // Every cell's whole stats registry, byte for byte.
    EXPECT_NE(serial.statsJsonArray.find("\"meta\""),
              std::string::npos);
    EXPECT_EQ(serial.statsJsonArray, parallel.statsJsonArray);
}

TEST(SimSweep, StaticSchemeCellsRun)
{
    const std::vector<CampaignCell> cells = sweepCells("static:4:1:1");
    const CampaignReport report = runSweep(cells, 2, false);
    EXPECT_EQ(report.done, cells.size());
    EXPECT_EQ(report.failed, 0u);
    EXPECT_TRUE(report.statsJsonArray.empty());
    const CellOutcome o = runCell(cells[0], "", ExecutorOptions{});
    EXPECT_GT(o.throughput, 0.0);
    EXPECT_EQ(o.finalTopology, "(4:1:1)") << o.finalTopology;
}

TEST(SimSweep, SameCellTwiceIsByteIdentical)
{
    // A cell owns all its state: running it again, in one process,
    // must give the same bytes.
    const CampaignCell cell = sweepCells()[0];
    ExecutorOptions opts;
    opts.wantStatsJson = true;
    const CellOutcome first = runCell(cell, "", opts);
    const CellOutcome second = runCell(cell, "", opts);
    EXPECT_FALSE(first.statsJson.empty());
    EXPECT_EQ(first.statsJson, second.statsJson);
    EXPECT_EQ(serializeOutcome(first), serializeOutcome(second));
}

TEST(SimSweep, UnknownSchemeFailsItsCellOnly)
{
    std::vector<CampaignCell> cells = sweepCells();
    cells[1].spec.scheme = "quantum-annealer";
    const CampaignReport report = runSweep(cells, 4, true);
    EXPECT_EQ(report.done, 3u);
    EXPECT_EQ(report.failed, 1u);
    EXPECT_NE(report.reportText.find(
                  "FAILED after 1 attempts: unknown scheme "
                  "'quantum-annealer'"),
              std::string::npos)
        << report.reportText;
    EXPECT_EQ(report.statsJsonArray.find("quantum-annealer"),
              std::string::npos);
}

/**
 * The non-durable sweep and the durable campaign are one plan, one
 * cell function and one renderer: the same cells — one of them
 * failing — give the same report and stats bytes either way.
 */
TEST(Sweep, MatchesDurableCampaignBytes)
{
    std::vector<CampaignCell> cells = sweepCells();
    cells[2].spec.scheme = "bogus";

    CampaignOptions opts;
    opts.manifestPath =
        std::string(::testing::TempDir()) + "sweep_vs_campaign.jsonl";
    opts.jobs = 2;
    opts.wantStatsJson = true;
    const CampaignReport durable = runCampaign(cells, opts);
    std::filesystem::remove(opts.manifestPath);
    std::filesystem::remove_all(campaignStateDir(opts.manifestPath));

    const CampaignReport sweep = runSweep(cells, 2, true);
    EXPECT_EQ(sweep.failed, 1u);
    EXPECT_EQ(sweep.reportText, durable.reportText);
    EXPECT_EQ(sweep.statsJsonArray, durable.statsJsonArray);
}

TEST(Sweep, InterruptFlagStopsTheSweep)
{
    const std::vector<CampaignCell> cells = sweepCells();
    requestCkptInterrupt();
    const CampaignReport stopped = runSweep(cells, 2, true);
    clearCkptInterrupt();
    EXPECT_TRUE(stopped.interrupted);
    EXPECT_TRUE(stopped.reportText.empty());
    EXPECT_TRUE(stopped.statsJsonArray.empty());

    // Nothing was kept: the next sweep runs every cell from scratch.
    const CampaignReport rerun = runSweep(cells, 2, true);
    EXPECT_FALSE(rerun.interrupted);
    EXPECT_EQ(rerun.done, cells.size());
    EXPECT_EQ(rerun.reportText, runSweep(cells, 1, true).reportText);
}

} // namespace
} // namespace morphcache
