/**
 * @file
 * Perf-observability subsystem tests: trial statistics (median,
 * warmup discard), the allocation meter (tally math, the metering-
 * changes-nothing parity contract and the allocation-free ref
 * loop), Profiler snapshots, manifest timing folds and the clock
 * shim.
 */

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "perf/allocmeter.hh"
#include "perf/benchstat.hh"
#include "perf/clock.hh"
#include "runner/executor.hh"
#include "runner/manifest.hh"
#include "runner/run_factory.hh"
#include "sim/config.hh"
#include "sim/simulation.hh"
#include "stats/profiler.hh"
#include "workload/generator.hh"
#include "workload/profiles.hh"

using namespace morphcache;

// ---------------------------------------------------------------
// benchstat: median / warmup discard
// ---------------------------------------------------------------

TEST(BenchStat, MedianOddEvenEmpty)
{
    EXPECT_EQ(median({}), 0.0);
    EXPECT_EQ(median({7.0}), 7.0);
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    // Even count: mean of the two middle elements.
    EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(BenchStat, RunTrialsDiscardsExactlyWarmup)
{
    // The invocation counter proves warmup samples are *run* (the
    // whole point: warming caches) yet never reported.
    int invocation = 0;
    const auto samples = runTrials(2, 3, [&]() -> double {
        return static_cast<double>(++invocation);
    });
    EXPECT_EQ(invocation, 5);
    ASSERT_EQ(samples.size(), 3u);
    EXPECT_EQ(samples[0], 3.0); // first recorded = third invocation
    EXPECT_EQ(samples[1], 4.0);
    EXPECT_EQ(samples[2], 5.0);
}

TEST(BenchStat, RunTrialsZeroWarmup)
{
    int invocation = 0;
    const auto samples = runTrials(0, 2, [&]() -> double {
        return static_cast<double>(++invocation);
    });
    EXPECT_EQ(invocation, 2);
    ASSERT_EQ(samples.size(), 2u);
    EXPECT_EQ(samples[0], 1.0);
}

// ---------------------------------------------------------------
// Allocation meter
// ---------------------------------------------------------------

TEST(AllocMeter, TallyMathAndGate)
{
    const bool was = AllocMeter::enabled();
    AllocMeter::setEnabled(false);
    const AllocSnapshot off0 = AllocMeter::snapshot();
    AllocMeter::recordAlloc(64); // gate closed: must not count
    AllocMeter::recordFree();
    const AllocSnapshot off1 = AllocMeter::snapshot();
    EXPECT_EQ(allocDelta(off0, off1).calls, 0u);
    EXPECT_EQ(allocDelta(off0, off1).bytes, 0u);
    EXPECT_EQ(allocDelta(off0, off1).frees, 0u);

    AllocMeter::setEnabled(true);
    const AllocSnapshot a = AllocMeter::snapshot();
    AllocMeter::recordAlloc(64);
    AllocMeter::recordAlloc(32);
    AllocMeter::recordFree();
    const AllocSnapshot b = AllocMeter::snapshot();
    AllocMeter::setEnabled(was);

    const AllocSnapshot d = allocDelta(a, b);
    EXPECT_EQ(d.bytes, 96u);
    EXPECT_EQ(d.calls, 2u);
    EXPECT_EQ(d.frees, 1u);
}

TEST(AllocMeter, OperatorNewIsCounted)
{
    const bool was = AllocMeter::enabled();
    AllocMeter::setEnabled(true);
    const AllocSnapshot a = AllocMeter::snapshot();
    {
        // Volatile pointer defeats heap elision of the new/delete
        // pair; 1 KiB is far above any small-string optimization.
        std::string *volatile p = new std::string(1024, 'x');
        delete p;
    }
    const AllocSnapshot b = AllocMeter::snapshot();
    AllocMeter::setEnabled(was);

    const AllocSnapshot d = allocDelta(a, b);
    EXPECT_GE(d.calls, 2u); // the string object + its buffer
    EXPECT_GE(d.bytes, 1024u);
    EXPECT_GE(d.frees, 2u);
}

namespace {

/** One small 4-core cell, stats JSON on (the parity witness). */
CellOutcome
runParityCell()
{
    CampaignCell cell;
    cell.label = "parity";
    cell.spec.workload = "mix:3";
    cell.spec.scheme = "morph";
    cell.spec.cores = 4;
    cell.spec.epochs = 3;
    cell.spec.refs = 1500;
    cell.spec.seed = 42;
    ExecutorOptions opts;
    opts.wantStatsJson = true;
    return runCell(cell, "", opts);
}

} // namespace

TEST(AllocMeter, MeteringChangesNoSimulatedByte)
{
    // The whole contract: enabling telemetry (allocation meter AND
    // profiler) must not change one byte of simulated stats.
    const bool meter_was = AllocMeter::enabled();
    const bool prof_was = Profiler::global().enabled();

    AllocMeter::setEnabled(false);
    Profiler::global().setEnabled(false);
    const CellOutcome off = runParityCell();

    AllocMeter::setEnabled(true);
    Profiler::global().setEnabled(true);
    const CellOutcome on = runParityCell();

    AllocMeter::setEnabled(meter_was);
    Profiler::global().setEnabled(prof_was);

    ASSERT_FALSE(off.statsJson.empty());
    EXPECT_EQ(off.statsJson, on.statsJson);
    EXPECT_EQ(off.throughput, on.throughput);
    EXPECT_EQ(off.finalTopology, on.finalTopology);
}

TEST(AllocMeter, RefProcessingIsAllocationFreeForAllSchemes)
{
    // The steady-state gate: the per-access inner loop is
    // contractually allocation-free for every scheme — all
    // per-epoch storage is pre-sized at construction. Any alloc (or
    // free) attributed to the RefProcessing phase is a regression,
    // from the very first epoch onward. Besides every scheme at 4
    // cores, morph and static (4:2:1) run at 8 cores, and PIPP at
    // 16 cores and paper scale, where a fully shared L3 group holds
    // 256 ways: the reserved stamp-gather buffer of the
    // stack-position insert is checked at that group width.
    const bool meter_was = AllocMeter::enabled();
    const bool prof_was = Profiler::global().enabled();

    struct Cell
    {
        const char *scheme;
        std::uint32_t cores;
        bool paperScale;
    };
    for (const Cell &cell :
         {Cell{"morph", 4, false}, Cell{"static:2:2:1", 4, false},
          Cell{"ucp", 4, false}, Cell{"pipp", 4, false},
          Cell{"dsr", 4, false}, Cell{"morph", 8, false},
          Cell{"static:4:2:1", 8, false}, Cell{"pipp", 16, true}}) {
        const std::string scheme = cell.scheme;
        SCOPED_TRACE(scheme + " cores " + std::to_string(cell.cores));
        RunSpec spec;
        spec.scheme = scheme;
        spec.workload = "mix:3";
        spec.cores = cell.cores;
        spec.paperScale = cell.paperScale;
        spec.epochs = 3;
        spec.refs = 1500;
        spec.seed = 42;
        BuiltRun built = buildRun(spec);
        Simulation sim(*built.system, *built.workload, built.sim);

        Profiler::global().setEnabled(true);
        AllocMeter::setEnabled(true);
        const ProfSnapshot p0 = Profiler::global().snapshot();
        while (!sim.done())
            sim.stepEpoch();
        const ProfSnapshot p1 = Profiler::global().snapshot();
        AllocMeter::setEnabled(meter_was);
        Profiler::global().setEnabled(prof_was);

        const ProfSnapshot d = profDelta(p0, p1);
        EXPECT_GT(d[ProfPhase::RefProcessing].calls, 0u);
        EXPECT_EQ(d[ProfPhase::RefProcessing].allocCalls, 0u);
        EXPECT_EQ(d[ProfPhase::RefProcessing].allocFrees, 0u);
    }
}

// ---------------------------------------------------------------
// Profiler snapshot
// ---------------------------------------------------------------

TEST(ProfilerSnapshot, DeltaIsolatesAnInterval)
{
    Profiler &prof = Profiler::global();
    const ProfSnapshot before = prof.snapshot();
    prof.add(ProfPhase::EpochDecision, 1000);
    prof.add(ProfPhase::EpochDecision, 500);
    prof.add(ProfPhase::ReconfigApply, 250);
    const ProfSnapshot after = prof.snapshot();

    const ProfSnapshot d = profDelta(before, after);
    EXPECT_EQ(d[ProfPhase::EpochDecision].ns, 1500u);
    EXPECT_EQ(d[ProfPhase::EpochDecision].calls, 2u);
    EXPECT_EQ(d[ProfPhase::ReconfigApply].ns, 250u);
    EXPECT_EQ(d[ProfPhase::ReconfigApply].calls, 1u);
    EXPECT_EQ(d[ProfPhase::RefProcessing].ns, 0u);
}

TEST(ProfilerSnapshot, ReportRendersFromSnapshotValues)
{
    // report() is documented as a rendering of snapshot(); a phase
    // fed here must appear in the text with its call count.
    Profiler &prof = Profiler::global();
    prof.add(ProfPhase::ReconfigApply, 12345);
    const std::string text = prof.report();
    EXPECT_NE(text.find("reconfigApply"), std::string::npos);
}

// ---------------------------------------------------------------
// Manifest timing fold (mc_campaign status telemetry)
// ---------------------------------------------------------------

namespace {

std::string
writeTempManifest(const std::string &name, const std::string &text)
{
    std::string path = ::testing::TempDir() + name;
    std::FILE *f = std::fopen(path.c_str(), "w");
    EXPECT_NE(f, nullptr);
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    return path;
}

} // namespace

TEST(ManifestTimingFold, RatesAndWorkerAttribution)
{
    const std::string path = writeTempManifest(
        "timing.jsonl",
        "{\"type\":\"header\",\"cells\":3,\"hash\":\"0\","
        "\"t\":1000.0}\n"
        "{\"type\":\"cell\",\"cell\":0,\"status\":\"running\","
        "\"attempts\":1,\"worker\":\"w1\",\"t\":1010.0}\n"
        "{\"type\":\"cell\",\"cell\":0,\"status\":\"done\","
        "\"attempts\":1,\"worker\":\"w1\",\"t\":1030.0}\n"
        "{\"type\":\"cell\",\"cell\":1,\"status\":\"done\","
        "\"attempts\":1,\"worker\":\"w2\",\"t\":1060.0}\n"
        "{\"type\":\"cell\",\"cell\":2,\"status\":\"torn-no-eol\"");

    const ManifestTiming timing = foldManifestTiming(path);
    EXPECT_EQ(timing.startT, 1000.0);
    EXPECT_EQ(timing.doneEvents, 2u);
    EXPECT_EQ(timing.firstDoneT, 1030.0);
    EXPECT_EQ(timing.lastDoneT, 1060.0);
    // 2 done over the 60 s window since the header stamp.
    EXPECT_DOUBLE_EQ(timing.cellsPerMinute(), 2.0);

    ASSERT_EQ(timing.workers.size(), 2u);
    EXPECT_EQ(timing.workers[0].first, "w1");
    EXPECT_EQ(timing.workers[0].second.done, 1u);
    EXPECT_EQ(timing.workers[0].second.firstT, 1010.0);
    EXPECT_EQ(timing.workers[0].second.lastT, 1030.0);
    EXPECT_EQ(timing.workers[1].first, "w2");
    EXPECT_EQ(timing.workers[1].second.done, 1u);
}

TEST(ManifestTimingFold, ToleratesUnstampedAndMissing)
{
    // Manifests predating timestamps: no "t" fields anywhere.
    const std::string path = writeTempManifest(
        "timing-old.jsonl",
        "{\"type\":\"header\",\"cells\":1,\"hash\":\"0\"}\n"
        "{\"type\":\"cell\",\"cell\":0,\"status\":\"done\","
        "\"attempts\":1}\n");
    const ManifestTiming timing = foldManifestTiming(path);
    EXPECT_EQ(timing.doneEvents, 0u);
    EXPECT_EQ(timing.cellsPerMinute(), 0.0);
    EXPECT_TRUE(timing.workers.empty());

    const ManifestTiming absent =
        foldManifestTiming(path + ".does-not-exist");
    EXPECT_EQ(absent.doneEvents, 0u);
    EXPECT_EQ(absent.cellsPerMinute(), 0.0);
}

TEST(ManifestTimingFold, FallsBackToDoneWindowWithoutHeaderStamp)
{
    const std::string path = writeTempManifest(
        "timing-nohdr.jsonl",
        "{\"type\":\"header\",\"cells\":2,\"hash\":\"0\"}\n"
        "{\"type\":\"cell\",\"cell\":0,\"status\":\"done\","
        "\"attempts\":1,\"t\":100.0}\n"
        "{\"type\":\"cell\",\"cell\":1,\"status\":\"done\","
        "\"attempts\":1,\"t\":130.0}\n");
    const ManifestTiming timing = foldManifestTiming(path);
    EXPECT_EQ(timing.startT, 0.0);
    // 2 done events over their own 30 s first-to-last window.
    EXPECT_DOUBLE_EQ(timing.cellsPerMinute(), 4.0);
}

// ---------------------------------------------------------------
// Sanctioned clock shim
// ---------------------------------------------------------------

TEST(PerfClock, MonotonicAndPlausible)
{
    const std::uint64_t a = perfNowNs();
    const std::uint64_t b = perfNowNs();
    EXPECT_GE(b, a);
    EXPECT_GT(perfNowSec(), 0.0);
    // Civil time: later than 2020-01-01 on any sane host.
    EXPECT_GT(unixNowSec(), 1577836800.0);
}
