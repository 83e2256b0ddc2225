/**
 * @file
 * Perf-observability subsystem tests: trial statistics (median/MAD,
 * warmup discard), the allocation meter (tally math + the metering-
 * changes-nothing parity contract), Profiler snapshots, BENCH JSON
 * schema round-trip, manifest timing folds, and the mc_benchdiff
 * regression gate invoked end-to-end.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <sys/wait.h>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hh"
#include "perf/bench.hh"
#include "perf/benchstat.hh"
#include "perf/clock.hh"
#include "runner/manifest.hh"
#include "runner/run_factory.hh"
#include "runner/sim_sweep.hh"
#include "sim/config.hh"
#include "stats/profiler.hh"
#include "workload/generator.hh"
#include "workload/profiles.hh"

using namespace morphcache;

// ---------------------------------------------------------------
// benchstat: median / MAD / warmup discard
// ---------------------------------------------------------------

TEST(BenchStat, MedianOddEvenEmpty)
{
    EXPECT_EQ(median({}), 0.0);
    EXPECT_EQ(median({7.0}), 7.0);
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    // Even count: mean of the two middle elements.
    EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(BenchStat, MedianAbsDeviation)
{
    // median = 3, |x - 3| = {2,1,0,1,2} -> MAD = 1.
    EXPECT_EQ(medianAbsDeviation({1.0, 2.0, 3.0, 4.0, 5.0}), 1.0);
    // A wild outlier moves the mean but barely the MAD.
    EXPECT_EQ(medianAbsDeviation({1.0, 2.0, 3.0, 4.0, 1000.0}),
              1.0);
    EXPECT_EQ(medianAbsDeviation({}), 0.0);
}

TEST(BenchStat, SummarizeTrials)
{
    const TrialSummary s = summarizeTrials({10.0, 30.0, 20.0});
    EXPECT_EQ(s.median, 20.0);
    EXPECT_EQ(s.mad, 10.0);
    EXPECT_EQ(s.samples, 3u);
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
SimCellResult
runParityCell()
{
    const HierarchyParams hier = fastScaleHierarchy(4);
    const GeneratorParams gen = generatorFor(hier);
    MixSpec mix = mixByName("MIX 03");
    mix.benchmarks.resize(4);
    MixWorkload workload(mix, gen, 42);

    SimCellSpec spec;
    spec.label = "parity";
    spec.workload = &workload;
    spec.scheme = "morph";
    spec.hier = hier;
    spec.sim.epochs = 3;
    spec.sim.warmupEpochs = 1;
    spec.sim.refsPerEpochPerCore = 1500;
    spec.seed = 42;
    spec.configDesc = "parity";
    spec.wantStatsJson = true;
    return runSimCell(spec);
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
    const SimCellResult off = runParityCell();

    AllocMeter::setEnabled(true);
    Profiler::global().setEnabled(true);
    const SimCellResult on = runParityCell();

    AllocMeter::setEnabled(meter_was);
    Profiler::global().setEnabled(prof_was);

    ASSERT_FALSE(off.statsJson.empty());
    EXPECT_EQ(off.statsJson, on.statsJson);
    EXPECT_EQ(off.run.avgThroughput, on.run.avgThroughput);
    EXPECT_EQ(off.finalTopology, on.finalTopology);
}

TEST(AllocMeter, RefProcessingIsAllocationFreeForAllSchemes)
{
    // The steady-state gate behind BENCH schema 2: the per-access
    // inner loop is contractually allocation-free for every scheme
    // — all per-epoch storage is pre-sized at construction. Any
    // alloc (or free) attributed to the RefProcessing phase is a
    // regression, from the very first epoch onward. The last cell
    // is PIPP at 16 cores and paper scale, where a fully shared L3
    // group holds 256 ways: the reserved stamp-gather buffer of the
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
          Cell{"dsr", 4, false}, Cell{"pipp", 16, true}}) {
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
// Bench suites and the BENCH JSON document
// ---------------------------------------------------------------

TEST(BenchSuite, SmokeIsSubsetOfDefault)
{
    const auto smoke = benchSuite("smoke");
    const auto full = benchSuite("default");
    ASSERT_FALSE(smoke.empty());
    ASSERT_GT(full.size(), smoke.size());
    for (const BenchCell &cell : smoke) {
        bool found = false;
        for (const BenchCell &other : full)
            found = found || other.id() == cell.id();
        EXPECT_TRUE(found) << cell.id();
    }
    EXPECT_THROW(benchSuite("nope"), ConfigError);
}

TEST(BenchSuite, CellIdEncodesTheWork)
{
    const auto cells = benchSuite("smoke");
    for (const BenchCell &cell : cells) {
        EXPECT_NE(cell.id().find(cell.spec.scheme), std::string::npos);
        EXPECT_NE(cell.id().find(cell.spec.workload),
                  std::string::npos);
    }
}

TEST(BenchJson, RoundTripsThroughJsonFieldHelpers)
{
    BenchCell cell;
    cell.spec.scheme = "morph";
    cell.spec.workload = "mix:8";
    cell.spec.cores = 8;
    cell.spec.epochs = 6;
    cell.spec.refs = 6000;
    cell.spec.seed = 42;

    BenchCellResult r;
    r.cell = cell;
    r.configHash = "deadbeef";
    r.refsPerTrial = 384000;
    r.samples = {1.5e6, 2.5e6, 2.0e6};
    r.refsPerSec = summarizeTrials(r.samples);
    r.prof[ProfPhase::RefProcessing].ns = 777;
    r.prof[ProfPhase::RefProcessing].calls = 3;
    r.prof[ProfPhase::EpochDecision].allocBytes = 512;
    r.prof[ProfPhase::EpochDecision].allocCalls = 2;
    r.prof[ProfPhase::EpochDecision].allocFrees = 2;
    r.alloc.bytes = 4096;
    r.alloc.calls = 17;
    r.alloc.frees = 16;

    BenchOptions opts;
    opts.warmup = 1;
    opts.trials = 3;
    BenchEnv env;
    env.gitSha = "cafe0123";
    env.compiler = "test-cc";
    env.buildType = "release";
    env.unixTime = 1754700000.25;

    const std::string doc = renderBenchJson("smoke", opts, env, {r});

    std::uint64_t schema = 0;
    ASSERT_TRUE(jsonFieldU64(doc, "schema", schema));
    EXPECT_EQ(schema, static_cast<std::uint64_t>(benchSchemaVersion));
    std::string s;
    ASSERT_TRUE(jsonFieldStr(doc, "tool", s));
    EXPECT_EQ(s, "mc_bench");
    ASSERT_TRUE(jsonFieldStr(doc, "gitSha", s));
    EXPECT_EQ(s, "cafe0123");
    ASSERT_TRUE(jsonFieldStr(doc, "id", s));
    EXPECT_EQ(s, cell.id());
    std::uint64_t u = 0;
    ASSERT_TRUE(jsonFieldU64(doc, "refsPerTrial", u));
    EXPECT_EQ(u, 384000u);
    // Schema 2: every phase entry carries its own alloc fields, so
    // the first "allocBytes" in the document belongs to the first
    // phase (refProcessing — contractually allocation-free here).
    ASSERT_TRUE(jsonFieldU64(doc, "allocBytes", u));
    EXPECT_EQ(u, 0u);
    // The phase attribution and the cell-level loop totals are both
    // present verbatim.
    EXPECT_NE(doc.find("\"allocBytes\":512,\"allocCalls\":2,"
                       "\"allocFrees\":2"),
              std::string::npos);
    EXPECT_NE(doc.find("\"allocBytes\":4096,\"allocCalls\":17,"
                       "\"allocFrees\":16"),
              std::string::npos);
    double f = 0.0;
    // %.17g doubles re-parse bit-exactly.
    ASSERT_TRUE(jsonFieldF64(doc, "medianRefsPerSec", f));
    EXPECT_EQ(f, 2.0e6);
    ASSERT_TRUE(jsonFieldF64(doc, "madRefsPerSec", f));
    EXPECT_EQ(f, 0.5e6);
    ASSERT_TRUE(jsonFieldF64(doc, "unixTime", f));
    EXPECT_EQ(f, 1754700000.25);
    // Phase attribution rides under the phase's registry name.
    EXPECT_NE(doc.find("\"refProcessing\""), std::string::npos);
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

// ---------------------------------------------------------------
// mc_benchdiff regression gate (end-to-end through python3)
// ---------------------------------------------------------------

namespace {

/** Render a minimal one-cell BENCH doc with the given median. */
std::string
benchDocWithMedian(double median_refs_per_sec)
{
    BenchCell cell;
    cell.spec.scheme = "morph";
    cell.spec.workload = "mix:8";
    cell.spec.cores = 8;
    cell.spec.epochs = 6;
    cell.spec.refs = 6000;
    cell.spec.seed = 42;
    BenchCellResult r;
    r.cell = cell;
    r.configHash = "0";
    r.refsPerTrial = 1;
    r.samples = {median_refs_per_sec};
    r.refsPerSec = summarizeTrials(r.samples);
    return renderBenchJson("smoke", BenchOptions{}, BenchEnv{}, {r});
}

int
runBenchDiff(const std::string &base, const std::string &cur)
{
    const std::string cmd = "python3 " MC_SOURCE_DIR
                            "/tools/mc_benchdiff.py '" +
                            base + "' '" + cur +
                            "' > /dev/null 2>&1";
    const int status = std::system(cmd.c_str());
    return status < 0 ? status : WEXITSTATUS(status);
}

} // namespace

TEST(BenchDiff, GatesOnMedianRegression)
{
    if (std::system("python3 -c 'pass' > /dev/null 2>&1") != 0)
        GTEST_SKIP() << "python3 not available";

    const std::string base = writeTempManifest(
        "bench-base.json", benchDocWithMedian(4.0e6));
    const std::string same = writeTempManifest(
        "bench-same.json", benchDocWithMedian(3.9e6));
    const std::string slow = writeTempManifest(
        "bench-slow.json", benchDocWithMedian(2.0e6));

    // -2.5% sits inside the default 10% threshold; -50% does not.
    EXPECT_EQ(runBenchDiff(base, same), 0);
    EXPECT_EQ(runBenchDiff(base, slow), 1);

    // Disjoint cell ids must be an error, not a vacuous pass.
    std::string other = benchDocWithMedian(4.0e6);
    const std::string::size_type at = other.find("morph/mix:8");
    ASSERT_NE(at, std::string::npos);
    other.replace(at, 11, "ucp/mix:12t");
    const std::string disjoint =
        writeTempManifest("bench-disjoint.json", other);
    EXPECT_EQ(runBenchDiff(base, disjoint), 2);
}
