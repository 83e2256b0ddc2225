/**
 * @file
 * Tests for checkpoint/restore and resumable campaigns.
 *
 * The headline contract under test: a run restored from a
 * checkpoint finishes with results byte-identical to the same-seed
 * run that was never interrupted — for every scheme — and a
 * campaign SIGKILLed mid-flight resumes to identical report and
 * stats bytes. Corruption never crashes or silently diverges: every
 * bit flip either restores from the previous checkpoint in the
 * chain or fails with a typed CkptError.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#include "ckpt/ckpt.hh"
#include "common/error.hh"
#include "common/rng.hh"
#include "common/serial.hh"
#include "runner/campaign.hh"
#include "runner/run_factory.hh"
#include "runner/sweep.hh"
#include "stats/registry.hh"
#include "stats/tracing.hh"

namespace morphcache {
namespace {

std::string
tmpPath(const std::string &name)
{
    return std::string(::testing::TempDir()) + name;
}

RunSpec
smallSpec(const std::string &scheme)
{
    RunSpec spec;
    spec.workload = "mix:3";
    spec.scheme = scheme;
    spec.cores = 16;
    spec.epochs = 5;
    spec.refs = 3000;
    spec.seed = 77;
    return spec;
}

/** Everything a finished run can be compared on, bit-exactly. */
struct RunOutput
{
    RunResult result;
    std::string registryJson;
};

bool
sameOutput(const RunOutput &a, const RunOutput &b)
{
    if (a.registryJson != b.registryJson)
        return false;
    if (a.result.avgThroughput != b.result.avgThroughput ||
        a.result.performance != b.result.performance ||
        a.result.avgIpc != b.result.avgIpc ||
        a.result.epochs.size() != b.result.epochs.size())
        return false;
    for (std::size_t i = 0; i < a.result.epochs.size(); ++i) {
        const EpochMetrics &x = a.result.epochs[i];
        const EpochMetrics &y = b.result.epochs[i];
        if (x.ipc != y.ipc || x.throughput != y.throughput ||
            x.misses != y.misses)
            return false;
    }
    return true;
}

/** A live run with everything a checkpoint serializes. */
struct LiveRun
{
    BuiltRun built;
    StatsRegistry registry;
    Tracer tracer;
    std::unique_ptr<Simulation> simulation;

    explicit LiveRun(const RunSpec &spec) : built(buildRun(spec))
    {
        built.system->registerStats(registry);
        simulation = std::make_unique<Simulation>(
            *built.system, *built.workload, built.sim);
        simulation->setRegistry(&registry);
    }

    CkptRunState
    state()
    {
        CkptRunState s;
        s.simulation = simulation.get();
        s.system = built.system.get();
        s.workload = built.workload.get();
        s.registry = &registry;
        s.tracer = &tracer;
        return s;
    }

    RunOutput
    finish()
    {
        while (!simulation->done())
            simulation->stepEpoch();
        RunOutput out;
        out.result = simulation->finish();
        out.registryJson = registry.jsonString();
        return out;
    }
};

RunOutput
runUninterrupted(const RunSpec &spec)
{
    LiveRun run(spec);
    return run.finish();
}

/**
 * Step `split` epochs, checkpoint, restore into a fresh run, and
 * finish both halves — the resumed output must match the
 * uninterrupted run bit-for-bit.
 */
void
expectResumeMatches(const RunSpec &spec, std::uint32_t split)
{
    const RunOutput whole = runUninterrupted(spec);

    const std::string path =
        tmpPath("resume_" + spec.scheme + ".ckpt");
    {
        LiveRun first(spec);
        for (std::uint32_t i = 0; i < split; ++i)
            first.simulation->stepEpoch();
        writeCheckpoint(path, spec, first.state());
    }

    LiveRun second(spec);
    const RestoreOutcome outcome =
        readCheckpoint(path, spec, second.state());
    EXPECT_FALSE(outcome.usedFallback);
    const RunOutput resumed = second.finish();

    EXPECT_TRUE(sameOutput(whole, resumed))
        << "scheme " << spec.scheme << " diverged after resume";
    std::remove(path.c_str());
    std::remove((path + ".prev").c_str());
}

TEST(Ckpt, ResumeMatchesUninterruptedMorph)
{
    expectResumeMatches(smallSpec("morph"), 2);
}

TEST(Ckpt, ResumeMatchesUninterruptedStatic)
{
    expectResumeMatches(smallSpec("static:4:4:1"), 2);
}

TEST(Ckpt, ResumeMatchesUninterruptedPipp)
{
    expectResumeMatches(smallSpec("pipp"), 2);
}

TEST(Ckpt, ResumeMatchesUninterruptedDsr)
{
    expectResumeMatches(smallSpec("dsr"), 2);
}

TEST(Ckpt, ResumeMatchesUninterruptedUcp)
{
    expectResumeMatches(smallSpec("ucp"), 2);
}

TEST(Ckpt, ResumeFromWarmupBoundaryAndLateSplits)
{
    // Splits at 0 (nothing recorded) and 4 (one epoch left)
    // exercise the warmup-capture and nearly-done edges.
    expectResumeMatches(smallSpec("morph"), 0);
    expectResumeMatches(smallSpec("morph"), 4);
}

TEST(Ckpt, WorkloadRoundTripContinuesIdentically)
{
    const RunSpec spec = smallSpec("morph");
    LiveRun a(spec);
    a.simulation->stepEpoch();
    a.simulation->stepEpoch();

    CkptWriter w;
    a.built.workload->saveState(w);
    LiveRun b(spec);
    CkptReader r("mem", w.buffer());
    b.built.workload->loadState(r);
    EXPECT_EQ(r.remaining(), 0u);

    // Both cursors now generate the identical reference stream.
    for (int i = 0; i < 100; ++i) {
        const MemAccess x =
            a.built.workload->next(static_cast<CoreId>(i % 16));
        const MemAccess y =
            b.built.workload->next(static_cast<CoreId>(i % 16));
        EXPECT_EQ(x.addr, y.addr);
        EXPECT_EQ(x.type, y.type);
    }
}

TEST(Ckpt, HistogramRoundTrip)
{
    Histogram h(0.0, 100.0, 10);
    h.add(5);
    h.add(50);
    h.add(5000);
    CkptWriter w;
    h.saveState(w);

    Histogram h2(0.0, 100.0, 10);
    CkptReader r("mem", w.buffer());
    h2.loadState(r);
    EXPECT_EQ(h2.totalCount(), h.totalCount());
    for (std::size_t i = 0; i < h.numBuckets(); ++i)
        EXPECT_EQ(h2.bucketCount(i), h.bucketCount(i));

    Histogram wrong(0.0, 100.0, 4);
    CkptReader r2("mem", w.buffer());
    EXPECT_THROW(wrong.loadState(r2), CkptError);
}

TEST(Ckpt, TracerRoundTripResumesSequence)
{
    StringTraceSink sink;
    Tracer t(&sink);
    t.setEpoch(3);
    t.setTime(1234);
    TraceEvent ev("x");
    t.emit(ev);
    t.emit(ev);

    CkptWriter w;
    t.saveState(w);
    Tracer t2;
    CkptReader r("mem", w.buffer());
    t2.loadState(r);
    EXPECT_EQ(t2.epoch(), 3u);
    EXPECT_EQ(t2.time(), 1234u);
    EXPECT_EQ(t2.eventCount(), 2u);
}

TEST(Ckpt, RegistryRoundTripPreservesSnapshots)
{
    const RunSpec spec = smallSpec("morph");
    LiveRun a(spec);
    for (int i = 0; i < 3; ++i)
        a.simulation->stepEpoch();

    CkptWriter w;
    a.registry.saveState(w);
    LiveRun b(spec);
    CkptReader r("mem", w.buffer());
    b.registry.loadState(r);
    EXPECT_EQ(r.remaining(), 0u);
    EXPECT_EQ(a.registry.csvString(), b.registry.csvString());
}

TEST(Ckpt, SpecHashMismatchIsRejectedWithBothValues)
{
    const RunSpec spec = smallSpec("morph");
    const std::string path = tmpPath("hash_mismatch.ckpt");
    {
        LiveRun run(spec);
        run.simulation->stepEpoch();
        writeCheckpoint(path, spec, run.state());
    }

    RunSpec other = spec;
    other.epochs = 9;
    LiveRun target(other);
    try {
        readCheckpoint(path, other, target.state());
        FAIL() << "spec-hash mismatch not detected";
    } catch (const CkptError &err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("config"), std::string::npos) << what;
        EXPECT_NE(what.find(path), std::string::npos) << what;
    }
    std::remove(path.c_str());
}

TEST(Ckpt, SeedMismatchIsRejected)
{
    const RunSpec spec = smallSpec("morph");
    const std::string path = tmpPath("seed_mismatch.ckpt");
    {
        LiveRun run(spec);
        run.simulation->stepEpoch();
        writeCheckpoint(path, spec, run.state());
    }
    // Same config hash (seed is outside describe()), wrong stream.
    RunSpec other = spec;
    other.seed = 78;
    LiveRun target(other);
    EXPECT_THROW(readCheckpoint(path, other, target.state()),
                 CkptError);
    std::remove(path.c_str());
}

TEST(Ckpt, VersionMismatchIsRejected)
{
    const RunSpec spec = smallSpec("morph");
    const std::string path = tmpPath("version.ckpt");
    {
        LiveRun run(spec);
        run.simulation->stepEpoch();
        writeCheckpoint(path, spec, run.state());
    }

    // Bump the version field and re-stamp the trailing checksum so
    // only the version check can object.
    std::vector<std::uint8_t> bytes = readFileBytes(path);
    ASSERT_GT(bytes.size(), 16u);
    bytes[4] += 1;
    const std::uint64_t sum =
        fnv1a64(bytes.data(), bytes.size() - 8);
    for (int i = 0; i < 8; ++i) {
        bytes[bytes.size() - 8 + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(sum >> (8 * i));
    }
    atomicWriteFile(path, bytes.data(), bytes.size());

    LiveRun target(spec);
    try {
        readCheckpoint(path, spec, target.state());
        FAIL() << "version mismatch not detected";
    } catch (const CkptError &err) {
        EXPECT_NE(std::string(err.what()).find("version"),
                  std::string::npos)
            << err.what();
    }
    std::remove(path.c_str());
}

TEST(Ckpt, TruncationIsATypedError)
{
    const RunSpec spec = smallSpec("morph");
    const std::string path = tmpPath("trunc.ckpt");
    {
        LiveRun run(spec);
        run.simulation->stepEpoch();
        writeCheckpoint(path, spec, run.state());
    }
    std::vector<std::uint8_t> bytes = readFileBytes(path);
    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{3}, std::size_t{17},
          bytes.size() / 2, bytes.size() - 1}) {
        atomicWriteFile(path, bytes.data(), keep);
        LiveRun target(spec);
        EXPECT_THROW(readCheckpoint(path, spec, target.state()),
                     CkptError)
            << "truncation to " << keep << " bytes not typed";
    }
    std::remove(path.c_str());
}

/**
 * Corruption campaign: flip single bits all over a valid
 * checkpoint. With an intact `.prev` in the chain, every flip must
 * restore from the fallback; without one, every flip must fail
 * typed. Either way: no crash, no silent divergence.
 */
TEST(Ckpt, BitFlipCampaignNeverCrashesOrDiverges)
{
    const RunSpec spec = smallSpec("morph");
    const std::string path = tmpPath("flip.ckpt");
    const std::string prev = path + ".prev";
    {
        LiveRun run(spec);
        run.simulation->stepEpoch();
        writeCheckpoint(path, spec, run.state());
        run.simulation->stepEpoch();
        writeCheckpoint(path, spec, run.state()); // rotates .prev
    }
    const std::vector<std::uint8_t> good = readFileBytes(path);
    const std::vector<std::uint8_t> good_prev =
        readFileBytes(prev);
    const RunOutput whole = runUninterrupted(spec);

    Rng rng(2026);
    for (int trial = 0; trial < 48; ++trial) {
        const std::size_t byte = static_cast<std::size_t>(
            rng.next() % static_cast<std::uint64_t>(good.size()));
        const unsigned bit =
            static_cast<unsigned>(rng.next() % 8);

        std::vector<std::uint8_t> bad = good;
        bad[byte] = static_cast<std::uint8_t>(
            bad[byte] ^ (1u << bit));
        atomicWriteFile(path, bad.data(), bad.size());

        // With the chain intact the flip must fall back to .prev
        // and the resumed run must still match the uninterrupted
        // one exactly.
        {
            atomicWriteFile(prev, good_prev.data(),
                            good_prev.size());
            LiveRun target(spec);
            const RestoreOutcome outcome = restoreCheckpointChain(
                path, spec, target.state());
            EXPECT_TRUE(outcome.usedFallback)
                << "flip byte " << byte << " bit " << bit
                << " restored from a corrupt file";
            EXPECT_TRUE(sameOutput(whole, target.finish()))
                << "silent divergence at byte " << byte;
        }

        // Without a fallback the same flip is a typed failure.
        std::remove(prev.c_str());
        LiveRun target(spec);
        EXPECT_THROW(
            restoreCheckpointChain(path, spec, target.state()),
            CkptError)
            << "flip byte " << byte << " bit " << bit;
    }
    std::remove(path.c_str());
    std::remove(prev.c_str());
}

TEST(Ckpt, InspectReportsHeaderAndSections)
{
    const RunSpec spec = smallSpec("morph");
    const std::string path = tmpPath("inspect.ckpt");
    {
        LiveRun run(spec);
        // Two warmup epochs plus one recorded epoch.
        run.simulation->stepEpoch();
        run.simulation->stepEpoch();
        run.simulation->stepEpoch();
        writeCheckpoint(path, spec, run.state());
    }
    const CkptInfo info = inspectCheckpoint(path);
    EXPECT_EQ(info.version, ckptVersion);
    EXPECT_TRUE(info.checksumOk);
    EXPECT_EQ(info.seed, spec.seed);
    EXPECT_EQ(info.epochsCompleted, 1u);
    EXPECT_EQ(info.specHash, specHash(spec));
    EXPECT_EQ(describe(info.spec), describe(spec));
    ASSERT_EQ(info.sections.size(), 6u);
    EXPECT_EQ(info.sections[0].first, "SPEC");
    EXPECT_EQ(info.sections[1].first, "WKLD");
    EXPECT_EQ(info.sections[2].first, "SYST");
    EXPECT_EQ(info.sections[3].first, "SIMU");
    EXPECT_EQ(info.sections[4].first, "REGY");
    EXPECT_EQ(info.sections[5].first, "TRCE");
    std::remove(path.c_str());
}

// ---------------------------------------------------------------
// Campaigns
// ---------------------------------------------------------------

std::vector<CampaignCell>
smallCampaign(std::uint32_t mixes)
{
    std::vector<CampaignCell> cells;
    for (std::uint32_t m = 1; m <= mixes; ++m) {
        CampaignCell cell;
        cell.spec = smallSpec("morph");
        char workload[16];
        std::snprintf(workload, sizeof(workload), "mix:%u", m);
        cell.spec.workload = workload;
        cell.spec.seed = sweepCellSeed(9, m - 1);
        char label[64];
        std::snprintf(label, sizeof(label), "mix:%02u seed=%llu",
                      m,
                      static_cast<unsigned long long>(
                          cell.spec.seed));
        cell.label = label;
        cells.push_back(std::move(cell));
    }
    return cells;
}

void
removeCampaignFiles(const std::string &manifest, std::size_t cells)
{
    std::remove(manifest.c_str());
    for (std::size_t i = 0; i < cells; ++i) {
        char name[64];
        std::snprintf(name, sizeof(name), "cell%04zu", i);
        const std::string base =
            manifest + ".d/" + std::string(name);
        std::remove((base + ".ckpt").c_str());
        std::remove((base + ".ckpt.prev").c_str());
        std::remove((base + ".result.json").c_str());
    }
}

TEST(Campaign, ReportIsIdenticalAcrossJobCounts)
{
    const std::vector<CampaignCell> cells = smallCampaign(3);
    CampaignOptions opts;
    opts.wantStatsJson = true;

    opts.manifestPath = tmpPath("camp_j1.jsonl");
    opts.jobs = 1;
    const CampaignReport serial = runCampaign(cells, opts);
    removeCampaignFiles(opts.manifestPath, cells.size());

    opts.manifestPath = tmpPath("camp_j4.jsonl");
    opts.jobs = 4;
    const CampaignReport parallel = runCampaign(cells, opts);
    removeCampaignFiles(opts.manifestPath, cells.size());

    EXPECT_EQ(serial.reportText, parallel.reportText);
    EXPECT_EQ(serial.statsJsonArray, parallel.statsJsonArray);
    EXPECT_EQ(serial.done, cells.size());
    EXPECT_EQ(serial.failed, 0u);
}

TEST(Campaign, ResumeOfFinishedCampaignReplaysResultBytes)
{
    const std::vector<CampaignCell> cells = smallCampaign(2);
    CampaignOptions opts;
    opts.manifestPath = tmpPath("camp_done.jsonl");
    opts.jobs = 2;
    opts.wantStatsJson = true;
    const CampaignReport first = runCampaign(cells, opts);

    opts.resume = true;
    const CampaignReport replay = runCampaign(cells, opts);
    EXPECT_EQ(first.reportText, replay.reportText);
    EXPECT_EQ(first.statsJsonArray, replay.statsJsonArray);
    removeCampaignFiles(opts.manifestPath, cells.size());
}

TEST(Campaign, FailedCellsAreMarkedAndExcludedNotDropped)
{
    std::vector<CampaignCell> cells = smallCampaign(2);
    cells[1].spec.scheme = "bogus"; // buildRun throws ConfigError
    cells[1].label = "broken cell";

    CampaignOptions opts;
    opts.manifestPath = tmpPath("camp_fail.jsonl");
    opts.jobs = 2;
    opts.retryCells = 1;
    opts.wantStatsJson = true;
    const CampaignReport report = runCampaign(cells, opts);

    EXPECT_EQ(report.done, 1u);
    EXPECT_EQ(report.failed, 1u);
    EXPECT_NE(report.reportText.find("FAILED"), std::string::npos);
    EXPECT_NE(report.reportText.find("after 2 attempts"),
              std::string::npos)
        << report.reportText;
    // The failed cell's stats must not pollute the aggregate.
    EXPECT_EQ(report.statsJsonArray.find("bogus"),
              std::string::npos);

    // The manifest says so explicitly.
    std::FILE *f = std::fopen(opts.manifestPath.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::string manifest;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        manifest.append(buf, n);
    std::fclose(f);
    EXPECT_NE(manifest.find("\"status\":\"failed\""),
              std::string::npos);
    EXPECT_NE(manifest.find("\"attempts\":2"), std::string::npos);
    removeCampaignFiles(opts.manifestPath, cells.size());
}

TEST(Campaign, ResumeWithLargerRetryBudgetRetriesFailedCells)
{
    const std::vector<CampaignCell> cells = smallCampaign(2);
    CampaignOptions ref_opts;
    ref_opts.manifestPath = tmpPath("camp_regrow_ref.jsonl");
    ref_opts.jobs = 2;
    const CampaignReport reference = runCampaign(cells, ref_opts);
    removeCampaignFiles(ref_opts.manifestPath, cells.size());

    CampaignOptions opts = ref_opts;
    opts.manifestPath = tmpPath("camp_regrow.jsonl");
    opts.cellTimeoutSec = 1e-9; // every try fails
    const CampaignReport failed = runCampaign(cells, opts);
    ASSERT_EQ(failed.failed, cells.size());

    // Under the same budget a failed cell is final.
    opts.resume = true;
    const CampaignReport again = runCampaign(cells, opts);
    EXPECT_EQ(again.reportText, failed.reportText);

    // A larger budget retries it, counting the try already spent.
    opts.retryCells = 1;
    opts.cellTimeoutSec = 0.0;
    const CampaignReport retried = runCampaign(cells, opts);
    EXPECT_EQ(retried.failed, 0u);
    EXPECT_EQ(retried.reportText, reference.reportText);
    std::vector<CellOutcome> outcomes(cells.size());
    ASSERT_EQ(loadCellResults(opts.manifestPath, outcomes), 0u);
    for (const CellOutcome &o : outcomes)
        EXPECT_EQ(o.attempts, 2u);
    removeCampaignFiles(opts.manifestPath, cells.size());
}

TEST(Campaign, WatchdogCancelsOverrunningCells)
{
    std::vector<CampaignCell> cells = smallCampaign(1);
    CampaignOptions opts;
    opts.manifestPath = tmpPath("camp_watchdog.jsonl");
    opts.jobs = 1;
    opts.cellTimeoutSec = 1e-9; // expires before the first epoch
    const CampaignReport report = runCampaign(cells, opts);
    EXPECT_EQ(report.failed, 1u);
    EXPECT_NE(report.reportText.find("watchdog"),
              std::string::npos)
        << report.reportText;
    removeCampaignFiles(opts.manifestPath, cells.size());
}

TEST(Campaign, ResumeAgainstMismatchedManifestIsTyped)
{
    const std::vector<CampaignCell> cells = smallCampaign(2);
    CampaignOptions opts;
    opts.manifestPath = tmpPath("camp_mismatch.jsonl");
    opts.jobs = 1;
    runCampaign(cells, opts);

    opts.resume = true;
    const std::vector<CampaignCell> fewer = smallCampaign(1);
    EXPECT_THROW(runCampaign(fewer, opts), CkptError);
    removeCampaignFiles(opts.manifestPath, cells.size());
}

TEST(Campaign, InterruptFlagStopsResumablyAndResumeCompletes)
{
    const std::vector<CampaignCell> cells = smallCampaign(2);

    CampaignOptions ref_opts;
    ref_opts.manifestPath = tmpPath("camp_int_ref.jsonl");
    ref_opts.jobs = 2;
    ref_opts.wantStatsJson = true;
    const CampaignReport reference = runCampaign(cells, ref_opts);
    removeCampaignFiles(ref_opts.manifestPath, cells.size());

    CampaignOptions opts = ref_opts;
    opts.manifestPath = tmpPath("camp_int.jsonl");
    requestCkptInterrupt();
    const CampaignReport stopped = runCampaign(cells, opts);
    clearCkptInterrupt();
    EXPECT_TRUE(stopped.interrupted);

    opts.resume = true;
    const CampaignReport resumed = runCampaign(cells, opts);
    EXPECT_FALSE(resumed.interrupted);
    EXPECT_EQ(resumed.reportText, reference.reportText);
    EXPECT_EQ(resumed.statsJsonArray, reference.statsJsonArray);
    removeCampaignFiles(opts.manifestPath, cells.size());
}

/**
 * The crash test: fork a child that runs the campaign, SIGKILL it
 * mid-flight (no atexit, no flush — the hard way), then resume in
 * this process and demand byte-identical output to a reference
 * campaign that was never interrupted.
 */
TEST(Campaign, SigkilledCampaignResumesToIdenticalBytes)
{
    std::vector<CampaignCell> cells = smallCampaign(4);
    for (CampaignCell &cell : cells)
        cell.spec.refs = 20000; // slow enough to die mid-flight

    CampaignOptions ref_opts;
    ref_opts.manifestPath = tmpPath("camp_kill_ref.jsonl");
    ref_opts.jobs = 2;
    ref_opts.ckptEvery = 1;
    ref_opts.wantStatsJson = true;
    const CampaignReport reference = runCampaign(cells, ref_opts);
    removeCampaignFiles(ref_opts.manifestPath, cells.size());

    CampaignOptions opts = ref_opts;
    opts.manifestPath = tmpPath("camp_kill.jsonl");
    removeCampaignFiles(opts.manifestPath, cells.size());

    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        // In the child: run the campaign and exit quietly if the
        // parent never gets around to killing us.
        runCampaign(cells, opts);
        _exit(0);
    }

    // Give the child a moment to make durable progress, then kill
    // it without warning.
    for (int i = 0; i < 200; ++i) {
        std::FILE *f = std::fopen(opts.manifestPath.c_str(), "rb");
        if (f) {
            std::fseek(f, 0, SEEK_END);
            const long size = std::ftell(f);
            std::fclose(f);
            if (size > 200)
                break;
        }
        usleep(10000);
    }
    kill(child, SIGKILL);
    int status = 0;
    waitpid(child, &status, 0);

    // Resume in-process: whatever state the kill left behind must
    // fold into the exact reference bytes.
    opts.resume = true;
    const CampaignReport resumed = runCampaign(cells, opts);
    EXPECT_FALSE(resumed.interrupted);
    EXPECT_EQ(resumed.done, cells.size());
    EXPECT_EQ(resumed.reportText, reference.reportText);
    EXPECT_EQ(resumed.statsJsonArray, reference.statsJsonArray);
    removeCampaignFiles(opts.manifestPath, cells.size());
}

} // namespace
} // namespace morphcache
