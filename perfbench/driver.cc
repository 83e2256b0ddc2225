/**
 * @file
 * perfbench — the repository benchmark's measuring driver.
 *
 * Runs one named workload for a fixed number of seconds as a closed
 * batch (the next cell starts when the previous one ends) and prints
 * one JSON result line last:
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --sim PATH/morphcache_sim --work DIR --digests FILE
 *
 * --trace 0 measures the end-to-end metrics with nothing attached;
 * --trace 1 is the separate traced run that splits the time into
 * layers (layers.hh). Every cell's simulated output is hashed and
 * compared with the digest pinned for it in --digests; a mismatch,
 * a throw or a failed campaign cell counts as a failed cell.
 *
 * Other modes: --pin writes the digests of one seed's cells into
 * --digests; --selftest checks that traced and untraced digests of
 * every cell agree. --tiny shrinks every cell for the self-tests.
 * See README.md next to this file for the workloads and metrics.
 */

#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "layers.hh"
#include "common/serial.hh"
#include "perf/allocmeter.hh"
#include "perf/bench.hh"
#include "perf/benchstat.hh"
#include "perf/clock.hh"
#include "runner/campaign.hh"
#include "runner/manifest.hh"
#include "runner/run_factory.hh"
#include "sim/config.hh"
#include "sim/simulation.hh"
#include "stats/profiler.hh"
#include "stats/registry.hh"
#include "stats/tracing.hh"

using namespace morphcache;
using namespace perfbench;
namespace fs = std::filesystem;

namespace {

// ---------------------------------------------------------------
// Options and workloads
// ---------------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string simPath;
    std::string workDir;
    std::string digestsPath;
    bool pin = false;
    bool selftest = false;
    bool tiny = false;
};

/** Inputs come from a fixed pool of seeds, so every input the
 *  driver can be handed has a pinned digest. */
constexpr std::uint64_t seedPool = 16;

std::uint64_t
seedIndex(std::uint64_t seed)
{
    return seed % seedPool;
}

/** One cell: a run spec plus how its output is digested. */
struct CellDef
{
    /** Pin key ("morph/mix:1", "campaign/03"). */
    std::string key;
    CampaignCell cell;
    /**
     * Campaign cells are digested from their durable result record
     * (what `morphcache_sim --manifest` leaves behind); others from
     * the full in-process run.
     */
    bool outcomeDigest = false;
};

struct WorkloadDef
{
    std::string name;
    std::vector<CellDef> cells;
    bool campaign = false;
    CampaignPlan plan;
    unsigned jobs = 1;
};

CellDef
singleCell(const std::string &scheme, const std::string &workload,
           std::uint32_t epochs, std::uint64_t refs, bool paper,
           std::uint64_t seed)
{
    CellDef def;
    def.key = scheme + "/" + workload;
    def.cell.label = def.key;
    RunSpec &spec = def.cell.spec;
    spec.scheme = scheme;
    spec.workload = workload;
    spec.cores = 16;
    spec.epochs = epochs;
    spec.refs = refs;
    spec.paperScale = paper;
    spec.seed = seed;
    return def;
}

WorkloadDef
makeWorkload(const std::string &name, std::uint64_t seed, bool tiny)
{
    WorkloadDef wl;
    wl.name = name;
    const std::uint64_t input_seed = 1000 + seedIndex(seed);
    const std::uint32_t tiny_epochs = 1;
    const std::uint64_t tiny_refs = 300;
    // Many short epochs: a cell's mean IPC then averages over many
    // phases of the generators, so it varies little from seed to
    // seed (the per-seed IQR of sim_ipc is 2-3% rather than 4-7%
    // with a few long epochs).

    if (name == "mix16-morph") {
        for (const char *mix : {"mix:1", "mix:4", "mix:8", "mix:12"}) {
            wl.cells.push_back(singleCell(
                "morph", mix, tiny ? tiny_epochs : 24,
                tiny ? tiny_refs : 3000, false, input_seed));
        }
    } else if (name == "shared16-paper") {
        for (const char *scheme : {"static:16:1:1", "static:4:4:1",
                                   "ucp", "pipp", "dsr"}) {
            wl.cells.push_back(singleCell(
                scheme, "mix:8", tiny ? tiny_epochs : 12,
                tiny ? tiny_refs : 2500, true, input_seed));
        }
    } else if (name == "parsec16-coherent") {
        for (const char *app :
             {"parsec:canneal", "parsec:streamcluster"}) {
            for (const char *scheme : {"morph", "static:4:4:1"}) {
                wl.cells.push_back(singleCell(
                    scheme, app, tiny ? tiny_epochs : 24,
                    tiny ? tiny_refs : 2000, false, input_seed));
            }
        }
    } else if (name == "campaign-durable") {
        wl.campaign = true;
        wl.plan.base.scheme = "morph";
        wl.plan.base.cores = 8;
        wl.plan.base.epochs = tiny ? tiny_epochs : 4;
        wl.plan.base.refs = tiny ? tiny_refs : 2000;
        wl.plan.base.seed = input_seed;
        wl.plan.mixLo = 1;
        wl.plan.mixHi = tiny ? 2 : 12;
        wl.plan.sweepSeeds = 1;
        const long cpus = ::sysconf(_SC_NPROCESSORS_ONLN);
        wl.jobs = static_cast<unsigned>(
            std::clamp<long>(cpus, 1, 4));
        const std::vector<CampaignCell> cells = wl.plan.cells();
        for (std::size_t i = 0; i < cells.size(); ++i) {
            CellDef def;
            char key[32];
            std::snprintf(key, sizeof(key), "campaign/%02zu", i);
            def.key = key;
            def.cell = cells[i];
            def.outcomeDigest = true;
            wl.cells.push_back(def);
        }
    } else {
        throw std::runtime_error("unknown workload '" + name + "'");
    }
    return wl;
}

/** References a cell drives through the hierarchy (all cores, warmup
 *  epochs included). */
std::uint64_t
cellRefs(const RunSpec &spec)
{
    const SimParams defaults;
    return (static_cast<std::uint64_t>(spec.epochs) +
            defaults.warmupEpochs) *
           spec.refs * spec.cores;
}

/** Short scheme name used in per-scheme metric names. */
std::string
schemeKey(const std::string &scheme)
{
    if (scheme == "static:16:1:1")
        return "static16";
    if (scheme == "static:4:4:1")
        return "static4";
    return scheme;
}

const char *const schemeKeys[] = {"morph", "static16", "static4",
                                  "ucp",   "pipp",     "dsr"};

// ---------------------------------------------------------------
// Digests
// ---------------------------------------------------------------

void
appendF64(std::string &text, double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g ", v);
    text += buf;
}

void
appendU64(std::string &text, std::uint64_t v)
{
    text += std::to_string(v);
    text += ' ';
}

bool
isProfStat(const std::string &name)
{
    return name.compare(0, 5, "prof.") == 0;
}

/**
 * Digest of a full run: per-epoch IPC and misses, the aggregate
 * result, every core's counters, and the registry's values and
 * per-epoch rows without the host-timing `prof.*` entries.
 */
std::string
fullDigest(const RunResult &result, const MemorySystem &system,
           const StatsRegistry &registry)
{
    std::string text;
    for (const EpochMetrics &epoch : result.epochs) {
        text += "epoch ";
        appendF64(text, epoch.throughput);
        for (double v : epoch.ipc)
            appendF64(text, v);
        for (std::uint64_t m : epoch.misses)
            appendU64(text, m);
        text += '\n';
    }
    text += "result ";
    for (double v : result.avgIpc)
        appendF64(text, v);
    appendF64(text, result.avgThroughput);
    appendF64(text, result.performance);
    text += '\n';
    for (std::uint32_t c = 0; c < system.numCores(); ++c) {
        const CoreStats &s = system.coreStats(static_cast<CoreId>(c));
        text += "core ";
        for (std::uint64_t v :
             {s.accesses, s.l1Hits, s.l2LocalHits, s.l2RemoteHits,
              s.l3LocalHits, s.l3RemoteHits, s.otherGroupTransfers,
              s.memAccesses, s.writebacks, s.totalLatency})
            appendU64(text, v);
        text += '\n';
    }
    const std::vector<std::string> names = registry.names();
    for (const std::string &name : names) {
        if (isProfStat(name))
            continue;
        text += name + '=';
        appendF64(text, registry.value(name));
        text += '\n';
    }
    for (std::size_t e = 0; e < registry.numSnapshots(); ++e) {
        const std::vector<double> row = registry.epochRow(e);
        text += "row ";
        appendU64(text, registry.epochId(e));
        for (std::size_t j = 0; j < names.size(); ++j) {
            if (!isProfStat(names[j]))
                appendF64(text, row[j]);
        }
        text += '\n';
    }
    return configHashHex(text);
}

/** The campaign result record a run would leave (runCellAttempt's
 *  fields, first attempt). */
std::string
outcomeRecord(const CampaignCell &cell, const RunResult &result,
              const MemorySystem &system,
              const StatsRegistry &registry)
{
    CellOutcome o;
    o.ok = true;
    o.label = cell.label;
    o.seed = cell.spec.seed;
    o.attempts = 1;
    o.throughput = result.avgThroughput;
    o.performance = result.performance;
    if (const auto *morph =
            dynamic_cast<const MorphCacheSystem *>(&system)) {
        o.merges = morph->controller().stats().merges;
        o.splits = morph->controller().stats().splits;
        o.finalTopology = morph->hierarchy().topology().name();
    } else {
        o.finalTopology = system.name();
    }
    o.statsJson = registry.jsonString();
    return serializeOutcome(o);
}

/** Pinned digests: "<workload> <seed index> <key>" -> digest. */
class Pins
{
  public:
    explicit Pins(std::string path) : path_(std::move(path))
    {
        std::ifstream in(path_);
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty() || line[0] == '#')
                continue;
            std::istringstream fields(line);
            std::string wl, idx, key, digest;
            if (fields >> wl >> idx >> key >> digest)
                map_[wl + " " + idx + " " + key] = digest;
        }
    }

    /** Pinned digest, or "" when none is pinned. */
    std::string
    get(const std::string &wl, std::uint64_t seed,
        const std::string &key) const
    {
        const auto it = map_.find(id(wl, seed, key));
        return it == map_.end() ? std::string() : it->second;
    }

    void
    set(const std::string &wl, std::uint64_t seed,
        const std::string &key, const std::string &digest)
    {
        map_[id(wl, seed, key)] = digest;
    }

    void
    save() const
    {
        std::ofstream out(path_, std::ios::trunc);
        out << "# perfbench pinned cell digests: workload, seed index "
               "(seed % "
            << seedPool
            << "), cell, digest. Regenerate with `python3 "
               "perfbench/run.py --pin`.\n";
        for (const auto &entry : map_)
            out << entry.first << ' ' << entry.second << '\n';
        if (!out)
            throw std::runtime_error("cannot write " + path_);
    }

  private:
    static std::string
    id(const std::string &wl, std::uint64_t seed,
       const std::string &key)
    {
        return wl + " " + std::to_string(seedIndex(seed)) + " " + key;
    }

    std::string path_;
    std::map<std::string, std::string> map_;
};

// ---------------------------------------------------------------
// Cell runs
// ---------------------------------------------------------------

/** What one cell run produced and cost. */
struct CellRun
{
    std::string key;
    bool ok = false;
    std::string error;
    std::string digest;
    double throughput = 0.0;
    std::uint64_t refs = 0;
    std::uint64_t setupNs = 0;
    std::uint64_t loopNs = 0;
    std::uint64_t wallNs = 0;
};

StatsMeta
metaFor(const RunSpec &spec)
{
    StatsMeta meta;
    meta.seed = spec.seed;
    meta.configHash = configHashHex(describe(spec));
    return meta;
}

/** Cell digest of whichever kind the cell is pinned with. */
std::string
cellDigest(const CellDef &def, const RunResult &result,
           const MemorySystem &system, const StatsRegistry &registry)
{
    if (def.outcomeDigest) {
        return configHashHex(
            outcomeRecord(def.cell, result, system, registry));
    }
    return fullDigest(result, system, registry);
}

/**
 * A cell the way the CLI's single-run mode runs it: buildRun, stats
 * registry (per-epoch snapshots attached), Simulation, the epoch
 * loop, finish(), and the registry dump written to `dump_path`.
 * With `setup_only` the run stops after construction.
 */
CellRun
runPlainCell(const CellDef &def, const std::string &dump_path,
             bool setup_only)
{
    CellRun run;
    run.key = def.key;
    try {
        const std::uint64_t t0 = perfNowNs();
        BuiltRun built = buildRun(def.cell.spec);
        StatsRegistry registry;
        registry.setMeta(metaFor(def.cell.spec));
        built.system->registerStats(registry);
        if (!def.outcomeDigest)
            Profiler::global().registerStats(registry);
        Simulation sim(*built.system, *built.workload, built.sim);
        sim.setRegistry(&registry);
        const std::uint64_t t1 = perfNowNs();
        run.setupNs = t1 - t0;
        if (setup_only) {
            run.ok = true;
            return run;
        }
        while (!sim.done())
            sim.stepEpoch();
        const std::uint64_t t2 = perfNowNs();
        const RunResult result = sim.finish();
        registry.writeJson(dump_path);
        const std::uint64_t t3 = perfNowNs();
        run.loopNs = t2 - t1;
        run.wallNs = t3 - t0;
        run.refs = cellRefs(def.cell.spec);
        run.throughput = result.avgThroughput;
        run.digest = cellDigest(def, result, *built.system, registry);
        run.ok = true;
    } catch (const std::exception &err) {
        run.error = err.what();
    }
    return run;
}

/** Per-layer aggregates of the traced run. */
struct TraceAgg
{
    LayerTally layers;
    std::map<std::string, Tally> accessByScheme;
    Tally snapshot;
    Tally dump;
    /** Registry counters summed over cells that register them. */
    std::map<std::string, double> counters;
    std::uint64_t registryCells = 0;
    std::uint64_t unregisteredCells = 0;
    /** Valid lines / capacity at the end of warmup, per level. */
    double validLines[2] = {0.0, 0.0};
    double capacityLines[2] = {0.0, 0.0};
    SpanLog spans;
};

const char *const counterNames[] = {
    "sliceProbes",  "localHits",
    "remoteHits",   "fills",
    "evictions",    "coherenceInvalidations",
    "inclusionInvalidations",
};

void
recordWarmth(TraceAgg &agg, const RunSpec &spec,
             const StatsRegistry &registry)
{
    const HierarchyParams hier = spec.paperScale
                                     ? paperScaleHierarchy(spec.cores)
                                     : fastScaleHierarchy(spec.cores);
    const LevelParams *levels[2] = {&hier.l2, &hier.l3};
    const char *prefixes[2] = {"hier.l2.slice", "hier.l3.slice"};
    for (int l = 0; l < 2; ++l) {
        for (std::uint32_t s = 0; s < levels[l]->numSlices; ++s) {
            const std::string name = prefixes[l] + std::to_string(s) +
                                     ".validLines";
            if (!registry.has(name))
                return;
            agg.validLines[l] += registry.value(name);
        }
        agg.capacityLines[l] +=
            static_cast<double>(levels[l]->numSlices *
                                levels[l]->sliceGeom.numLines());
    }
}

/**
 * The same cell as runPlainCell, driven through the timing wrappers.
 * Registry snapshots are taken here rather than inside stepEpoch so
 * they can be timed; they land at the same point of the run, so the
 * registry (and the digest) is identical.
 */
CellRun
runTracedCell(const CellDef &def, const std::string &dump_path,
              TraceAgg &agg)
{
    CellRun run;
    run.key = def.key;
    const RunSpec &spec = def.cell.spec;
    const int cell_span = agg.spans.open("cell " + def.key, -1);
    try {
        const std::uint64_t t0 = perfNowNs();
        BuiltRun built = buildRun(spec);
        LayerTally tally;
        int epoch_span = -1;
        TimedWorkload workload(*built.workload, tally.next);
        TimedSystem system(*built.system, tally, agg.spans, epoch_span);
        StatsRegistry registry;
        registry.setMeta(metaFor(spec));
        system.registerStats(registry);
        if (!def.outcomeDigest)
            Profiler::global().registerStats(registry);
        Simulation sim(system, workload, built.sim);
        const std::uint64_t t1 = perfNowNs();
        std::uint64_t loop_ns = 0;
        while (!sim.done()) {
            const EpochId id = sim.nextEpoch();
            epoch_span = agg.spans.open("epoch", cell_span);
            const std::uint64_t e0 = perfNowNs();
            sim.stepEpoch();
            loop_ns += perfNowNs() - e0;
            if (id >= built.sim.warmupEpochs) {
                const int snap = agg.spans.open("snapshot", epoch_span);
                const std::uint64_t s0 = perfNowNs();
                registry.snapshotEpoch(id);
                agg.snapshot.add(perfNowNs() - s0);
                agg.spans.close(snap);
            }
            agg.spans.close(epoch_span);
            if (id + 1 == built.sim.warmupEpochs)
                recordWarmth(agg, spec, registry);
        }
        const RunResult result = sim.finish();
        const int dump = agg.spans.open("dump", cell_span);
        const std::uint64_t d0 = perfNowNs();
        registry.writeJson(dump_path);
        const std::uint64_t t3 = perfNowNs();
        agg.dump.add(t3 - d0);
        agg.spans.close(dump);

        run.setupNs = t1 - t0;
        run.loopNs = loop_ns;
        run.wallNs = t3 - t0;
        run.refs = cellRefs(spec);
        run.throughput = result.avgThroughput;
        run.digest = cellDigest(def, result, *built.system, registry);
        run.ok = true;

        agg.layers.merge(tally);
        agg.accessByScheme[schemeKey(spec.scheme)].merge(tally.access);
        if (registry.has("hier.l2.sliceProbes")) {
            ++agg.registryCells;
            for (const char *level : {"l2", "l3"}) {
                for (const char *counter : counterNames) {
                    const std::string name =
                        std::string("hier.") + level + "." + counter;
                    agg.counters[name] += registry.value(name);
                }
                for (const char *counter :
                     {"transactions", "queueCycles"}) {
                    const std::string name =
                        std::string("bus.") + level + "." + counter;
                    agg.counters[name] += registry.value(name);
                }
            }
            for (const char *name : {"morph.merges", "morph.splits"}) {
                if (registry.has(name))
                    agg.counters[name] += registry.value(name);
            }
        } else {
            ++agg.unregisteredCells;
        }
    } catch (const std::exception &err) {
        run.error = err.what();
    }
    agg.spans.close(cell_span);
    return run;
}

/**
 * Wall time of one cell with observability off (no tracer, no
 * per-epoch snapshots, no dump) or on (a JSONL decision tracer,
 * per-epoch snapshots and the registry dump): the ratio is what
 * turning observability on costs.
 */
double
observabilityWall(const CellDef &def, bool observed,
                  const std::string &work)
{
    const std::uint64_t t0 = perfNowNs();
    BuiltRun built = buildRun(def.cell.spec);
    StatsRegistry registry;
    registry.setMeta(metaFor(def.cell.spec));
    built.system->registerStats(registry);
    Simulation sim(*built.system, *built.workload, built.sim);
    Tracer tracer;
    std::unique_ptr<JsonlTraceSink> sink;
    if (observed) {
        sink = std::make_unique<JsonlTraceSink>(work + "/obs.jsonl");
        tracer.setSink(sink.get());
        sim.setTracer(&tracer);
        sim.setRegistry(&registry);
    }
    while (!sim.done())
        sim.stepEpoch();
    const RunResult result = sim.finish();
    (void)result;
    if (observed) {
        sink->finish();
        registry.writeJson(work + "/obs.json");
    }
    return static_cast<double>(perfNowNs() - t0) / 1e9;
}

/** Median over paired trials (one discarded) of observed / plain. */
double
traceOverheadRatio(const CellDef &def, const std::string &work)
{
    bool observed_first = false;
    const std::vector<double> ratios = runTrials(1, 3, [&]() {
        observed_first = !observed_first;
        double observed = 0.0;
        if (observed_first)
            observed = observabilityWall(def, true, work);
        const double plain = observabilityWall(def, false, work);
        if (!observed_first)
            observed = observabilityWall(def, true, work);
        return observed / plain;
    });
    return median(ratios);
}

// ---------------------------------------------------------------
// Campaign runs
// ---------------------------------------------------------------

/**
 * Peak resident set (VmHWM) of a live process in MiB, 0 when it
 * cannot be read. Unlike ru_maxrss it restarts at exec, so it does
 * not include the memory of whatever forked the process.
 */
double
vmHwmMb(const std::string &pid)
{
    std::ifstream in("/proc/" + pid + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.compare(0, 6, "VmHWM:") == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

struct CampaignRun
{
    bool ok = false;
    std::string error;
    double wallS = 0.0;
    double setupS = 0.0;
    double cpuS = 0.0;
    double peakRssMb = 0.0;
    std::vector<CellRun> cells;
    /** Cell walls (running -> done stamps) and failed tries. */
    std::vector<double> cellWallS;
    std::uint64_t retries = 0;
};

/** Per-cell stamps and retries from the manifest's event lines. */
void
foldCellTimes(const std::string &manifest, CampaignRun &run)
{
    std::ifstream in(manifest);
    std::map<std::uint64_t, double> start, end;
    std::string line;
    while (std::getline(in, line)) {
        std::string type, status;
        std::uint64_t index = 0;
        double t = 0.0;
        if (!jsonFieldStr(line, "type", type) || type != "cell" ||
            !jsonFieldStr(line, "status", status) ||
            !jsonFieldU64(line, "index", index) ||
            !jsonFieldF64(line, "t", t))
            continue;
        if (status == "running" && !start.count(index))
            start[index] = t;
        else if (status == "done")
            end[index] = t;
        else if (status == "failed")
            ++run.retries;
    }
    for (const auto &[index, t_end] : end) {
        if (start.count(index))
            run.cellWallS.push_back(t_end - start[index]);
    }
}

/** Digest the durable result records a campaign left behind. */
void
collectResults(const WorkloadDef &wl, const std::string &manifest,
               CampaignRun &run)
{
    const std::string dir = campaignStateDir(manifest);
    for (std::size_t i = 0; i < wl.cells.size(); ++i) {
        CellRun cell;
        cell.key = wl.cells[i].key;
        cell.refs = cellRefs(wl.cells[i].cell.spec);
        const std::string path = cellResultPath(dir, i);
        try {
            const std::vector<std::uint8_t> bytes = readFileBytes(path);
            const std::string text(bytes.begin(), bytes.end());
            const CellOutcome o = parseOutcome(path, text);
            if (!o.ok)
                throw std::runtime_error("cell failed: " + o.error);
            cell.throughput = o.throughput;
            cell.digest = configHashHex(text);
            cell.ok = true;
        } catch (const std::exception &err) {
            cell.error = err.what();
        }
        run.cells.push_back(std::move(cell));
    }
    foldCellTimes(manifest, run);
}

/**
 * One campaign the way a user runs it: `morphcache_sim --sweep
 * --manifest ... --ckpt-every 1 --stats-out ...` in a child process.
 */
CampaignRun
runCampaignChild(const Options &opt, const WorkloadDef &wl,
                 const std::string &dir)
{
    CampaignRun run;
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string manifest = dir + "/campaign.jsonl";
    const RunSpec &base = wl.plan.base;
    const std::vector<std::string> args = {
        opt.simPath,
        "--sweep",
        "--manifest", manifest,
        "--ckpt-every", "1",
        "--stats-out", dir + "/stats.json",
        "--scheme", base.scheme,
        "--cores", std::to_string(base.cores),
        "--epochs", std::to_string(base.epochs),
        "--refs", std::to_string(base.refs),
        "--seed", std::to_string(base.seed),
        "--mixes", std::to_string(wl.plan.mixLo) + "-" +
                       std::to_string(wl.plan.mixHi),
        "--jobs", std::to_string(wl.jobs),
        "-q",
    };
    std::vector<char *> argv;
    for (const std::string &a : args)
        argv.push_back(const_cast<char *>(a.c_str()));
    argv.push_back(nullptr);
    const std::string log = dir + "/child.log";

    const double spawn_unix = unixNowSec();
    const std::uint64_t t0 = perfNowNs();
    const pid_t pid = ::fork();
    if (pid < 0) {
        run.error = "fork failed";
        return run;
    }
    if (pid == 0) {
        const int fd = ::open(log.c_str(),
                              O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (fd >= 0) {
            ::dup2(fd, 1);
            ::dup2(fd, 2);
            ::close(fd);
        }
        ::execv(argv[0], argv.data());
        ::_exit(127);
    }
    // Sample the child's VmHWM until it exits; a pidfd wakes the
    // wait the moment it does, so the wall time stays exact.
    const int pidfd = static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
    const std::string pid_name = std::to_string(pid);
    while (pidfd >= 0) {
        run.peakRssMb = std::max(run.peakRssMb, vmHwmMb(pid_name));
        struct pollfd pfd = {pidfd, POLLIN, 0};
        if (::poll(&pfd, 1, 2) != 0)
            break;
    }
    if (pidfd >= 0)
        ::close(pidfd);
    int status = 0;
    struct rusage ru = {};
    while (::wait4(pid, &status, 0, &ru) < 0) {
        if (errno != EINTR) {
            run.error = "wait4 failed";
            return run;
        }
    }
    const std::uint64_t t1 = perfNowNs();
    run.wallS = static_cast<double>(t1 - t0) / 1e9;
    run.cpuS = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
               static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
                   1e6;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        std::ifstream in(log);
        std::stringstream text;
        text << in.rdbuf();
        run.error = "morphcache_sim exited with status " +
                    std::to_string(status) + ": " + text.str();
        collectResults(wl, manifest, run);
        return run;
    }
    const ManifestTiming timing = foldManifestTiming(manifest);
    double first = 0.0;
    for (const auto &entry : timing.workers) {
        if (first == 0.0 || entry.second.firstT < first)
            first = entry.second.firstT;
    }
    if (first == 0.0) {
        run.error = "campaign manifest carries no event stamps";
    } else {
        run.setupS = std::max(0.0, first - spawn_unix);
        run.ok = true;
    }
    collectResults(wl, manifest, run);
    return run;
}

/** The same campaign in-process (so a TimingVfs sees its I/O). */
CampaignRun
runCampaignInProcess(const WorkloadDef &wl, const std::string &dir)
{
    CampaignRun run;
    fs::remove_all(dir);
    fs::create_directories(dir);
    CampaignOptions copts;
    copts.manifestPath = dir + "/campaign.jsonl";
    copts.jobs = wl.jobs;
    copts.ckptEvery = 1;
    copts.wantStatsJson = true;
    std::vector<CampaignCell> cells;
    for (const CellDef &def : wl.cells)
        cells.push_back(def.cell);
    const std::uint64_t t0 = perfNowNs();
    try {
        const CampaignReport report = runCampaign(cells, copts);
        const std::string stats = dir + "/stats.json";
        vfsWriteWholeFile(stats, report.statsJsonArray.data(),
                          report.statsJsonArray.size(), false);
        run.ok = report.failed == 0 && !report.interrupted;
        if (!run.ok)
            run.error = "campaign reported failed cells";
    } catch (const std::exception &err) {
        run.error = err.what();
    }
    run.wallS = static_cast<double>(perfNowNs() - t0) / 1e9;
    collectResults(wl, copts.manifestPath, run);
    return run;
}

// ---------------------------------------------------------------
// Result assembly
// ---------------------------------------------------------------

/** Attempted/failed cell bookkeeping against the pins. */
struct Checker
{
    /** Null: check only that cells ran (the self-test compares
     *  digests itself). */
    const Pins *pins;
    const WorkloadDef &wl;
    std::uint64_t seed;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    check(const CellRun &cell)
    {
        ++attempted;
        std::string why;
        if (!cell.ok) {
            why = cell.error;
        } else if (pins) {
            const std::string pinned = pins->get(wl.name, seed, cell.key);
            if (pinned.empty())
                why = "no pinned digest";
            else if (pinned != cell.digest)
                why = "digest " + cell.digest + " != pinned " + pinned;
        }
        if (!why.empty()) {
            ++failed;
            std::fprintf(stderr, "perfbench: cell %s failed: %s\n",
                         cell.key.c_str(), why.c_str());
        }
    }
};

class Metrics
{
  public:
    void
    add(const std::string &name, double value, const char *unit)
    {
        if (!(value == value) || value > 1e300 || value < -1e300)
            value = 0.0; // never print NaN/inf into the JSON
        entries_.push_back({name, value, unit});
    }

    std::string
    json() const
    {
        std::string out = "{";
        char buf[64];
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            const Entry &e = entries_[i];
            std::snprintf(buf, sizeof(buf), "%.17g", e.value);
            out += (i ? ", \"" : "\"") + e.name + "\": {\"value\": " +
                   buf + ", \"unit\": \"" + e.unit + "\"}";
        }
        return out + "}";
    }

    void
    print(FILE *out) const
    {
        for (const Entry &e : entries_) {
            std::fprintf(out, "  %-40s %16.6g %s\n", e.name.c_str(),
                         e.value, e.unit.c_str());
        }
    }

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries_;
};

/** User+sys CPU seconds of this process, at ns resolution. */
double
cpuSecondsSelf()
{
    struct timespec ts = {};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) / 1e9;
}


/** One timed unit of a pass: a cell in-process, or a whole campaign
 *  (whose cells run concurrently in the child). */
struct Unit
{
    std::uint64_t refs = 0;
    double setupS = 0.0;
    double loopS = 0.0;
    double wallS = 0.0;
    double cpuS = 0.0;
};

/** Everything one closed-batch pass over the cells measured. */
struct Pass
{
    std::vector<Unit> units;
    double peakRssMb = 0.0;
    /** Mean over cells of RunResult::avgThroughput. */
    double ipc = 0.0;
    std::vector<CellRun> cells;

    double
    wallS() const
    {
        double sum = 0.0;
        for (const Unit &u : units)
            sum += u.wallS;
        return sum;
    }
};

Pass
inProcessPass(const WorkloadDef &wl, const std::string &work,
              TraceAgg *agg)
{
    Pass pass;
    for (std::size_t i = 0; i < wl.cells.size(); ++i) {
        const std::string dump =
            work + "/cell" + std::to_string(i) + ".stats.json";
        const double cpu0 = cpuSecondsSelf();
        CellRun cell = agg ? runTracedCell(wl.cells[i], dump, *agg)
                           : runPlainCell(wl.cells[i], dump, false);
        Unit unit;
        unit.cpuS = cpuSecondsSelf() - cpu0;
        unit.refs = cell.refs;
        unit.setupS = static_cast<double>(cell.setupNs) / 1e9;
        unit.loopS = static_cast<double>(cell.loopNs) / 1e9;
        unit.wallS = static_cast<double>(cell.wallNs) / 1e9;
        pass.units.push_back(unit);
        pass.ipc += cell.throughput / static_cast<double>(wl.cells.size());
        pass.cells.push_back(std::move(cell));
    }
    pass.peakRssMb = vmHwmMb("self");
    return pass;
}

Pass
campaignPass(const CampaignRun &run, const WorkloadDef &wl)
{
    Pass pass;
    Unit unit;
    unit.setupS = run.setupS;
    unit.loopS = run.wallS;
    unit.wallS = run.wallS;
    unit.cpuS = run.cpuS;
    pass.peakRssMb = run.peakRssMb;
    for (const CellRun &cell : run.cells) {
        unit.refs += cell.refs;
        pass.ipc += cell.throughput / static_cast<double>(wl.cells.size());
    }
    pass.units.push_back(unit);
    pass.cells = run.cells;
    if (!run.ok && !pass.cells.empty() && pass.cells[0].ok) {
        // A campaign-level failure fails the campaign's first cell
        // so it is counted even when every result file exists.
        pass.cells[0].ok = false;
        pass.cells[0].error = run.error;
    }
    return pass;
}

template <typename Fn>
std::vector<double>
collect(const std::vector<Pass> &passes, Fn fn)
{
    std::vector<double> out;
    for (const Pass &p : passes)
        out.push_back(fn(p));
    return out;
}

/**
 * Seven end-to-end metrics from the untraced passes. Each time is a
 * typical pass: the sum over units of the unit's median across
 * passes, so one slow pass moves no metric. `setup_only[u]` holds
 * extra set-up samples of unit u.
 */
void
endToEndMetrics(const std::vector<Pass> &passes,
                const std::vector<std::vector<double>> &setup_only,
                const Checker &checker, Metrics &m)
{
    std::uint64_t refs = 0;
    double loop = 0.0, wall = 0.0, cpu = 0.0, setup = 0.0;
    for (std::size_t u = 0; u < passes[0].units.size(); ++u) {
        std::vector<double> loops, walls, cpus;
        std::vector<double> setups =
            u < setup_only.size() ? setup_only[u] : std::vector<double>();
        for (const Pass &p : passes) {
            loops.push_back(p.units[u].loopS);
            walls.push_back(p.units[u].wallS);
            cpus.push_back(p.units[u].cpuS);
            setups.push_back(p.units[u].setupS);
        }
        refs += passes[0].units[u].refs;
        loop += median(loops);
        wall += median(walls);
        cpu += median(cpus);
        setup += median(setups);
    }
    m.add("refs_per_s", static_cast<double>(refs) / loop, "refs/s");
    m.add("wall_s", wall, "s");
    m.add("setup_s", setup, "s");
    m.add("cpu_s", cpu, "s");
    m.add("peak_rss_mb", median(collect(passes, [](const Pass &p) {
                             return p.peakRssMb;
                         })),
          "MiB");
    m.add("sim_ipc", passes.empty() ? 0.0 : passes[0].ipc, "IPC");
    m.add("ok_frac",
          checker.attempted == 0
              ? 0.0
              : static_cast<double>(checker.attempted - checker.failed) /
                    static_cast<double>(checker.attempted),
          "ratio");
}

void
printResult(const Checker &checker, const Metrics &m)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                "%llu, \"metrics\": %s}\n",
                checker.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(checker.attempted),
                static_cast<unsigned long long>(checker.failed),
                m.json().c_str());
    std::fflush(stdout);
}

void
printCells(const char *what, const std::vector<CellRun> &cells)
{
    for (const CellRun &c : cells) {
        std::printf("%s %-28s digest=%s ipc=%.6f wall=%.3fs\n", what,
                    c.key.c_str(), c.digest.c_str(), c.throughput,
                    static_cast<double>(c.wallNs) / 1e9);
    }
}

// ---------------------------------------------------------------
// Modes
// ---------------------------------------------------------------

int
measureUntraced(const Options &opt, const WorkloadDef &wl,
                Checker &checker)
{
    std::vector<Pass> passes;
    std::vector<std::vector<double>> setups;
    const double t_end = perfNowSec() + opt.seconds;
    if (!wl.campaign) {
        // Set-up alone, several times per cell, on top of the one
        // sample every pass gives.
        setups.resize(wl.cells.size());
        for (int rep = 0; rep < 5; ++rep) {
            for (std::size_t i = 0; i < wl.cells.size(); ++i) {
                const CellRun c = runPlainCell(wl.cells[i], "", true);
                setups[i].push_back(static_cast<double>(c.setupNs) / 1e9);
            }
        }
    }
    do {
        Pass pass;
        if (wl.campaign) {
            pass = campaignPass(
                runCampaignChild(opt, wl, opt.workDir + "/campaign"),
                wl);
        } else {
            pass = inProcessPass(wl, opt.workDir, nullptr);
        }
        for (const CellRun &c : pass.cells)
            checker.check(c);
        passes.push_back(std::move(pass));
    } while (perfNowSec() < t_end);

    printCells("cell", passes[0].cells);
    std::printf("passes %zu, wall per pass:", passes.size());
    for (const Pass &p : passes)
        std::printf(" %.4g", p.wallS());
    std::printf("\n");
    Metrics m;
    endToEndMetrics(passes, setups, checker, m);
    m.print(stdout);
    printResult(checker, m);
    return 0;
}

/** Reference-path, hierarchy, controller and stats metrics, per
 *  pass (counts) or per call (times). */
void
addLayerMetrics(Metrics &m, const TraceAgg &agg, double passes,
                double timer_ns)
{
    const LayerTally &t = agg.layers;
    m.add("workload.next_ns", t.next.netMeanNs(timer_ns), "ns");
    m.add("workload.next_calls", static_cast<double>(t.next.calls) / passes,
          "count");
    m.add("sim.access_ns", t.access.netMeanNs(timer_ns), "ns");
    for (std::size_t b = 0; b < numServedBuckets; ++b) {
        m.add(std::string("sim.access_ns.") + servedNames[b],
              t.served[b].netMeanNs(timer_ns), "ns");
    }
    for (std::size_t b = 0; b < numServedBuckets; ++b) {
        m.add(std::string("sim.served.") + servedNames[b],
              static_cast<double>(t.served[b].calls) / passes, "count");
    }
    for (const char *scheme : schemeKeys) {
        const auto it = agg.accessByScheme.find(scheme);
        m.add(std::string("sim.ns_per_ref.") + scheme,
              it == agg.accessByScheme.end()
                  ? 0.0
                  : it->second.netMeanNs(timer_ns),
              "ns");
    }
    m.add("hierarchy.registry_cells",
          static_cast<double>(agg.registryCells) / passes, "count");
    m.add("hierarchy.unregistered_cells",
          static_cast<double>(agg.unregisteredCells) / passes, "count");
    auto counter = [&](const std::string &name) {
        const auto it = agg.counters.find(name);
        return it == agg.counters.end() ? 0.0 : it->second / passes;
    };
    for (const char *level : {"l2", "l3"}) {
        const std::string h = std::string("hier.") + level + ".";
        const std::string out = std::string("hierarchy.") + level + ".";
        const double probes = counter(h + "sliceProbes");
        m.add(out + "slice_probes", probes, "count");
        m.add(out + "hits_per_probe",
              probes > 0 ? (counter(h + "localHits") +
                            counter(h + "remoteHits")) /
                               probes
                         : 0.0,
              "ratio");
        m.add(out + "fills", counter(h + "fills"), "count");
        m.add(out + "evictions", counter(h + "evictions"), "count");
        m.add(out + "coherence_invalidations",
              counter(h + "coherenceInvalidations"), "count");
        m.add(out + "inclusion_invalidations",
              counter(h + "inclusionInvalidations"), "count");
    }
    for (const char *level : {"l2", "l3"}) {
        const std::string b = std::string("bus.") + level + ".";
        const std::string out =
            std::string("interconnect.") + level + ".";
        m.add(out + "transactions", counter(b + "transactions"), "count");
        m.add(out + "queue_cycles", counter(b + "queueCycles"),
              "cycles");
    }
    for (int l = 0; l < 2; ++l) {
        m.add(l == 0 ? "warmth.l2_valid_frac" : "warmth.l3_valid_frac",
              agg.capacityLines[l] > 0
                  ? agg.validLines[l] / agg.capacityLines[l]
                  : 0.0,
              "ratio");
    }
    m.add("morph.epoch_boundary_us_mean",
          t.boundary.netMeanNs(timer_ns) / 1e3, "us");
    m.add("morph.epoch_boundary_us_max",
          static_cast<double>(t.boundary.maxNs) / 1e3, "us");
    m.add("morph.merges", counter("morph.merges"), "count");
    m.add("morph.splits", counter("morph.splits"), "count");
    m.add("stats.snapshot_us", agg.snapshot.netMeanNs(timer_ns) / 1e3,
          "us");
    m.add("stats.dump_ms", agg.dump.netMeanNs(timer_ns) / 1e6, "ms");
}

void
addIoMetrics(Metrics &m, const IoCounts &io, double passes)
{
    m.add("ckpt.write_ms", static_cast<double>(io.ckptNs) / 1e6 / passes,
          "ms");
    m.add("ckpt.bytes", static_cast<double>(io.ckptBytes) / passes,
          "bytes");
    m.add("io.write_calls", static_cast<double>(io.writeCalls) / passes,
          "count");
    m.add("io.bytes_written",
          static_cast<double>(io.bytesWritten) / passes, "bytes");
    m.add("io.fsync_calls", static_cast<double>(io.fsyncCalls) / passes,
          "count");
    m.add("io.fsync_ms", static_cast<double>(io.fsyncNs) / 1e6 / passes,
          "ms");
    m.add("io.rename_calls",
          static_cast<double>(io.renameCalls) / passes, "count");
    m.add("io.failed_ops", static_cast<double>(io.failedOps) / passes,
          "count");
}

/** Digest of one cell's traced and untraced runs, for --selftest. */
struct DigestPair
{
    std::string key;
    std::string untraced;
    std::string traced;
};

int
measureTraced(const Options &opt, const WorkloadDef &wl,
              Checker &checker, std::vector<DigestPair> *pairs)
{
    const double timer_ns = calibrateTimerNs();
    const double t_end = perfNowSec() + opt.seconds;

    // The untraced reference pass: trace.overhead's denominator and
    // the runner/set-up figures, which the wrappers would inflate.
    Pass plain = wl.campaign
                     ? campaignPass(runCampaignChild(
                                        opt, wl,
                                        opt.workDir + "/campaign"),
                                    wl)
                     : inProcessPass(wl, opt.workDir, nullptr);
    for (const CellRun &c : plain.cells)
        checker.check(c);
    // The campaign's traced runs are in-process, so its overhead
    // reference is the same in-process campaign with no TimingVfs.
    std::vector<double> reference_walls = {plain.wallS()};
    if (wl.campaign) {
        reference_walls.clear();
        for (int rep = 0; rep < 3; ++rep) {
            const CampaignRun run =
                runCampaignInProcess(wl, opt.workDir + "/campaign");
            for (const CellRun &c : run.cells)
                checker.check(c);
            reference_walls.push_back(run.wallS);
        }
    }

    Vfs &real = vfs();
    TimingVfs timing(real);
    Profiler &profiler = Profiler::global();
    TraceAgg agg;
    std::vector<Pass> traced;
    std::vector<CampaignRun> campaigns;
    ProfSnapshot prof0, prof1;
    IoCounts io;
    {
        ScopedVfs scoped(&timing);
        if (wl.campaign) {
            // The campaign's own layers (runner, ckpt, io) ...
            do {
                campaigns.push_back(runCampaignInProcess(
                    wl, opt.workDir + "/campaign"));
                for (const CellRun &c : campaigns.back().cells)
                    checker.check(c);
            } while (perfNowSec() < t_end - opt.seconds / 3);
            io = timing.counts();
        }
        // Allocation attribution is process-wide, so it is read over
        // single-threaded passes only.
        profiler.setEnabled(true);
        AllocMeter::setEnabled(true);
        prof0 = profiler.snapshot();
        // ... and the reference path of its cells (or of the
        // in-process workloads) through the timing wrappers.
        do {
            traced.push_back(inProcessPass(wl, opt.workDir, &agg));
            for (const CellRun &c : traced.back().cells)
                checker.check(c);
        } while (perfNowSec() < t_end);
        prof1 = profiler.snapshot();
        if (!wl.campaign)
            io = timing.counts();
        AllocMeter::setEnabled(false);
        profiler.setEnabled(false);
    }

    if (pairs) {
        const std::vector<CellRun> &t =
            wl.campaign ? campaigns[0].cells : traced[0].cells;
        for (std::size_t i = 0; i < plain.cells.size(); ++i) {
            pairs->push_back(
                {plain.cells[i].key, plain.cells[i].digest, t[i].digest});
        }
        if (wl.campaign) {
            for (std::size_t i = 0; i < plain.cells.size(); ++i) {
                pairs->push_back({plain.cells[i].key + "(replay)",
                                  plain.cells[i].digest,
                                  traced[0].cells[i].digest});
            }
        }
        return 0;
    }

    const double passes = static_cast<double>(traced.size());
    Metrics m;
    addLayerMetrics(m, agg, passes, timer_ns);
    m.add("stats.trace_overhead",
          traceOverheadRatio(wl.cells[0], opt.workDir), "ratio");

    double io_passes = passes;
    std::vector<double> cell_walls, shares, replay_setups;
    std::uint64_t retries = 0;
    if (wl.campaign) {
        io_passes = static_cast<double>(campaigns.size());
        for (const CampaignRun &run : campaigns) {
            cell_walls.insert(cell_walls.end(), run.cellWallS.begin(),
                              run.cellWallS.end());
            retries += run.retries;
        }
        // The child campaign reports no per-cell loop time; time the
        // same cells' loops in-process once.
        std::vector<double> loops;
        for (const CellDef &def : wl.cells) {
            const CellRun c = runPlainCell(
                def, opt.workDir + "/replay.stats.json", false);
            loops.push_back(static_cast<double>(c.loopNs) / 1e9);
            replay_setups.push_back(static_cast<double>(c.setupNs) /
                                    1e6);
        }
        const double cell_wall = median(cell_walls);
        shares.push_back(cell_wall > 0
                             ? std::max(0.0, 1.0 - median(loops) /
                                                       cell_wall)
                             : 0.0);
    } else {
        for (const CellRun &c : plain.cells) {
            const double wall = static_cast<double>(c.wallNs) / 1e9;
            cell_walls.push_back(wall);
            shares.push_back(
                1.0 - static_cast<double>(c.loopNs) /
                          static_cast<double>(c.wallNs));
        }
    }
    addIoMetrics(m, io, io_passes);
    m.add("runner.cell_s", median(cell_walls), "s");
    m.add("runner.cells",
          static_cast<double>(cell_walls.size()) /
              (wl.campaign ? static_cast<double>(campaigns.size()) : 1.0),
          "count");
    m.add("runner.overhead_share", median(shares), "ratio");
    m.add("runner.retries", static_cast<double>(retries), "count");
    const ProfSnapshot dprof = profDelta(prof0, prof1);
    m.add("perf.loop_alloc_calls",
          static_cast<double>(
              dprof.phases[static_cast<std::size_t>(
                               ProfPhase::RefProcessing)]
                  .allocCalls),
          "count");
    std::vector<double> setups = replay_setups;
    for (const CellRun &c : plain.cells) {
        if (!wl.campaign)
            setups.push_back(static_cast<double>(c.setupNs) / 1e6);
    }
    m.add("setup.build_ms", median(setups), "ms");
    // Traced wall over the untraced reference: the in-process
    // campaigns for the campaign workload, the wrapped passes else.
    std::vector<double> traced_walls;
    if (wl.campaign) {
        for (const CampaignRun &run : campaigns)
            traced_walls.push_back(run.wallS);
    } else {
        traced_walls =
            collect(traced, [](const Pass &p) { return p.wallS(); });
    }
    m.add("trace.overhead", median(traced_walls) / median(reference_walls),
          "ratio");
    m.add("trace.timer_ns", timer_ns, "ns");

    const std::string spans_path =
        (fs::path(opt.workDir).parent_path() /
         ("spans-" + wl.name + ".json"))
            .string();
    {
        std::ofstream out(spans_path, std::ios::trunc);
        out << agg.spans.chromeJson();
    }
    std::printf("passes %zu traced, spans in %s\n", traced.size(),
                spans_path.c_str());
    std::printf("untraced reference wall %.4f s, traced wall %.4f s\n",
                median(reference_walls), median(traced_walls));
    m.print(stdout);
    printResult(checker, m);
    return 0;
}

int
pinDigests(const Options &opt, const WorkloadDef &wl)
{
    Pins pins(opt.digestsPath);
    std::vector<CellRun> cells;
    if (wl.campaign) {
        const CampaignRun run =
            runCampaignChild(opt, wl, opt.workDir + "/campaign");
        if (!run.ok) {
            std::fprintf(stderr, "perfbench: %s\n", run.error.c_str());
            return 1;
        }
        cells = run.cells;
    } else {
        cells = inProcessPass(wl, opt.workDir, nullptr).cells;
    }
    for (const CellRun &c : cells) {
        if (!c.ok) {
            std::fprintf(stderr, "perfbench: cell %s failed: %s\n",
                         c.key.c_str(), c.error.c_str());
            return 1;
        }
        pins.set(wl.name, opt.seed, c.key, c.digest);
    }
    pins.save();
    printCells("pinned", cells);
    return 0;
}

int
selftest(const Options &opt, const WorkloadDef &wl)
{
    Checker checker{nullptr, wl, opt.seed};
    std::vector<DigestPair> pairs;
    Options quick = opt;
    quick.seconds = 0.0;
    measureTraced(quick, wl, checker, &pairs);
    int bad = 0;
    for (const DigestPair &p : pairs) {
        const bool same = !p.untraced.empty() && p.untraced == p.traced;
        bad += same ? 0 : 1;
        std::printf("%s %-30s untraced=%s traced=%s\n",
                    same ? "same" : "DIFFERENT", p.key.c_str(),
                    p.untraced.c_str(), p.traced.c_str());
    }
    return bad == 0 ? 0 : 1;
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME "
                 "--seed N --seconds S --trace 0|1 --sim PATH "
                 "--work DIR --digests FILE [--pin] [--selftest] "
                 "[--tiny]\n",
                 msg);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        if (arg == "--workload")
            opt.workload = value();
        else if (arg == "--seed")
            opt.seed = std::stoull(value());
        else if (arg == "--seconds")
            opt.seconds = std::stod(value());
        else if (arg == "--trace")
            opt.trace = value() != "0";
        else if (arg == "--sim")
            opt.simPath = value();
        else if (arg == "--work")
            opt.workDir = value();
        else if (arg == "--digests")
            opt.digestsPath = value();
        else if (arg == "--pin")
            opt.pin = true;
        else if (arg == "--selftest")
            opt.selftest = true;
        else if (arg == "--tiny")
            opt.tiny = true;
        else
            usage(("unknown argument " + arg).c_str());
    }
    if (opt.workload.empty() || opt.simPath.empty() ||
        opt.workDir.empty() || opt.digestsPath.empty())
        usage("--workload, --sim, --work and --digests are required");
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    try {
        const WorkloadDef wl = makeWorkload(opt.workload, opt.seed,
                                            opt.tiny);
        fs::create_directories(opt.workDir);
        if (opt.pin)
            return pinDigests(opt, wl);
        if (opt.selftest)
            return selftest(opt, wl);
        const Pins pins(opt.digestsPath);
        Checker checker{&pins, wl, opt.seed};
        const BenchEnv env = localBenchEnv();
        std::printf("build {\"compiler\": \"%s\", \"buildType\": "
                    "\"%s\", \"hostThreads\": %u}\n",
                    env.compiler.c_str(), env.buildType.c_str(),
                    env.hostThreads);
        std::printf("workload %s seed %llu (input seed %llu) %s\n",
                    wl.name.c_str(),
                    static_cast<unsigned long long>(opt.seed),
                    static_cast<unsigned long long>(1000 +
                                                    seedIndex(opt.seed)),
                    opt.trace ? "traced" : "untraced");
        return opt.trace ? measureTraced(opt, wl, checker, nullptr)
                         : measureUntraced(opt, wl, checker);
    } catch (const std::exception &err) {
        std::fprintf(stderr, "perfbench: %s\n", err.what());
        return 1;
    }
}
