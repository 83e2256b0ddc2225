#include "runner/executor.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "ckpt/ckpt.hh"
#include "common/error.hh"
#include "common/logging.hh"
#include "io/vfs.hh"
#include "runner/lease.hh"
#include "runner/run_factory.hh"
#include "sim/simulation.hh"
#include "stats/registry.hh"

namespace morphcache {

CellOutcome
runCell(const CampaignCell &cell, const std::string &ckpt_path,
        const ExecutorOptions &opts)
{
    BuiltRun run = buildRun(cell.spec);
    StatsRegistry registry;
    StatsMeta meta;
    meta.seed = cell.spec.seed;
    meta.configHash = configHashHex(describe(cell.spec));
    registry.setMeta(meta);
    run.system->registerStats(registry);

    Simulation simulation(*run.system, *run.workload, run.sim);
    if (opts.wantStatsJson)
        simulation.setRegistry(&registry);

    CkptRunState state;
    state.simulation = &simulation;
    state.system = run.system.get();
    state.workload = run.workload.get();
    state.registry = opts.wantStatsJson ? &registry : nullptr;

    const bool durable = !ckpt_path.empty();
    std::uint64_t last_ckpt = 0;
    if (durable && (fileExists(ckpt_path) ||
                    fileExists(ckpt_path + ".prev"))) {
        const RestoreOutcome restored =
            restoreCheckpointChain(ckpt_path, cell.spec, state);
        last_ckpt = restored.epochsCompleted;
    }

    const bool have_deadline = opts.cellTimeoutSec > 0.0;
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<
            std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(opts.cellTimeoutSec));

    while (!simulation.done()) {
        if (ckptInterruptRequested()) {
            if (durable)
                writeCheckpoint(ckpt_path, cell.spec, state);
            throw CellInterrupted{};
        }
        simulation.stepEpoch();
        if (durable && opts.ckptEvery != 0 &&
            simulation.recordedEpochs() >=
                last_ckpt + opts.ckptEvery) {
            writeCheckpoint(ckpt_path, cell.spec, state);
            last_ckpt = simulation.recordedEpochs();
        }
        if (have_deadline &&
            std::chrono::steady_clock::now() > deadline) {
            throw SimError(
                "watchdog: cell exceeded its wall-clock budget "
                "and was cancelled");
        }
    }

    const RunResult result = simulation.finish();
    CellOutcome o;
    o.ok = true;
    o.label = cell.label;
    o.seed = cell.spec.seed;
    o.throughput = result.avgThroughput;
    o.performance = result.performance;
    if (const auto *morph = dynamic_cast<const MorphCacheSystem *>(
            run.system.get())) {
        o.merges = morph->controller().stats().merges;
        o.splits = morph->controller().stats().splits;
        o.finalTopology = morph->hierarchy().topology().name();
    } else {
        o.finalTopology = run.system->name();
    }
    if (opts.wantStatsJson)
        o.statsJson = registry.jsonString();
    return o;
}

namespace {

/**
 * The leases this worker process currently holds, shared between
 * claim threads (which add/update/remove entries) and the single
 * heartbeat thread (which renews every entry). Generations never
 * change while a lease is held, so concurrent renewals only ever
 * push the deadline; attempts are mirrored in so a reclaimer who
 * takes over after our death inherits the freshest count.
 */
class HeldLeases
{
  public:
    void
    add(const LeaseInfo &lease)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        held_[lease.index] = lease;
    }

    /**
     * Reserve `index` for the calling claim thread before it claims
     * the lease (a generation-0 placeholder the heartbeat skips);
     * false when a sibling thread already has it. No two threads of
     * one process ever race for one lease, so a claim that comes
     * back Held or Raced always means another process.
     */
    bool
    reserve(std::size_t index)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return held_.emplace(index, LeaseInfo{}).second;
    }

    void
    setAttempts(std::size_t index, std::uint64_t attempts)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = held_.find(index);
        if (it != held_.end())
            it->second.attempts = attempts;
    }

    void
    remove(std::size_t index)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        held_.erase(index);
    }

    std::vector<LeaseInfo>
    snapshot()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::vector<LeaseInfo> out;
        out.reserve(held_.size());
        for (const auto &kv : held_) {
            if (kv.second.generation != 0)
                out.push_back(kv.second);
        }
        return out;
    }

    void
    updateDeadline(const LeaseInfo &renewed)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = held_.find(renewed.index);
        // Only refresh an entry the claim thread still owns — if it
        // released between our snapshot and now, re-adding would
        // resurrect a dead entry.
        if (it != held_.end() &&
            it->second.generation == renewed.generation) {
            it->second.deadline = renewed.deadline;
        }
    }

  private:
    std::mutex mutex_;
    std::map<std::size_t, LeaseInfo> held_;
};

/** Shared mutable state of one worker process's executor run. */
struct ExecutorCtx
{
    const std::vector<CampaignCell> &cells;
    const ExecutorOptions &opts;
    std::string dir;
    std::uint64_t hash = 0;
    ManifestLog log;
    HeldLeases held;
    std::atomic<std::size_t> completed{0};
    std::atomic<std::size_t> failedCells{0};
    std::atomic<std::size_t> reclaimed{0};
    std::atomic<std::size_t> fenced{0};
    std::atomic<bool> interrupted{false};
    std::atomic<bool> stopHeartbeat{false};
    /** The manifest as runExecutor first folded it. */
    std::vector<CellProgress> startProgress;
    /** First error that stopped a claim thread (rethrown). */
    std::mutex errorMutex;
    std::exception_ptr error;
    std::mutex heartbeatMutex;
    std::condition_variable heartbeatCv;

    ExecutorCtx(const std::vector<CampaignCell> &c,
                const ExecutorOptions &o)
        : cells(c), opts(o),
          dir(campaignStateDir(o.manifestPath)),
          log(o.manifestPath)
    {
    }
};

/**
 * Append a manifest event, absorbing I/O failure into a warning. In
 * the executor the manifest is a progress journal, not ground truth
 * (result files are), and an append failure must not unwind a claim
 * thread mid-lease — the worker keeps driving the cell and the only
 * cost of the lost event is attempt-count freshness for a future
 * reclaimer.
 */
void
appendQuiet(ExecutorCtx &ctx, std::size_t index, const char *status,
            std::uint64_t attempts)
{
    try {
        ctx.log.appendCell(index, status, attempts);
    } catch (const CkptError &err) {
        warn("worker %s: manifest append (cell %zu -> %s) "
             "failed: %s",
             ctx.opts.workerId.c_str(), index, status, err.what());
    }
}

/**
 * Drive one claimed cell through its retry budget. The lease stays
 * held throughout (the heartbeat thread renews it); it is released
 * only after the result is durable or on interrupt. Never throws —
 * losing the lease (fencing) or exhausting retries are both normal
 * outcomes of a chaotic fleet.
 */
void
driveClaimedCell(ExecutorCtx &ctx, std::size_t index,
                 LeaseInfo mine)
{
    const CampaignCell &cell = ctx.cells[index];
    std::uint64_t attempts = mine.attempts;
    const std::uint64_t budget = 1 + ctx.opts.retryCells;

    auto commit = [&](const CellOutcome &o) -> bool {
        const std::string doc = serializeOutcome(o);
        try {
            commitCellResult(ctx.dir, index, mine, doc);
            return true;
        } catch (const LeaseError &err) {
            // Fenced out: a reclaimer decided we were dead and owns
            // the cell now. Abandon the work — the result it will
            // commit is byte-identical anyway.
            ++ctx.fenced;
            warn("worker %s: %s", ctx.opts.workerId.c_str(),
                 err.what());
            return false;
        }
    };

    while (true) {
        if (ckptInterruptRequested()) {
            ctx.interrupted = true;
            break;
        }
        appendQuiet(ctx, index, "running", attempts);
        ctx.held.setAttempts(index, attempts);
        try {
            CellOutcome o =
                runCell(cell, cellCkptPath(ctx.dir, index), ctx.opts);
            o.attempts = attempts + 1;
            if (commit(o)) {
                appendQuiet(ctx, index, "done", attempts + 1);
                ++ctx.completed;
            }
            break;
        } catch (const CellInterrupted &) {
            // Checkpoint written; the manifest still says `running`
            // with our attempt count, so whoever claims the cell
            // next resumes from it with the right budget left.
            ctx.interrupted = true;
            break;
        } catch (const std::exception &err) {
            ++attempts;
            appendQuiet(ctx, index, "failed", attempts);
            ctx.held.setAttempts(index, attempts);
            warn("campaign cell %zu (%s) try %llu failed: %s",
                 index, cell.label.c_str(),
                 static_cast<unsigned long long>(attempts),
                 err.what());
            if (attempts >= budget) {
                CellOutcome o;
                o.failed = true;
                o.label = cell.label;
                o.seed = cell.spec.seed;
                o.attempts = attempts;
                o.error = err.what();
                if (commit(o)) {
                    ++ctx.completed;
                    ++ctx.failedCells;
                }
                break;
            }
            // Seeded deterministic jitter spreads the fleet's
            // retries; the heartbeat thread keeps the lease alive
            // while we wait.
            vfs().sleepMs(retryDelayMs(ctx.hash, index, attempts));
        }
    }
    releaseLease(ctx.dir, mine);
    ctx.held.remove(index);
}

/**
 * One claim thread: scan for cells without results, claim what it
 * can (stealing expired leases), and drive each claimed cell to a
 * durable result. Exits when no unfinished cell is left that
 * another process holds — cells a sibling thread drives are the
 * sibling's to finish — or on interrupt. Polls (every TTL/4, at
 * most 1 s) only while another process holds a cell or a claim hit
 * a transient I/O fault. `slot` staggers the scan origin so a fleet's
 * threads fan out across the cell list instead of racing for
 * cell 0. Throws when the manifest cannot be read or a lease
 * written for a non-transient reason: the worker has lost its
 * filesystem.
 */
void
claimLoop(ExecutorCtx &ctx, unsigned slot, unsigned slots)
{
    const std::size_t n = ctx.cells.size();
    const auto poll_ms = static_cast<std::uint64_t>(
        1000.0 * std::min(1.0, std::max(0.05,
                                        ctx.opts.leaseTtlSec / 4.0)));

    // The first pass uses runExecutor's fail-fast fold; every later
    // pass refolds: reclaimed cells inherit the larger of the lease's
    // attempt count and the manifest's (a clean release loses the
    // lease file but never the events).
    std::vector<CellProgress> progress = ctx.startProgress;
    for (bool refold = false;
         !ckptInterruptRequested() && !ctx.interrupted; refold = true) {
        try {
            if (refold) {
                progress = foldManifest(ctx.opts.manifestPath, n,
                                        ctx.hash);
            }
        } catch (const CkptError &err) {
            const auto *io = dynamic_cast<const IoError *>(&err);
            if (io != nullptr && !io->transient())
                throw;
            // A torn header read can only mean the manifest is
            // being rewritten or the filesystem hiccuped; back off
            // and rescan rather than killing the worker.
            warn("worker %s: manifest fold failed (%s); retrying",
                 ctx.opts.workerId.c_str(), err.what());
            vfs().sleepMs(poll_ms);
            continue;
        }

        bool claimed_any = false;
        bool wait_for_others = false;
        for (std::size_t k = 0; k < n; ++k) {
            if (ckptInterruptRequested() || ctx.interrupted)
                break;
            const std::size_t i =
                (k + slot * (n / std::max(1u, slots))) % n;
            if (fileExists(cellResultPath(ctx.dir, i)))
                continue;
            // Never steal from a sibling thread: if this process
            // already drives the cell, its lease expiring only
            // means our own heartbeat stalled (machine overload) —
            // reclaiming it here would have two threads of one
            // worker racing on the same cell state.
            if (!ctx.held.reserve(i))
                continue;

            LeaseInfo mine;
            LeaseClaim claim = LeaseClaim::Raced;
            try {
                claim = tryClaimCell(ctx.dir, i,
                                     ctx.opts.workerId,
                                     ctx.opts.leaseTtlSec, mine);
            } catch (const LeaseError &err) {
                // A lost race or a transient fault is worth another
                // pass; a lease write failing ENOSPC/EIO/EROFS fails
                // the same way on every pass (see tryClaimCell).
                try {
                    std::rethrow_if_nested(err);
                } catch (const IoError &io) {
                    if (!io.transient())
                        throw;
                }
                warn("worker %s: claim of cell %zu failed: %s",
                     ctx.opts.workerId.c_str(), i, err.what());
            }
            if (claim != LeaseClaim::Claimed) {
                ctx.held.remove(i);
                wait_for_others = true;
                continue;
            }
            // A second look after the claim: the previous owner may
            // have committed its result between our existence check
            // and the claim; never rerun a finished cell.
            if (fileExists(cellResultPath(ctx.dir, i))) {
                releaseLease(ctx.dir, mine);
                ctx.held.remove(i);
                continue;
            }
            if (mine.generation > 1)
                ++ctx.reclaimed;
            if (progress[i].attempts > mine.attempts)
                mine.attempts = progress[i].attempts;
            ctx.held.add(mine);
            claimed_any = true;
            driveClaimedCell(ctx, i, mine);
        }

        if (claimed_any)
            continue;
        if (!wait_for_others)
            break;
        // Everything unfinished is leased to live workers elsewhere
        // (or a claim hit a transient I/O fault): wait for them to
        // finish or their leases to expire (either way the next pass
        // makes progress).
        vfs().sleepMs(poll_ms);
    }
}

/** Renew every held lease well inside the TTL. */
void
heartbeatLoop(ExecutorCtx &ctx)
{
    const double interval_sec =
        std::min(10.0, std::max(0.05, ctx.opts.leaseTtlSec / 3.0));
    std::unique_lock<std::mutex> lock(ctx.heartbeatMutex);
    while (!ctx.stopHeartbeat) {
        ctx.heartbeatCv.wait_for(
            lock, std::chrono::duration<double>(interval_sec));
        if (ctx.stopHeartbeat)
            break;
        lock.unlock();
        for (LeaseInfo lease : ctx.held.snapshot()) {
            try {
                if (renewLease(ctx.dir, lease,
                               ctx.opts.leaseTtlSec)) {
                    ctx.held.updateDeadline(lease);
                } else {
                    // Fenced out mid-run (we were presumed dead).
                    // The claim thread's commit will hit the fence
                    // and abandon the cell; nothing to do here.
                    warn("worker %s: lost lease on cell %llu to a "
                         "reclaimer",
                         ctx.opts.workerId.c_str(),
                         static_cast<unsigned long long>(
                             lease.index));
                }
            } catch (const LeaseError &err) {
                warn("worker %s: heartbeat on cell %llu failed: %s",
                     ctx.opts.workerId.c_str(),
                     static_cast<unsigned long long>(lease.index),
                     err.what());
            }
        }
        lock.lock();
    }
}

} // namespace

ExecutorReport
runExecutor(const std::vector<CampaignCell> &cells,
            const ExecutorOptions &opts)
{
    if (opts.manifestPath.empty())
        throw ConfigError("executor requires a manifest path");
    if (cells.empty())
        throw ConfigError("campaign has no cells");
    if (opts.leaseTtlSec <= 0.0)
        throw ConfigError("lease TTL must be positive");
    if (!fileExists(opts.manifestPath)) {
        throw ConfigError("campaign manifest '" + opts.manifestPath +
                          "' does not exist; run `mc_campaign init` "
                          "first");
    }

    ExecutorOptions normalized = opts;
    if (normalized.workerId.empty())
        normalized.workerId = defaultWorkerId();
    if (normalized.jobs == 0)
        normalized.jobs = 1;

    ExecutorCtx ctx(cells, normalized);
    ctx.log.setWorker(normalized.workerId);
    ctx.hash = campaignHash(cells);
    // Fail fast on a header mismatch before claiming anything.
    ctx.startProgress =
        foldManifest(normalized.manifestPath, cells.size(), ctx.hash);

    std::thread heartbeat([&ctx] { heartbeatLoop(ctx); });
    std::vector<std::thread> claimers;
    claimers.reserve(normalized.jobs);
    for (unsigned t = 0; t < normalized.jobs; ++t) {
        claimers.emplace_back([&ctx, t, &normalized] {
            try {
                claimLoop(ctx, t, normalized.jobs);
            } catch (...) {
                std::lock_guard<std::mutex> lock(ctx.errorMutex);
                if (!ctx.error)
                    ctx.error = std::current_exception();
            }
        });
    }
    for (std::thread &t : claimers)
        t.join();
    {
        std::lock_guard<std::mutex> lock(ctx.heartbeatMutex);
        ctx.stopHeartbeat = true;
    }
    ctx.heartbeatCv.notify_all();
    heartbeat.join();
    if (ctx.error)
        std::rethrow_exception(ctx.error);

    ExecutorReport report;
    report.completed = ctx.completed.load();
    report.failedCells = ctx.failedCells.load();
    report.reclaimed = ctx.reclaimed.load();
    report.fenced = ctx.fenced.load();
    report.interrupted =
        ctx.interrupted.load() || ckptInterruptRequested();
    if (!report.interrupted) {
        report.campaignComplete = true;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            if (!fileExists(cellResultPath(ctx.dir, i))) {
                report.campaignComplete = false;
                break;
            }
        }
    }
    return report;
}

} // namespace morphcache
