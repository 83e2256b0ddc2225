/**
 * @file
 * Work-stealing campaign executor: the one cell engine.
 *
 * runExecutor() drains a campaign manifest as one *worker process*
 * whose claim threads run cells concurrently. It is the engine
 * behind both campaign front ends: `mc_campaign work`, where any
 * number of worker processes — launched by `--workers M`, by hand
 * in separate shells, or on separate hosts sharing a filesystem —
 * cooperate on one campaign with no coordinator, and
 * `morphcache_sim --sweep --manifest` (runCampaign, campaign.hh),
 * where one process is the whole fleet.
 *
 *  - workers *claim* pending cells through the lease protocol
 *    (lease.hh): atomic link(2) claims, heartbeat renewals from a
 *    per-process heartbeat thread, generation-bump reclaims of
 *    expired leases;
 *  - a claimed cell runs attempt by attempt — resuming from the
 *    newest per-cell checkpoint, retrying with the seeded
 *    deterministic backoff jitter (retryDelayMs), and recording
 *    every status transition in the shared manifest;
 *  - results are committed through the stale-lease fence
 *    (commitCellResult), so a worker that was descheduled past its
 *    lease deadline and resurrects can never clobber a newer
 *    attempt;
 *  - a worker keeps scanning while another process holds an
 *    unfinished cell (stealing it if its owner dies), so the fleet
 *    as a whole survives any worker dying at any point; cells held
 *    by the worker's own threads are theirs to finish, so idle
 *    threads exit instead of polling.
 *
 * Because every cell's result bytes are a pure function of its
 * RunSpec, merging the result files (loadCellResults +
 * renderCampaignReport) emits bytes identical to an uninterrupted
 * serial run, for any worker count and any kill schedule.
 */

#ifndef MORPHCACHE_RUNNER_EXECUTOR_HH
#define MORPHCACHE_RUNNER_EXECUTOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "runner/manifest.hh"

namespace morphcache {

struct ExecutorOptions
{
    /** Manifest this worker drains (must already exist). */
    std::string manifestPath;
    /** Concurrent cells in this worker process (claim threads). */
    unsigned jobs = 1;
    std::uint32_t ckptEvery = 0;
    /** Extra tries for a failed cell (jittered backoff). */
    std::uint32_t retryCells = 0;
    double cellTimeoutSec = 0.0;
    /** Lease TTL: a worker silent this long is presumed dead. */
    double leaseTtlSec = 30.0;
    /** Store per-cell stats JSON in result files (merge needs it). */
    bool wantStatsJson = true;
    /** Worker identity in leases; empty = "<host>:<pid>". */
    std::string workerId;
};

struct ExecutorReport
{
    /** Results this worker committed (done + terminally failed). */
    std::size_t completed = 0;
    /** Of those, terminal failures. */
    std::size_t failedCells = 0;
    /** Expired/corrupt leases this worker took over. */
    std::size_t reclaimed = 0;
    /** Result commits rejected by stale-lease fencing. */
    std::size_t fenced = 0;
    /** Stopped on the interrupt flag; relaunch to finish. */
    bool interrupted = false;
    /** Every cell has a durable result file. */
    bool campaignComplete = false;
};

/**
 * Drain the campaign as one worker process: claim, run, commit, and
 * steal until every cell has a result (campaignComplete) or the
 * interrupt flag stops us (interrupted). `cells` must be the
 * campaign's full cell list (planFromManifest(...).cells()); the
 * manifest header is verified against it. Throws CkptError on a
 * campaign/manifest mismatch, ConfigError on malformed options, and
 * the typed error of a non-transient I/O failure on the manifest
 * or a lease claim (once every thread has stopped); lease races
 * and cell failures are handled internally and never escape.
 */
ExecutorReport runExecutor(const std::vector<CampaignCell> &cells,
                           const ExecutorOptions &opts);

} // namespace morphcache

#endif // MORPHCACHE_RUNNER_EXECUTOR_HH
