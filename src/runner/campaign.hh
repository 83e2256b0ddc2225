/**
 * @file
 * Sweeps in one process: durable (runCampaign) and not (runSweep).
 *
 * runCampaign() is `morphcache_sim --sweep --manifest/--resume`: a
 * composition of the campaign engine's parts, not a second engine.
 *
 *  - *init*: a fresh run writes the JSONL manifest (initManifest,
 *    manifest.hh) and clears stale per-cell state under
 *    `<manifest>.d/`; a resumed run reopens it (reopenManifest):
 *    header check, every lease a killed run left behind cleared,
 *    unusable result files dropped so their cells rerun, and so
 *    are failed cells a larger retryCells leaves tries for;
 *  - *run*: an in-process work-stealing executor (executor.hh)
 *    whose claim threads are the workers — per-cell checkpoint
 *    chains every ckptEvery recorded epochs, bounded retries with
 *    seeded backoff (retryCells), the cellTimeoutSec watchdog, and
 *    SIGINT/SIGTERM checkpointing the running cells so the caller
 *    can exit with ckptResumableExit; cells that already have a
 *    result file are not rerun;
 *  - *merge*: the result files are read back by the same loader
 *    `mc_campaign merge` uses and rendered by
 *    renderCampaignReport. Failed cells are reported as
 *    `"status":"failed"`, never silently dropped, and excluded from
 *    the stats aggregate.
 *
 * runSweep() is plain `morphcache_sim --sweep`: the same cells
 * (CampaignPlan::cells()), the same cell function (runCell, with no
 * checkpoint path) fanned out by parallelMap (sweep.hh), and the
 * same renderCampaignReport — no manifest, no state directory, no
 * retries, and an interrupt loses the progress made.
 *
 * Everything in CampaignReport is a pure function of the cell list
 * and the per-cell simulated results: bytes are identical for any
 * job count, kill point, or resume count, identical to an
 * `mc_campaign init/work/merge` run of the same plan, and identical
 * between runSweep and runCampaign.
 */

#ifndef MORPHCACHE_RUNNER_CAMPAIGN_HH
#define MORPHCACHE_RUNNER_CAMPAIGN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "runner/manifest.hh"

namespace morphcache {

struct CampaignOptions
{
    /** JSONL manifest path; state dir is `<manifest>.d/`. */
    std::string manifestPath;
    /** Worker threads; 0 = hardware_concurrency. */
    unsigned jobs = 0;
    /** Checkpoint each cell every N recorded epochs (0 = off). */
    std::uint32_t ckptEvery = 0;
    /** Extra tries for a failed cell (exponential backoff). */
    std::uint32_t retryCells = 0;
    /** Wall-clock watchdog per cell try, seconds (0 = off). */
    double cellTimeoutSec = 0.0;
    /** Reopen an existing manifest instead of starting fresh. */
    bool resume = false;
    /** Collect per-cell stats-registry JSON into the report. */
    bool wantStatsJson = false;
};

struct CampaignReport
{
    /**
     * Deterministic per-cell report block (no paths, no timing):
     * identical bytes however the campaign was run or resumed.
     */
    std::string reportText;
    /** JSON array of done cells' registries (wantStatsJson). */
    std::string statsJsonArray;
    std::size_t cells = 0;
    std::size_t done = 0;
    std::size_t failed = 0;
    /** Stopped early on the interrupt flag; resume to finish. */
    bool interrupted = false;
};

/**
 * Run (or resume) a campaign. Throws CkptError when resuming
 * against a manifest whose header does not match the cell list or
 * when the state directory fails persistently (resume to finish),
 * and ConfigError on malformed options.
 */
CampaignReport runCampaign(const std::vector<CampaignCell> &cells,
                           const CampaignOptions &opts);

/**
 * Run every cell once on `jobs` threads (0 = every hardware thread)
 * and render the report; nothing touches the filesystem. A cell that
 * throws is reported as failed after 1 attempt, as runCampaign
 * reports it without retries. When the interrupt flag stops the
 * sweep, the report only says `interrupted`.
 */
CampaignReport runSweep(const std::vector<CampaignCell> &cells,
                        unsigned jobs, bool wantStatsJson);

} // namespace morphcache

#endif // MORPHCACHE_RUNNER_CAMPAIGN_HH
