#include "runner/campaign.hh"

#include "common/error.hh"
#include "runner/executor.hh"
#include "runner/thread_pool.hh"

namespace morphcache {

CampaignReport
runCampaign(const std::vector<CampaignCell> &cells,
            const CampaignOptions &opts)
{
    if (opts.manifestPath.empty())
        throw ConfigError("campaign requires a manifest path");
    if (cells.empty())
        throw ConfigError("campaign has no cells");

    if (opts.resume)
        reopenManifest(opts.manifestPath, cells, opts.retryCells);
    else
        initManifest(opts.manifestPath, cells);

    // This process is the whole fleet: its claim threads are the
    // workers.
    ExecutorOptions eopts;
    eopts.manifestPath = opts.manifestPath;
    eopts.jobs = opts.jobs != 0 ? opts.jobs
                                : ThreadPool::defaultThreads();
    eopts.ckptEvery = opts.ckptEvery;
    eopts.retryCells = opts.retryCells;
    eopts.cellTimeoutSec = opts.cellTimeoutSec;
    eopts.wantStatsJson = opts.wantStatsJson;
    eopts.workerId = "cli";
    const ExecutorReport run = runExecutor(cells, eopts);

    CampaignReport report;
    report.cells = cells.size();
    report.interrupted = run.interrupted;
    if (report.interrupted)
        return report;

    std::vector<CellOutcome> outcomes(cells.size());
    const std::size_t missing =
        loadCellResults(opts.manifestPath, outcomes);
    if (missing != 0) {
        throw CkptError("campaign '" + opts.manifestPath + "': " +
                        std::to_string(missing) +
                        " cells ended without a durable result; "
                        "resume to finish");
    }
    RenderedReport rendered =
        renderCampaignReport(cells, outcomes, opts.wantStatsJson);
    report.reportText = std::move(rendered.reportText);
    report.statsJsonArray = std::move(rendered.statsJsonArray);
    report.done = rendered.done;
    report.failed = rendered.failed;
    return report;
}

} // namespace morphcache
