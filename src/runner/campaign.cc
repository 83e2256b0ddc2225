#include "runner/campaign.hh"

#include <atomic>

#include "common/error.hh"
#include "common/logging.hh"
#include "runner/executor.hh"
#include "runner/sweep.hh"

namespace morphcache {

namespace {

CampaignReport
finishReport(const std::vector<CampaignCell> &cells,
             const std::vector<CellOutcome> &outcomes,
             bool want_stats_json)
{
    RenderedReport rendered =
        renderCampaignReport(cells, outcomes, want_stats_json);
    CampaignReport report;
    report.cells = cells.size();
    report.reportText = std::move(rendered.reportText);
    report.statsJsonArray = std::move(rendered.statsJsonArray);
    report.done = rendered.done;
    report.failed = rendered.failed;
    return report;
}

} // namespace

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
    eopts.jobs = opts.jobs != 0 ? opts.jobs : defaultJobs();
    eopts.ckptEvery = opts.ckptEvery;
    eopts.retryCells = opts.retryCells;
    eopts.cellTimeoutSec = opts.cellTimeoutSec;
    eopts.wantStatsJson = opts.wantStatsJson;
    eopts.workerId = "cli";
    if (runExecutor(cells, eopts).interrupted) {
        CampaignReport report;
        report.cells = cells.size();
        report.interrupted = true;
        return report;
    }

    std::vector<CellOutcome> outcomes(cells.size());
    const std::size_t missing =
        loadCellResults(opts.manifestPath, outcomes);
    if (missing != 0) {
        throw CkptError("campaign '" + opts.manifestPath + "': " +
                        std::to_string(missing) +
                        " cells ended without a durable result; "
                        "resume to finish");
    }
    return finishReport(cells, outcomes, opts.wantStatsJson);
}

CampaignReport
runSweep(const std::vector<CampaignCell> &cells, unsigned jobs,
         bool wantStatsJson)
{
    ExecutorOptions opts;
    opts.wantStatsJson = wantStatsJson;
    std::atomic<bool> interrupted{false};
    const std::vector<CellOutcome> outcomes =
        parallelMap(cells.size(), jobs, [&](std::size_t i) {
            const CampaignCell &cell = cells[i];
            CellOutcome o;
            try {
                o = runCell(cell, "", opts);
            } catch (const CellInterrupted &) {
                interrupted = true;
            } catch (const std::exception &err) {
                warn("sweep cell %zu (%s) failed: %s", i,
                     cell.label.c_str(), err.what());
                o.failed = true;
                o.label = cell.label;
                o.seed = cell.spec.seed;
                o.error = err.what();
            }
            o.attempts = 1;
            return o;
        });
    if (interrupted) {
        CampaignReport report;
        report.cells = cells.size();
        report.interrupted = true;
        return report;
    }
    return finishReport(cells, outcomes, wantStatsJson);
}

} // namespace morphcache
