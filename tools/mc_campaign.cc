/**
 * @file
 * mc_campaign — multi-process work-stealing campaign executor.
 *
 * Drives a sweep campaign with any number of independent worker
 * processes sharing nothing but the manifest directory. Workers may
 * be launched by `work --workers M`, by hand in separate shells, or
 * on separate hosts over a shared filesystem; any of them can die
 * (SIGKILL included) at any point and the fleet still finishes with
 * merged output byte-identical to a serial run.
 *
 * Usage:
 *   mc_campaign init --manifest FILE [spec options]
 *       write a fresh manifest embedding the campaign plan (base
 *       RunSpec + mix range + seed replicas) so workers rebuild the
 *       exact cell list from the manifest alone
 *       spec options: --scheme S --cores N --epochs N --refs N
 *                     --seed N --paper-scale --check POLICY
 *                     --quarantine N --mixes A-B --sweep-seeds K
 *
 *   mc_campaign work --manifest FILE [-jN] [--workers M]
 *                    [--lease-ttl SEC] [--ckpt-every N]
 *                    [--retry-cells K] [--cell-timeout SEC]
 *                    [--worker-id ID]
 *       claim and run cells until every cell has a durable result.
 *       -jN runs N cells concurrently per worker process;
 *       --workers M forks M worker processes. Cells are claimed
 *       through heartbeat leases (TTL --lease-ttl, default 30 s);
 *       a worker silent past its deadline is presumed dead and its
 *       cells are stolen, resuming from their newest checkpoint.
 *       Exits 0 when the campaign is complete, 75 (resumable) on
 *       SIGINT/SIGTERM.
 *
 *   mc_campaign status --manifest FILE
 *       live progress aggregate: per-cell status from the manifest,
 *       result files, and leases. Exits 0 when every cell has a
 *       result, 9 while the campaign is still in progress.
 *
 *   mc_campaign merge --manifest FILE [--stats-out FILE]
 *       render the final report from the per-cell result files —
 *       byte-identical to an uninterrupted `morphcache_sim --sweep
 *       --manifest` run of the same plan. Exits 1 if any cell
 *       terminally failed, 9 if results are still missing.
 *
 *   mc_campaign reap --manifest FILE
 *       delete expired leases and leases of finished cells, making
 *       a dead fleet's cells immediately claimable.
 */

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "ckpt/ckpt.hh"
#include "common/error.hh"
#include "common/logging.hh"
#include "common/serial.hh"
#include "io/vfs.hh"
#include "runner/executor.hh"
#include "runner/lease.hh"

using namespace morphcache;

namespace {

/** Exit code of status/merge while the campaign is in progress. */
constexpr int campaignInProgressExit = 9;

struct Options
{
    std::string command;
    std::string manifestPath;
    std::string statsOutPath;
    std::string workerId;
    CampaignPlan plan;
    unsigned jobs = 1;
    unsigned workers = 1;
    std::uint32_t ckptEvery = 0;
    std::uint32_t retryCells = 0;
    double cellTimeoutSec = 0.0;
    double leaseTtlSec = 30.0;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s init   --manifest FILE [--scheme S] [--cores N]\n"
        "                 [--epochs N] [--refs N] [--seed N]\n"
        "                 [--paper-scale] [--check POLICY]\n"
        "                 [--quarantine N] [--mixes A-B]\n"
        "                 [--sweep-seeds K]\n"
        "       %s work   --manifest FILE [-jN] [--workers M]\n"
        "                 [--lease-ttl SEC] [--ckpt-every N]\n"
        "                 [--retry-cells K] [--cell-timeout SEC]\n"
        "                 [--worker-id ID]\n"
        "       %s status --manifest FILE\n"
        "       %s merge  --manifest FILE [--stats-out FILE]\n"
        "       %s reap   --manifest FILE\n",
        argv0, argv0, argv0, argv0, argv0);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        usage(argv[0]);
    Options opts;
    opts.command = argv[1];
    if (opts.command != "init" && opts.command != "work" &&
        opts.command != "status" && opts.command != "merge" &&
        opts.command != "reap") {
        std::fprintf(stderr, "unknown command '%s'\n",
                     opts.command.c_str());
        usage(argv[0]);
    }
    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        std::string eq_value;
        bool has_eq = false;
        if (arg.rfind("--", 0) == 0) {
            const auto eq = arg.find('=');
            if (eq != std::string::npos) {
                eq_value = arg.substr(eq + 1);
                arg = arg.substr(0, eq);
                has_eq = true;
            }
        }
        auto value = [&]() -> std::string {
            if (has_eq)
                return eq_value;
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (arg == "--manifest") {
            opts.manifestPath = value();
        } else if (arg == "--scheme") {
            opts.plan.base.scheme = value();
        } else if (arg == "--cores") {
            opts.plan.base.cores = static_cast<std::uint32_t>(
                std::strtoul(value().c_str(), nullptr, 10));
        } else if (arg == "--epochs") {
            opts.plan.base.epochs = static_cast<std::uint32_t>(
                std::strtoul(value().c_str(), nullptr, 10));
        } else if (arg == "--refs") {
            opts.plan.base.refs =
                std::strtoull(value().c_str(), nullptr, 10);
        } else if (arg == "--seed") {
            opts.plan.base.seed =
                std::strtoull(value().c_str(), nullptr, 10);
        } else if (arg == "--paper-scale") {
            opts.plan.base.paperScale = true;
        } else if (arg == "--check") {
            opts.plan.base.checkPolicy = value();
        } else if (arg == "--quarantine") {
            opts.plan.base.quarantine = static_cast<std::uint32_t>(
                std::strtoul(value().c_str(), nullptr, 10));
        } else if (arg == "--mixes") {
            const std::string spec = value();
            unsigned lo = 0, hi = 0;
            if (std::sscanf(spec.c_str(), "%u-%u", &lo, &hi) == 2) {
                opts.plan.mixLo = lo;
                opts.plan.mixHi = hi;
            } else if (std::sscanf(spec.c_str(), "%u", &lo) == 1) {
                opts.plan.mixLo = opts.plan.mixHi = lo;
            } else {
                std::fprintf(stderr, "bad --mixes '%s'\n",
                             spec.c_str());
                usage(argv[0]);
            }
            if (opts.plan.mixLo < 1 || opts.plan.mixHi > 12 ||
                opts.plan.mixLo > opts.plan.mixHi) {
                std::fprintf(stderr,
                             "--mixes range must lie in 1-12\n");
                usage(argv[0]);
            }
        } else if (arg == "--sweep-seeds") {
            opts.plan.sweepSeeds = static_cast<std::uint32_t>(
                std::strtoul(value().c_str(), nullptr, 10));
            if (opts.plan.sweepSeeds == 0) {
                std::fprintf(stderr,
                             "--sweep-seeds must be nonzero\n");
                usage(argv[0]);
            }
        } else if (arg == "--jobs" || arg == "-j") {
            opts.jobs = static_cast<unsigned>(
                std::strtoul(value().c_str(), nullptr, 10));
        } else if (arg.rfind("-j", 0) == 0 && arg.size() > 2 &&
                   arg.find_first_not_of("0123456789", 2) ==
                       std::string::npos) {
            opts.jobs = static_cast<unsigned>(
                std::strtoul(arg.c_str() + 2, nullptr, 10));
        } else if (arg == "--workers") {
            opts.workers = static_cast<unsigned>(
                std::strtoul(value().c_str(), nullptr, 10));
            if (opts.workers == 0) {
                std::fprintf(stderr, "--workers must be nonzero\n");
                usage(argv[0]);
            }
        } else if (arg == "--lease-ttl") {
            opts.leaseTtlSec = std::strtod(value().c_str(), nullptr);
            if (opts.leaseTtlSec <= 0.0) {
                std::fprintf(stderr,
                             "--lease-ttl must be positive\n");
                usage(argv[0]);
            }
        } else if (arg == "--ckpt-every") {
            opts.ckptEvery = static_cast<std::uint32_t>(
                std::strtoul(value().c_str(), nullptr, 10));
        } else if (arg == "--retry-cells") {
            opts.retryCells = static_cast<std::uint32_t>(
                std::strtoul(value().c_str(), nullptr, 10));
        } else if (arg == "--cell-timeout") {
            opts.cellTimeoutSec =
                std::strtod(value().c_str(), nullptr);
        } else if (arg == "--stats-out") {
            opts.statsOutPath = value();
        } else if (arg == "--worker-id") {
            opts.workerId = value();
        } else if (arg == "-v" || arg == "--verbose") {
            setLogLevel(LogLevel::Verbose);
        } else if (arg == "-q" || arg == "--quiet") {
            setLogLevel(LogLevel::Quiet);
        } else {
            std::fprintf(stderr, "unknown option '%s'\n",
                         arg.c_str());
            usage(argv[0]);
        }
    }
    if (opts.manifestPath.empty()) {
        std::fprintf(stderr, "%s requires --manifest\n",
                     opts.command.c_str());
        usage(argv[0]);
    }
    return opts;
}

extern "C" void
handleInterruptSignal(int)
{
    requestCkptInterrupt();
}

int
runInit(const Options &opts)
{
    initManifestWithPlan(opts.manifestPath, opts.plan);
    const std::size_t n = opts.plan.cells().size();
    std::fprintf(stderr,
                 "campaign initialised: %zu cells in %s "
                 "(state dir %s)\n",
                 n, opts.manifestPath.c_str(),
                 campaignStateDir(opts.manifestPath).c_str());
    return 0;
}

/** One worker process's drain of the campaign. */
int
runOneWorker(const Options &opts)
{
    const CampaignPlan plan = planFromManifest(opts.manifestPath);
    const std::vector<CampaignCell> cells = plan.cells();

    ExecutorOptions eopts;
    eopts.manifestPath = opts.manifestPath;
    eopts.jobs = opts.jobs;
    eopts.ckptEvery = opts.ckptEvery;
    eopts.retryCells = opts.retryCells;
    eopts.cellTimeoutSec = opts.cellTimeoutSec;
    eopts.leaseTtlSec = opts.leaseTtlSec;
    eopts.wantStatsJson = true;
    eopts.workerId = opts.workerId.empty() ? defaultWorkerId()
                                           : opts.workerId;

    const ExecutorReport report = runExecutor(cells, eopts);
    std::fprintf(stderr,
                 "worker %s: committed %zu results (%zu failed), "
                 "reclaimed %zu leases, fenced %zu commits\n",
                 eopts.workerId.c_str(), report.completed,
                 report.failedCells, report.reclaimed,
                 report.fenced);
    if (report.interrupted) {
        std::fprintf(stderr,
                     "worker %s: interrupted; rerun `work` to "
                     "finish\n",
                     eopts.workerId.c_str());
        return ckptResumableExit;
    }
    return report.campaignComplete ? 0 : 1;
}

int
runWork(const Options &opts)
{
    if (opts.workers <= 1)
        return runOneWorker(opts);

    // Fork the fleet: each child is a fully independent worker
    // process coordinating with its siblings only through the
    // manifest directory — exactly as if each had been launched by
    // hand in its own shell.
    std::vector<pid_t> children;
    children.reserve(opts.workers);
    for (unsigned w = 0; w < opts.workers; ++w) {
        const pid_t pid = ::fork();
        if (pid < 0) {
            std::fprintf(stderr, "fork failed: %s\n",
                         std::strerror(errno));
            break;
        }
        if (pid == 0) {
            Options mine = opts;
            if (!mine.workerId.empty()) {
                mine.workerId += ':';
                mine.workerId += std::to_string(w);
            }
            int code = 1;
            try {
                code = runOneWorker(mine);
            } catch (const SimError &err) {
                std::fprintf(stderr, "worker error: %s\n",
                             err.what());
            }
            std::fflush(nullptr);
            ::_exit(code);
        }
        children.push_back(pid);
    }

    int worst = children.empty() ? 1 : 0;
    bool resumable = false;
    for (const pid_t pid : children) {
        int wstatus = 0;
        if (::waitpid(pid, &wstatus, 0) < 0)
            continue;
        int code = 1;
        if (WIFEXITED(wstatus))
            code = WEXITSTATUS(wstatus);
        if (code == ckptResumableExit)
            resumable = true;
        else if (code > worst)
            worst = code;
    }
    // Any surviving worker that saw the campaign through to
    // completion makes the fleet successful, whatever happened to
    // its siblings.
    const CampaignPlan plan = planFromManifest(opts.manifestPath);
    const std::vector<CampaignCell> cells = plan.cells();
    const std::string dir = campaignStateDir(opts.manifestPath);
    bool complete = true;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (!fileExists(cellResultPath(dir, i))) {
            complete = false;
            break;
        }
    }
    if (complete)
        return 0;
    return resumable ? ckptResumableExit : (worst ? worst : 1);
}

int
runStatus(const Options &opts)
{
    const CampaignPlan plan = planFromManifest(opts.manifestPath);
    const std::vector<CampaignCell> cells = plan.cells();
    const std::string dir = campaignStateDir(opts.manifestPath);
    const std::vector<CellProgress> progress = foldManifest(
        opts.manifestPath, cells.size(), campaignHash(cells));

    std::size_t done = 0, failed = 0, leased = 0, pending = 0;
    const double now = leaseNow();
    std::string detail;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        char line[160];
        if (fileExists(cellResultPath(dir, i))) {
            const bool cellFailed = progress[i].status == "failed";
            (cellFailed ? failed : done) += 1;
            std::snprintf(line, sizeof(line),
                          "cell %3zu   : %-24s %s\n", i,
                          cells[i].label.c_str(),
                          cellFailed ? "failed" : "done");
            detail += line;
            continue;
        }
        LeaseInfo lease;
        const LeaseRead state =
            readLease(cellLeasePath(dir, i), lease);
        if (state == LeaseRead::Valid && lease.deadline >= now) {
            ++leased;
            std::snprintf(line, sizeof(line),
                          "cell %3zu   : %-24s running (leased by "
                          "%s, ttl %.1fs)\n",
                          i, cells[i].label.c_str(),
                          lease.worker.c_str(),
                          lease.deadline - now);
        } else {
            ++pending;
            std::snprintf(line, sizeof(line),
                          "cell %3zu   : %-24s %s\n", i,
                          cells[i].label.c_str(),
                          state == LeaseRead::Missing
                              ? "pending"
                              : "pending (stale lease)");
        }
        detail += line;
    }
    std::printf("campaign   : %zu cells\n%s", cells.size(),
                detail.c_str());
    std::printf("status     : %zu done, %zu failed, %zu running, "
                "%zu pending\n",
                done, failed, leased, pending);

    // Live throughput telemetry from manifest event timestamps:
    // done/total, cells/min, per-worker rates, and an ETA for the
    // remaining cells. Purely advisory — absent when the manifest
    // predates timestamps or nothing has finished yet.
    const ManifestTiming timing =
        foldManifestTiming(opts.manifestPath);
    const double rate = timing.cellsPerMinute();
    const std::size_t finished = done + failed;
    const std::size_t remaining = cells.size() - finished;
    char pbuf[160];
    if (rate > 0.0) {
        std::snprintf(pbuf, sizeof(pbuf),
                      "progress   : %zu/%zu done, %.1f cells/min",
                      finished, cells.size(), rate);
        std::string line = pbuf;
        if (remaining > 0) {
            const double eta_s =
                60.0 * static_cast<double>(remaining) / rate;
            if (eta_s >= 90.0) {
                std::snprintf(pbuf, sizeof(pbuf),
                              ", ETA %.1f min", eta_s / 60.0);
            } else {
                std::snprintf(pbuf, sizeof(pbuf),
                              ", ETA %.0f s", eta_s);
            }
            line += pbuf;
        }
        std::printf("%s\n", line.c_str());
    } else {
        std::printf("progress   : %zu/%zu done\n", finished,
                    cells.size());
    }
    for (const auto &entry : timing.workers) {
        const WorkerTiming &w = entry.second;
        if (w.done == 0)
            continue;
        const double window = w.lastT - w.firstT;
        if (window > 0.0) {
            std::printf("worker     : %-24s %zu cells, %.1f "
                        "cells/min\n",
                        entry.first.c_str(), w.done,
                        60.0 * static_cast<double>(w.done) /
                            window);
        } else {
            std::printf("worker     : %-24s %zu cells\n",
                        entry.first.c_str(), w.done);
        }
    }
    return finished == cells.size() ? 0 : campaignInProgressExit;
}

int
runMerge(const Options &opts)
{
    const CampaignPlan plan = planFromManifest(opts.manifestPath);
    const std::vector<CampaignCell> cells = plan.cells();
    std::vector<CellOutcome> outcomes(cells.size());
    const std::size_t missing =
        loadCellResults(opts.manifestPath, outcomes);
    if (missing != 0) {
        std::fprintf(stderr,
                     "campaign incomplete: %zu of %zu cells have "
                     "no result yet; run `mc_campaign work` (or "
                     "`status` for live progress)\n",
                     missing, cells.size());
        return campaignInProgressExit;
    }

    const bool wantStats = !opts.statsOutPath.empty();
    const RenderedReport report =
        renderCampaignReport(cells, outcomes, wantStats);
    std::printf("%s", report.reportText.c_str());
    if (wantStats) {
        vfsWriteWholeFile(opts.statsOutPath,
                          report.statsJsonArray.data(),
                          report.statsJsonArray.size(),
                          /*want_fsync=*/false);
        std::fprintf(stderr, "stats registries written to %s\n",
                     opts.statsOutPath.c_str());
    }
    return report.failed == 0 ? 0 : 1;
}

int
runReap(const Options &opts)
{
    const CampaignPlan plan = planFromManifest(opts.manifestPath);
    const std::size_t n = plan.cells().size();
    const std::size_t removed = reapStaleLeases(
        campaignStateDir(opts.manifestPath), n);
    std::fprintf(stderr, "reaped %zu stale lease(s)\n", removed);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);
    std::signal(SIGINT, handleInterruptSignal);
    std::signal(SIGTERM, handleInterruptSignal);
    try {
        if (opts.command == "init")
            return runInit(opts);
        if (opts.command == "work")
            return runWork(opts);
        if (opts.command == "status")
            return runStatus(opts);
        if (opts.command == "merge")
            return runMerge(opts);
        return runReap(opts);
    } catch (const SimError &err) {
        fatal("%s", err.what());
    }
}
