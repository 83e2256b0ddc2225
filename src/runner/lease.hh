/**
 * @file
 * Cell leases: crash-safe work claims over a shared filesystem.
 *
 * A worker claims campaign cell i by creating
 * `<manifest>.d/cellNNNN.lease` — a one-line JSON record carrying
 * `{worker, pid, host, generation, deadline, attempts}`. The
 * protocol needs nothing but POSIX file primitives, so workers can
 * be independent processes on one machine or on many machines
 * sharing a filesystem:
 *
 *  - *claim*: write a scratch file, then link(2) it to the lease
 *    path — link fails with EEXIST if any lease exists, making the
 *    fresh claim atomic even over NFS;
 *  - *heartbeat*: the owner periodically rewrites its lease
 *    (atomic write-then-rename) with a pushed-out deadline;
 *  - *reclaim*: any worker may take over a lease whose deadline has
 *    passed — it writes a lease with `generation + 1` over the stale
 *    one and re-reads the file; only the worker that survives the
 *    read-back proceeds, so concurrent reclaimers resolve to one
 *    winner;
 *  - *fencing*: every durable write on behalf of a cell
 *    (commitCellResult) re-reads the lease first and refuses —
 *    typed LeaseError — unless the (worker, generation) pair still
 *    matches. A worker that was descheduled past its deadline and
 *    resurrects ("zombie") finds a newer generation and cannot
 *    clobber the newer attempt's state.
 *
 * The fence check and the rename publishing the result are two
 * steps, so a zombie interleaving exactly between them can still
 * write — but a cell's result bytes are a pure function of its
 * RunSpec (the determinism contract), so even that write is
 * byte-identical to the legitimate one. The fence exists to stop
 * *divergent* zombie state (e.g. a half-retried attempt count) from
 * landing, and the crash-matrix test proves it does.
 *
 * Deadlines compare wall-clock time across processes, so they use
 * the shared system clock; clock skew between hosts eats into the
 * TTL and is documented in DESIGN.md §12. Nothing simulated ever
 * reads these clocks.
 */

#ifndef MORPHCACHE_RUNNER_LEASE_HH
#define MORPHCACHE_RUNNER_LEASE_HH

#include <cstdint>
#include <string>

namespace morphcache {

/** Contents of one lease file. */
struct LeaseInfo
{
    std::uint64_t index = 0;
    /** Claiming worker's id ("host:pid" unless overridden). */
    std::string worker;
    std::uint64_t pid = 0;
    std::string host;
    /** Claim generation; bumped by every reclaim (fencing token). */
    std::uint64_t generation = 0;
    /** Unix seconds (fractional) after which the lease is stale. */
    double deadline = 0.0;
    /** Cell retry attempts so far; carried across owners. */
    std::uint64_t attempts = 0;
};

/** Wall-clock unix seconds (shared across processes and hosts). */
double leaseNow();

/** Default worker id: "<hostname>:<pid>". */
std::string defaultWorkerId();

/** One-line JSON record of a lease. */
std::string serializeLease(const LeaseInfo &lease);

/** Parse a lease record; false when any field is missing. */
bool parseLease(const std::string &text, LeaseInfo &out);

enum class LeaseRead
{
    /** No lease file exists. */
    Missing,
    /** Lease file parsed cleanly. */
    Valid,
    /** Lease file exists but is unreadable or malformed (a torn
     * write or flipped bits); treated as stale by claimers. */
    Corrupt,
};

LeaseRead readLease(const std::string &path, LeaseInfo &out);

enum class LeaseClaim
{
    /** The cell is ours; `mine` holds the live lease. */
    Claimed,
    /** Another worker holds an unexpired lease. */
    Held,
    /** A concurrent claimer won the race; rescan later. */
    Raced,
};

/**
 * Try to claim cell `index` of the campaign state dir `dir` for
 * `worker_id` with a `ttl_sec` heartbeat deadline. A fresh claim
 * starts at generation 1; reclaiming a stale or corrupt lease bumps
 * the stale generation and inherits its attempt count. On Claimed,
 * `mine` is the lease as written. Throws LeaseError only on I/O
 * failures that are not races (e.g. the state dir is missing); the
 * typed IoError that caused it rides nested inside
 * (std::rethrow_if_nested), so a caller can tell a persistent fault
 * (ENOSPC, EIO, EROFS) from a transient one.
 */
LeaseClaim tryClaimCell(const std::string &dir, std::size_t index,
                        const std::string &worker_id,
                        double ttl_sec, LeaseInfo &mine);

/**
 * Heartbeat: push `mine`'s deadline `ttl_sec` out (and persist its
 * current attempt count). Returns false — without rewriting — when
 * the lease on disk no longer matches `mine` (a reclaimer fenced us
 * out); the caller must stop working on the cell.
 */
bool renewLease(const std::string &dir, LeaseInfo &mine,
                double ttl_sec);

/** Whether the on-disk lease still matches (worker, generation). */
bool leaseStillMine(const std::string &dir, const LeaseInfo &mine);

/**
 * Release a held lease (after the cell's result is durable, or on
 * clean shutdown so other workers can take over immediately). Only
 * removes the file while it still matches `mine`; never throws.
 */
void releaseLease(const std::string &dir, const LeaseInfo &mine);

/**
 * Stale-lease fencing gate for the cell's durable result: re-read
 * the lease and, only if it still matches `mine`, atomically write
 * `doc` as cell `index`'s result file. Throws LeaseError when the
 * lease was lost — the caller's work is abandoned, never merged.
 */
void commitCellResult(const std::string &dir, std::size_t index,
                      const LeaseInfo &mine, const std::string &doc);

/**
 * Housekeeping for `mc_campaign reap`: delete lease files that are
 * expired or whose cell already has a result. Returns the number
 * removed. Claiming does not require this — tryClaimCell reclaims
 * stale leases on its own — it just makes a dead fleet's cells
 * claimable without waiting out the TTL, and tidies finished state
 * dirs.
 */
std::size_t reapStaleLeases(const std::string &dir,
                            std::size_t num_cells);

} // namespace morphcache

#endif // MORPHCACHE_RUNNER_LEASE_HH
