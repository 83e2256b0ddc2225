/**
 * @file
 * Counting allocator hook: heap-allocation telemetry for the
 * simulator hot path.
 *
 * When metering is enabled, every global `operator new`/`delete`
 * tallies bytes and call counts into relaxed atomics; the profiler
 * attributes each phase's share (see setEnabled), and
 * AllocMeter.RefProcessingIsAllocationFreeForAllSchemes in
 * tests/perf_test.cc gates the reference loop at zero, making
 * "allocation-free inner loop" a checked claim instead of a hope.
 *
 * Cost model:
 *  - Not linked: binaries that never reference AllocMeter keep the
 *    stock libstdc++ operators — the replacement operators live in
 *    this translation unit, which the archive linker only pulls in
 *    when something references a symbol from it.
 *  - Linked, disabled: one relaxed atomic bool load per
 *    allocation — the gate `enabled()` short-circuits before any
 *    counter traffic (parity gated by tests/perf_test.cc).
 *  - Enabled: two relaxed fetch_adds per allocation, one per free.
 *
 * Metering is observational only: it never changes what is
 * allocated, so simulated stats are byte-identical with it on or
 * off (enforced by AllocMeter.MeteringChangesNoSimulatedByte in
 * tests/perf_test.cc).
 */

#ifndef MORPHCACHE_PERF_ALLOCMETER_HH
#define MORPHCACHE_PERF_ALLOCMETER_HH

#include <cstdint>

namespace morphcache {

/** Point-in-time allocation tallies (monotonic since reset). */
struct AllocSnapshot
{
    /** Bytes requested from operator new while enabled. */
    std::uint64_t bytes = 0;
    /** operator new calls while enabled. */
    std::uint64_t calls = 0;
    /** operator delete calls while enabled. */
    std::uint64_t frees = 0;
};

/** Delta between two snapshots (b taken after a). */
AllocSnapshot allocDelta(const AllocSnapshot &a,
                         const AllocSnapshot &b);

/**
 * Process-wide allocation meter. All functions are safe to call
 * from any thread; counters are relaxed atomics (monotonic tallies
 * read only at report time, same contract as the Profiler).
 */
namespace AllocMeter {

bool enabled();
void setEnabled(bool on);

/** Zero the tallies (enabled flag unchanged). */
void reset();

AllocSnapshot snapshot();

/**
 * Called by the replacement operators; exposed so unit tests can
 * exercise the tally math without depending on allocator inlining.
 */
void recordAlloc(std::uint64_t bytes);
void recordFree();

} // namespace AllocMeter

} // namespace morphcache

#endif // MORPHCACHE_PERF_ALLOCMETER_HH
