/**
 * @file
 * Lightweight phase profiler for the simulator's own hot phases.
 *
 * Three phases dominate wall-clock time: reference processing (the
 * per-access loop), the epoch decision (controller classification +
 * merge/split search), and the reconfiguration apply (partition
 * rewrite + inclusion walk). A ScopedPhaseTimer around each feeds
 * accumulated nanoseconds and call counts into the process-wide
 * Profiler, which reports through the stats registry as
 * `prof.<phase>.ns` / `prof.<phase>.calls`.
 *
 * Disabled by default: the scoped timer's constructor tests one
 * bool and does nothing else, so leaving the hooks compiled into
 * the hot phases is free (gated by bench/micro_components).
 * Profiler times are wall-clock and are intentionally reported only
 * through the registry, never the event tracer — traces stay
 * bit-deterministic across same-seed runs.
 */

#ifndef MORPHCACHE_STATS_PROFILER_HH
#define MORPHCACHE_STATS_PROFILER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

#include "common/bitops.hh"

namespace morphcache {

class StatsRegistry;

/** Instrumented simulator phases. */
enum class ProfPhase : std::uint8_t {
    /** The per-access reference-processing loop (one epoch batch). */
    RefProcessing,
    /** One controller epoch decision. */
    EpochDecision,
    /** One Hierarchy::reconfigure() application. */
    ReconfigApply,
    NumPhases,
};

/** Name of a phase (registry key component). */
const char *profPhaseName(ProfPhase phase);

/**
 * One reading of a process-wide allocation tally, as delivered by a
 * ProfAllocProbe. Mirrors perf/allocmeter.hh's AllocSnapshot without
 * depending on it: the stats library sits below the perf library in
 * the link graph, so the meter *registers* a probe rather than being
 * called by name.
 */
struct ProfAllocSample
{
    std::uint64_t bytes = 0;
    std::uint64_t calls = 0;
    std::uint64_t frees = 0;
};

/**
 * Monotonic allocation-tally reader a metering layer can plug into
 * the profiler (see AllocMeter::setEnabled). Plain function pointer:
 * installing one must not itself allocate.
 */
using ProfAllocProbe = ProfAllocSample (*)();

/**
 * Point-in-time copy of every phase's accumulators. This is the
 * stable machine-readable export: measuring code (perfbench, the
 * allocation-gate test) takes a snapshot before and after a
 * measured region and reports the delta.
 * Parsing report() text or scraping `prof.*` keys out of a registry
 * dump is deprecated — those renderings may change formatting;
 * snapshot() may only gain fields.
 */
struct ProfSnapshot
{
    struct PhaseTotals
    {
        std::uint64_t ns = 0;
        std::uint64_t calls = 0;
        /**
         * Heap traffic attributed to this phase (operator new
         * bytes/calls and operator delete calls observed while one
         * of its timed intervals was open). Zero unless both the
         * profiler and an installed alloc probe's meter are enabled.
         * Attribution is *inclusive*: an interval nested inside
         * another phase (ReconfigApply inside EpochDecision) counts
         * its traffic in both.
         */
        std::uint64_t allocBytes = 0;
        std::uint64_t allocCalls = 0;
        std::uint64_t allocFrees = 0;
    };

    PhaseTotals phases[static_cast<std::size_t>(
        ProfPhase::NumPhases)] = {};

    const PhaseTotals &
    operator[](ProfPhase phase) const
    {
        return phases[static_cast<std::size_t>(phase)];
    }

    PhaseTotals &
    operator[](ProfPhase phase)
    {
        return phases[static_cast<std::size_t>(phase)];
    }
};

/** Per-phase difference of two snapshots (b taken after a). */
ProfSnapshot profDelta(const ProfSnapshot &a, const ProfSnapshot &b);

/** Process-wide phase-time accumulator. */
class Profiler
{
  public:
    /** The global instance every ScopedPhaseTimer feeds. */
    static Profiler &global();

    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    void
    setEnabled(bool enabled)
    {
        enabled_.store(enabled, std::memory_order_relaxed);
    }

    /**
     * Fold one timed interval into a phase. Relaxed atomics: the
     * counters are monotonic tallies read only at report time, so
     * parallel sweep workers can feed the shared instance without
     * tearing (individual adds never order against each other).
     */
    void
    add(ProfPhase phase, std::uint64_t ns)
    {
        const auto i = static_cast<std::size_t>(phase);
        ns_[i].fetch_add(ns, std::memory_order_relaxed);
        calls_[i].fetch_add(1, std::memory_order_relaxed);
    }

    std::uint64_t
    ns(ProfPhase phase) const
    {
        return ns_[static_cast<std::size_t>(phase)].load(
            std::memory_order_relaxed);
    }

    std::uint64_t
    calls(ProfPhase phase) const
    {
        return calls_[static_cast<std::size_t>(phase)].load(
            std::memory_order_relaxed);
    }

    /**
     * Install (or clear, with nullptr) the allocation probe the
     * scoped timers sample around each interval. The probe must be
     * callable from any thread and must not allocate.
     */
    void
    setAllocProbe(ProfAllocProbe probe)
    {
        allocProbe_.store(probe, std::memory_order_relaxed);
    }

    ProfAllocProbe
    allocProbe() const
    {
        return allocProbe_.load(std::memory_order_relaxed);
    }

    /** Fold one interval's allocation delta into a phase. */
    void
    addAlloc(ProfPhase phase, const ProfAllocSample &delta)
    {
        const auto i = static_cast<std::size_t>(phase);
        allocBytes_[i].fetch_add(delta.bytes,
                                 std::memory_order_relaxed);
        allocCalls_[i].fetch_add(delta.calls,
                                 std::memory_order_relaxed);
        allocFrees_[i].fetch_add(delta.frees,
                                 std::memory_order_relaxed);
    }

    /**
     * Consistent-enough copy of all accumulators (each counter is
     * read atomically; pairs may skew by an in-flight add, which a
     * report-time reader cannot observe anyway).
     */
    ProfSnapshot snapshot() const;

    /** Zero all accumulators (enabled flag unchanged). */
    void reset();

    /** Register `prof.<phase>.{ns,calls}` onto a registry. */
    void registerStats(StatsRegistry &registry) const;

    /** Human-readable per-phase table (empty if nothing timed). */
    std::string report() const;

  private:
    static constexpr std::size_t numPhases =
        static_cast<std::size_t>(ProfPhase::NumPhases);

    std::atomic<bool> enabled_{false};
    std::atomic<std::uint64_t> ns_[numPhases] = {};
    std::atomic<std::uint64_t> calls_[numPhases] = {};
    std::atomic<std::uint64_t> allocBytes_[numPhases] = {};
    std::atomic<std::uint64_t> allocCalls_[numPhases] = {};
    std::atomic<std::uint64_t> allocFrees_[numPhases] = {};
    /** Allocation-tally reader (null until a meter installs one). */
    std::atomic<ProfAllocProbe> allocProbe_{nullptr};
};

/**
 * RAII timer for one phase interval. When the global profiler is
 * disabled the constructor is a single branch and the destructor a
 * dead test — cheap enough to sit inside per-epoch code paths
 * unconditionally.
 */
class ScopedPhaseTimer
{
  public:
    explicit ScopedPhaseTimer(ProfPhase phase)
        : phase_(phase), active_(Profiler::global().enabled())
    {
        if (active_) {
            start_ = std::chrono::steady_clock::now();
            probe_ = Profiler::global().allocProbe();
            if (probe_)
                alloc0_ = probe_();
        }
    }

    ~ScopedPhaseTimer()
    {
        if (active_) {
            const auto end = std::chrono::steady_clock::now();
            Profiler &prof = Profiler::global();
            prof.add(
                phase_,
                static_cast<std::uint64_t>(
                    std::chrono::duration_cast<
                        std::chrono::nanoseconds>(end - start_)
                        .count()));
            if (probe_) {
                const ProfAllocSample now = probe_();
                prof.addAlloc(
                    phase_,
                    ProfAllocSample{
                        satSub(now.bytes, alloc0_.bytes),
                        satSub(now.calls, alloc0_.calls),
                        satSub(now.frees, alloc0_.frees)});
            }
        }
    }

    ScopedPhaseTimer(const ScopedPhaseTimer &) = delete;
    ScopedPhaseTimer &operator=(const ScopedPhaseTimer &) = delete;

  private:
    ProfPhase phase_;
    bool active_;
    std::chrono::steady_clock::time_point start_;
    /** Alloc probe captured at construction (null = no metering). */
    ProfAllocProbe probe_ = nullptr;
    ProfAllocSample alloc0_;
};

} // namespace morphcache

#endif // MORPHCACHE_STATS_PROFILER_HH
