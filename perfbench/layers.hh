/**
 * @file
 * Outside-in layer tracing for the benchmark's traced run.
 *
 * The simulator is driven through its public seams only: a
 * TimedWorkload wraps the Workload the Simulation pulls references
 * from, a TimedSystem wraps the MemorySystem it sends them to, and a
 * TimingVfs sits under every durable byte the runner, checkpoint and
 * stats layers write. Each wrapper forwards every call unchanged, so
 * a traced cell computes exactly what an untraced one does (the
 * driver checks that by digest), and tallies call counts plus summed
 * host nanoseconds at the boundary it owns.
 *
 * Per-reference calls are aggregated (count + ns); coarse events
 * (cell, epoch, epoch boundary, stats snapshot, dump) are kept as
 * spans in memory and written out when the run ends.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "io/vfs.hh"
#include "sim/memory_system.hh"
#include "workload/generator.hh"

namespace perfbench {

/** AccessResult::servedBy buckets, in enum order. */
constexpr std::size_t numServedBuckets = 7;
extern const std::array<const char *, numServedBuckets> servedNames;

/** Calls through one boundary and the host time they took. */
struct Tally
{
    std::uint64_t calls = 0;
    std::uint64_t ns = 0;
    std::uint64_t maxNs = 0;

    void
    add(std::uint64_t dt)
    {
        ++calls;
        ns += dt;
        if (dt > maxNs)
            maxNs = dt;
    }

    void
    merge(const Tally &o)
    {
        calls += o.calls;
        ns += o.ns;
        if (o.maxNs > maxNs)
            maxNs = o.maxNs;
    }

    /** Mean ns per call, net of `timer_ns` (the cost of an empty
     *  timed region), never below zero. */
    double netMeanNs(double timer_ns) const;
};

/** Host cost of one empty timed region (two clock reads), ns. */
double calibrateTimerNs();

/** A named interval; `parent` indexes the enclosing span (-1 =
 *  root). Spans of one cell share its root. */
struct Span
{
    std::string name;
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    int parent = -1;
};

/** In-memory span store (single-threaded use). */
class SpanLog
{
  public:
    int open(std::string name, int parent);
    void close(int index);

    /** Chrome trace-event JSON of every span. */
    std::string chromeJson() const;

  private:
    std::vector<Span> spans_;
};

/** Everything the reference-path wrappers tally. */
struct LayerTally
{
    Tally next;
    Tally access;
    std::array<Tally, numServedBuckets> served{};
    Tally boundary;

    void merge(const LayerTally &o);
};

/** Times Workload::next; forwards everything. */
class TimedWorkload : public morphcache::Workload
{
  public:
    TimedWorkload(morphcache::Workload &inner, Tally &tally)
        : inner_(inner), tally_(tally)
    {
    }

    morphcache::MemAccess next(morphcache::CoreId core) override;
    void beginEpoch(morphcache::EpochId epoch) override
    {
        inner_.beginEpoch(epoch);
    }
    bool sharedAddressSpace() const override
    {
        return inner_.sharedAddressSpace();
    }
    std::uint32_t numCores() const override
    {
        return inner_.numCores();
    }
    std::unique_ptr<morphcache::Workload> clone() const override
    {
        return inner_.clone();
    }
    std::string name() const override { return inner_.name(); }
    void saveState(morphcache::CkptWriter &w) const override
    {
        inner_.saveState(w);
    }
    void loadState(morphcache::CkptReader &r) override
    {
        inner_.loadState(r);
    }

  private:
    morphcache::Workload &inner_;
    Tally &tally_;
};

/**
 * Times MemorySystem::access (bucketed by servedBy) and
 * epochBoundary (also recorded as a span under `*epochSpan`);
 * forwards everything.
 */
class TimedSystem : public morphcache::MemorySystem
{
  public:
    TimedSystem(morphcache::MemorySystem &inner, LayerTally &tally,
                SpanLog &spans, const int &epochSpan)
        : inner_(inner), tally_(tally), spans_(spans),
          epochSpan_(epochSpan)
    {
    }

    morphcache::AccessResult access(const morphcache::MemAccess &a,
                                    morphcache::Cycle now) override;
    void epochBoundary() override;
    const morphcache::CoreStats &
    coreStats(morphcache::CoreId core) const override
    {
        return inner_.coreStats(core);
    }
    std::uint32_t numCores() const override
    {
        return inner_.numCores();
    }
    std::string name() const override { return inner_.name(); }
    void registerStats(morphcache::StatsRegistry &r) override
    {
        inner_.registerStats(r);
    }
    void setTracer(morphcache::Tracer *t) override
    {
        inner_.setTracer(t);
    }
    void saveState(morphcache::CkptWriter &w) const override
    {
        inner_.saveState(w);
    }
    void loadState(morphcache::CkptReader &r) override
    {
        inner_.loadState(r);
    }

  private:
    morphcache::MemorySystem &inner_;
    LayerTally &tally_;
    SpanLog &spans_;
    const int &epochSpan_;
};

/** Totals of a TimingVfs (a plain copy of its atomics). */
struct IoCounts
{
    std::uint64_t writeCalls = 0;
    std::uint64_t bytesWritten = 0;
    std::uint64_t fsyncCalls = 0;
    std::uint64_t fsyncNs = 0;
    std::uint64_t renameCalls = 0;
    std::uint64_t failedOps = 0;
    /** Host ns of every operation on a checkpoint file (`*.ckpt*`). */
    std::uint64_t ckptNs = 0;
    std::uint64_t ckptBytes = 0;
};

/**
 * Forwarding Vfs that counts and times the durable I/O above it.
 * Thread-safe: campaign worker threads write through it at once.
 */
class TimingVfs : public morphcache::Vfs
{
  public:
    explicit TimingVfs(morphcache::Vfs &inner) : inner_(inner) {}

    int openFile(const std::string &path, int flags,
                 unsigned int mode) override;
    long readFd(int fd, void *buf, std::size_t n) override;
    long writeFd(int fd, const void *buf, std::size_t n) override;
    int fsyncFd(int fd) override;
    int closeFd(int fd) override;
    int renamePath(const std::string &from,
                   const std::string &to) override;
    int linkPath(const std::string &from,
                 const std::string &to) override;
    int unlinkPath(const std::string &path) override;
    int truncatePath(const std::string &path,
                     std::uint64_t len) override;
    int mkdirPath(const std::string &path) override;
    bool existsPath(const std::string &path) override;
    void sleepMs(std::uint64_t ms) override;

    IoCounts counts() const;

  private:
    bool fdIsCkpt(int fd);
    void result(long rc, bool ckpt, std::uint64_t dt);

    morphcache::Vfs &inner_;
    std::mutex mutex_;
    /** Open fds that belong to checkpoint files (guarded). */
    std::map<int, bool> ckptFds_;
    std::atomic<std::uint64_t> writeCalls_{0};
    std::atomic<std::uint64_t> bytesWritten_{0};
    std::atomic<std::uint64_t> fsyncCalls_{0};
    std::atomic<std::uint64_t> fsyncNs_{0};
    std::atomic<std::uint64_t> renameCalls_{0};
    std::atomic<std::uint64_t> failedOps_{0};
    std::atomic<std::uint64_t> ckptNs_{0};
    std::atomic<std::uint64_t> ckptBytes_{0};
};

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
