#include "layers.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>

#include "perf/benchstat.hh"
#include "perf/clock.hh"

using namespace morphcache;

namespace perfbench {

const std::array<const char *, numServedBuckets> servedNames = {
    "l1",        "l2_local",    "l2_remote", "l3_local",
    "l3_remote", "other_group", "memory",
};

double
Tally::netMeanNs(double timer_ns) const
{
    if (calls == 0)
        return 0.0;
    const double mean =
        static_cast<double>(ns) / static_cast<double>(calls);
    return std::max(0.0, mean - timer_ns);
}

double
calibrateTimerNs()
{
    // Median of several batches of back-to-back clock pairs: the
    // per-reference tallies subtract this from every call.
    std::vector<double> batches;
    for (int b = 0; b < 9; ++b) {
        constexpr int pairs = 20000;
        std::uint64_t sum = 0;
        for (int i = 0; i < pairs; ++i) {
            const std::uint64_t t0 = perfNowNs();
            const std::uint64_t t1 = perfNowNs();
            sum += t1 - t0;
        }
        batches.push_back(static_cast<double>(sum) / pairs);
    }
    return median(batches);
}

int
SpanLog::open(std::string name, int parent)
{
    Span span;
    span.name = std::move(name);
    span.parent = parent;
    span.start = perfNowNs();
    spans_.push_back(std::move(span));
    return static_cast<int>(spans_.size() - 1);
}

void
SpanLog::close(int index)
{
    spans_[static_cast<std::size_t>(index)].end = perfNowNs();
}

std::string
SpanLog::chromeJson() const
{
    const std::uint64_t origin = spans_.empty() ? 0 : spans_[0].start;
    std::string out = "{\"traceEvents\":[\n";
    char buf[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(buf, sizeof(buf),
                      "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                      "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                      "\"args\":{\"id\":%zu,\"parent\":%d}}",
                      i == 0 ? "" : ",\n", s.name.c_str(),
                      static_cast<double>(s.start - origin) / 1e3,
                      static_cast<double>(s.end - s.start) / 1e3, i,
                      s.parent);
        out += buf;
    }
    out += "\n]}\n";
    return out;
}

void
LayerTally::merge(const LayerTally &o)
{
    next.merge(o.next);
    access.merge(o.access);
    for (std::size_t b = 0; b < numServedBuckets; ++b)
        served[b].merge(o.served[b]);
    boundary.merge(o.boundary);
}

MemAccess
TimedWorkload::next(CoreId core)
{
    const std::uint64_t t0 = perfNowNs();
    const MemAccess a = inner_.next(core);
    tally_.add(perfNowNs() - t0);
    return a;
}

AccessResult
TimedSystem::access(const MemAccess &a, Cycle now)
{
    const std::uint64_t t0 = perfNowNs();
    const AccessResult r = inner_.access(a, now);
    const std::uint64_t dt = perfNowNs() - t0;
    tally_.access.add(dt);
    tally_.served[static_cast<std::size_t>(r.servedBy)].add(dt);
    return r;
}

void
TimedSystem::epochBoundary()
{
    const int span = spans_.open("epochBoundary", epochSpan_);
    const std::uint64_t t0 = perfNowNs();
    inner_.epochBoundary();
    tally_.boundary.add(perfNowNs() - t0);
    spans_.close(span);
}

namespace {

bool
isCkptPath(const std::string &path)
{
    return path.find(".ckpt") != std::string::npos;
}

} // namespace

bool
TimingVfs::fdIsCkpt(int fd)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = ckptFds_.find(fd);
    return it != ckptFds_.end() && it->second;
}

void
TimingVfs::result(long rc, bool ckpt, std::uint64_t dt)
{
    // -ENOENT / -EEXIST answer absence and presence probes the
    // callers expect (first checkpoint rotation, stale-state
    // clearing, lease claim races); every other errno is a failure.
    if (rc < 0 && rc != -ENOENT && rc != -EEXIST)
        failedOps_.fetch_add(1, std::memory_order_relaxed);
    if (ckpt)
        ckptNs_.fetch_add(dt, std::memory_order_relaxed);
}

int
TimingVfs::openFile(const std::string &path, int flags,
                    unsigned int mode)
{
    const std::uint64_t t0 = perfNowNs();
    const int fd = inner_.openFile(path, flags, mode);
    const bool ckpt = isCkptPath(path);
    result(fd, ckpt, perfNowNs() - t0);
    if (fd >= 0) {
        std::lock_guard<std::mutex> lock(mutex_);
        ckptFds_[fd] = ckpt;
    }
    return fd;
}

long
TimingVfs::readFd(int fd, void *buf, std::size_t n)
{
    const long rc = inner_.readFd(fd, buf, n);
    result(rc, false, 0);
    return rc;
}

long
TimingVfs::writeFd(int fd, const void *buf, std::size_t n)
{
    const bool ckpt = fdIsCkpt(fd);
    const std::uint64_t t0 = perfNowNs();
    const long rc = inner_.writeFd(fd, buf, n);
    result(rc, ckpt, perfNowNs() - t0);
    writeCalls_.fetch_add(1, std::memory_order_relaxed);
    if (rc > 0) {
        const auto landed = static_cast<std::uint64_t>(rc);
        bytesWritten_.fetch_add(landed, std::memory_order_relaxed);
        if (ckpt)
            ckptBytes_.fetch_add(landed, std::memory_order_relaxed);
    }
    return rc;
}

int
TimingVfs::fsyncFd(int fd)
{
    const bool ckpt = fdIsCkpt(fd);
    const std::uint64_t t0 = perfNowNs();
    const int rc = inner_.fsyncFd(fd);
    const std::uint64_t dt = perfNowNs() - t0;
    result(rc, ckpt, dt);
    fsyncCalls_.fetch_add(1, std::memory_order_relaxed);
    fsyncNs_.fetch_add(dt, std::memory_order_relaxed);
    return rc;
}

int
TimingVfs::closeFd(int fd)
{
    bool ckpt = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = ckptFds_.find(fd);
        if (it != ckptFds_.end()) {
            ckpt = it->second;
            ckptFds_.erase(it);
        }
    }
    const std::uint64_t t0 = perfNowNs();
    const int rc = inner_.closeFd(fd);
    result(rc, ckpt, perfNowNs() - t0);
    return rc;
}

int
TimingVfs::renamePath(const std::string &from, const std::string &to)
{
    const std::uint64_t t0 = perfNowNs();
    const int rc = inner_.renamePath(from, to);
    result(rc, isCkptPath(to), perfNowNs() - t0);
    renameCalls_.fetch_add(1, std::memory_order_relaxed);
    return rc;
}

int
TimingVfs::linkPath(const std::string &from, const std::string &to)
{
    const int rc = inner_.linkPath(from, to);
    result(rc, false, 0);
    return rc;
}

int
TimingVfs::unlinkPath(const std::string &path)
{
    const std::uint64_t t0 = perfNowNs();
    const int rc = inner_.unlinkPath(path);
    result(rc, isCkptPath(path), perfNowNs() - t0);
    return rc;
}

int
TimingVfs::truncatePath(const std::string &path, std::uint64_t len)
{
    const int rc = inner_.truncatePath(path, len);
    result(rc, false, 0);
    return rc;
}

int
TimingVfs::mkdirPath(const std::string &path)
{
    const int rc = inner_.mkdirPath(path);
    result(rc, false, 0);
    return rc;
}

bool
TimingVfs::existsPath(const std::string &path)
{
    return inner_.existsPath(path);
}

void
TimingVfs::sleepMs(std::uint64_t ms)
{
    inner_.sleepMs(ms);
}

IoCounts
TimingVfs::counts() const
{
    IoCounts c;
    c.writeCalls = writeCalls_.load(std::memory_order_relaxed);
    c.bytesWritten = bytesWritten_.load(std::memory_order_relaxed);
    c.fsyncCalls = fsyncCalls_.load(std::memory_order_relaxed);
    c.fsyncNs = fsyncNs_.load(std::memory_order_relaxed);
    c.renameCalls = renameCalls_.load(std::memory_order_relaxed);
    c.failedOps = failedOps_.load(std::memory_order_relaxed);
    c.ckptNs = ckptNs_.load(std::memory_order_relaxed);
    c.ckptBytes = ckptBytes_.load(std::memory_order_relaxed);
    return c;
}

} // namespace perfbench
