/**
 * @file
 * End-to-end tests of tools/mc_analyze (the AST-level semantic
 * analyzer) driven through python3.
 *
 * Every rule gets a mutation-catching pair: a seeded-bug fixture
 * the analyzer MUST flag and a clean fixture it must stay silent
 * on — so a regression that blinds a pass fails these tests, not
 * just the lint run it was supposed to protect. The allowlist,
 * cache, clang-extraction selftest, and the deliberate-omission
 * drill (add a member to a real checkpointed class, prove the
 * analyzer objects) ride the same harness.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

bool
havePython()
{
    return std::system("python3 -c 'pass' > /dev/null 2>&1") == 0;
}

struct RunResult
{
    int exit = -1;
    std::string output;
};

/**
 * A TempDir path private to the running test: ctest runs every case
 * as its own process, in parallel, so no two cases may share one.
 */
std::string
testTempPath(const std::string &suffix)
{
    return ::testing::TempDir() + "mc_analyze_" +
           ::testing::UnitTest::GetInstance()
               ->current_test_info()
               ->name() +
           "_" + std::to_string(::getpid()) + "_" + suffix;
}

/** Run mc_analyze with `args`, capturing exit code and output. */
RunResult
runAnalyze(const std::string &args)
{
    const std::string out = testTempPath("out.txt");
    const std::string cmd = "python3 " MC_SOURCE_DIR
                            "/tools/mc_analyze " +
                            args + " > '" + out + "' 2>&1";
    const int status = std::system(cmd.c_str());
    RunResult r;
    r.exit = status < 0 ? status : WEXITSTATUS(status);
    std::ifstream in(out);
    std::stringstream ss;
    ss << in.rdbuf();
    r.output = ss.str();
    std::remove(out.c_str());
    return r;
}

/** Fixture-mode run against one file under tests/analyze_fixtures,
 *  with the repo allowlist replaced by `allowlist` (empty = none;
 *  the real tree's entries must not leak into fixture runs). */
RunResult
runFixture(const std::string &name, const std::string &allowlist)
{
    return runAnalyze("--repo-root " MC_SOURCE_DIR
                      " --fixture-mode --cache-dir '' --allowlist '" +
                      (allowlist.empty() ? "/dev/null" : allowlist) +
                      "' tests/analyze_fixtures/" + name);
}

std::string
writeTempFile(const std::string &name, const std::string &content)
{
    const std::string path = ::testing::TempDir() + name;
    std::ofstream out(path);
    out << content;
    return path;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

} // namespace

TEST(Analyze, CleanTreePasses)
{
    if (!havePython())
        GTEST_SKIP() << "python3 not available";
    const RunResult r = runAnalyze(
        "--repo-root " MC_SOURCE_DIR " --cache-dir '' -q");
    EXPECT_EQ(r.exit, 0) << r.output;
}

TEST(Analyze, WrapSafetyFixtures)
{
    if (!havePython())
        GTEST_SKIP() << "python3 not available";
    const RunResult bug = runFixture("wrap_bug.cc", "");
    EXPECT_EQ(bug.exit, 1) << bug.output;
    // All three shapes: binary, compound, decrement.
    EXPECT_NE(bug.output.find("busyUntil - now"), std::string::npos)
        << bug.output;
    EXPECT_NE(bug.output.find("cycleBudget -= latency"),
              std::string::npos);
    EXPECT_NE(bug.output.find("satDec"), std::string::npos);

    const RunResult clean = runFixture("wrap_clean.cc", "");
    EXPECT_EQ(clean.exit, 0) << clean.output;
}

TEST(Analyze, SerializationFixtures)
{
    if (!havePython())
        GTEST_SKIP() << "python3 not available";
    const RunResult bug = runFixture("ckpt_bug.cc", "");
    EXPECT_EQ(bug.exit, 1) << bug.output;
    // Never-serialized member, save-only member, and a derived
    // annotation whose reconstruction site does not exist.
    EXPECT_NE(bug.output.find("missing_"), std::string::npos);
    EXPECT_NE(bug.output.find("halfDone_"), std::string::npos);
    EXPECT_NE(bug.output.find("badSite_"), std::string::npos);

    const RunResult clean = runFixture("ckpt_clean.cc", "");
    EXPECT_EQ(clean.exit, 0) << clean.output;
}

TEST(Analyze, DeterminismFixtures)
{
    if (!havePython())
        GTEST_SKIP() << "python3 not available";
    const RunResult bug = runFixture("det_bug.cc", "");
    EXPECT_EQ(bug.exit, 1) << bug.output;
    // All four sub-checks fire on the one fixture.
    EXPECT_NE(bug.output.find("unordered container"),
              std::string::npos)
        << bug.output;
    EXPECT_NE(bug.output.find("rand()"), std::string::npos);
    EXPECT_NE(bug.output.find("[wall-clock]"), std::string::npos);
    EXPECT_NE(bug.output.find("[stats-bypass]"), std::string::npos);
    // Clock aliases at namespace and function scope, and entropy in
    // a namespace-scope initializer.
    EXPECT_NE(bug.output.find("(site: <file>:steady_clock)"),
              std::string::npos);
    EXPECT_NE(bug.output.find("(site: sampleWall:system_clock)"),
              std::string::npos);
    EXPECT_NE(bug.output.find("(site: kJ:rand)"), std::string::npos);

    const RunResult clean = runFixture("det_clean.cc", "");
    EXPECT_EQ(clean.exit, 0) << clean.output;
}

TEST(Analyze, ConcurrencyFixtures)
{
    if (!havePython())
        GTEST_SKIP() << "python3 not available";
    const RunResult bug = runFixture("conc_bug.cc", "");
    EXPECT_EQ(bug.exit, 1) << bug.output;
    // Member write and by-reference-capture write, both from the
    // worker lambda.
    EXPECT_NE(bug.output.find("completed_"), std::string::npos)
        << bug.output;
    EXPECT_NE(bug.output.find("sharedTally"), std::string::npos);

    const RunResult clean = runFixture("conc_clean.cc", "");
    EXPECT_EQ(clean.exit, 0) << clean.output;
}

TEST(Analyze, ConventionsFixtures)
{
    if (!havePython())
        GTEST_SKIP() << "python3 not available";
    // Each structural rule: a seeded-bug fixture and the sites it
    // must report. Fixtures under src/ stand in for the same path in
    // the real tree, which is how the path-dependent rules are
    // exercised.
    const struct
    {
        const char *fixture;
        const char *check;
        std::vector<std::string> sites;
    } bugs[] = {
        {"globals_bug.cc",
         "[globals]",
         {"gRefsSeen", "sLastEpoch", "gHistogram", "gAfterCtor"}},
        {"write_bug.cc",
         "[atomic-write]",
         {"dumpReport:fopen", "dumpReport:ofstream"}},
        {"publish_bug.cc",
         "[manifest-write]",
         {"publish:rename", "publish:link"}},
        {"vfsio_bug.cc",
         "[vfs-io]",
         {"persist:mkdir", "persist:open", "persist:write",
          "persist:fsync", "persist:unlink"}},
        {"src/conv/include_bug.cc",
         "[includes]",
         {"bits/stdc++.h", "resolve:guard_clean.hh"}},
        {"src/conv/guard_bug.hh",
         "[includes]",
         {"guard"}},
        {"src/conv/own_bug.cc", "[includes]", {"own-header"}},
    };
    for (const auto &b : bugs) {
        const RunResult r = runFixture(b.fixture, "");
        EXPECT_EQ(r.exit, 1) << b.fixture << "\n" << r.output;
        EXPECT_NE(r.output.find(b.check), std::string::npos)
            << b.fixture << "\n" << r.output;
        for (const std::string &site : b.sites)
            EXPECT_NE(r.output.find("(site: " + site + ")"),
                      std::string::npos)
                << b.fixture << " missing " << site << "\n"
                << r.output;
    }
    // The clean counterparts, including the sanctioned files: the
    // raw calls that fail the bug fixtures pass at the seam's path.
    for (const char *clean :
         {"globals_clean.cc", "write_clean.cc", "publish_clean.cc",
          "vfsio_clean.cc", "src/conv/include_clean.cc",
          "src/conv/include_clean.hh", "src/conv/guard_clean.hh",
          "src/conv/own_bug.hh", "src/io/vfs.cc", "src/perf/clock.cc",
          "src/common/logging.cc"}) {
        const RunResult r = runFixture(clean, "");
        EXPECT_EQ(r.exit, 0) << clean << "\n" << r.output;
    }
}

TEST(Analyze, AllowlistPermitsAuditedSites)
{
    if (!havePython())
        GTEST_SKIP() << "python3 not available";
    const std::string allow = writeTempFile(
        "analyze_allow_ok.txt",
        "concurrency:tests/analyze_fixtures/conc_bug.cc:"
        "<lambda>:completed_ -- audited: test entry\n"
        "concurrency:tests/analyze_fixtures/conc_bug.cc:"
        "<lambda>:sharedTally -- audited: test entry\n");
    const RunResult r = runFixture("conc_bug.cc", allow);
    EXPECT_EQ(r.exit, 0) << r.output;
}

TEST(Analyze, AllowlistStaleAndMalformedEntriesFail)
{
    if (!havePython())
        GTEST_SKIP() << "python3 not available";
    const std::string stale = writeTempFile(
        "analyze_allow_stale.txt",
        "wrap-safety:src/nonexistent.cc:foo:a-b -- gone\n");
    const RunResult r1 = runFixture("wrap_clean.cc", stale);
    EXPECT_EQ(r1.exit, 1) << r1.output;
    EXPECT_NE(r1.output.find("stale entry"), std::string::npos);

    const std::string malformed = writeTempFile(
        "analyze_allow_bad.txt", "no separator or key here\n");
    const RunResult r2 = runFixture("wrap_clean.cc", malformed);
    EXPECT_EQ(r2.exit, 1) << r2.output;
    EXPECT_NE(r2.output.find("malformed"), std::string::npos);
}

TEST(Analyze, CacheHitsAndContentInvalidation)
{
    if (!havePython())
        GTEST_SKIP() << "python3 not available";
    const std::string src = writeTempFile(
        "cache_probe.cc",
        readFile(MC_SOURCE_DIR
                 "/tests/analyze_fixtures/wrap_clean.cc"));
    const std::string cache = testTempPath("an_cache");
    // Start from nothing: a leftover cache dir would make the
    // "cold" run hit (same content, same hash key).
    std::filesystem::remove_all(cache);
    // wrap-safety only: the probe's project include does not
    // resolve under the temp root, and the cache is per file, not
    // per pass.
    const std::string args = "--repo-root '" +
                             ::testing::TempDir() +
                             "' --fixture-mode --checks wrap-safety "
                             "--allowlist "
                             "/dev/null --cache-dir '" +
                             cache + "' cache_probe.cc";

    const RunResult cold = runAnalyze(args);
    EXPECT_EQ(cold.exit, 0) << cold.output;
    EXPECT_NE(cold.output.find("(0 cached, 1 parsed)"),
              std::string::npos)
        << cold.output;

    const RunResult warm = runAnalyze(args);
    EXPECT_NE(warm.output.find("(1 cached, 0 parsed)"),
              std::string::npos)
        << warm.output;

    // Any byte change misses: the key is the content hash.
    std::ofstream(src, std::ios::app) << "// touched\n";
    const RunResult touched = runAnalyze(args);
    EXPECT_NE(touched.output.find("(0 cached, 1 parsed)"),
              std::string::npos)
        << touched.output;
    std::filesystem::remove_all(cache);
}

TEST(Analyze, AddingUnserializedMemberFailsTheBuild)
{
    if (!havePython())
        GTEST_SKIP() << "python3 not available";
    // The ISSUE's acceptance drill, against *real* code: take a
    // checkpointed class (PlruTree), add a member, leave
    // saveState/loadState untouched — the analyzer must object.
    std::string header =
        readFile(MC_SOURCE_DIR "/src/mem/replacement.hh");
    const std::string anchor = "std::uint64_t bits_ = 0;";
    const std::size_t at = header.find(anchor);
    ASSERT_NE(at, std::string::npos)
        << "replacement.hh anchor moved; update this test";
    header.insert(at + anchor.size(),
                  "\n    std::uint64_t newField_ = 0;");
    writeTempFile("omission_probe.hh", header);

    const RunResult r = runAnalyze(
        "--repo-root '" + ::testing::TempDir() +
        "' --fixture-mode --cache-dir '' --allowlist /dev/null "
        "--checks serialization omission_probe.hh");
    EXPECT_EQ(r.exit, 1) << r.output;
    EXPECT_NE(r.output.find("newField_"), std::string::npos)
        << r.output;
}

TEST(Analyze, ClangExtractionSelftest)
{
    if (!havePython())
        GTEST_SKIP() << "python3 not available";
    // The clang JSON decl-extraction path, pinned without a clang
    // binary: a synthetic -ast-dump=json fixture with sticky
    // locations and an other-file decl that must be filtered out.
    const RunResult r = runAnalyze(
        "--selftest-clang-extract " MC_SOURCE_DIR
        "/tests/analyze_fixtures/clang_dump.json");
    EXPECT_EQ(r.exit, 0) << r.output;
    EXPECT_NE(r.output.find("aliases: Cycle -> std::uint64_t"),
              std::string::npos)
        << r.output;
    EXPECT_NE(
        r.output.find("members: Bus.busyUntil_ -> std::vector"),
        std::string::npos);
    EXPECT_NE(r.output.find("params: wait.now -> Cycle"),
              std::string::npos);
    EXPECT_NE(r.output.find("rets: latency -> Cycle"),
              std::string::npos);
    // Sticky-file tracking: the /usr/include decl is not ours.
    EXPECT_EQ(r.output.find("excluded_"), std::string::npos)
        << r.output;
}
