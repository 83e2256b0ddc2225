#include "runner/run_factory.hh"

#include <cstdio>

#include "baselines/dsr.hh"
#include "baselines/pipp.hh"
#include "baselines/ucp.hh"
#include "check/invariant.hh"
#include "common/error.hh"
#include "sim/config.hh"
#include "workload/trace.hh"

namespace morphcache {

namespace {

std::unique_ptr<Workload>
makeWorkload(const RunSpec &spec, const GeneratorParams &gen,
             bool &shared_space)
{
    shared_space = false;
    const auto colon = spec.workload.find(':');
    if (colon == std::string::npos)
        throw ConfigError("bad workload '" + spec.workload + "'");
    const std::string kind = spec.workload.substr(0, colon);
    const std::string arg = spec.workload.substr(colon + 1);

    if (kind == "mix") {
        char name[16];
        std::snprintf(name, sizeof(name), "MIX %02d",
                      std::atoi(arg.c_str()));
        MixSpec mix = mixByName(name);
        if (spec.cores < mix.benchmarks.size())
            mix.benchmarks.resize(spec.cores);
        return std::make_unique<MixWorkload>(mix, gen, spec.seed);
    }
    if (kind == "parsec") {
        const BenchmarkProfile &profile = profileByName(arg);
        if (!profile.multithreaded) {
            throw ConfigError("'" + arg +
                              "' is not a PARSEC benchmark");
        }
        shared_space = true;
        return std::make_unique<MultithreadedWorkload>(
            profile, spec.cores, gen, spec.seed);
    }
    if (kind == "trace") {
        Trace trace = readTrace(arg);
        return std::make_unique<TraceWorkload>(std::move(trace));
    }
    throw ConfigError("unknown workload kind '" + kind + "'");
}

} // namespace

std::unique_ptr<MemorySystem>
makeSchemeSystem(const std::string &scheme,
                 const HierarchyParams &hier, std::uint32_t cores,
                 const MorphConfig &morph_config)
{
    if (scheme == "morph")
        return std::make_unique<MorphCacheSystem>(hier, morph_config);
    if (scheme == "pipp")
        return std::make_unique<PippSystem>(hier);
    if (scheme == "dsr")
        return std::make_unique<DsrSystem>(hier);
    if (scheme == "ucp")
        return std::make_unique<UcpSystem>(hier);
    if (scheme.rfind("static:", 0) == 0) {
        unsigned x = 0, y = 0, z = 0;
        if (std::sscanf(scheme.c_str(), "static:%u:%u:%u", &x, &y,
                        &z) != 3) {
            throw ConfigError("bad static scheme '" + scheme + "'");
        }
        return std::make_unique<StaticTopologySystem>(
            hier, Topology::symmetric(cores, x, y, z));
    }
    throw ConfigError("unknown scheme '" + scheme + "'");
}

BuiltRun
buildRun(const RunSpec &spec)
{
    HierarchyParams hier = spec.paperScale
                               ? paperScaleHierarchy(spec.cores)
                               : fastScaleHierarchy(spec.cores);
    const GeneratorParams gen = generatorFor(hier);

    BuiltRun run;
    run.workload = makeWorkload(spec, gen, run.sharedSpace);
    hier.coherence = run.sharedSpace;

    MorphConfig morph;
    morph.sharedAddressSpace = run.sharedSpace;
    morph.checkPolicy = checkPolicyFromName(spec.checkPolicy);
    morph.quarantineCleanEpochs = spec.quarantine;
    morph.faults = spec.faults;

    run.system = makeSchemeSystem(spec.scheme, hier, spec.cores,
                                  morph);
    run.sim.epochs = spec.epochs;
    run.sim.refsPerEpochPerCore = spec.refs;
    return run;
}

} // namespace morphcache
