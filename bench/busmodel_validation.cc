/**
 * @file
 * Validation of the fast segmented-bus queueing model against the
 * cycle-level arbiter-tree simulator, across offered load and
 * sharing degree. The CMP simulator uses the queueing model on its
 * hot path; this bench quantifies what that approximation costs.
 * BusSim.AgreesWithQueueingModelWhenUncontended gates the low- and
 * moderate-load rows of this table.
 */

#include <cstdio>
#include <vector>

#include "common/rng.hh"
#include "interconnect/bus_sim.hh"

using namespace morphcache;

namespace {

void
compareModels()
{
    std::printf("queueing model vs cycle-level simulator: average "
                "transaction latency (CPU cycles)\n");
    std::printf("%-10s %-12s %12s %12s %10s\n", "sharing",
                "interarrival", "cycle-level", "queueing",
                "abs diff");

    for (std::uint32_t group : {2u, 4u, 16u}) {
        for (Cycle gap : {Cycle{200}, Cycle{60}, Cycle{25}}) {
            BusParams params;
            SegmentedBusSim sim(16, params);
            SegmentedBus model(16, params);
            std::vector<std::uint32_t> part(16);
            for (std::uint32_t i = 0; i < 16; ++i)
                part[i] = i / group;
            sim.configure(part);
            model.configure(part);

            Rng rng(7);
            double model_total = 0.0;
            const int n = 3000;
            Cycle t = 0;
            for (int i = 0; i < n; ++i) {
                t += rng.below(2 * gap) + 1;
                const auto slice =
                    static_cast<SliceId>(rng.below(16));
                sim.request(slice, t);
                model_total += static_cast<double>(
                    model.transact(slice, t));
            }
            sim.advanceTo(t + 100000);
            std::printf("%-10u %-12llu %12.1f %12.1f %10.1f\n",
                        group,
                        static_cast<unsigned long long>(gap),
                        sim.averageLatency(), model_total / n,
                        sim.averageLatency() - model_total / n);
        }
    }
    std::printf("(the queueing model has no bus-edge alignment and "
                "caps cross-clock waits; agreement within a few "
                "cycles is the design target)\n\n");
}

} // namespace

int
main()
{
    compareModels();
    return 0;
}
