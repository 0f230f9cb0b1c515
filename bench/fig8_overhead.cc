/**
 * @file
 * Figure 8 reproduction (inferred from the abstract and Section VI's
 * goals): production-run execution overhead of ACT with the default
 * configuration — 2 multiply-add units per neuron, 8-entry input FIFO.
 * The paper's headline number is an average overhead of 8.2%.
 *
 * Overhead sources in the model: retire stalls when the AM's input
 * FIFO back-pressures completed loads (4x service time while the
 * module is in online-training mode), plus the ldwt/stwt weight
 * transfers at thread start/exit and context switches.
 */

#include "bench/bench_util.hh"

namespace act
{
namespace
{

using bench::format;

OverheadMeasurement
measure(const Workload &workload)
{
    // Offline-train so the production run starts in testing mode.
    PairEncoder encoder;
    OfflineTrainingConfig training = bench::standardTraining(6);
    training.trainer.max_epochs = 300;
    const TrainedModel model = offlineTrain(workload, encoder, training);

    WorkloadParams params;
    params.seed = 300;
    return measureOverhead(workload, model, workload.record(params),
                           SystemConfig{});
}

void
run()
{
    bench::banner("Figure 8: execution overhead (default config)",
                  "abstract / Section VI goal (iii): average overhead "
                  "8.2% with 2 multiply-add units and an 8-entry FIFO");

    const bench::Table table({16, 14, 14, 12, 12, 10});
    table.row({"program", "base cycles", "ACT cycles", "stalls",
               "mode sw.", "overhead"});
    table.rule();

    const auto count = [](std::uint64_t v) {
        return format("%llu", static_cast<unsigned long long>(v));
    };
    OnlineStats overhead;
    for (const auto &name : predictionKernelNames()) {
        const auto workload = makeWorkload(name);
        const OverheadMeasurement r = measure(*workload);
        overhead.add(r.overhead);
        table.row({name, count(r.baseline.cycles), count(r.act.cycles),
                   count(r.act.act.stall_cycles),
                   count(r.act.act.mode_switches),
                   format("%.1f%%", r.overhead * 100.0)});
    }
    table.rule();
    table.row({"average", "", "", "", "",
               format("%.1f%%", overhead.mean() * 100.0)});
    std::printf("\npaper: 8.2%% average execution overhead for the "
                "default configuration.\n");
}

} // namespace
} // namespace act

int
main()
{
    act::registerAllWorkloads();
    act::run();
    return 0;
}
