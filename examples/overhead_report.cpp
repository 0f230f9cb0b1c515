/**
 * @file
 * Production-run cost accounting: runs one workload on the simulated
 * machine with and without ACT and breaks the added cycles down into
 * their sources (FIFO retire stalls, weight transfers, per-mode
 * behaviour) — the quantities behind the paper's 8.2% overhead claim.
 */

#include <cstdio>

#include "diagnosis/pipeline.hh"

int
main(int argc, char **argv)
{
    using namespace act;
    registerAllWorkloads();
    const std::string name = argc > 1 ? argv[1] : "lu";
    const auto workload = makeWorkload(name);
    std::printf("workload: %s\n  %s\n\n", workload->name().c_str(),
                workload->description().c_str());

    PairEncoder encoder;
    OfflineTrainingConfig training;
    training.traces = 6;
    training.trainer.max_epochs = 300;
    const TrainedModel model = offlineTrain(*workload, encoder, training);

    WorkloadParams params;
    params.seed = 777;
    const Trace trace = workload->record(params);

    const OverheadMeasurement measured =
        measureOverhead(*workload, model, trace, SystemConfig{});
    const SystemStats &base = measured.baseline;
    const SystemStats &act_stats = measured.act;

    std::printf("trace: %zu events, %llu instructions, %u threads\n\n",
                trace.size(),
                static_cast<unsigned long long>(trace.instructionCount()),
                workload->threadCount());

    std::printf("%-34s %14llu cycles\n", "baseline machine",
                static_cast<unsigned long long>(base.cycles));
    std::printf("%-34s %14llu cycles\n", "with ACT Modules",
                static_cast<unsigned long long>(act_stats.cycles));
    std::printf("%-34s %14.2f %%\n\n", "execution overhead",
                100.0 * measured.overhead);

    std::printf("cost breakdown:\n");
    std::printf("  %-32s %12llu\n", "dependences processed",
                static_cast<unsigned long long>(
                    act_stats.act.dependences));
    std::printf("  %-32s %12llu\n", "FIFO retire-stall cycles",
                static_cast<unsigned long long>(
                    act_stats.act.stall_cycles));
    std::printf("  %-32s %12llu\n", "stalled FIFO offers",
                static_cast<unsigned long long>(
                    act_stats.act.stalled_offers));
    std::printf("  %-32s %12llu\n", "weight-transfer instructions",
                static_cast<unsigned long long>(
                    act_stats.weight_transfer_instructions));
    std::printf("  %-32s %12llu\n", "context switches",
                static_cast<unsigned long long>(
                    act_stats.context_switches));
    std::printf("  %-32s %12llu\n", "online mode switches",
                static_cast<unsigned long long>(
                    act_stats.act.mode_switches));
    std::printf("  %-32s %12llu\n", "dependences during training mode",
                static_cast<unsigned long long>(
                    act_stats.act.training_dependences));

    std::printf("\nmemory system: %llu loads, %.1f%% with last-writer "
                "metadata available\n",
                static_cast<unsigned long long>(act_stats.mem.loads),
                act_stats.mem.writer_known + act_stats.mem.writer_unknown
                    ? 100.0 *
                          static_cast<double>(act_stats.mem.writer_known) /
                          static_cast<double>(act_stats.mem.writer_known +
                                              act_stats.mem.writer_unknown)
                    : 0.0);
    return 0;
}
