/**
 * @file
 * Figure 9 reproduction (inferred): overhead sensitivity to the two
 * hardware knobs Table III sweeps — the number of multiply-add units
 * per neuron (1, 2, 5, 10; Section IV-A's latency knob) and the input
 * FIFO depth (4, 8, 16 entries).
 */

#include "bench/bench_util.hh"

namespace act
{
namespace
{

using bench::format;

/** One program's trained model and its seed-300 production trace. */
struct Program
{
    std::string name;
    std::unique_ptr<Workload> workload;
    TrainedModel model;
    Trace trace;
};

Program
prepare(const std::string &name)
{
    Program p{name, makeWorkload(name), {}, {}};
    PairEncoder encoder;
    OfflineTrainingConfig training = bench::standardTraining(6);
    training.trainer.max_epochs = 300;
    p.model = offlineTrain(*p.workload, encoder, training);
    WorkloadParams params;
    params.seed = 300;
    p.trace = p.workload->record(params);
    return p;
}

std::string
overheadWith(const Program &p, std::uint32_t muladd_units,
             std::uint32_t fifo_entries)
{
    SystemConfig config;
    config.act.hw.neuron.muladd_units = muladd_units;
    config.act.hw.fifo_entries = fifo_entries;
    return format(
        "%.1f%%",
        measureOverhead(*p.workload, p.model, p.trace, config).overhead *
            100.0);
}

void
run()
{
    bench::banner("Figure 9: overhead sensitivity",
                  "Table III sweeps: multiply-add units {1,2,5,10} "
                  "(neuron latency T = ceil(M/x) + 2), input FIFO "
                  "{4,8,16}");

    std::vector<Program> programs;
    for (const char *name : {"lu", "ocean", "canneal", "swaptions"})
        programs.push_back(prepare(name));

    std::printf("--- multiply-add units (FIFO fixed at 8) ---\n");
    {
        const bench::Table table({16, 12, 12, 12, 12});
        table.row({"program", "x=1 (T=12)", "x=2 (T=7)", "x=5 (T=4)",
                   "x=10 (T=3)"});
        table.rule();
        for (const Program &p : programs) {
            std::vector<std::string> cells{p.name};
            for (const std::uint32_t units : {1u, 2u, 5u, 10u})
                cells.push_back(overheadWith(p, units, 8));
            table.row(cells);
        }
    }

    std::printf("\n--- input FIFO depth (2 multiply-add units) ---\n");
    {
        const bench::Table table({16, 12, 12, 12});
        table.row({"program", "4 entries", "8 entries", "16 entries"});
        table.rule();
        for (const Program &p : programs) {
            std::vector<std::string> cells{p.name};
            for (const std::uint32_t fifo : {4u, 8u, 16u})
                cells.push_back(overheadWith(p, 2, fifo));
            table.row(cells);
        }
    }
    std::printf("\nexpected shape: overhead falls with more multiply-add "
                "units (shorter neuron latency)\nand with deeper FIFOs "
                "(bursts absorbed without retire stalls).\n");
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
