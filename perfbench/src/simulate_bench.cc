/**
 * @file
 * simulate_fig8: the baseline and the ACT System::run on the 12
 * Figure-8 programs at scale 1 on the seed-300 trace. Set-up trains
 * each program's network lightly (2 traces, 4000 examples, 40 epochs)
 * with training seeds drawn from the benchmark seed, and records the
 * trace. No program switches mode, so the weights do not move the
 * modeled cycles: every row must equal the Figure-8 table
 * (bench/fig8_overhead) whatever the seed.
 *
 * The traced pass splits each ACT run's host time by difference: the
 * baseline run of the same trace is its simulator part, the rest is
 * charged to the ACT Module (onDependence, weight transfers).
 */

#include <array>
#include <memory>

#include "bench.hh"
#include "common/hashing.hh"
#include "diagnosis/pipeline.hh"
#include "traced_train.hh"
#include "workloads/kernel.hh"

namespace perfbench
{

using namespace act;

namespace
{

/** One Figure-8 row: modeled cycles of the two runs and ACT stalls. */
struct Row
{
    const char *program;
    Cycle base_cycles;
    Cycle act_cycles;
    Cycle stall_cycles;
};

/** bench/fig8_overhead, default configuration (mean overhead 6.99%). */
constexpr std::array<Row, 12> kFigure8 = {{
    {"lu", 10242, 11504, 4954},
    {"fft", 11392, 12470, 3340},
    {"radix", 18149, 19427, 4241},
    {"ocean", 15656, 16125, 2529},
    {"barnes", 10276, 11249, 2666},
    {"canneal", 18547, 19481, 3343},
    {"fluidanimate", 27072, 27267, 1158},
    {"streamcluster", 11660, 12422, 2477},
    {"swaptions", 6164, 6826, 1347},
    {"bzip2", 6146, 6478, 168},
    {"mcf", 6127, 6623, 332},
    {"bc", 6082, 6452, 206},
}};

constexpr std::uint64_t kTraceSeed = 300;

OfflineTrainingConfig
lightTraining(std::uint64_t seed)
{
    OfflineTrainingConfig config;
    config.traces = 2;
    config.max_examples = 4000;
    config.trainer.max_epochs = 40;
    config.seed_base = 100 + 10 * (seed % 1000);
    config.rng_seed = hashCombine(0xac1, seed);
    return config;
}

/** A trained, recorded program ready to simulate. */
struct Program
{
    const Row *row;
    std::unique_ptr<Workload> workload;
    std::vector<double> weights;
    WeightStore store;
    Trace trace;
};

WeightStore
storeFor(const Workload &workload, const TrainedModel &model)
{
    WeightStore store(model.topology);
    store.setAll(workload.threadCount(), model.weights);
    return store;
}

WorkloadParams
traceParams()
{
    WorkloadParams params;
    params.seed = kTraceSeed;
    return params;
}

/** Set-up through the public entry points: offlineTrain and record. */
std::vector<Program>
prepare(std::uint64_t seed)
{
    std::vector<Program> programs;
    for (const Row &row : kFigure8) {
        Program p{&row, makeWorkload(row.program), {}, {}, {}};
        PairEncoder encoder;
        const TrainedModel model =
            offlineTrain(*p.workload, encoder, lightTraining(seed));
        p.weights = model.weights;
        p.store = storeFor(*p.workload, model);
        p.trace = p.workload->record(traceParams());
        programs.push_back(std::move(p));
    }
    return programs;
}

SystemConfig
actConfig(const WeightStore &store)
{
    SystemConfig config;
    config.act_enabled = true;
    config.act.topology = store.topology();
    return config;
}

/** Modeled outcome of one program's two runs. */
struct Simulated
{
    SystemStats base;
    SystemStats act;
};

void
checkRow(RunResult &result, const Row &row, const Simulated &s)
{
    result.check(s.base.cycles == row.base_cycles &&
                     s.act.cycles == row.act_cycles &&
                     s.act.act.stall_cycles == row.stall_cycles,
                 std::string(row.program) + ": Figure-8 row (" +
                     std::to_string(s.base.cycles) + ", " +
                     std::to_string(s.act.cycles) + ", " +
                     std::to_string(s.act.act.stall_cycles) + ")");
}

/** One untraced pass: both runs of every program. */
std::vector<Simulated>
simulate(const std::vector<Program> &programs)
{
    std::vector<Simulated> out;
    const PairEncoder encoder;
    for (const Program &p : programs) {
        SystemConfig base_config;
        base_config.act_enabled = false;
        System baseline(base_config);
        baseline.run(p.trace);
        System with_act(actConfig(p.store), encoder, p.store);
        with_act.run(p.trace);
        out.push_back(Simulated{baseline.stats(), with_act.stats()});
    }
    return out;
}

double
overheadPct(const std::vector<Simulated> &runs)
{
    double sum = 0.0;
    for (const Simulated &s : runs) {
        sum += static_cast<double>(s.act.cycles - s.base.cycles) /
               static_cast<double>(s.base.cycles);
    }
    return 100.0 * sum / static_cast<double>(runs.size());
}

/** One traced pass (set-up and simulation) next to the untraced one. */
void
tracedSimulateRound(std::uint64_t seed, RunResult &result,
                    PassSamples &samples)
{
    const auto r0 = Clock::now();
    const std::vector<Program> reference = prepare(seed);
    const std::vector<Simulated> reference_runs = simulate(reference);
    const double reference_s = secondsSince(r0);

    Ledger ledger;
    ledger.begin();
    const PairEncoder encoder;
    TrainCounts train;
    std::uint64_t recorded = 0;
    std::vector<Program> programs;
    for (const Row &row : kFigure8) {
        Program p{&row, nullptr, {}, {}, {}};
        p.workload = ledger.span(Layer::kWorkloads, "workloads.make",
                                 [&] { return makeWorkload(row.program); });
        PairEncoder training_encoder;
        const TrainedModel model = tracedOfflineTrain(
            ledger, *p.workload, training_encoder, lightTraining(seed),
            train);
        p.weights = model.weights;
        p.store = ledger.span(Layer::kAct, "act.weight_store",
                              [&] { return storeFor(*p.workload, model); });
        p.trace = ledger.span(Layer::kWorkloads, "workloads.record", [&] {
            return p.workload->record(traceParams());
        });
        recorded += p.trace.events().size();
        programs.push_back(std::move(p));
    }

    std::vector<Simulated> runs;
    std::uint64_t sim_events = 0;
    std::int64_t base_ns = 0, act_extra_ns = 0;
    for (const Program &p : programs) {
        SystemConfig base_config;
        base_config.act_enabled = false;
        auto baseline =
            ledger.span(Layer::kSim, "sim.system.build", [&] {
                return std::make_unique<System>(base_config);
            });
        const std::uint64_t b_us = ledger.nowUs();
        const auto b0 = Clock::now();
        baseline->run(p.trace);
        const std::int64_t b_ns = nanosBetween(b0, Clock::now());
        ledger.charge(Layer::kSim, "sim.system.run", b_us, b_ns);

        auto with_act =
            ledger.span(Layer::kSim, "sim.system.build", [&] {
                return std::make_unique<System>(actConfig(p.store), encoder,
                                                p.store);
            });
        const std::uint64_t a_us = ledger.nowUs();
        const auto a0 = Clock::now();
        with_act->run(p.trace);
        const std::int64_t a_ns = nanosBetween(a0, Clock::now());
        const std::int64_t sim_part = std::min(a_ns, b_ns);
        ledger.charge(Layer::kSim, "sim.system.run", a_us, sim_part);
        ledger.charge(Layer::kAct, "act.on_dependence",
                      a_us + static_cast<std::uint64_t>(sim_part / 1000),
                      a_ns - sim_part);
        base_ns += b_ns;
        act_extra_ns += a_ns - sim_part;
        sim_events += p.trace.events().size();
        runs.push_back(Simulated{baseline->stats(), with_act->stats()});
        ledger.span(Layer::kSim, "sim.system.teardown", [&] {
            baseline.reset();
            with_act.reset();
        });
    }
    ledger.end();

    SystemStats act_total;
    Cycle base_cycles = 0;
    for (std::size_t i = 0; i < programs.size(); ++i) {
        const Row &row = *programs[i].row;
        checkRow(result, row, reference_runs[i]);
        checkRow(result, row, runs[i]);
        result.check(programs[i].weights == reference[i].weights,
                     std::string(row.program) +
                         ": traced training equals offlineTrain");
        base_cycles += runs[i].base.cycles;
        act_total.cycles += runs[i].act.cycles;
        act_total.weight_transfer_instructions +=
            runs[i].act.weight_transfer_instructions;
        act_total.act.stall_cycles += runs[i].act.act.stall_cycles;
        act_total.act.mode_switches += runs[i].act.act.mode_switches;
        act_total.act.dependences += runs[i].act.act.dependences;
    }
    result.check(addLedger(ledger, samples),
                 "simulate ledger sums to wall time");
    std::fprintf(stderr, "perfbench: simulate ledger\n%s",
                 ledger.breakdown().c_str());

    const double ms = 1e-6;
    const double wall_s = static_cast<double>(ledger.wallNs()) * 1e-9;
    samples.add("trace.overhead_pct", 100.0 * (wall_s / reference_s - 1.0),
                "%");
    samples.add("nn.offline_train_ms",
                static_cast<double>(ledger.spanNs("nn.train")) * ms, "ms");
    samples.add("deps.input_generator.ns_per_event",
                static_cast<double>(ledger.spanNs("deps.input_generator")) /
                    static_cast<double>(train.recorded_events),
                "ns/event");
    samples.add("workloads.record.ns_per_event",
                static_cast<double>(ledger.spanNs("workloads.record")) /
                    static_cast<double>(recorded + train.recorded_events),
                "ns/event");
    samples.add("sim.system.build_ms",
                static_cast<double>(ledger.spanNs("sim.system.build")) * ms,
                "ms");
    samples.add("sim.system.ns_per_event",
                static_cast<double>(base_ns) / static_cast<double>(sim_events),
                "ns/event");
    samples.add("act.on_dependence.ns_per_dep",
                static_cast<double>(act_extra_ns) /
                    static_cast<double>(act_total.act.dependences),
                "ns/dep");
    samples.add("sim.base_cycles", static_cast<double>(base_cycles),
                "cycles");
    samples.add("sim.act_cycles", static_cast<double>(act_total.cycles),
                "cycles");
    samples.add("sim.act_overhead_pct", overheadPct(runs), "%");
    samples.add("act.stall_cycles",
                static_cast<double>(act_total.act.stall_cycles), "cycles");
    samples.add("act.weight_transfer_instructions",
                static_cast<double>(act_total.weight_transfer_instructions),
                "count");
    samples.add("act.mode_switches",
                static_cast<double>(act_total.act.mode_switches), "count");
    samples.add("act.dependences",
                static_cast<double>(act_total.act.dependences), "count");
}

} // namespace

RunResult
runSimulate(const Options &opts)
{
    registerAllWorkloads();
    RunResult result;
    if (opts.trace) {
        PassSamples samples;
        repeatFor(opts.seconds, Clock::now(), [&] {
            tracedSimulateRound(opts.seed, result, samples);
        });
        samples.addTo(result);
        return result;
    }

    // Set-up is redone (and timed) every fifth of the run, so its
    // samples see the same host as the passes; the latest is used.
    std::vector<double> setup_s, cpu_ns_per_event;
    std::vector<Program> programs;
    std::uint64_t events = 0;
    auto last_setup = Clock::now();
    repeatFor(opts.seconds, Clock::now(), [&] {
        if (programs.empty() || secondsSince(last_setup) >= opts.seconds / 5) {
            last_setup = Clock::now();
            programs = prepare(opts.seed);
            setup_s.push_back(secondsSince(last_setup));
            events = 0;
            for (const Program &p : programs)
                events += 2 * p.trace.events().size();
        }
        const double c0 = processCpuSeconds();
        const std::vector<Simulated> runs = simulate(programs);
        const double cpu_s = processCpuSeconds() - c0;
        for (std::size_t i = 0; i < runs.size(); ++i)
            checkRow(result, *programs[i].row, runs[i]);
        cpu_ns_per_event.push_back(1e9 * cpu_s / static_cast<double>(events));
    });
    result.set("setup_s", median(setup_s), "s");
    result.set("cpu_ns_per_event", median(cpu_ns_per_event), "ns/event");
    return result;
}

} // namespace perfbench
