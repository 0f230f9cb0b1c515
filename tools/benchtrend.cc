/**
 * @file
 * benchtrend — the repo's benchmark-trajectory harness.
 *
 * Runs the simulate→track→infer micro hot paths plus the
 * offline concurrency detectors of the analysis pipeline with a
 * self-calibrating best-of-N driver, plus three coarse wall-clock
 * measurements (the smoke campaign, a reduced Figure 8 overhead run,
 * and the fleet streaming service), and writes the results as
 * machine-readable JSON (`BENCH_PR10.json` by default). The smoke
 * campaign and the fleet run execute with the telemetry registry
 * enabled and report counter-derived throughput (simulated events/s,
 * fleet ingest events/s) in the report's `telemetry` section — those
 * rows are context, never CI gates.
 *
 * With `--check` it also loads a committed baseline
 * (`bench/BENCH_BASELINE.json`) and fails — exit 1 — when any micro
 * hot path regressed by more than the threshold, making per-PR
 * performance a CI gate rather than folklore.
 *
 * Exit codes: 0 = ok, 1 = threshold regression, 2 = usage or
 * measurement error, 3 = the --check baseline is missing or
 * unparsable (checked up front, before any bench runs).
 *
 * Usage:
 *   benchtrend [--out FILE] [--baseline FILE] [--check]
 *              [--threshold FRACTION] [--filter SUBSTRING] [--quick]
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "act/act_module.hh"
#include "analysis/pipeline.hh"
#include "bench/bench_json.hh"
#include "corpus/catalog.hh"
#include "corpus/corpus.hh"
#include "fleet/service.hh"
#include "deps/input_generator.hh"
#include "diagnosis/pipeline.hh"
#include "runner/campaign.hh"
#include "runner/runner.hh"
#include "sim/memsys.hh"
#include "sim/system.hh"
#include "telemetry/metrics.hh"
#include "trace/io.hh"
#include "workloads/kernel.hh"
#include "workloads/workload.hh"

namespace act
{
namespace
{

using bench::keep;
using bench::MicroHarness;
using bench::MicroResult;

struct Options
{
    std::string out = "BENCH_PR10.json";
    std::string baseline = "bench/BENCH_BASELINE.json";
    bool check = false;
    double threshold = 0.30;
    std::string filter;
    bool quick = false;
};

std::string
tempTracePath()
{
    const char *dir = std::getenv("TMPDIR");
    std::string base = dir != nullptr ? dir : "/tmp";
    if (!base.empty() && base.back() != '/')
        base += '/';
    return base + "act_benchtrend_scratch.trc";
}

/** A deterministic mixed load/store event stream for the micro loops. */
Trace
syntheticTrace(std::size_t events, std::uint32_t threads)
{
    Trace trace;
    Rng rng(0xbe7c4);
    TraceEvent event;
    for (std::size_t i = 0; i < events; ++i) {
        event.tid = static_cast<ThreadId>(rng.next(threads));
        event.addr = 0x1000 + rng.next(4096) * 4;
        event.kind =
            rng.chance(0.3) ? EventKind::kStore : EventKind::kLoad;
        event.pc = 0x400000 + (event.addr & 0xfff);
        event.gap = static_cast<std::uint16_t>(rng.next(8));
        trace.append(event);
    }
    return trace;
}

/**
 * A lock-rich shared-memory stream for the detector benches: threads
 * take one of two locks (inconsistently nested now and then), touch a
 * shared working set, and occasionally skip the lock — so every
 * detector does real state-machine work instead of fast-pathing.
 */
Trace
detectorTrace(std::size_t events, std::uint32_t threads)
{
    Trace trace;
    Rng rng(0xd37ec7);
    for (std::size_t i = 0; i < events; ++i) {
        TraceEvent event;
        event.tid = static_cast<ThreadId>(rng.next(threads));
        const Addr lock_a = 0x100 + (event.tid % 2) * 0x10;
        const Addr lock_b = 0x100 + ((event.tid + 1) % 2) * 0x10;
        const bool locked = rng.chance(0.8);
        if (locked) {
            event.kind = EventKind::kLock;
            event.addr = lock_a;
            event.pc = 0x500000 + event.tid;
            trace.append(event);
            if (rng.chance(0.1)) {
                event.addr = lock_b;
                trace.append(event);
            }
        }
        event.addr = 0x1000 + rng.next(512) * 8;
        event.kind =
            rng.chance(0.4) ? EventKind::kStore : EventKind::kLoad;
        event.pc = 0x400000 + (event.addr & 0xfff);
        trace.append(event);
        if (locked) {
            event.kind = EventKind::kUnlock;
            event.addr = lock_b;
            event.pc = 0x500100 + event.tid;
            trace.append(event);
            event.addr = lock_a;
            trace.append(event);
        }
    }
    return trace;
}

// --- Micro hot paths ------------------------------------------------

MicroResult
benchTrackerObserve(const MicroHarness &harness)
{
    // One iteration = one store + one dependent load (2 events), the
    // exact BM_TrackerObserve loop.
    return harness.run("tracker_observe", 2.0, [](std::uint64_t iters) {
        DependenceTracker tracker;
        Rng rng(2);
        TraceEvent store;
        store.kind = EventKind::kStore;
        TraceEvent load;
        load.kind = EventKind::kLoad;
        for (std::uint64_t i = 0; i < iters; ++i) {
            const Addr addr = 0x1000 + rng.next(1024) * 4;
            store.addr = addr;
            store.pc = 0x100 + (addr & 0xff);
            tracker.observe(store);
            load.addr = addr;
            load.pc = store.pc + 4;
            auto dep = tracker.observe(load);
            keep(dep);
        }
    });
}

MicroResult
benchMemsysAccess(const MicroHarness &harness)
{
    return harness.run("memsys_access", 1.0, [](std::uint64_t iters) {
        MemorySystem mem((MemSystemConfig()));
        Rng rng(3);
        TraceEvent event;
        for (std::uint64_t i = 0; i < iters; ++i) {
            event.tid = static_cast<ThreadId>(rng.next(4));
            event.addr = 0x1000 + rng.next(4096) * 4;
            event.kind =
                rng.chance(0.3) ? EventKind::kStore : EventKind::kLoad;
            auto access = mem.access(event.tid % 8, event);
            keep(access.latency);
        }
    });
}

MicroResult
benchEncoder(const MicroHarness &harness)
{
    return harness.run("encoder_encode", 1.0, [](std::uint64_t iters) {
        PairEncoder encoder;
        std::vector<double> out;
        Rng rng(7);
        for (std::uint64_t i = 0; i < iters; ++i) {
            const Pc load = 0x401000 + rng.next(256) * 4;
            const RawDependence dep{load - 4 - rng.next(64) * 4, load,
                                    false};
            out.clear();
            encoder.encode(dep, out);
            keep(out.data());
        }
    });
}

MicroResult
benchInputGenerator(const MicroHarness &harness, const Trace &trace)
{
    // One iteration = one full pass over the synthetic trace.
    return harness.run("input_generator_process",
                       static_cast<double>(trace.size()),
                       [&trace](std::uint64_t iters) {
                           const InputGenerator generator(3);
                           for (std::uint64_t i = 0; i < iters; ++i) {
                               auto seqs = generator.process(trace);
                               keep(seqs.dependence_count);
                           }
                       });
}

MicroResult
benchHwInfer(const MicroHarness &harness)
{
    return harness.run("hw_infer", 1.0, [](std::uint64_t iters) {
        Rng rng(1);
        MlpNetwork proto(Topology{6, 10}, rng);
        HwNeuralNetwork hw(HwNetworkConfig{}, Topology{6, 10});
        hw.loadWeights(proto.weights());
        std::vector<double> in;
        for (std::size_t i = 0; i < 6; ++i)
            in.push_back(rng.uniform(-2, 2));
        std::vector<double> out;
        for (std::uint64_t i = 0; i < iters; ++i) {
            hw.inferBatchFlat(in, in.size(), 1, out);
            keep(out[0]);
        }
    });
}

MicroResult
benchActModule(const MicroHarness &harness)
{
    return harness.run(
        "act_on_dependence", 1.0, [](std::uint64_t iters) {
            ActConfig config;
            config.sequence_length = 3;
            config.topology = Topology{6, 10};
            PairEncoder encoder;
            ActModule module(config, encoder);
            WeightStore store(config.topology);
            store.set(0,
                      std::vector<double>(store.weightCount(), 0.1));
            module.initThread(0, store);
            Rng rng(4);
            Cycle cycle = 0;
            for (std::uint64_t i = 0; i < iters; ++i) {
                const Pc load = 0x401004 + rng.next(64) * 8;
                auto outcome = module.onDependence(
                    RawDependence{load - 4, load, false}, 0,
                    cycle += 50);
                keep(outcome.output);
            }
        });
}

MicroResult
benchEnsembleInfer(const MicroHarness &harness)
{
    // The Adaptivity 2.0 hot path: a K=3 ensemble module classifying
    // in testing mode. Each onDependence runs three member forward
    // passes plus the quorum vote, so events/s here against
    // act_on_dependence directly prices the ensemble multiplier.
    return harness.run(
        "ensemble_infer", 1.0, [](std::uint64_t iters) {
            ActConfig config;
            config.sequence_length = 3;
            config.topology = Topology{6, 3}; // K=3 x h=3 <= M=10.
            config.ensemble.members = 3;
            PairEncoder encoder;
            ActModule module(config, encoder);
            WeightStore store(config.topology);
            store.set(0,
                      std::vector<double>(store.weightCount(), 0.1));
            module.initThread(0, store);
            Rng rng(4);
            Cycle cycle = 0;
            for (std::uint64_t i = 0; i < iters; ++i) {
                const Pc load = 0x401004 + rng.next(64) * 8;
                auto outcome = module.onDependence(
                    RawDependence{load - 4, load, false}, 0,
                    cycle += 50);
                keep(outcome.output);
            }
        });
}

MicroResult
benchTraceIo(const MicroHarness &harness, const Trace &trace)
{
    const std::string path = tempTracePath();
    MicroResult result = harness.run(
        "trace_io_roundtrip", static_cast<double>(trace.size()),
        [&trace, &path](std::uint64_t iters) {
            Trace loaded;
            for (std::uint64_t i = 0; i < iters; ++i) {
                if (!writeTrace(trace, path) ||
                    !readTrace(path, loaded)) {
                    std::fprintf(stderr,
                                 "benchtrend: trace roundtrip failed\n");
                    std::exit(2);
                }
                keep(loaded.size());
            }
        });
    std::remove(path.c_str());
    return result;
}

// One iteration of each detector bench = one full pass over the
// lock-rich synthetic trace, so events/s is directly comparable
// across the four detectors and the merged pipeline.

MicroResult
benchLocksetDetect(const MicroHarness &harness, const Trace &trace)
{
    return harness.run("lockset_detect",
                       static_cast<double>(trace.size()),
                       [&trace](std::uint64_t iters) {
                           for (std::uint64_t i = 0; i < iters; ++i) {
                               const auto report =
                                   detectLocksetRaces(trace);
                               keep(report.size());
                           }
                       });
}

MicroResult
benchLockOrderDetect(const MicroHarness &harness, const Trace &trace)
{
    return harness.run("lockorder_detect",
                       static_cast<double>(trace.size()),
                       [&trace](std::uint64_t iters) {
                           for (std::uint64_t i = 0; i < iters; ++i) {
                               const auto report =
                                   detectLockOrderCycles(trace);
                               keep(report.size());
                           }
                       });
}

MicroResult
benchAtomicityDetect(const MicroHarness &harness, const Trace &trace)
{
    return harness.run("atomicity_detect",
                       static_cast<double>(trace.size()),
                       [&trace](std::uint64_t iters) {
                           for (std::uint64_t i = 0; i < iters; ++i) {
                               const auto report =
                                   detectAtomicityViolations(trace);
                               keep(report.size());
                           }
                       });
}

MicroResult
benchOrderCheck(const MicroHarness &harness, const Trace &trace)
{
    return harness.run("order_check",
                       static_cast<double>(trace.size()),
                       [&trace](std::uint64_t iters) {
                           for (std::uint64_t i = 0; i < iters; ++i) {
                               const auto report =
                                   checkOrderViolations(trace);
                               keep(report.size());
                           }
                       });
}

MicroResult
benchAnalysisPipeline(const MicroHarness &harness, const Trace &trace)
{
    // All five lenses, sequential: the per-trace cost `actrun
    // --analyze` pays for each cached trace.
    return harness.run("analysis_pipeline",
                       static_cast<double>(trace.size()),
                       [&trace](std::uint64_t iters) {
                           for (std::uint64_t i = 0; i < iters; ++i) {
                               const auto result =
                                   runAnalysisPipeline(trace);
                               keep(result.report.size());
                           }
                       });
}

MicroResult
benchCorpusGen(const MicroHarness &harness)
{
    // One iteration = one corpus variant's site mining + catalog
    // serialise/parse/validate round trip — the per-variant cost
    // `actgen gen` and `actlint catalog` pay, minus the file I/O.
    return harness.run("corpus_gen", 1.0, [](std::uint64_t iters) {
        for (std::uint64_t i = 0; i < iters; ++i) {
            const auto workload =
                corpus::makeCorpusWorkload("corpus/lu/removed-lock/7");
            const std::string json =
                corpus::catalogJson(workload->catalog());
            corpus::CorpusCatalog parsed;
            keep(corpus::parseCatalogJson(json, parsed));
            keep(corpus::validateCatalog(json).size());
        }
    });
}

// --- Wall-clock measurements ----------------------------------------

double
wallMs(const std::chrono::steady_clock::time_point &t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

bench::WallClockResult
runSmokeCampaign(std::vector<bench::TelemetryEntry> &telemetry)
{
    // Run the campaign with the metrics registry live so the reported
    // throughput comes from the same counters `actrun --metrics-out`
    // exports, not from harness-side arithmetic. The registry
    // accumulates process-wide, so rates come from a before/after diff.
    auto &reg = act::telemetry::MetricsRegistry::global();
    const bool was_enabled = reg.enabled();
    reg.setEnabled(true);
    const act::telemetry::Snapshot before = reg.snapshot();

    RunOptions options;
    options.jobs = 0; // all cores; wall-clock trend only, never gated
    const auto t0 = std::chrono::steady_clock::now();
    const CampaignRunResult run =
        runCampaign(makeCampaign("smoke"), options);
    bench::WallClockResult result;
    result.name = "campaign_smoke";
    result.ms = wallMs(t0);
    if (run.results.empty()) {
        std::fprintf(stderr, "benchtrend: smoke campaign ran no jobs\n");
        std::exit(2);
    }

    const act::telemetry::Snapshot delta =
        act::telemetry::diffSnapshots(reg.snapshot(), before);
    reg.setEnabled(was_enabled);
    const double seconds = result.ms / 1000.0;
    const auto rate = [&](const char *name, const char *counter) {
        if (seconds <= 0.0)
            return;
        telemetry.push_back(
            {name, static_cast<double>(delta.counterValue(counter)) /
                       seconds});
    };
    rate("campaign_smoke_sim_events_per_s", "sim.events");
    rate("campaign_smoke_dependences_per_s", "act.dependences");
    telemetry.push_back(
        {"campaign_smoke_jobs_ok",
         static_cast<double>(delta.counterValue("runner.jobs_ok"))});
    return result;
}

bench::WallClockResult
runFig8Mini()
{
    // A reduced Figure 8 overhead measurement: one prediction kernel,
    // short offline training, then the baseline-vs-ACT simulation of
    // the full production trace. Tracks the simulate→track→infer path
    // end to end without the full bench's minutes-long sweep.
    const auto names = predictionKernelNames();
    const auto workload = makeWorkload(names.front());

    const auto t0 = std::chrono::steady_clock::now();
    PairEncoder encoder;
    OfflineTrainingConfig training;
    training.traces = 2;
    training.max_examples = 4000;
    training.trainer.max_epochs = 40;
    const TrainedModel model = offlineTrain(*workload, encoder, training);

    WorkloadParams params;
    params.seed = 300;
    keep(measureOverhead(*workload, model, workload->record(params),
                         SystemConfig{})
             .act.cycles);

    bench::WallClockResult result;
    result.name = "fig8_overhead_mini";
    result.ms = wallMs(t0);
    return result;
}

bench::WallClockResult
runFleetStream(std::vector<bench::TelemetryEntry> &telemetry,
               bool quick)
{
    // The fleet streaming service end to end: record, stream through
    // the shard pipeline, merge. Work is repeat-bounded (not
    // duration-bounded) so every run ingests the same event total;
    // only the wall clock varies. Trend context, never a gate.
    fleet::FleetConfig config;
    config.clients = 8;
    config.shards = 2;
    config.repeat = quick ? 1 : 3;

    auto &reg = act::telemetry::MetricsRegistry::global();
    const bool was_enabled = reg.enabled();
    reg.setEnabled(true);

    const auto t0 = std::chrono::steady_clock::now();
    const fleet::FleetResult run = fleet::runFleetService(config);
    bench::WallClockResult result;
    result.name = "fleet_stream";
    result.ms = wallMs(t0);
    reg.setEnabled(was_enabled);

    const auto &totals = run.report.totals;
    if (run.wall_s > 0.0) {
        telemetry.push_back(
            {"fleet_stream_events_per_s",
             static_cast<double>(totals.events) / run.wall_s});
        telemetry.push_back(
            {"fleet_stream_predictions_per_s",
             static_cast<double>(totals.predictions) / run.wall_s});
    }
    telemetry.push_back({"fleet_stream_events",
                         static_cast<double>(totals.events)});
    telemetry.push_back({"fleet_stream_dropped_events",
                         static_cast<double>(totals.events_dropped)});
    return result;
}

// --- Driver ----------------------------------------------------------

bool
wantBench(const Options &options, const char *name)
{
    return options.filter.empty() ||
           std::string(name).find(options.filter) != std::string::npos;
}

int
run(const Options &options)
{
    // Validate the --check baseline up front: a misconfigured gate
    // must fail in milliseconds with a usable diagnostic, not after
    // minutes of bench runs — and with an exit code CI can tell apart
    // from a real threshold violation (1) or a usage error (2).
    bench::BenchReport baseline;
    if (options.check) {
        std::FILE *probe = std::fopen(options.baseline.c_str(), "rb");
        const bool exists = probe != nullptr;
        if (probe != nullptr)
            std::fclose(probe);
        if (!loadBenchReport(options.baseline, baseline)) {
            if (!exists) {
                std::fprintf(stderr,
                             "benchtrend: baseline %s does not exist; "
                             "run `benchtrend --out %s` on a known-good "
                             "checkout and commit the result\n",
                             options.baseline.c_str(),
                             options.baseline.c_str());
            } else {
                std::fprintf(stderr,
                             "benchtrend: baseline %s exists but cannot "
                             "be parsed (corrupt file or wrong schema); "
                             "regenerate it with `benchtrend --out %s`\n",
                             options.baseline.c_str(),
                             options.baseline.c_str());
            }
            return 3;
        }
    }

    MicroHarness harness;
    if (options.quick) {
        harness.min_rep_ms = 10.0;
        harness.reps = 3;
    }

    bench::BenchReport report;
#ifdef NDEBUG
    report.build_type = "Release";
#else
    report.build_type = "Debug";
#endif

    const Trace synthetic = syntheticTrace(100000, 4);

    std::printf("%-26s %14s %16s\n", "benchmark", "ns/op", "events/s");
    const auto add = [&report](const MicroResult &result) {
        report.results.push_back(result);
        std::printf("%-26s %14.2f %16.0f\n", result.name.c_str(),
                    result.ns_per_op, result.events_per_s);
    };

    if (wantBench(options, "tracker_observe"))
        add(benchTrackerObserve(harness));
    if (wantBench(options, "memsys_access"))
        add(benchMemsysAccess(harness));
    if (wantBench(options, "encoder_encode"))
        add(benchEncoder(harness));
    if (wantBench(options, "input_generator_process"))
        add(benchInputGenerator(harness, synthetic));
    if (wantBench(options, "hw_infer"))
        add(benchHwInfer(harness));
    if (wantBench(options, "act_on_dependence"))
        add(benchActModule(harness));
    if (wantBench(options, "ensemble_infer"))
        add(benchEnsembleInfer(harness));
    if (wantBench(options, "trace_io_roundtrip"))
        add(benchTraceIo(harness, synthetic));

    const Trace detector_trace = detectorTrace(50000, 4);
    if (wantBench(options, "lockset_detect"))
        add(benchLocksetDetect(harness, detector_trace));
    if (wantBench(options, "lockorder_detect"))
        add(benchLockOrderDetect(harness, detector_trace));
    if (wantBench(options, "atomicity_detect"))
        add(benchAtomicityDetect(harness, detector_trace));
    if (wantBench(options, "order_check"))
        add(benchOrderCheck(harness, detector_trace));
    if (wantBench(options, "analysis_pipeline"))
        add(benchAnalysisPipeline(harness, detector_trace));
    if (wantBench(options, "corpus_gen"))
        add(benchCorpusGen(harness));

    if (wantBench(options, "campaign_smoke")) {
        const auto smoke = runSmokeCampaign(report.telemetry);
        report.wall_clock.push_back(smoke);
        std::printf("%-26s %14s %13.0f ms\n", smoke.name.c_str(), "-",
                    smoke.ms);
        for (const auto &entry : report.telemetry)
            std::printf("%-40s %16.0f\n", entry.name.c_str(),
                        entry.value);
    }
    if (wantBench(options, "fig8_overhead_mini")) {
        const auto fig8 = runFig8Mini();
        report.wall_clock.push_back(fig8);
        std::printf("%-26s %14s %13.0f ms\n", fig8.name.c_str(), "-",
                    fig8.ms);
    }
    if (wantBench(options, "fleet_stream")) {
        const std::size_t first_entry = report.telemetry.size();
        const auto fleet_wall =
            runFleetStream(report.telemetry, options.quick);
        report.wall_clock.push_back(fleet_wall);
        std::printf("%-26s %14s %13.0f ms\n", fleet_wall.name.c_str(),
                    "-", fleet_wall.ms);
        for (std::size_t i = first_entry; i < report.telemetry.size();
             ++i)
            std::printf("%-40s %16.0f\n",
                        report.telemetry[i].name.c_str(),
                        report.telemetry[i].value);
    }

    if (!writeBenchReport(report, options.out)) {
        std::fprintf(stderr, "benchtrend: cannot write %s\n",
                     options.out.c_str());
        return 2;
    }
    std::printf("\nwrote %s\n", options.out.c_str());

    if (!options.check)
        return 0;

    const auto trend =
        bench::compareReports(report, baseline, options.threshold);
    bool regressed = false;
    std::printf("\n%-26s %10s %12s\n", "vs baseline", "ratio", "verdict");
    for (const auto &entry : trend) {
        const char *verdict = entry.regression ? "REGRESSION" : "ok";
        regressed = regressed || entry.regression;
        std::printf("%-26s %9.2fx %12s\n", entry.name.c_str(),
                    entry.ratio, verdict);
    }
    if (trend.empty()) {
        std::fprintf(stderr,
                     "benchtrend: baseline shares no benchmark names "
                     "with this run\n");
        return 2;
    }
    if (regressed) {
        std::fprintf(stderr,
                     "\nbenchtrend: at least one hot path is more than "
                     "%.0f%% slower than %s\n",
                     options.threshold * 100.0,
                     options.baseline.c_str());
        return 1;
    }
    std::printf("\nno regressions beyond %.0f%% threshold\n",
                options.threshold * 100.0);
    return 0;
}

} // namespace
} // namespace act

int
main(int argc, char **argv)
{
    act::Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "benchtrend: %s needs a value\n",
                             flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--out") {
            options.out = value("--out");
        } else if (arg == "--baseline") {
            options.baseline = value("--baseline");
        } else if (arg == "--check") {
            options.check = true;
        } else if (arg == "--threshold") {
            options.threshold = std::strtod(value("--threshold"), nullptr);
        } else if (arg == "--filter") {
            options.filter = value("--filter");
        } else if (arg == "--quick") {
            options.quick = true;
        } else {
            std::fprintf(
                stderr,
                "usage: benchtrend [--out FILE] [--baseline FILE] "
                "[--check] [--threshold FRACTION] [--filter SUBSTRING] "
                "[--quick]\n");
            return arg == "--help" || arg == "-h" ? 0 : 2;
        }
    }
    act::registerAllWorkloads();
    return act::run(options);
}
