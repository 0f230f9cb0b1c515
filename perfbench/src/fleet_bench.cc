/**
 * @file
 * fleet_tracker and fleet_mem_ensemble: runFleetService() with 4
 * clients streaming into 2 shards, closed loop under kBlock
 * backpressure (a producer waits until its shard has room). Each call
 * streams every client's recorded trace kRepeat times and its report
 * must be byte-identical to replayFleetBatch() of the same config.
 *
 * The traced pass re-runs the service's per-block chain — front end
 * (DependenceTracker or MemorySystem), stageDependence, batched
 * inference, commit, addSuspect — one whole client trace per phase,
 * and must reproduce the same report.
 */

#include <algorithm>
#include <limits>
#include <memory>
#include <span>

#include "act/act_module.hh"
#include "bench.hh"
#include "common/hashing.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "deps/encoder.hh"
#include "deps/tracker.hh"
#include "fleet/service.hh"
#include "sim/memsys.hh"
#include "workloads/kernel.hh"
#include "workloads/workload.hh"

namespace perfbench
{

using namespace act;
using fleet::FleetConfig;
using fleet::FleetReport;
using fleet::FleetResult;
using fleet::FrontEnd;

namespace
{

/** Times each call re-streams every client's trace. */
constexpr std::uint32_t kRepeat = 4;

/** Candidate fleet seeds tried before giving up on the traffic regime. */
constexpr std::uint32_t kSeedCandidates = 64;

/**
 * The two fleet workloads differ in front end, ensemble size and the
 * share of predictions the frozen weights flag. The flag share is set
 * by the weights, which the fleet derives from its seed, so each
 * workload names the regime its seed must produce.
 */
struct FleetWorkload
{
    FrontEnd front;
    std::uint32_t members;
    double min_flag_ratio;
    double max_flag_ratio;
};

FleetWorkload
fleetWorkload(const std::string &name)
{
    if (name == "fleet_tracker") // Commit/Debug Buffer on every prediction.
        return {FrontEnd::kTracker, 1, 0.95, 1.0};
    return {FrontEnd::kMem, 3, 0.0, 0.01}; // Commit nearly idle.
}

FleetConfig
fleetConfig(const FleetWorkload &w, std::uint64_t seed)
{
    FleetConfig config;
    config.clients = 4;
    config.shards = 2;
    config.seed = seed;
    config.scale = 4;
    config.repeat = kRepeat;
    config.front = w.front;
    config.ensemble_members = w.members;
    config.backpressure = fleet::Backpressure::kBlock;
    return config;
}

double
flagRatio(const FleetReport &report)
{
    const auto &t = report.totals;
    return t.predictions == 0 ? 0.0
                              : static_cast<double>(t.flagged) /
                                    static_cast<double>(t.predictions);
}

/**
 * The first fleet seed derived from @p seed (the benchmark seed
 * itself, then hashes of it) whose batch replay flags a share of
 * predictions inside the workload's regime. Its replay report is the
 * reference every measured call is checked against.
 */
std::pair<FleetConfig, std::string>
chooseFleet(const FleetWorkload &w, std::uint64_t seed)
{
    for (std::uint32_t j = 0; j < kSeedCandidates; ++j) {
        const FleetConfig config =
            fleetConfig(w, j == 0 ? seed : hashCombine(seed, j));
        const FleetResult replay = fleet::replayFleetBatch(config);
        const double ratio = flagRatio(replay.report);
        if (ratio >= w.min_flag_ratio && ratio <= w.max_flag_ratio)
            return {config, replay.report.toText(config.top_k)};
    }
    ACT_FATAL("perfbench: no fleet seed in the flag regime");
}

// --- The traced pass ----------------------------------------------
//
// The service's engine set-up lives in its private translation unit;
// the helpers below restate it from fleet/service.cc. The traced
// report is compared byte for byte with replayFleetBatch(), so any
// drift between the two shows as a failed check.

ActConfig
fleetActConfig(const FleetConfig &fleet)
{
    ActConfig config;
    config.interval_length = std::numeric_limits<std::uint64_t>::max();
    if (fleet.ensemble_members > 1) {
        config.ensemble.members = fleet.ensemble_members;
        config.ensemble.quorum = fleet.ensemble_quorum;
        config.topology.hidden = std::max<std::size_t>(
            1, config.hw.neuron.max_inputs / fleet.ensemble_members);
    }
    return config;
}

std::vector<double>
fleetWeights(std::size_t count, std::uint64_t seed)
{
    Rng rng(seed ^ 0xf1ee7c0ffeeULL);
    std::vector<double> weights(count);
    for (double &w : weights)
        w = rng.uniform(-0.9, 0.9);
    return weights;
}

MemSystemConfig
clientMemConfig()
{
    MemSystemConfig config;
    config.cores = 4;
    config.l1_bytes = 8 * 1024;
    config.l1_assoc = 2;
    config.l2_bytes = 64 * 1024;
    config.l2_assoc = 4;
    return config;
}

struct Client
{
    explicit Client(const ActModule &module) : arena(module.makeArena()) {}

    ActArena arena;
    DependenceTracker tracker;
    std::unique_ptr<MemorySystem> mem;
};

struct Dep
{
    RawDependence dep;
    ThreadId tid;
};

struct Pending
{
    DependenceSequence sequence;
    ThreadId tid;
};

/** Work counts of one traced pass. */
struct FleetCounts
{
    std::uint64_t recorded_events = 0;
    std::uint64_t events = 0;
    std::uint64_t loads = 0; //!< Non-stack loads (kMem front end).
    std::uint64_t deps = 0;
    std::uint64_t staged = 0;
    std::uint64_t flagged = 0;
};

/** One whole client trace through the front end, collecting deps. */
void
frontEnd(Client &client, const std::vector<TraceEvent> &events,
         std::vector<Dep> &deps, FleetCounts &counts)
{
    if (!client.mem) {
        for (const TraceEvent &event : events) {
            if (const auto dep = client.tracker.observe(event))
                deps.push_back(Dep{*dep, event.tid});
        }
        return;
    }
    // The service's kMem path: System::handle's memory-side behaviour.
    MemorySystem &mem = *client.mem;
    const std::uint32_t cores = mem.config().cores;
    for (const TraceEvent &event : events) {
        const CoreId core = event.tid % cores;
        switch (event.kind) {
          case EventKind::kStore:
            mem.access(core, event);
            break;
          case EventKind::kLoad: {
            const MemAccess access = mem.access(core, event);
            if (event.stack)
                break;
            ++counts.loads;
            if (access.last_writer) {
                deps.push_back(Dep{
                    RawDependence{access.last_writer->pc, event.pc,
                                  access.last_writer->tid != event.tid},
                    event.tid});
            }
            break;
          }
          case EventKind::kLock:
          case EventKind::kUnlock: {
            TraceEvent rmw = event;
            rmw.kind = EventKind::kStore;
            mem.access(core, rmw);
            break;
          }
          default:
            break;
        }
    }
}

/** Client @p c's trace, as the service records it before streaming. */
Trace
recordClient(const FleetConfig &config, std::uint32_t c)
{
    const std::vector<std::string> catalog = predictionKernelNames();
    WorkloadParams params;
    params.seed = config.seed + c;
    params.scale = config.scale;
    return makeWorkload(catalog[c % catalog.size()])->record(params);
}

/** The traced pass: the report replayFleetBatch(@p config) renders. */
std::string
tracedFleetPass(const FleetConfig &config, Ledger &ledger,
                FleetCounts &counts)
{
    std::vector<Trace> traces(config.clients);
    for (std::uint32_t c = 0; c < config.clients; ++c) {
        traces[c] = ledger.span(Layer::kWorkloads, "workloads.record",
                                [&] { return recordClient(config, c); });
        counts.recorded_events += traces[c].events().size();
    }

    const PairEncoder encoder;
    auto module = ledger.span(Layer::kAct, "act.engine", [&] {
        auto m = std::make_unique<ActModule>(fleetActConfig(config), encoder);
        m->restoreWeights(fleetWeights(
            m->network().weightCount() * m->memberCount(), config.seed));
        return m;
    });
    const std::size_t k = module->memberCount();
    std::vector<const HwNeuralNetwork *> members;
    for (std::size_t m = 0; m < k; ++m)
        members.push_back(&module->member(m));
    const std::size_t width =
        module->config().sequence_length * encoder.width();

    std::vector<std::unique_ptr<Client>> clients;
    ledger.span(Layer::kSim, "sim.memsys.build", [&] {
        for (std::uint32_t c = 0; c < config.clients; ++c) {
            clients.push_back(std::make_unique<Client>(*module));
            if (config.front == FrontEnd::kMem)
                clients.back()->mem =
                    std::make_unique<MemorySystem>(clientMemConfig());
        }
    });

    FleetReport report;
    std::vector<Dep> deps;
    std::vector<double> flat;
    std::vector<Pending> pending;
    std::vector<double> outputs;
    std::vector<double> chunk;
    std::vector<double> scratch;
    std::vector<StagedOutcome> outcomes;
    const bool tracker = config.front == FrontEnd::kTracker;
    for (std::uint32_t c = 0; c < config.clients; ++c) {
        Client &client = *clients[c];
        const std::vector<TraceEvent> &events = traces[c].events();
        for (std::uint32_t rep = 0; rep < config.repeat; ++rep) {
            ledger.span(tracker ? Layer::kDeps : Layer::kSim,
                        tracker ? "deps.tracker" : "sim.memsys", [&] {
                deps.clear();
                frontEnd(client, events, deps, counts);
            });

            ledger.span(Layer::kAct, "act.stage", [&] {
                flat.clear();
                pending.clear();
                module->bindArena(&client.arena);
                for (const Dep &d : deps) {
                    if (!module->stageDependence(d.dep))
                        continue;
                    const std::vector<double> &in = module->stagedInputs();
                    flat.insert(flat.end(), in.begin(), in.end());
                    pending.push_back(
                        Pending{module->stagedSequence(), d.tid});
                }
            });

            const std::size_t n = pending.size();
            ledger.span(Layer::kHwnn,
                        k == 1 ? "hwnn.infer" : "hwnn.infer_ensemble", [&] {
                outputs.clear();
                for (std::size_t at = 0; at < n; at += config.batch_max) {
                    const std::size_t count =
                        std::min(config.batch_max, n - at);
                    const auto items = std::span<const double>(flat).subspan(
                        at * width, count * width);
                    if (k == 1) {
                        module->network().inferBatchFlat(items, width, count,
                                                         chunk);
                    } else {
                        inferEnsembleFlat(members, items, width, count,
                                          chunk, scratch);
                    }
                    outputs.insert(outputs.end(), chunk.begin(),
                                   chunk.end());
                }
            });

            ledger.span(Layer::kAct, "act.commit", [&] {
                outcomes.clear();
                module->bindArena(&client.arena);
                for (std::size_t i = 0; i < n; ++i) {
                    const Pending &p = pending[i];
                    const auto inputs = std::span<const double>(flat).subspan(
                        i * width, width);
                    outcomes.push_back(
                        k == 1 ? module->commitPrediction(
                                     p.sequence, inputs, outputs[i], p.tid)
                               : module->commitEnsemble(
                                     p.sequence, inputs,
                                     std::span<const double>(outputs)
                                         .subspan(i * k, k),
                                     p.tid));
                }
            });

            ledger.span(Layer::kFleet, "fleet.report", [&] {
                auto &t = report.totals;
                t.events += events.size();
                t.blocks += (events.size() + config.block_events - 1) /
                            config.block_events;
                t.dependences += deps.size();
                t.predictions += n;
                for (std::size_t i = 0; i < n; ++i) {
                    if (!outcomes[i].predicted_invalid)
                        continue;
                    ++t.flagged;
                    const RawDependence &last =
                        pending[i].sequence.deps.back();
                    report.addSuspect(last.store_pc, last.load_pc,
                                      outcomes[i].raw);
                }
            });
            counts.events += events.size();
            counts.deps += deps.size();
            counts.staged += n;
        }
    }
    counts.flagged = report.totals.flagged;

    const std::string text = ledger.span(Layer::kFleet, "fleet.render", [&] {
        for (const auto &client : clients) {
            report.totals.input_overwrites +=
                client->arena.stats.input_buffer_overwrites;
            report.totals.debug_overwrites +=
                client->arena.stats.debug_buffer_overwrites;
        }
        report.totals.clients = config.clients;
        return report.toText(config.top_k);
    });

    // Freeing is work too: charge it where the memory belongs.
    ledger.span(Layer::kAct, "act.release", [&] {
        pending = {};
        flat = {};
        clients.clear();
        module.reset();
    });
    ledger.span(Layer::kWorkloads, "workloads.release",
                [&] { traces = {}; });
    return text;
}

double
perEvent(std::int64_t ns, std::uint64_t count)
{
    return count == 0 ? 0.0
                      : static_cast<double>(ns) / static_cast<double>(count);
}

double
ratio(std::uint64_t part, std::uint64_t whole)
{
    return whole == 0 ? 0.0
                      : static_cast<double>(part) / static_cast<double>(whole);
}

/** One traced pass plus its untraced references, into @p samples. */
void
tracedFleetRound(const FleetConfig &config, const std::string &expected,
                 RunResult &result, PassSamples &samples)
{
    // The threaded service: CPU use against wall time, which tells
    // work apart from waiting.
    const double cpu0 = processCpuSeconds();
    const auto t0 = Clock::now();
    const FleetResult service = fleet::runFleetService(config);
    const double call_s = secondsSince(t0);
    const double cpu_s = processCpuSeconds() - cpu0;
    result.check(service.report.toText(config.top_k) == expected,
                 "service report equals replayFleetBatch");
    samples.add("fleet.cpu_util", cpu_s / call_s, "cpu/wall");
    samples.add("fleet.ingest_events_per_s",
                static_cast<double>(service.report.totals.events) /
                    service.wall_s,
                "events/s");

    // Untraced sequential reference for the tracing overhead.
    const auto r0 = Clock::now();
    const std::string replay =
        fleet::replayFleetBatch(config).report.toText(config.top_k);
    const double replay_s = secondsSince(r0);
    result.check(replay == expected, "replayFleetBatch is deterministic");

    Ledger ledger;
    FleetCounts counts;
    ledger.begin();
    const std::string traced = tracedFleetPass(config, ledger, counts);
    ledger.end();
    result.check(traced == expected,
                 "traced report equals replayFleetBatch");
    result.check(addLedger(ledger, samples),
                 "fleet ledger sums to wall time");
    std::fprintf(stderr, "perfbench: fleet ledger\n%s",
                 ledger.breakdown().c_str());

    const double wall_s = static_cast<double>(ledger.wallNs()) * 1e-9;
    samples.add("trace.overhead_pct", 100.0 * (wall_s / replay_s - 1.0),
                "%");
    const bool tracker = config.front == FrontEnd::kTracker;
    samples.add("deps.tracker.ns_per_event",
                tracker ? perEvent(ledger.spanNs("deps.tracker"),
                                   counts.events)
                        : 0.0,
                "ns/event");
    samples.add("deps.tracker.dep_ratio",
                tracker ? ratio(counts.deps, counts.events) : 0.0,
                "deps/event");
    samples.add("sim.memsys.ns_per_event",
                perEvent(ledger.spanNs("sim.memsys"), counts.events),
                "ns/event");
    samples.add("sim.memsys.known_writer_ratio",
                ratio(counts.deps, counts.loads), "deps/load");
    samples.add("act.stage.ns_per_dep",
                perEvent(ledger.spanNs("act.stage"), counts.deps), "ns/dep");
    samples.add("act.staged_ratio", ratio(counts.staged, counts.deps),
                "staged/dep");
    samples.add("act.dependences", static_cast<double>(counts.deps),
                "count");
    samples.add("hwnn.infer.ns_per_prediction",
                perEvent(ledger.spanNs("hwnn.infer"), counts.staged),
                "ns/prediction");
    samples.add("hwnn.infer_ensemble.ns_per_prediction",
                perEvent(ledger.spanNs("hwnn.infer_ensemble"),
                         counts.staged),
                "ns/prediction");
    samples.add("act.commit.ns_per_prediction",
                perEvent(ledger.spanNs("act.commit"), counts.staged),
                "ns/prediction");
    samples.add("act.flag_ratio", ratio(counts.flagged, counts.staged),
                "flag/pred");
    samples.add("act.debug_overwrites",
                static_cast<double>(service.report.totals.debug_overwrites),
                "count");
    samples.add("fleet.report.ns_per_suspect",
                perEvent(ledger.spanNs("fleet.report"), counts.flagged),
                "ns/suspect");
    samples.add("fleet.predictions_per_event",
                ratio(counts.staged, counts.events), "pred/event");
    samples.add("workloads.record.ns_per_event",
                perEvent(ledger.spanNs("workloads.record"),
                         counts.recorded_events),
                "ns/event");
}

} // namespace

RunResult
runFleet(const Options &opts)
{
    registerAllWorkloads();
    const FleetWorkload w = fleetWorkload(opts.workload);
    const auto [config, expected] = chooseFleet(w, opts.seed);
    std::fprintf(stderr, "perfbench: %s uses fleet seed %llu\n",
                 opts.workload.c_str(),
                 static_cast<unsigned long long>(config.seed));

    RunResult result;
    if (opts.trace) {
        PassSamples samples;
        repeatFor(opts.seconds, Clock::now(), [&] {
            tracedFleetRound(config, expected, result, samples);
        });
        samples.addTo(result);
        return result;
    }

    std::vector<double> setup_s, cpu_ns_per_event;
    std::vector<Trace> held;
    repeatFor(opts.seconds, Clock::now(), [&] {
        // Set-up: recording the client traces, which the service does
        // on its pool before streaming. Timed here one client after
        // another before every call: inside the call (call time minus
        // wall_s) it is a ~5 ms parallel section whose time varied
        // 30-60% between runs. The previous recording is freed only
        // after the next one, so the heap does not shrink and re-fault
        // between samples, which made the time bimodal.
        std::vector<Trace> traces;
        const auto t0 = Clock::now();
        for (std::uint32_t c = 0; c < config.clients; ++c)
            traces.push_back(recordClient(config, c));
        setup_s.push_back(secondsSince(t0));
        held = std::move(traces);

        const double c0 = processCpuSeconds();
        const FleetResult r = fleet::runFleetService(config);
        const double cpu_s = processCpuSeconds() - c0;
        result.check(r.report.toText(config.top_k) == expected &&
                         r.report.totals.events_dropped == 0,
                     "service report equals replayFleetBatch");
        cpu_ns_per_event.push_back(
            1e9 * cpu_s / static_cast<double>(r.report.totals.events));
    });
    result.set("setup_s", median(setup_s), "s");
    result.set("cpu_ns_per_event", median(cpu_ns_per_event), "ns/event");
    return result;
}

} // namespace perfbench
