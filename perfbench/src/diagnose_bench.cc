/**
 * @file
 * diagnose: the full Figure-1 loop, diagnoseFailure() with
 * defaultDiagnosisSetup(), on pbzip2 (concurrency bug) and gzip
 * (sequential bug). Set-up records every trace a diagnosis reads —
 * training runs, the failing run, the postmortem runs — and serves
 * them through the setup's TraceProvider hooks, so a pass measures
 * training, the simulated production run, postmortem replay and
 * ranking. Each pass must log and rank both root causes at their
 * Table-V ranks.
 *
 * The traced pass re-runs the loop through its public pieces:
 * offlineTrain's phases, buildWeightStore, System, System::run,
 * collectDebugEntries, collectCacheSequences and postprocess.
 */

#include <map>
#include <memory>
#include <tuple>

#include "bench.hh"
#include "diagnosis/correct_set.hh"
#include "diagnosis/pipeline.hh"
#include "traced_train.hh"

namespace perfbench
{

using namespace act;

namespace
{

/** A bug and the Table-V rank its root cause must get. */
struct Bug
{
    const char *name;
    std::size_t rank;
};

/** The bug set, in an order the benchmark seed picks. */
std::vector<Bug>
bugSet(std::uint64_t seed)
{
    std::vector<Bug> bugs = {{"pbzip2", 2}, {"gzip", 2}};
    if (seed % 2 == 1)
        std::swap(bugs[0], bugs[1]);
    return bugs;
}

/** Every trace one diagnoseFailure(setup) reads, recorded up front. */
class TraceCache
{
  public:
    TraceCache(const Workload &workload, const DiagnosisSetup &setup)
    {
        for (std::size_t i = 0; i < setup.training.traces; ++i) {
            WorkloadParams params;
            params.seed = setup.training.seed_base + i;
            add(workload, params);
        }
        WorkloadParams failure;
        failure.seed = setup.failure_seed;
        failure.trigger_failure = true;
        failure.scale = setup.scale;
        add(workload, failure);
        for (std::size_t i = 0; i < setup.postmortem_traces; ++i) {
            WorkloadParams params;
            params.seed = setup.postmortem_seed_base + i;
            params.scale = setup.scale;
            add(workload, params);
        }
    }

    /** A provider serving copies; @p served counts the events. */
    TraceProvider
    provider(std::uint64_t &served, std::uint64_t &misses) const
    {
        return [this, &served, &misses](const Workload &workload,
                                        const WorkloadParams &params) {
            const auto it = traces_.find(key(params));
            if (it == traces_.end()) {
                ++misses;
                return workload.record(params);
            }
            served += it->second.events().size();
            return it->second;
        };
    }

  private:
    using Key = std::tuple<std::uint64_t, bool, std::uint32_t>;

    static Key
    key(const WorkloadParams &params)
    {
        return {params.seed, params.trigger_failure, params.scale};
    }

    void
    add(const Workload &workload, const WorkloadParams &params)
    {
        traces_.emplace(key(params), workload.record(params));
    }

    std::map<Key, Trace> traces_;
};

/** One bug's workload, setup and recorded traces. */
struct Prepared
{
    Bug bug;
    std::unique_ptr<Workload> workload;
    DiagnosisSetup setup;
    std::unique_ptr<TraceCache> cache;
};

std::vector<Prepared>
prepare(const std::vector<Bug> &bugs)
{
    std::vector<Prepared> prepared;
    for (const Bug &bug : bugs) {
        Prepared p{bug, makeWorkload(bug.name), defaultDiagnosisSetup(),
                   nullptr};
        p.cache = std::make_unique<TraceCache>(*p.workload, p.setup);
        prepared.push_back(std::move(p));
    }
    return prepared;
}

/** Counts and outcome of one traced diagnosis. */
struct TracedDiagnosis
{
    TrainedModel model;
    SystemStats run_stats;
    DiagnosisReport report;
    bool root_logged = false;
    std::optional<std::size_t> debug_position;
    std::optional<std::size_t> rank;
    std::uint64_t recorded_events = 0;
    std::uint64_t training_events = 0;
    std::uint64_t failure_events = 0;
    std::size_t correct_set_size = 0;
};

/** diagnoseFailure(), phase by phase. */
TracedDiagnosis
tracedDiagnose(Ledger &ledger, const Workload &workload,
               const DiagnosisSetup &setup)
{
    TracedDiagnosis out;
    PairEncoder encoder;
    TrainCounts train;
    out.model =
        tracedOfflineTrain(ledger, workload, encoder, setup.training, train);
    out.training_events = train.recorded_events;
    out.recorded_events = train.recorded_events;

    SystemConfig sys_config = setup.system;
    sys_config.act_enabled = true;
    sys_config.act.sequence_length = setup.training.sequence_length;
    sys_config.act.topology = out.model.topology;
    const WeightStore store =
        ledger.span(Layer::kDiagnosis, "diagnosis.weight_store", [&] {
            return buildWeightStore(out.model, workload.threadCount());
        });
    auto system = ledger.span(Layer::kSim, "sim.system.build", [&] {
        return std::make_unique<System>(sys_config, encoder, store);
    });

    WorkloadParams failure;
    failure.seed = setup.failure_seed;
    failure.trigger_failure = true;
    failure.scale = setup.scale;
    const Trace failure_trace = ledger.span(
        Layer::kWorkloads, "workloads.record",
        [&] { return workload.record(failure); });
    out.failure_events = failure_trace.events().size();
    out.recorded_events += out.failure_events;
    ledger.span(Layer::kSim, "sim.system.run",
                [&] { system->run(failure_trace); });
    out.run_stats = system->stats();

    const RawDependence root = workload.buggyDependence();
    const std::vector<DebugEntry> entries =
        ledger.span(Layer::kDiagnosis, "diagnosis.debug_entries", [&] {
            std::vector<DebugEntry> logged = system->collectDebugEntries();
            for (std::size_t i = 0; i < logged.size(); ++i) {
                const auto &entry = logged[logged.size() - 1 - i];
                if (!entry.sequence.deps.empty() &&
                    entry.sequence.deps.back() == root) {
                    out.root_logged = true;
                    out.debug_position = i;
                    break;
                }
            }
            return logged;
        });
    ledger.span(Layer::kSim, "sim.system.teardown", [&] { system.reset(); });

    CorrectSet correct;
    for (std::size_t i = 0; i < setup.postmortem_traces; ++i) {
        WorkloadParams params;
        params.seed = setup.postmortem_seed_base + i;
        params.scale = setup.scale;
        const Trace trace = ledger.span(Layer::kWorkloads, "workloads.record",
                                        [&] { return workload.record(params); });
        out.recorded_events += trace.events().size();
        ledger.span(Layer::kDiagnosis, "diagnosis.postmortem", [&] {
            correct.addSequences(collectCacheSequences(
                trace, sys_config.mem, setup.training.sequence_length));
        });
    }
    out.correct_set_size = correct.size();

    ledger.span(Layer::kDiagnosis, "diagnosis.postprocess", [&] {
        out.report = postprocess(entries, correct);
        out.rank = out.report.dependenceRankOf(root);
        if (!out.rank)
            out.rank = out.report.rankOf(root);
    });
    return out;
}

/** Table-V checks on one diagnosis outcome. */
void
checkDiagnosis(RunResult &result, const Bug &bug, bool root_logged,
               const std::optional<std::size_t> &rank)
{
    result.check(root_logged && rank && *rank == bug.rank,
                 std::string(bug.name) + ": root cause logged at rank " +
                     std::to_string(bug.rank) + ", got " +
                     (rank ? std::to_string(*rank) : "none"));
}

/** One traced pass over the bug set next to the untraced one. */
void
tracedDiagnoseRound(const std::vector<Bug> &bugs, RunResult &result,
                    PassSamples &samples)
{
    // Untraced reference: set-up (recording) plus diagnoseFailure().
    std::map<std::string, DiagnosisResult> reference;
    const auto r0 = Clock::now();
    for (Prepared &p : prepare(bugs)) {
        std::uint64_t served = 0, misses = 0;
        p.setup.trace_provider = p.cache->provider(served, misses);
        p.setup.training.trace_provider = p.setup.trace_provider;
        const auto t0 = Clock::now();
        reference[p.bug.name] = diagnoseFailure(*p.workload, p.setup);
        samples.add(std::string("diagnosis.leg_") + p.bug.name + "_ms",
                    1e3 * secondsSince(t0), "ms");
    }
    const double reference_s = secondsSince(r0);

    Ledger ledger;
    std::map<std::string, TracedDiagnosis> traced;
    ledger.begin();
    for (const Bug &bug : bugs) {
        const auto workload = makeWorkload(bug.name);
        traced[bug.name] =
            tracedDiagnose(ledger, *workload, defaultDiagnosisSetup());
    }
    ledger.end();

    std::uint64_t examples = 0, epochs = 0, recorded = 0, training = 0;
    std::uint64_t failure = 0, correct_set = 0, pruned = 0, distinct = 0;
    std::uint64_t rank_sum = 0;
    SystemStats modeled;
    for (const Bug &bug : bugs) {
        const TracedDiagnosis &t = traced[bug.name];
        const DiagnosisResult &r = reference[bug.name];
        checkDiagnosis(result, bug, r.root_logged, r.rank);
        checkDiagnosis(result, bug, t.root_logged, t.rank);
        result.check(t.model.weights == r.model.weights &&
                         t.run_stats.cycles == r.run_stats.cycles &&
                         t.debug_position == r.debug_position &&
                         t.report.toString(10) == r.report.toString(10),
                     std::string(bug.name) +
                         ": traced diagnosis equals diagnoseFailure");
        examples += t.model.example_count;
        epochs += t.model.training.epochs;
        recorded += t.recorded_events;
        training += t.training_events;
        failure += t.failure_events;
        correct_set += t.correct_set_size;
        pruned += t.report.pruned;
        distinct += t.report.distinct_entries;
        rank_sum += t.rank.value_or(0);
        modeled.cycles += t.run_stats.cycles;
        modeled.weight_transfer_instructions +=
            t.run_stats.weight_transfer_instructions;
        modeled.act.stall_cycles += t.run_stats.act.stall_cycles;
        modeled.act.mode_switches += t.run_stats.act.mode_switches;
        modeled.act.dependences += t.run_stats.act.dependences;
    }
    result.check(addLedger(ledger, samples),
                 "diagnose ledger sums to wall time");
    std::fprintf(stderr, "perfbench: diagnose ledger\n%s",
                 ledger.breakdown().c_str());

    const double ms = 1e-6;
    const double wall_s = static_cast<double>(ledger.wallNs()) * 1e-9;
    samples.add("trace.overhead_pct", 100.0 * (wall_s / reference_s - 1.0),
                "%");
    samples.add("nn.offline_train_ms",
                static_cast<double>(ledger.spanNs("nn.train")) * ms, "ms");
    samples.add("nn.examples", static_cast<double>(examples), "count");
    samples.add("nn.epochs", static_cast<double>(epochs), "count");
    samples.add("deps.input_generator.ns_per_event",
                static_cast<double>(ledger.spanNs("deps.input_generator")) /
                    static_cast<double>(training),
                "ns/event");
    samples.add("workloads.record.ns_per_event",
                static_cast<double>(ledger.spanNs("workloads.record")) /
                    static_cast<double>(recorded),
                "ns/event");
    samples.add("sim.system.build_ms",
                static_cast<double>(ledger.spanNs("sim.system.build")) * ms,
                "ms");
    samples.add("sim.system.ns_per_event",
                static_cast<double>(ledger.spanNs("sim.system.run")) /
                    static_cast<double>(failure),
                "ns/event");
    samples.add("diagnosis.postmortem_ms",
                static_cast<double>(ledger.spanNs("diagnosis.postmortem")) *
                    ms,
                "ms");
    samples.add("diagnosis.postprocess_ms",
                static_cast<double>(ledger.spanNs("diagnosis.postprocess")) *
                    ms,
                "ms");
    samples.add("diagnosis.correct_set_size",
                static_cast<double>(correct_set), "count");
    samples.add("diagnosis.prune_ratio",
                distinct == 0 ? 0.0
                              : static_cast<double>(pruned) /
                                    static_cast<double>(distinct),
                "pruned/distinct");
    samples.add("diagnosis.root_rank_sum", static_cast<double>(rank_sum),
                "rank");
    samples.add("sim.act_cycles", static_cast<double>(modeled.cycles),
                "cycles");
    samples.add("act.stall_cycles",
                static_cast<double>(modeled.act.stall_cycles), "cycles");
    samples.add("act.weight_transfer_instructions",
                static_cast<double>(modeled.weight_transfer_instructions),
                "count");
    samples.add("act.mode_switches",
                static_cast<double>(modeled.act.mode_switches), "count");
    samples.add("act.dependences",
                static_cast<double>(modeled.act.dependences), "count");
}

} // namespace

RunResult
runDiagnose(const Options &opts)
{
    registerAllWorkloads();
    const std::vector<Bug> bugs = bugSet(opts.seed);
    RunResult result;

    if (opts.trace) {
        PassSamples samples;
        repeatFor(opts.seconds, Clock::now(), [&] {
            tracedDiagnoseRound(bugs, result, samples);
        });
        samples.addTo(result);
        return result;
    }

    std::vector<double> setup_s, cpu_ns_per_event;
    std::uint64_t misses = 0;
    repeatFor(opts.seconds, Clock::now(), [&] {
        // Set-up: record every trace the bug set reads. It takes a few
        // milliseconds, so it is timed three times before every pass
        // and the last recording is used.
        std::vector<Prepared> prepared;
        for (int i = 0; i < 3; ++i) {
            const auto t0 = Clock::now();
            prepared = prepare(bugs);
            setup_s.push_back(secondsSince(t0));
        }
        std::uint64_t served = 0;
        for (Prepared &p : prepared) {
            p.setup.trace_provider = p.cache->provider(served, misses);
            p.setup.training.trace_provider = p.setup.trace_provider;
        }

        const double c0 = processCpuSeconds();
        std::vector<std::pair<Bug, DiagnosisResult>> outcomes;
        for (const Prepared &p : prepared)
            outcomes.emplace_back(p.bug, diagnoseFailure(*p.workload, p.setup));
        const double cpu_s = processCpuSeconds() - c0;
        for (const auto &[bug, r] : outcomes)
            checkDiagnosis(result, bug, r.root_logged, r.rank);
        cpu_ns_per_event.push_back(1e9 * cpu_s /
                                   static_cast<double>(served));
    });
    result.check(misses == 0, "every trace was served from set-up");
    result.set("setup_s", median(setup_s), "s");
    result.set("cpu_ns_per_event", median(cpu_ns_per_event), "ns/event");
    return result;
}

} // namespace perfbench
