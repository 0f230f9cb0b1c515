/**
 * @file
 * perfbench: the repository benchmark program.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--trace-file PATH]
 *
 * Prints one line per metric, then one JSON object as the last line:
 * {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
 * With --trace 0 the metrics are the end-to-end ones; with --trace 1
 * the per-layer ones from the traced pass, and the spans are exported
 * as Chrome trace JSON to --trace-file. README.md explains each.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench.hh"
#include "telemetry/spans.hh"

namespace perfbench
{

namespace
{

using Names = std::vector<std::pair<const char *, const char *>>;

/** End-to-end metrics every untraced run reports, with their units. */
const Names kEndToEnd = {
    {"setup_s", "s"},
    {"cpu_ns_per_event", "ns/event"},
    {"peak_rss_mb", "MB"},
    {"ok_frac", "frac"},
};

/**
 * Per-layer metrics every traced run reports. A layer the workload
 * does not exercise reports 0.
 */
const Names kPerLayer = {
    {"workloads.self_ms", "ms"},
    {"deps.self_ms", "ms"},
    {"sim.self_ms", "ms"},
    {"act.self_ms", "ms"},
    {"hwnn.self_ms", "ms"},
    {"nn.self_ms", "ms"},
    {"diagnosis.self_ms", "ms"},
    {"fleet.self_ms", "ms"},
    {"ledger.wall_ms", "ms"},
    {"ledger.unattributed_pct", "%"},
    {"trace.overhead_pct", "%"},
    {"workloads.record.ns_per_event", "ns/event"},
    {"deps.tracker.ns_per_event", "ns/event"},
    {"deps.tracker.dep_ratio", "deps/event"},
    {"deps.input_generator.ns_per_event", "ns/event"},
    {"sim.memsys.ns_per_event", "ns/event"},
    {"sim.memsys.known_writer_ratio", "deps/load"},
    {"sim.system.build_ms", "ms"},
    {"sim.system.ns_per_event", "ns/event"},
    {"sim.base_cycles", "cycles"},
    {"sim.act_cycles", "cycles"},
    {"sim.act_overhead_pct", "%"},
    {"act.on_dependence.ns_per_dep", "ns/dep"},
    {"act.stall_cycles", "cycles"},
    {"act.weight_transfer_instructions", "count"},
    {"act.mode_switches", "count"},
    {"act.dependences", "count"},
    {"act.stage.ns_per_dep", "ns/dep"},
    {"act.staged_ratio", "staged/dep"},
    {"act.commit.ns_per_prediction", "ns/prediction"},
    {"act.flag_ratio", "flag/pred"},
    {"act.debug_overwrites", "count"},
    {"hwnn.infer.ns_per_prediction", "ns/prediction"},
    {"hwnn.infer_ensemble.ns_per_prediction", "ns/prediction"},
    {"nn.offline_train_ms", "ms"},
    {"nn.examples", "count"},
    {"nn.epochs", "count"},
    {"diagnosis.postmortem_ms", "ms"},
    {"diagnosis.postprocess_ms", "ms"},
    {"diagnosis.correct_set_size", "count"},
    {"diagnosis.prune_ratio", "pruned/distinct"},
    {"diagnosis.root_rank_sum", "rank"},
    {"diagnosis.leg_pbzip2_ms", "ms"},
    {"diagnosis.leg_gzip_ms", "ms"},
    {"fleet.report.ns_per_suspect", "ns/suspect"},
    {"fleet.predictions_per_event", "pred/event"},
    {"fleet.cpu_util", "cpu/wall"},
    {"fleet.ingest_events_per_s", "events/s"},
};

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload fleet_tracker|"
                 "fleet_mem_ensemble|diagnose|simulate_fig8 --seed N "
                 "--seconds S --trace 0|1 [--trace-file PATH]\n");
    std::exit(2);
}

/** Complete @p result to exactly the metric set @p names. */
void
conform(RunResult &result, const Names &names)
{
    std::map<std::string, Metric> metrics;
    for (const auto &[name, unit] : names) {
        const auto it = result.metrics.find(name);
        const double value = it == result.metrics.end() ? 0.0 : it->second.value;
        if (it != result.metrics.end() && it->second.unit != unit) {
            std::fprintf(stderr, "perfbench: %s reported in %s, not %s\n",
                         name, it->second.unit.c_str(), unit);
            std::exit(1);
        }
        metrics[name] = Metric{value, unit};
    }
    for (const auto &[name, metric] : result.metrics) {
        if (metrics.count(name) == 0) {
            std::fprintf(stderr, "perfbench: undeclared metric %s\n",
                         name.c_str());
            std::exit(1);
        }
    }
    result.metrics = std::move(metrics);
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

void
print(const RunResult &result)
{
    for (const auto &[name, metric] : result.metrics)
        std::printf("%-40s %.6g %s\n", name.c_str(), metric.value,
                    metric.unit.c_str());
    std::string json = "{\"correct\": ";
    json += result.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(result.attempted);
    json += ", \"failed\": " + std::to_string(result.failed);
    json += ", \"metrics\": {";
    bool first = true;
    char value[64];
    for (const auto &[name, metric] : result.metrics) {
        std::snprintf(value, sizeof(value), "%.17g", metric.value);
        json += first ? "" : ", ";
        json += jsonString(name) + ": {\"value\": " + value +
                ", \"unit\": " + jsonString(metric.unit) + "}";
        first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

} // namespace

void
repeatFor(double seconds, Clock::time_point start,
          const std::function<void()> &pass)
{
    std::vector<double> lengths;
    do {
        const auto t0 = Clock::now();
        pass();
        lengths.push_back(secondsSince(t0));
    } while (secondsSince(start) + median(lengths) <= seconds);
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options opts;
    std::string trace_file;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *value = argv[i + 1];
        if (flag == "--workload")
            opts.workload = value;
        else if (flag == "--seed")
            opts.seed = std::strtoull(value, nullptr, 10);
        else if (flag == "--seconds")
            opts.seconds = std::strtod(value, nullptr);
        else if (flag == "--trace")
            opts.trace = std::strcmp(value, "1") == 0;
        else if (flag == "--trace-file")
            trace_file = value;
        else
            usage();
    }
    if (argc % 2 == 0 || opts.seconds <= 0.0)
        usage();

    auto &tracer = ledgerTracer();
    tracer.setEnabled(opts.trace);
    tracer.nameThread("perfbench");

    RunResult result;
    if (opts.workload == "fleet_tracker" ||
        opts.workload == "fleet_mem_ensemble")
        result = runFleet(opts);
    else if (opts.workload == "diagnose")
        result = runDiagnose(opts);
    else if (opts.workload == "simulate_fig8")
        result = runSimulate(opts);
    else
        usage();

    if (opts.trace) {
        conform(result, kPerLayer);
        if (!trace_file.empty() && !tracer.exportTo(trace_file)) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         trace_file.c_str());
            return 1;
        }
    } else {
        result.set("peak_rss_mb", peakRssMb(), "MB");
        result.set("ok_frac",
                   result.attempted == 0
                       ? 0.0
                       : 1.0 - static_cast<double>(result.failed) /
                                   static_cast<double>(result.attempted),
                   "frac");
        conform(result, kEndToEnd);
    }
    print(result);
    return 0;
}
