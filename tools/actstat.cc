/**
 * @file
 * actstat — metrics-snapshot and trace introspection CLI.
 *
 * Subcommands:
 *   show FILE         pretty-print a metrics snapshot
 *   counters FILE     canonical "name value" lines of the stable
 *                     counters only (byte-comparable across runs)
 *   diff OLD NEW      counter deltas between two snapshots, with
 *                     per-second rates derived from the uptime delta
 *   validate FILE     check a metrics snapshot or Chrome trace JSON:
 *                     parses, has the expected shape, and (for traces)
 *                     per-thread timestamps are monotone
 *
 * Exit codes: 0 = ok, 1 = validation/parse failure, 2 = usage error.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>

#include "telemetry/json.hh"
#include "telemetry/metrics.hh"

namespace act
{
namespace
{

using telemetry::JsonValue;
using telemetry::Snapshot;

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    out = buffer.str();
    return true;
}

/** Rebuild a Snapshot from its "act-metrics-v1" serialisation. */
bool
snapshotFromJson(const JsonValue &root, Snapshot &snap,
                 std::string &error)
{
    const JsonValue *schema = root.find("schema");
    if (schema == nullptr || !schema->isString() ||
        schema->text != "act-metrics-v1") {
        error = "missing or unexpected \"schema\" "
                "(want \"act-metrics-v1\")";
        return false;
    }
    if (const JsonValue *uptime = root.find("uptime_ms");
        uptime != nullptr && uptime->isNumber()) {
        snap.uptime_ms = uptime->number;
    }
    const auto outOfRange = [&error](const std::string &key,
                                     const char *section) {
        error = "out-of-range value for \"" + key + "\" in \"" +
                section + "\"";
        return false;
    };
    for (const char *name : {"counters", "volatile", "gauges"}) {
        const JsonValue *section = root.find(name);
        if (section == nullptr) {
            error = std::string("missing section \"") + name + "\"";
            return false;
        }
        if (!section->isObject()) {
            error = std::string("section \"") + name +
                    "\" is not an object";
            return false;
        }
        for (const auto &[key, value] : section->object) {
            if (!value.isNumber()) {
                error = std::string("non-numeric value in \"") + name +
                        "\"";
                return false;
            }
            if (std::strcmp(name, "gauges") == 0) {
                // [-2^63, 2^63) is exactly what int64 can hold.
                if (!(value.number >= -0x1p63 && value.number < 0x1p63))
                    return outOfRange(key, name);
                snap.gauges[key] = static_cast<std::int64_t>(value.number);
                continue;
            }
            const std::optional<std::uint64_t> count = value.asU64();
            if (!count)
                return outOfRange(key, name);
            if (std::strcmp(name, "counters") == 0)
                snap.counters[key] = *count;
            else
                snap.volatile_counters[key] = *count;
        }
    }
    const JsonValue *hists = root.find("histograms");
    if (hists == nullptr || !hists->isObject()) {
        error = "missing section \"histograms\"";
        return false;
    }
    for (const auto &[key, cell] : hists->object) {
        telemetry::HistogramSnapshot hist;
        const auto field = [&cell](const char *field_name,
                                   std::uint64_t &out) {
            const JsonValue *value = cell.find(field_name);
            if (value == nullptr)
                return true;
            const std::optional<std::uint64_t> number = value->asU64();
            out = number.value_or(0);
            return number.has_value();
        };
        if (!field("count", hist.count) || !field("sum", hist.sum))
            return outOfRange(key, "histograms");
        if (const JsonValue *buckets = cell.find("buckets");
            buckets != nullptr && buckets->isArray()) {
            for (const JsonValue &pair : buckets->array) {
                if (!pair.isArray() || pair.array.size() != 2)
                    continue;
                const auto bucket = pair.array[0].asU64();
                const auto count = pair.array[1].asU64();
                if (!bucket || *bucket > 64 || !count)
                    return outOfRange(key, "histograms");
                hist.buckets.emplace_back(
                    static_cast<std::uint32_t>(*bucket), *count);
            }
        }
        snap.histograms[key] = std::move(hist);
    }
    return true;
}

bool
loadSnapshot(const std::string &path, Snapshot &snap)
{
    std::string text;
    if (!readFile(path, text)) {
        std::fprintf(stderr, "actstat: cannot read %s\n", path.c_str());
        return false;
    }
    std::string error;
    const auto root = telemetry::parseJson(text, &error);
    if (!root) {
        std::fprintf(stderr, "actstat: %s: %s\n", path.c_str(),
                     error.c_str());
        return false;
    }
    if (!snapshotFromJson(*root, snap, error)) {
        std::fprintf(stderr, "actstat: %s: %s\n", path.c_str(),
                     error.c_str());
        return false;
    }
    return true;
}

int
cmdShow(const std::string &path)
{
    Snapshot snap;
    if (!loadSnapshot(path, snap))
        return 1;
    std::printf("uptime: %.1f s\n", snap.uptime_ms / 1000.0);
    if (!snap.counters.empty()) {
        std::printf("\ncounters (stable):\n");
        for (const auto &[name, value] : snap.counters)
            std::printf("  %-36s %12llu\n", name.c_str(),
                        static_cast<unsigned long long>(value));
    }
    if (!snap.volatile_counters.empty()) {
        std::printf("\ncounters (volatile):\n");
        for (const auto &[name, value] : snap.volatile_counters)
            std::printf("  %-36s %12llu\n", name.c_str(),
                        static_cast<unsigned long long>(value));
    }
    if (!snap.gauges.empty()) {
        std::printf("\ngauges:\n");
        for (const auto &[name, value] : snap.gauges)
            std::printf("  %-36s %12lld\n", name.c_str(),
                        static_cast<long long>(value));
    }
    if (!snap.histograms.empty()) {
        std::printf("\nhistograms:\n");
        for (const auto &[name, hist] : snap.histograms) {
            std::printf("  %-36s count %llu mean %.1f\n", name.c_str(),
                        static_cast<unsigned long long>(hist.count),
                        hist.mean());
            for (const auto &[bucket, count] : hist.buckets) {
                std::printf("    <= %20llu %12llu\n",
                            static_cast<unsigned long long>(
                                telemetry::LatencyHistogram::
                                    bucketUpperBound(bucket)),
                            static_cast<unsigned long long>(count));
            }
        }
    }
    return 0;
}

int
cmdCounters(const std::string &path)
{
    Snapshot snap;
    if (!loadSnapshot(path, snap))
        return 1;
    std::fputs(telemetry::stableCountersText(snap).c_str(), stdout);
    return 0;
}

int
cmdDiff(const std::string &older_path, const std::string &newer_path)
{
    Snapshot older;
    Snapshot newer;
    if (!loadSnapshot(older_path, older) ||
        !loadSnapshot(newer_path, newer)) {
        return 1;
    }
    const Snapshot delta = telemetry::diffSnapshots(newer, older);
    const double dt_s = (newer.uptime_ms - older.uptime_ms) / 1000.0;
    std::printf("interval: %.1f s\n", dt_s);
    std::printf("%-36s %12s %12s\n", "counter", "delta", "per_s");
    const auto table = [dt_s](const std::map<std::string,
                                             std::uint64_t> &map) {
        for (const auto &[name, value] : map) {
            if (value == 0)
                continue;
            std::printf("%-36s %12llu %12.1f\n", name.c_str(),
                        static_cast<unsigned long long>(value),
                        dt_s > 0.0 ? static_cast<double>(value) / dt_s
                                   : 0.0);
        }
    };
    table(delta.counters);
    table(delta.volatile_counters);
    return 0;
}

/** Per-tid monotone-ts check over a trace_event JSON. */
bool
validateTrace(const JsonValue &root, std::string &error)
{
    const JsonValue *events = root.find("traceEvents");
    if (events == nullptr || !events->isArray()) {
        error = "missing \"traceEvents\" array";
        return false;
    }
    std::map<std::uint64_t, double> last_ts;
    for (const JsonValue &event : events->array) {
        if (!event.isObject()) {
            error = "non-object entry in traceEvents";
            return false;
        }
        const JsonValue *name = event.find("name");
        const JsonValue *phase = event.find("ph");
        if (name == nullptr || !name->isString() || phase == nullptr ||
            !phase->isString()) {
            error = "event without string \"name\"/\"ph\"";
            return false;
        }
        if (phase->text == "M")
            continue; // Metadata records carry no timestamp.
        const JsonValue *ts = event.find("ts");
        const JsonValue *tid = event.find("tid");
        if (ts == nullptr || !ts->isNumber() || tid == nullptr ||
            !tid->isNumber()) {
            error = "timed event without numeric \"ts\"/\"tid\" "
                    "(name: " + name->text + ")";
            return false;
        }
        const std::optional<std::uint64_t> tid_value = tid->asU64();
        if (!tid_value) {
            error = "out-of-range \"tid\" (name: " + name->text + ")";
            return false;
        }
        const std::uint64_t thread = *tid_value;
        const auto it = last_ts.find(thread);
        if (it != last_ts.end() && ts->number < it->second) {
            error = "ts not monotone within tid " +
                    std::to_string(thread);
            return false;
        }
        last_ts[thread] = ts->number;
    }
    return true;
}

int
cmdValidate(const std::string &path)
{
    std::string text;
    if (!readFile(path, text)) {
        std::fprintf(stderr, "actstat: cannot read %s\n", path.c_str());
        return 1;
    }
    std::string error;
    const auto root = telemetry::parseJson(text, &error);
    if (!root) {
        std::fprintf(stderr, "actstat: %s: invalid JSON: %s\n",
                     path.c_str(), error.c_str());
        return 1;
    }
    if (root->find("traceEvents") != nullptr) {
        if (!validateTrace(*root, error)) {
            std::fprintf(stderr, "actstat: %s: %s\n", path.c_str(),
                         error.c_str());
            return 1;
        }
        std::printf("%s: valid trace (%zu events)\n", path.c_str(),
                    root->find("traceEvents")->array.size());
        return 0;
    }
    Snapshot snap;
    if (!snapshotFromJson(*root, snap, error)) {
        std::fprintf(stderr, "actstat: %s: %s\n", path.c_str(),
                     error.c_str());
        return 1;
    }
    std::printf("%s: valid metrics snapshot (%zu stable, %zu volatile, "
                "%zu gauges, %zu histograms)\n",
                path.c_str(), snap.counters.size(),
                snap.volatile_counters.size(), snap.gauges.size(),
                snap.histograms.size());
    return 0;
}

int
usage()
{
    std::fprintf(stderr, "usage: actstat <show FILE | counters FILE | "
                         "diff OLD NEW | validate FILE>\n");
    return 2;
}

} // namespace
} // namespace act

int
main(int argc, char **argv)
{
    using namespace act;
    if (argc < 3)
        return usage();
    const std::string command = argv[1];
    if (command == "show" && argc == 3)
        return cmdShow(argv[2]);
    if (command == "counters" && argc == 3)
        return cmdCounters(argv[2]);
    if (command == "diff" && argc == 4)
        return cmdDiff(argv[2], argv[3]);
    if (command == "validate" && argc == 3)
        return cmdValidate(argv[2]);
    return usage();
}
