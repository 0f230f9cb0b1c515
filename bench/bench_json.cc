#include "bench/bench_json.hh"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "telemetry/json.hh"

namespace act::bench
{

namespace
{

/** Shortest float rendering that round-trips (mirrors report.cc). */
std::string
num(double v)
{
    char buf[64];
    for (int precision = 6; precision <= 17; ++precision) {
        std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    return buf;
}

using telemetry::JsonValue;

/** Copy string member @p key of @p object (absent keeps the default). */
bool
readString(const JsonValue &object, const char *key, std::string &out)
{
    const JsonValue *value = object.find(key);
    if (value == nullptr)
        return true;
    if (!value->isString())
        return false;
    out = value->text;
    return true;
}

/** Copy number member @p key of @p object (absent keeps the default). */
bool
readNumber(const JsonValue &object, const char *key, double &out)
{
    const JsonValue *value = object.find(key);
    if (value == nullptr)
        return true;
    if (!value->isNumber())
        return false;
    out = value->number;
    return true;
}

/**
 * Append one entry per object of array member @p key, each filled by
 * @p read; an absent array is empty, anything but an array of
 * objects is malformed.
 */
template <typename Entry, typename Read>
bool
readArray(const JsonValue &root, const char *key, std::vector<Entry> &out,
          Read read)
{
    const JsonValue *value = root.find(key);
    if (value == nullptr)
        return true;
    if (!value->isArray())
        return false;
    for (const JsonValue &item : value->array) {
        Entry entry;
        if (!item.isObject() || !read(item, entry))
            return false;
        out.push_back(std::move(entry));
    }
    return true;
}

bool
readMicro(const JsonValue &object, MicroResult &out)
{
    double iterations = 0;
    if (!readString(object, "name", out.name) ||
        !readNumber(object, "ns_per_op", out.ns_per_op) ||
        !readNumber(object, "events_per_s", out.events_per_s) ||
        !readNumber(object, "iterations", iterations))
        return false;
    out.iterations =
        iterations > 0 ? static_cast<std::uint64_t>(iterations) : 0;
    return true;
}

bool
readWall(const JsonValue &object, WallClockResult &out)
{
    return readString(object, "name", out.name) &&
           readNumber(object, "ms", out.ms);
}

bool
readTelemetry(const JsonValue &object, TelemetryEntry &out)
{
    return readString(object, "name", out.name) &&
           readNumber(object, "value", out.value);
}

} // namespace

const MicroResult *
BenchReport::find(const std::string &name) const
{
    for (const auto &result : results) {
        if (result.name == name)
            return &result;
    }
    return nullptr;
}

std::string
toJson(const BenchReport &report)
{
    std::ostringstream out;
    out << "{\n";
    out << "  \"schema\": \"" << report.schema << "\",\n";
    out << "  \"build_type\": \"" << report.build_type << "\",\n";
    out << "  \"results\": [\n";
    for (std::size_t i = 0; i < report.results.size(); ++i) {
        const MicroResult &r = report.results[i];
        out << "    {\"name\": \"" << r.name
            << "\", \"ns_per_op\": " << num(r.ns_per_op)
            << ", \"events_per_s\": " << num(r.events_per_s)
            << ", \"iterations\": " << r.iterations << "}"
            << (i + 1 < report.results.size() ? "," : "") << "\n";
    }
    out << "  ],\n";
    out << "  \"wall_clock\": [\n";
    for (std::size_t i = 0; i < report.wall_clock.size(); ++i) {
        const WallClockResult &w = report.wall_clock[i];
        out << "    {\"name\": \"" << w.name << "\", \"ms\": " << num(w.ms)
            << "}" << (i + 1 < report.wall_clock.size() ? "," : "")
            << "\n";
    }
    out << "  ],\n";
    out << "  \"telemetry\": [\n";
    for (std::size_t i = 0; i < report.telemetry.size(); ++i) {
        const TelemetryEntry &t = report.telemetry[i];
        out << "    {\"name\": \"" << t.name
            << "\", \"value\": " << num(t.value) << "}"
            << (i + 1 < report.telemetry.size() ? "," : "") << "\n";
    }
    out << "  ]\n";
    out << "}\n";
    return out.str();
}

bool
loadBenchReport(const std::string &path, BenchReport &out)
{
    std::ifstream file(path);
    if (!file)
        return false;
    std::ostringstream buffer;
    buffer << file.rdbuf();

    out = BenchReport{};
    out.schema.clear();
    // Unknown keys are skipped; parseJson bounds nesting depth, so a
    // hostile baseline is rejected instead of exhausting the stack.
    const auto root = telemetry::parseJson(buffer.str());
    return root != nullptr && root->isObject() &&
           readString(*root, "schema", out.schema) &&
           readString(*root, "build_type", out.build_type) &&
           readArray(*root, "results", out.results, readMicro) &&
           readArray(*root, "wall_clock", out.wall_clock, readWall) &&
           readArray(*root, "telemetry", out.telemetry, readTelemetry) &&
           out.schema == "act-bench-trend-v1";
}

bool
writeBenchReport(const BenchReport &report, const std::string &path)
{
    std::ofstream file(path);
    if (!file)
        return false;
    file << toJson(report);
    return static_cast<bool>(file.flush());
}

std::vector<TrendEntry>
compareReports(const BenchReport &current, const BenchReport &baseline,
               double threshold)
{
    std::vector<TrendEntry> entries;
    for (const MicroResult &now : current.results) {
        const MicroResult *base = baseline.find(now.name);
        if (base == nullptr || base->events_per_s <= 0.0)
            continue;
        TrendEntry entry;
        entry.name = now.name;
        entry.current_events_per_s = now.events_per_s;
        entry.baseline_events_per_s = base->events_per_s;
        entry.ratio = now.events_per_s / base->events_per_s;
        entry.regression = entry.ratio < 1.0 - threshold;
        entries.push_back(std::move(entry));
    }
    return entries;
}

} // namespace act::bench
