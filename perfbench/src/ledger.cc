#include "ledger.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>

#include "telemetry/spans.hh"

namespace perfbench
{

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

std::int64_t
nanosBetween(Clock::time_point start, Clock::time_point end)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
        .count();
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux.
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid]
                                  : 0.5 * (values[mid - 1] + values[mid]);
}

const char *
layerName(Layer layer)
{
    switch (layer) {
      case Layer::kWorkloads: return "workloads";
      case Layer::kDeps: return "deps";
      case Layer::kSim: return "sim";
      case Layer::kAct: return "act";
      case Layer::kHwnn: return "hwnn";
      case Layer::kNn: return "nn";
      case Layer::kDiagnosis: return "diagnosis";
      case Layer::kFleet: return "fleet";
      case Layer::kCount: break;
    }
    return "?";
}

act::telemetry::SpanTracer &
ledgerTracer()
{
    static act::telemetry::SpanTracer tracer;
    return tracer;
}

Ledger::Ledger() : tracer_(ledgerTracer()) {}

Ledger::Scope::Scope(Ledger &ledger, Layer layer, const char *name)
    : ledger_(ledger)
{
    ledger_.open_.push_back(
        Open{layer, name, Clock::now(), ledger_.tracer_.nowUs(), 0});
}

Ledger::Scope::~Scope()
{
    ledger_.close(Clock::now());
}

void
Ledger::close(Clock::time_point end)
{
    const Open span = open_.back();
    open_.pop_back();
    const std::int64_t ns = nanosBetween(span.start, end);
    self_ns_[static_cast<std::size_t>(span.layer)] += ns - span.child_ns;
    span_ns_[span.name] += ns;
    if (!open_.empty())
        open_.back().child_ns += ns;
    tracer_.complete(span.name, layerName(span.layer), span.start_us,
                     static_cast<std::uint64_t>(ns / 1000));
}

void
Ledger::charge(Layer layer, const char *name, std::uint64_t start_us,
               std::int64_t ns)
{
    self_ns_[static_cast<std::size_t>(layer)] += ns;
    span_ns_[name] += ns;
    if (!open_.empty())
        open_.back().child_ns += ns;
    tracer_.complete(name, layerName(layer), start_us,
                     static_cast<std::uint64_t>(ns / 1000));
}

std::uint64_t
Ledger::nowUs() const
{
    return tracer_.nowUs();
}

void
Ledger::begin()
{
    begin_ = Clock::now();
}

void
Ledger::end()
{
    wall_ns_ = nanosBetween(begin_, Clock::now());
}

std::int64_t
Ledger::attributedNs() const
{
    std::int64_t total = 0;
    for (const std::int64_t ns : self_ns_)
        total += ns;
    return total;
}

std::int64_t
Ledger::spanNs(const std::string &name) const
{
    const auto it = span_ns_.find(name);
    return it == span_ns_.end() ? 0 : it->second;
}

std::string
Ledger::breakdown() const
{
    std::string text;
    char line[96];
    const double wall = static_cast<double>(std::max<std::int64_t>(1, wall_ns_));
    for (std::size_t l = 0; l < self_ns_.size(); ++l) {
        std::snprintf(line, sizeof(line), "  %-10s %10.2f ms %6.2f%%\n",
                      layerName(static_cast<Layer>(l)),
                      static_cast<double>(self_ns_[l]) * 1e-6,
                      100.0 * static_cast<double>(self_ns_[l]) / wall);
        text += line;
    }
    std::snprintf(line, sizeof(line),
                  "  %-10s %10.2f ms %6.2f%%\n  %-10s %10.2f ms\n",
                  "(gap)",
                  static_cast<double>(wall_ns_ - attributedNs()) * 1e-6,
                  100.0 * static_cast<double>(wall_ns_ - attributedNs()) /
                      wall,
                  "wall", static_cast<double>(wall_ns_) * 1e-6);
    text += line;
    return text;
}

void
RunResult::check(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        correct = false;
        std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    }
}

void
PassSamples::add(const std::string &name, double value,
                 const std::string &unit)
{
    auto &entry = samples_[name];
    entry.first.push_back(value);
    entry.second = unit;
}

void
PassSamples::addTo(RunResult &result) const
{
    for (const auto &[name, entry] : samples_)
        result.set(name, median(entry.first), entry.second);
}

bool
addLedger(const Ledger &ledger, PassSamples &samples)
{
    for (std::size_t l = 0; l < static_cast<std::size_t>(Layer::kCount);
         ++l) {
        const auto layer = static_cast<Layer>(l);
        samples.add(std::string(layerName(layer)) + ".self_ms",
                    static_cast<double>(ledger.selfNs(layer)) * 1e-6, "ms");
    }
    const double wall = static_cast<double>(ledger.wallNs());
    const double gap =
        wall > 0.0
            ? static_cast<double>(ledger.wallNs() - ledger.attributedNs()) /
                  wall
            : 1.0;
    samples.add("ledger.wall_ms", wall * 1e-6, "ms");
    samples.add("ledger.unattributed_pct", 100.0 * gap, "%");
    return std::fabs(gap) <= kLedgerTolerance;
}

} // namespace perfbench
