/**
 * @file
 * Host-time ledger for the traced benchmark runs, plus the small
 * measurement helpers every workload shares (clocks, CPU time, peak
 * RSS, medians, the result record).
 *
 * A Ledger times coarse phases — one whole client trace through one
 * layer, one System::run, one training run — from the benchmark's own
 * code, around calls into each ACT module's public functions. Each
 * span is charged to one layer; a layer's self time is its spans'
 * durations minus the parts covered by nested child spans. The spans
 * are also written through telemetry::SpanTracer so the exported
 * Chrome trace shows the same breakdown.
 */

#ifndef PERFBENCH_LEDGER_HH
#define PERFBENCH_LEDGER_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace act::telemetry
{
class SpanTracer;
}

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p start. */
double secondsSince(Clock::time_point start);

/** Nanoseconds between two time points. */
std::int64_t nanosBetween(Clock::time_point start, Clock::time_point end);

/** CPU time of the whole process (all threads), in seconds. */
double processCpuSeconds();

/** Peak resident set size of the process so far, in MB. */
double peakRssMb();

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

/**
 * The tracer every Ledger writes its spans to. It is not the program's
 * global tracer, so the spans inside the ACT libraries stay dormant in
 * traced runs exactly as in untraced ones.
 */
act::telemetry::SpanTracer &ledgerTracer();

/** The ACT modules host time is attributed to. */
enum class Layer : std::uint8_t
{
    kWorkloads,
    kDeps,
    kSim,
    kAct,
    kHwnn,
    kNn,
    kDiagnosis,
    kFleet,
    kCount
};

/** Module name of @p layer, e.g. "deps". */
const char *layerName(Layer layer);

/**
 * Per-layer self-time accounting for one traced pass. Not thread-safe:
 * every traced pass runs on the calling thread.
 */
class Ledger
{
  public:
    /** Spans are mirrored into ledgerTracer() (when it is enabled). */
    Ledger();

    /** Time f() as span @p name charged to @p layer. */
    template <class F>
    decltype(auto)
    span(Layer layer, const char *name, F &&f)
    {
        const Scope scope(*this, layer, name);
        return std::forward<F>(f)();
    }

    /**
     * Charge an interval measured by the caller: @p ns nanoseconds
     * starting at @p start_us (nowUs() clock), as span @p name of
     * @p layer.
     */
    void charge(Layer layer, const char *name, std::uint64_t start_us,
                std::int64_t ns);

    /** The tracer's clock, in microseconds. */
    std::uint64_t nowUs() const;

    /** Mark the start and end of the pass the ledger must cover. */
    void begin();
    void end();

    /** Wall time between begin() and end(). */
    std::int64_t wallNs() const { return wall_ns_; }

    /** Self time charged to @p layer. */
    std::int64_t selfNs(Layer layer) const
    {
        return self_ns_[static_cast<std::size_t>(layer)];
    }

    /** Sum of every layer's self time. */
    std::int64_t attributedNs() const;

    /** Total duration of all spans named @p name (0 if none). */
    std::int64_t spanNs(const std::string &name) const;

    /** Per-layer self time as a share of the wall time, for docs. */
    std::string breakdown() const;

  private:
    struct Open
    {
        Layer layer;
        const char *name;
        Clock::time_point start;
        std::uint64_t start_us;
        std::int64_t child_ns = 0;
    };

    class Scope
    {
      public:
        Scope(Ledger &ledger, Layer layer, const char *name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Ledger &ledger_;
    };

    void close(Clock::time_point end);

    act::telemetry::SpanTracer &tracer_;
    std::vector<Open> open_;
    std::array<std::int64_t, static_cast<std::size_t>(Layer::kCount)>
        self_ns_{};
    std::map<std::string, std::int64_t> span_ns_;
    Clock::time_point begin_;
    std::int64_t wall_ns_ = 0;
};

/** One named measurement and its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** What one benchmark run reports. */
struct RunResult
{
    bool correct = true;
    std::uint64_t attempted = 0; //!< Output checks made.
    std::uint64_t failed = 0;    //!< Checks that did not match.
    std::map<std::string, Metric> metrics;

    /** Count one output check; a mismatch is printed to stderr. */
    void check(bool ok, const std::string &what);

    void
    set(const std::string &name, double value, const std::string &unit)
    {
        metrics[name] = Metric{value, unit};
    }
};

/**
 * Medians over the passes of a traced run: every pass adds its
 * per-layer values, the run reports each value's median.
 */
class PassSamples
{
  public:
    void add(const std::string &name, double value, const std::string &unit);
    void addTo(RunResult &result) const;

  private:
    std::map<std::string, std::pair<std::vector<double>, std::string>>
        samples_;
};

/**
 * Add the ledger's per-layer self times and coverage to @p samples:
 * `<layer>.self_ms` for every layer, `ledger.wall_ms` and
 * `ledger.unattributed_pct`. @return whether the self times sum to
 * the wall time within kLedgerTolerance.
 */
bool addLedger(const Ledger &ledger, PassSamples &samples);

/** Largest unattributed share of a traced pass's wall time. */
inline constexpr double kLedgerTolerance = 0.02;

} // namespace perfbench

#endif // PERFBENCH_LEDGER_HH
