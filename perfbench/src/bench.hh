/**
 * @file
 * The benchmark's workloads. Each entry point measures one workload
 * for opts.seconds and checks every output it produces; with
 * opts.trace it instead runs the traced pass (per-layer ledger) next
 * to the untraced entry point and reports per-layer metrics.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <functional>
#include <string>

#include "ledger.hh"

namespace perfbench
{

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/**
 * Repeat @p pass while another one is expected to finish within
 * @p seconds of @p start (always at least once). The expected length
 * of a pass is the median of the passes so far.
 */
void repeatFor(double seconds, Clock::time_point start,
               const std::function<void()> &pass);

RunResult runFleet(const Options &opts);
RunResult runDiagnose(const Options &opts);
RunResult runSimulate(const Options &opts);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
