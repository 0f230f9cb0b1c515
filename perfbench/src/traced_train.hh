/**
 * @file
 * offlineTrain(), replayed phase by phase under a Ledger: recording
 * (workloads), sequence generation and encoding (deps), dataset cap
 * and back-propagation (nn). The traced diagnose and simulate passes
 * share it; both check its weights against offlineTrain()'s.
 */

#ifndef PERFBENCH_TRACED_TRAIN_HH
#define PERFBENCH_TRACED_TRAIN_HH

#include <cstdint>

#include "diagnosis/pipeline.hh"
#include "ledger.hh"

namespace perfbench
{

/** Work counts of one traced training run. */
struct TrainCounts
{
    std::uint64_t recorded_events = 0; //!< Events of the training traces.
};

/**
 * The same model offlineTrain(@p workload, @p encoder, @p config)
 * returns, for configurations without load exclusion, per-thread
 * weights, ensemble members or a trace provider (fatal otherwise).
 */
act::TrainedModel tracedOfflineTrain(Ledger &ledger,
                                     const act::Workload &workload,
                                     act::DependenceEncoder &encoder,
                                     const act::OfflineTrainingConfig &config,
                                     TrainCounts &counts);

} // namespace perfbench

#endif // PERFBENCH_TRACED_TRAIN_HH
