#include "traced_train.hh"

#include "common/logging.hh"

namespace perfbench
{

using namespace act;

TrainedModel
tracedOfflineTrain(Ledger &ledger, const Workload &workload,
                   DependenceEncoder &encoder,
                   const OfflineTrainingConfig &config, TrainCounts &counts)
{
    if (!config.exclude_load_pcs.empty() || config.per_thread_weights ||
        config.ensemble_members != 1 || config.trace_provider) {
        ACT_FATAL("perfbench: traced training supports the plain "
                  "single-network configuration only");
    }

    TrainedModel model;
    InputGenerator generator(config.sequence_length);
    Dataset data;
    for (std::size_t i = 0; i < config.traces; ++i) {
        WorkloadParams params;
        params.seed = config.seed_base + i;
        const Trace trace = ledger.span(
            Layer::kWorkloads, "workloads.record",
            [&] { return workload.record(params); });
        counts.recorded_events += trace.events().size();
        const GeneratedSequences sequences =
            ledger.span(Layer::kDeps, "deps.input_generator",
                        [&] { return generator.process(trace); });
        model.dependence_count += sequences.dependence_count;
        ledger.span(Layer::kDeps, "deps.encode", [&] {
            data.merge(InputGenerator::toDataset(sequences, encoder));
        });
    }

    ledger.span(Layer::kNn, "nn.train", [&] {
        Rng rng(config.rng_seed);
        if (data.size() > config.max_examples) {
            data.shuffle(rng);
            Dataset capped;
            for (std::size_t i = 0; i < config.max_examples; ++i)
                capped.add(data[i]);
            data = std::move(capped);
        }
        model.example_count = data.size();
        model.topology = Topology{config.sequence_length * encoder.width(),
                                  config.hidden_neurons};
        MlpNetwork network(model.topology, rng);
        model.training = trainNetwork(network, data, config.trainer, rng);
        model.weights = network.weights();
    });
    return model;
}

} // namespace perfbench
