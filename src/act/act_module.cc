#include "act/act_module.hh"

#include <algorithm>

#include "analysis/config_check.hh"
#include "common/logging.hh"
#include "telemetry/metrics.hh"
#include "telemetry/spans.hh"

namespace act
{

namespace
{

/** Quarantines of one tid before the store is distrusted for it. */
constexpr std::uint32_t kQuarantineEscalationThreshold = 2;

/**
 * Gate construction on the full configuration contract. Runs before
 * any member is built (the hardware network asserts on bad topologies)
 * and reports every violation, naming the offending knob and value,
 * instead of tripping a bare assert on the first one.
 */
const ActConfig &
checkedConfig(const ActConfig &config, const DependenceEncoder &encoder)
{
    const auto findings = validateActConfig(config, encoder.width());
    if (!clean(findings))
        ACT_FATAL("invalid ActConfig:\n" << formatFindings(findings));
    return config;
}

} // namespace

ActModule::ActModule(const ActConfig &config,
                     const DependenceEncoder &encoder)
    : config_(checkedConfig(config, encoder)), encoder_(encoder.clone()),
      members_(config_.ensemble.members,
               HwNeuralNetwork(config_.hw, config_.topology)),
      fifo_done_(config_.hw.fifo_entries, 0), own_arena_(config_),
      arena_(&own_arena_)
{
    for (const HwNeuralNetwork &member : members_)
        member_ptrs_.push_back(&member);
}

bool
ActModule::weightsUsable(std::span<const double> weights) const
{
    // loadWeights() quantises through an int32 cast, so NaN/Inf or
    // out-of-range values (e.g. from an injected bit flip in the
    // store) would be undefined behaviour — they must be rejected
    // before they reach the network. Validation runs against the
    // network's current topology, which only diverges from the
    // configured one after a dynamic-topology resize.
    return clean(validateWeights(members_[0].topology(), weights));
}

void
ActModule::recordQuarantine(ThreadId tid, const char *where)
{
    // Degradation, not death: a corrupt stored set is quarantined and
    // the module retrains from scratch, exactly as if the store had no
    // entry for the thread. The counter/log make the event visible
    // beyond ActModuleStats; the per-tid tally drives escalation so a
    // rotten store entry cannot trap the module in a silent
    // quarantine-retrain loop.
    ActArena &arena = *arena_;
    ++arena.stats.quarantined_weight_sets;
    static const telemetry::Counter quarantines =
        telemetry::MetricsRegistry::global().counter(
            "act.weight_quarantine");
    quarantines.inc();
    telemetry::SpanTracer::global().instant(
        "weight_quarantine", "act",
        {telemetry::arg("tid", std::uint64_t{tid})});
    logWarnEvent("act.weight_quarantine",
                 {logField("tid", std::uint64_t{tid}),
                  logField("where", where)});
    const std::uint32_t count = ++arena.quarantines_by_tid[tid];
    if (count == kQuarantineEscalationThreshold) {
        ++arena.stats.quarantine_escalations;
        static const telemetry::Counter escalations =
            telemetry::MetricsRegistry::global().counter(
                "act.quarantine_escalations");
        escalations.inc();
        logWarnEvent("act.quarantine_escalation",
                     {logField("tid", std::uint64_t{tid}),
                      logField("quarantines", std::uint64_t{count})});
    }
}

std::size_t
ActModule::initThread(ThreadId tid, const WeightStore &store)
{
    ActArena &arena = *arena_;

    // Escalated tids skip the store entirely: their entries already
    // failed quarantine repeatedly, so the module goes straight to
    // online training instead of reloading known-bad weights.
    const auto seen = arena.quarantines_by_tid.find(tid);
    const bool distrusted =
        seen != arena.quarantines_by_tid.end() &&
        seen->second >= kQuarantineEscalationThreshold;

    // Each member loads its own stored set. After a dynamic-topology
    // resize the binary's sets no longer fit the network; that is a
    // size change, not corruption, so such a set is dropped without
    // quarantine (members 1..K-1 are always held to their size).
    // A member >= 1 with no usable set of its own falls back to member
    // 0's, which degenerates it to a unanimous copy instead of an
    // always-valid zero network that would starve the quorum.
    const bool resized =
        members_[0].topology().hidden != config_.topology.hidden;
    const std::size_t count = members_[0].weightCount();
    const std::vector<double> zeros(count, 0.0);
    std::optional<std::vector<double>> primary;
    for (std::size_t m = 0; m < memberCount(); ++m) {
        auto weights = distrusted ? std::nullopt : store.getMember(tid, m);
        if (weights && (m > 0 || resized) && weights->size() != count)
            weights.reset();
        if (weights && config_.protector &&
            config_.protector->inspect(weightSetId(tid, m), *weights)) {
            ++arena.stats.repaired_weight_sets;
            static const telemetry::Counter repairs =
                telemetry::MetricsRegistry::global().counter(
                    "act.weight_repairs");
            repairs.inc();
            logWarnEvent("act.weight_repair",
                         {logField("tid", std::uint64_t{tid}),
                          logField("member", std::uint64_t{m})});
        }
        const bool usable = weights && weightsUsable(*weights);
        if (weights && !usable)
            recordQuarantine(tid, "init");
        if (usable)
            members_[m].loadWeights(*weights);
        else
            members_[m].loadWeights(primary ? *primary : zeros);
        if (m > 0)
            continue;
        if (usable) {
            primary = std::move(weights);
            arena.mode = ActMode::kTesting;
        } else {
            // Default weights: the all-zero network outputs 0.5 for
            // every input, classifying everything as (barely) valid
            // until the first measured interval drives the module into
            // training.
            switchMode(ActMode::kTraining);
        }
    }

    arena.input.clear();
    arena.rate.resetInterval();
    return count * memberCount();
}

std::vector<double>
ActModule::saveWeights() const
{
    std::vector<double> all;
    for (const HwNeuralNetwork &member : members_) {
        const std::vector<double> w = member.storeWeights();
        all.insert(all.end(), w.begin(), w.end());
    }
    return all;
}

void
ActModule::restoreWeights(const std::vector<double> &weights)
{
    const std::size_t chunk = members_[0].weightCount();
    const auto part = [&](std::size_t m) {
        return std::span<const double>(weights).subspan(m * chunk, chunk);
    };
    bool usable = weights.size() == chunk * memberCount();
    for (std::size_t m = 0; usable && m < memberCount(); ++m)
        usable = weightsUsable(part(m));
    if (usable) {
        for (std::size_t m = 0; m < memberCount(); ++m)
            members_[m].loadWeights(part(m));
    } else {
        ++arena_->stats.quarantined_weight_sets;
        static const telemetry::Counter quarantines =
            telemetry::MetricsRegistry::global().counter(
                "act.weight_quarantine");
        quarantines.inc();
        telemetry::SpanTracer::global().instant("weight_quarantine",
                                                "act", {});
        logWarnEvent("act.weight_quarantine",
                     {logField("where", "restore")});
        const std::vector<double> zeros(chunk, 0.0);
        for (HwNeuralNetwork &member : members_)
            member.loadWeights(zeros);
        switchMode(ActMode::kTraining);
    }
    arena_->input.clear();
}

void
ActModule::exportWeights(WeightStore &store, ThreadId tid) const
{
    for (std::size_t m = 0; m < memberCount(); ++m) {
        std::vector<double> w = members_[m].storeWeights();
        if (w.size() == store.weightCount())
            store.setMember(tid, m, std::move(w));
    }
}

void
ActModule::flushPipeline()
{
    // Queued inputs are dropped; the one in the compute stages still
    // finishes, so compute_free_at_ stays.
    std::fill(fifo_done_.begin(), fifo_done_.end(), 0);
    fifo_clock_ = 0;
}

void
ActModule::switchMode(ActMode next)
{
    if (arena_->mode == next)
        return;
    arena_->mode = next;
    ++arena_->stats.mode_switches;
    // Mode flips happen at most once per misprediction-rate interval,
    // so an instant event here cannot perturb the per-event hot loop.
    telemetry::SpanTracer::global().instant(
        "mode_switch", "act",
        {telemetry::arg("to", next == ActMode::kTraining ? "training"
                                                         : "testing")});
    arena_->rate.resetInterval();
}

void
ActModule::resizeHidden(std::size_t hidden)
{
    const std::size_t before = members_[0].topology().hidden;
    if (hidden == before || hidden == 0)
        return;
    const Topology next{config_.topology.inputs, hidden};
    for (HwNeuralNetwork &member : members_)
        member.setTopology(next); // zeroes the weights
    if (hidden > before)
        ++arena_->stats.topology_grows;
    else
        ++arena_->stats.topology_shrinks;
    telemetry::SpanTracer::global().instant(
        "topology_resize", "act",
        {telemetry::arg("hidden", std::uint64_t{hidden})});
    logWarnEvent("act.topology_resize",
                 {logField("from", std::uint64_t{before}),
                  logField("to", std::uint64_t{hidden})});
    // Fresh zero weights classify everything as (barely) valid; the
    // module must retrain at the new size before testing again.
    if (arena_->mode != ActMode::kTraining)
        switchMode(ActMode::kTraining);
    else
        arena_->rate.resetInterval();
}

void
ActModule::onIntervalComplete()
{
    ActArena &arena = *arena_;
    // Members share the M-neuron hardware bank, so the growth ceiling
    // is the per-member slice of it, not the whole bank.
    const std::size_t max_hidden =
        config_.hw.neuron.max_inputs / memberCount();
    const ModeDecision decision = modeControllerStep(
        config_.controller, config_.misprediction_threshold, arena.ctl,
        arena.mode == ActMode::kTraining, arena.rate.lastRate(),
        members_[0].topology().hidden, max_hidden);
    if (decision.dwell_suppressed)
        ++arena.stats.dwell_suppressed_switches;
    if (decision.switch_mode) {
        switchMode(arena.mode == ActMode::kTesting ? ActMode::kTraining
                                                   : ActMode::kTesting);
    } else if (decision.grow) {
        resizeHidden(members_[0].topology().hidden + 1);
    } else if (decision.shrink) {
        resizeHidden(members_[0].topology().hidden - 1);
    }
}

ActOutcome
ActModule::onDependence(const RawDependence &dep, ThreadId tid,
                        Cycle cycle)
{
    ActOutcome outcome;
    ActArena &arena = *arena_;
    const bool training = arena.mode == ActMode::kTraining;
    if (training)
        ++arena.stats.training_dependences;
    if (!stage(dep))
        return outcome;

    // Timing: the load retires only once the input FIFO accepts the
    // sequence. A full FIFO — its oldest entry still in flight — stalls
    // it until that entry completes (Section III-C / IV-A). S1 insert
    // takes one cycle; service begins when the previous input vacates
    // the compute stages. The ensemble shares the M-neuron bank, so
    // one admission covers all members — the budget check in
    // validateActConfig guarantees they fit side by side.
    ACT_ASSERT(cycle >= fifo_clock_);
    fifo_clock_ = cycle;
    Cycle &oldest = fifo_done_[fifo_head_];
    Cycle now = cycle;
    if (oldest > now) {
        outcome.stall_cycles = oldest - now;
        ++arena.stats.stalled_offers;
        arena.stats.stall_cycles += outcome.stall_cycles;
        now = oldest;
    }
    const Cycle start = std::max(now + 1, compute_free_at_);
    compute_free_at_ = start + (training ? config_.hw.trainServiceTime()
                                         : config_.hw.testServiceTime());
    oldest = compute_free_at_;
    fifo_head_ = (fifo_head_ + 1) % fifo_done_.size();

    // Function: every member classifies the sequence. In training mode
    // all dependences are presumed valid, so each member learns the
    // ones it would have rejected; the commit then re-reads member 0's
    // raw output from the updated weights, as the hardware would log
    // it after the back-propagation pass.
    const std::vector<double> &inputs = arena.input_scratch;
    inferEnsembleFlat(member_ptrs_, inputs, inputs.size(), 1, outputs_,
                      member_scratch_);
    if (training) {
        for (std::size_t m = 0; m < memberCount(); ++m) {
            if (outputs_[m] < 0.5) {
                members_[m].train(inputs, 1.0, config_.learning_rate);
                ++arena.stats.train_updates;
            }
        }
    }
    outcome.classified = true;
    outcome.output = outputs_[0];
    outcome.predicted_invalid =
        commit(arena.seq_scratch, inputs, outputs_, tid).predicted_invalid;
    return outcome;
}

bool
ActModule::stageDependence(const RawDependence &dep)
{
    // The split-phase path has no training half: commits never touch
    // the weight registers, which is what lets many arenas share one
    // engine. Callers keep the module in testing mode by construction
    // (the fleet pins the rate interval unreachably long).
    ACT_ASSERT(arena_->mode == ActMode::kTesting);
    return stage(dep);
}

StagedOutcome
ActModule::commitEnsemble(const DependenceSequence &sequence,
                          std::span<const double> inputs,
                          std::span<const double> outputs, ThreadId tid)
{
    ACT_ASSERT(arena_->mode == ActMode::kTesting);
    ACT_ASSERT(outputs.size() == memberCount());
    return commit(sequence, inputs, outputs, tid);
}

bool
ActModule::stage(const RawDependence &dep)
{
    ActArena &arena = *arena_;
    ++arena.stats.dependences;
    if (config_.faults && config_.faults->dropInputDependence()) {
        // Injected Input Generator fault: the dependence never reaches
        // the buffer, as if the hardware write port glitched.
        ++arena.stats.input_drops_injected;
        return false;
    }
    if (arena.input.push(dep))
        ++arena.stats.input_buffer_overwrites;
    if (!arena.input.lastSequence(config_.sequence_length,
                                  arena.seq_scratch))
        return false;
    encoder_->encodeSequenceInto(arena.seq_scratch, arena.input_scratch);
    return true;
}

StagedOutcome
ActModule::commit(const DependenceSequence &sequence,
                  std::span<const double> inputs,
                  std::span<const double> outputs, ThreadId tid)
{
    ActArena &arena = *arena_;
    StagedOutcome outcome;
    ++arena.stats.predictions;
    std::size_t votes = 0;
    for (const double output : outputs) {
        if (output < 0.5)
            ++votes;
    }
    outcome.predicted_invalid = votes >= quorum();
    if (memberCount() > 1) {
        accountVotes(arena, votes, outputs[0] < 0.5,
                     outcome.predicted_invalid);
    }

    if (outcome.predicted_invalid) {
        ++arena.stats.predicted_invalid;
        // The Debug Buffer records the raw accumulator value: the
        // ranking tie-break wants "the most negative output", which
        // the saturated sigmoid cannot resolve. Flagged sequences are
        // rare (the whole premise of the Debug Buffer), so the re-read
        // — a pure forward pass over member 0 — stays off the common
        // path.
        outcome.raw = members_[0].rawOutput(inputs);
        if (config_.faults && config_.faults->dropDebugLog()) {
            // Injected Debug Buffer fault: the flagged sequence is
            // silently lost before it can be logged.
            ++arena.stats.debug_drops_injected;
        } else if (arena.debug.log(DebugEntry{sequence, outcome.raw,
                                              arena.stats.predictions,
                                              tid})) {
            ++arena.stats.debug_buffer_overwrites;
        }
    }

    // Periodic misprediction-rate check drives the mode switches. A
    // prediction of "invalid" that the execution survives counts as a
    // misprediction (Section III-C).
    if (arena.rate.record(outcome.predicted_invalid))
        onIntervalComplete();
    return outcome;
}

void
ActModule::accountVotes(ActArena &arena, std::size_t votes,
                        bool member0_invalid, bool flagged)
{
    const std::size_t members = memberCount();
    const bool unanimous = votes == 0 || votes == members;
    if (!unanimous)
        ++arena.stats.ensemble_disagreements;
    if (member0_invalid != flagged)
        ++arena.stats.quorum_overrides;
    const double beta = config_.ensemble.health_beta;
    arena.ensemble_health = (1.0 - beta) * arena.ensemble_health +
                            beta * (unanimous ? 1.0 : 0.0);
}

} // namespace act
