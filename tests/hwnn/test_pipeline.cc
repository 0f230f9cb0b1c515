/**
 * @file
 * Tests for the three-stage hardware network: functional fidelity
 * against the software MLP and the Section IV-A service times. The
 * input FIFO those times drive is the ACT Module's, tested there.
 */

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "hwnn/pipeline.hh"
#include "nn/trainer.hh"

namespace act
{
namespace
{

HwNetworkConfig
defaultHw()
{
    HwNetworkConfig config;
    config.neuron.max_inputs = 10;
    config.neuron.muladd_units = 2;
    config.fifo_entries = 8;
    return config;
}

/** One inference: a batch of one. */
double
inferOne(const HwNeuralNetwork &hw, std::span<const double> in)
{
    std::vector<double> out;
    hw.inferBatchFlat(in, in.size(), 1, out);
    return out[0];
}

TEST(HwNeuralNetwork, ServiceTimes)
{
    const HwNetworkConfig config = defaultHw();
    // T = ceil(10/2) + 2 = 7; training takes 4T.
    EXPECT_EQ(config.testServiceTime(), 7u);
    EXPECT_EQ(config.trainServiceTime(), 28u);
}

TEST(HwNeuralNetwork, WeightRoundTripThroughRegisters)
{
    Rng rng(3);
    MlpNetwork soft(Topology{6, 10}, rng);
    HwNeuralNetwork hw(defaultHw(), Topology{6, 10});
    hw.loadWeights(soft.weights());
    const auto back = hw.storeWeights();
    ASSERT_EQ(back.size(), soft.weights().size());
    for (std::size_t i = 0; i < back.size(); ++i)
        EXPECT_NEAR(back[i], soft.weights()[i], 1e-4) << i;
}

TEST(HwNeuralNetwork, WeightAtMatchesFlatLayout)
{
    HwNeuralNetwork hw(defaultHw(), Topology{3, 2});
    std::vector<double> weights(hw.weightCount());
    for (std::size_t i = 0; i < weights.size(); ++i)
        weights[i] = 0.01 * static_cast<double>(i);
    hw.loadWeights(weights);
    for (std::size_t i = 0; i < weights.size(); ++i)
        EXPECT_NEAR(hw.weightAt(i), weights[i], 1e-4) << i;
    hw.setWeightAt(2, -0.5);
    EXPECT_NEAR(hw.weightAt(2), -0.5, 1e-4);
}

/** Fidelity sweep: fixed-point inference agrees with the software MLP. */
class HwFidelity : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(HwFidelity, AgreesWithSoftwareNetwork)
{
    Rng rng(GetParam());
    MlpNetwork soft(Topology{6, 10}, rng);
    HwNeuralNetwork hw(defaultHw(), Topology{6, 10});
    hw.loadWeights(soft.weights());

    Rng inputs(GetParam() * 7 + 1);
    int disagreements = 0;
    const int trials = 500;
    for (int i = 0; i < trials; ++i) {
        std::vector<double> in;
        for (int j = 0; j < 6; ++j)
            in.push_back(inputs.uniform(-2, 2));
        const double exact = soft.infer(in);
        const double approx = inferOne(hw, in);
        EXPECT_NEAR(approx, exact, 0.05);
        // Classification may only flip inside the quantisation band
        // around the 0.5 threshold.
        if (std::abs(exact - 0.5) > 0.02 &&
            (approx >= 0.5) != soft.predictValid(in)) {
            ++disagreements;
        }
    }
    EXPECT_EQ(disagreements, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HwFidelity,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(HwNeuralNetwork, RawOutputSignMatchesClassification)
{
    Rng rng(17);
    MlpNetwork soft(Topology{6, 10}, rng);
    HwNeuralNetwork hw(defaultHw(), Topology{6, 10});
    hw.loadWeights(soft.weights());
    Rng inputs(18);
    for (int i = 0; i < 300; ++i) {
        std::vector<double> in;
        for (int j = 0; j < 6; ++j)
            in.push_back(inputs.uniform(-2, 2));
        const double raw = hw.rawOutput(in);
        const double out = inferOne(hw, in);
        if (std::abs(out - 0.5) > 0.02) {
            EXPECT_EQ(raw >= 0.0, out >= 0.5) << "raw=" << raw;
        }
    }
}

TEST(HwNeuralNetwork, RawOutputPreservesDynamicRange)
{
    // Two inputs that both saturate the sigmoid to ~0 must still be
    // distinguishable by the raw accumulator (the ranking tie-break).
    HwNeuralNetwork hw(defaultHw(), Topology{1, 1});
    std::vector<double> weights(hw.weightCount(), 0.0);
    weights[1] = 2.0;   // hidden weight
    weights[2] = -10.0; // output bias: deep in the invalid region
    weights[3] = 30.0;  // output weight: raw tracks the hidden neuron
    hw.loadWeights(weights);
    const std::vector<double> a{-1.0};
    const std::vector<double> b{-2.0};
    EXPECT_LT(inferOne(hw, a), 0.01);
    EXPECT_LT(inferOne(hw, b), 0.01);
    EXPECT_NE(hw.rawOutput(a), hw.rawOutput(b));
}

TEST(HwNeuralNetwork, TrainingMovesTowardTarget)
{
    Rng rng(9);
    MlpNetwork proto(Topology{4, 6}, rng);
    HwNeuralNetwork hw(defaultHw(), Topology{4, 6});
    hw.loadWeights(proto.weights());
    const std::vector<double> in{0.5, -0.5, 1.0, -1.0};
    const double before = inferOne(hw, in);
    for (int i = 0; i < 20; ++i)
        hw.train(in, 1.0, 0.2);
    EXPECT_GT(inferOne(hw, in), before);
}

TEST(HwNeuralNetwork, SetTopologyZeroesWeights)
{
    HwNeuralNetwork hw(defaultHw(), Topology{6, 10});
    std::vector<double> weights(hw.weightCount(), 0.5);
    hw.loadWeights(weights);
    hw.setTopology(Topology{4, 4});
    EXPECT_EQ(hw.weightCount(), 4u * 5u + 5u);
    const std::vector<double> in{0.1, 0.2, 0.3, 0.4};
    EXPECT_NEAR(inferOne(hw, in), 0.5, 0.01); // all-zero network
}

TEST(HwNeuralNetwork, InferBatchFlatIsBitIdenticalToScalarInference)
{
    Rng rng(9);
    MlpNetwork soft(Topology{6, 10}, rng);
    HwNeuralNetwork hw(defaultHw(), Topology{6, 10});
    hw.loadWeights(soft.weights());

    constexpr std::size_t kWidth = 6;
    constexpr std::size_t kCount = 57;
    Rng inputs(123);
    std::vector<double> flat;
    for (std::size_t i = 0; i < kWidth * kCount; ++i)
        flat.push_back(inputs.uniform(-2, 2));

    std::vector<double> reversed;
    for (std::size_t i = kCount; i-- > 0;) {
        reversed.insert(reversed.end(), flat.begin() + i * kWidth,
                        flat.begin() + (i + 1) * kWidth);
    }

    std::vector<double> outputs;
    std::vector<double> backward;
    hw.inferBatchFlat(flat, kWidth, kCount, outputs);
    hw.inferBatchFlat(reversed, kWidth, kCount, backward);
    ASSERT_EQ(outputs.size(), kCount);
    ASSERT_EQ(backward.size(), kCount);
    for (std::size_t i = 0; i < kCount; ++i) {
        const std::span<const double> row =
            std::span<const double>(flat).subspan(i * kWidth, kWidth);
        // Exact equality: item i of a batch, in either batch order, is
        // a batch of one holding item i (the fleet's streaming-vs-batch
        // byte-equivalence depends on it).
        const double one = inferOne(hw, row);
        EXPECT_EQ(outputs[i], one) << i;
        EXPECT_EQ(backward[kCount - 1 - i], one) << i;
    }
}

TEST(HwNeuralNetwork, InferBatchFlatHandlesEmptyBatch)
{
    HwNeuralNetwork hw(defaultHw(), Topology{6, 10});
    std::vector<double> outputs{1.0, 2.0};
    hw.inferBatchFlat({}, 6, 0, outputs);
    EXPECT_TRUE(outputs.empty());
}

} // namespace
} // namespace act
