/**
 * @file
 * Tests for the dependence encoders.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "deps/encoder.hh"

namespace act
{
namespace
{

TEST(PairEncoder, WidthIsTwo)
{
    PairEncoder enc;
    EXPECT_EQ(enc.width(), 2u);
}

TEST(PairEncoder, FeaturesWithinCodeRange)
{
    PairEncoder enc;
    Rng rng(3);
    for (int i = 0; i < 500; ++i) {
        std::vector<double> out;
        enc.encode(RawDependence{rng(), rng(), rng.chance(0.5)}, out);
        ASSERT_EQ(out.size(), 2u);
        for (const double v : out) {
            EXPECT_GE(v, -kCodeRange);
            EXPECT_LE(v, kCodeRange);
        }
    }
}

TEST(PairEncoder, DistanceFeatureWrapsFarApartPcs)
{
    // PCs half the address space apart: their signed difference does
    // not fit in 64 bits. The feature wraps around instead of
    // overflowing, then saturates at the code range.
    const Pc top = Pc{1} << 63;
    EXPECT_EQ(PairEncoder::distanceFeature(RawDependence{top, 1, false}),
              -kCodeRange);
    EXPECT_EQ(PairEncoder::distanceFeature(RawDependence{1, top, false}),
              kCodeRange);
}

TEST(PairEncoder, DistanceFeatureMonotoneInLogDelta)
{
    const Pc load = 0x401000;
    const double near =
        PairEncoder::distanceFeature(RawDependence{load - 4, load, false});
    const double mid = PairEncoder::distanceFeature(
        RawDependence{load - 0x100, load, false});
    const double far = PairEncoder::distanceFeature(
        RawDependence{load - 0x10000, load, false});
    EXPECT_LT(near, mid);
    EXPECT_LT(mid, far);
    EXPECT_GT(near, 0.0); // store before load => positive delta
}

TEST(PairEncoder, DistanceFeatureSignFollowsDirection)
{
    const Pc load = 0x401000;
    const double fwd =
        PairEncoder::distanceFeature(RawDependence{load - 64, load, false});
    const double bwd =
        PairEncoder::distanceFeature(RawDependence{load + 64, load, false});
    EXPECT_GT(fwd, 0.0);
    EXPECT_LT(bwd, 0.0);
    EXPECT_NEAR(fwd, -bwd, 1e-12);
}

TEST(PairEncoder, InterThreadShiftsLocality)
{
    const RawDependence intra{0x40100, 0x40200, false};
    const RawDependence inter{0x40100, 0x40200, true};
    EXPECT_NEAR(PairEncoder::localityFeature(inter),
                PairEncoder::localityFeature(intra) + 0.25, 1e-12);
    EXPECT_DOUBLE_EQ(PairEncoder::distanceFeature(intra),
                     PairEncoder::distanceFeature(inter));
}

TEST(PairEncoder, SimilarDependencesEncodeNearby)
{
    // Two loop-body dependences at adjacent slots of the same function
    // must land close together on both axes — the similarity property
    // the adaptivity experiment relies on.
    const RawDependence a{0x401000, 0x401004, false};
    const RawDependence b{0x401008, 0x40100c, false};
    EXPECT_NEAR(PairEncoder::localityFeature(a),
                PairEncoder::localityFeature(b), 0.05);
    EXPECT_NEAR(PairEncoder::distanceFeature(a),
                PairEncoder::distanceFeature(b), 0.05);
}

TEST(PairEncoder, BuggyWriterLandsFarOnDistanceAxis)
{
    const Pc load = 0x401004;
    const RawDependence valid{load - 4, load, false};
    const RawDependence buggy{load - 13 * 0x1000, load, false};
    EXPECT_GT(std::abs(PairEncoder::distanceFeature(buggy) -
                       PairEncoder::distanceFeature(valid)),
              1.0);
}

TEST(DictionaryEncoder, FirstSeenOrderStable)
{
    DictionaryEncoder enc(64);
    const RawDependence a{1, 2, false};
    const RawDependence b{3, 4, false};
    std::vector<double> out;
    enc.encode(a, out);
    enc.encode(b, out);
    enc.encode(a, out);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_DOUBLE_EQ(out[0], out[2]);
    EXPECT_NE(out[0], out[1]);
    EXPECT_EQ(enc.entries(), 2u);
}

TEST(DictionaryEncoder, WrapsAtCapacity)
{
    DictionaryEncoder enc(4);
    std::vector<double> first;
    enc.encode(RawDependence{0, 100, false}, first);
    for (Pc p = 1; p < 4; ++p) {
        std::vector<double> tmp;
        enc.encode(RawDependence{p, 100, false}, tmp);
    }
    std::vector<double> wrapped;
    enc.encode(RawDependence{4, 100, false}, wrapped); // 5th entry
    EXPECT_DOUBLE_EQ(wrapped[0], first[0]);
}

TEST(DictionaryEncoder, CloneIsIndependent)
{
    DictionaryEncoder enc(16);
    std::vector<double> out;
    enc.encode(RawDependence{1, 2, false}, out);
    auto copy = enc.clone();
    // New entries in the copy do not affect the original.
    std::vector<double> tmp;
    copy->encode(RawDependence{5, 6, false}, tmp);
    EXPECT_EQ(enc.entries(), 1u);
}

TEST(HashEncoder, DeterministicAndSaltSensitive)
{
    HashEncoder a(1);
    HashEncoder b(1);
    HashEncoder c(2);
    const RawDependence dep{7, 8, false};
    std::vector<double> va;
    std::vector<double> vb;
    std::vector<double> vc;
    a.encode(dep, va);
    b.encode(dep, vb);
    c.encode(dep, vc);
    EXPECT_DOUBLE_EQ(va[0], vb[0]);
    EXPECT_NE(va[0], vc[0]);
}

TEST(Encoders, EncodeSequenceConcatenates)
{
    PairEncoder enc;
    DependenceSequence seq;
    seq.deps = {{0x10, 0x14, false}, {0x20, 0x24, true}};
    const std::vector<double> inputs = enc.encodeSequence(seq);
    EXPECT_EQ(inputs.size(), 4u);
}

TEST(Encoders, DefaultEncoderIsPair)
{
    const auto enc = makeDefaultEncoder();
    EXPECT_EQ(enc->width(), 2u);
}

TEST(Encoders, CodeFromUnitEndpoints)
{
    EXPECT_DOUBLE_EQ(codeFromUnit(0.0), -kCodeRange);
    EXPECT_DOUBLE_EQ(codeFromUnit(0.5), 0.0);
    EXPECT_DOUBLE_EQ(codeFromUnit(1.0), kCodeRange);
}

} // namespace
} // namespace act
