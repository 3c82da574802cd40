/**
 * @file
 * Tests for the benchmark network descriptions: MAC and parameter
 * counts against the published figures for each architecture, builder
 * geometry, and the pruned-model sparsity profiles.
 */

#include <ostream>

#include <gtest/gtest.h>

#include "workloads/net_builder.hh"
#include "workloads/networks.hh"

namespace rapid {
namespace {

/** Published per-sample GMAC / Mparam figures (tolerant bands). */
struct NetExpectation
{
    const char *name;
    double gmacs_lo, gmacs_hi;
    double mparams_lo, mparams_hi;
};

/** Print the network name, so the parameter shown in test listings is
 *  stable; gtest's default byte dump would expose the address of
 *  `name`, which moves from build to build. */
void
PrintTo(const NetExpectation &e, std::ostream *os)
{
    *os << e.name;
}

class BenchmarkCountTest
    : public ::testing::TestWithParam<NetExpectation>
{
};

TEST_P(BenchmarkCountTest, MacsAndParamsMatchPublished)
{
    const auto &e = GetParam();
    Network net = benchmarkByName(e.name);
    double gmacs = double(net.macsPerSample()) / 1e9;
    double mparams = double(net.weightElems()) / 1e6;
    EXPECT_GE(gmacs, e.gmacs_lo) << e.name;
    EXPECT_LE(gmacs, e.gmacs_hi) << e.name;
    EXPECT_GE(mparams, e.mparams_lo) << e.name;
    EXPECT_LE(mparams, e.mparams_hi) << e.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllNets, BenchmarkCountTest,
    ::testing::Values(
        NetExpectation{"vgg16", 15.0, 16.0, 135.0, 140.0},
        NetExpectation{"resnet50", 3.8, 4.3, 24.0, 27.0},
        NetExpectation{"inception3", 5.4, 6.5, 26.0, 32.0},
        NetExpectation{"inception4", 11.5, 13.5, 45.0, 55.0},
        NetExpectation{"mobilenetv1", 0.5, 0.65, 3.8, 4.6},
        NetExpectation{"ssd300", 28.0, 34.0, 24.0, 30.0},
        NetExpectation{"yolov3", 30.0, 35.0, 58.0, 65.0},
        NetExpectation{"yolov3-tiny", 2.5, 3.3, 8.0, 10.0},
        NetExpectation{"bert", 33.0, 38.0, 80.0, 90.0}),
    [](const ::testing::TestParamInfo<NetExpectation> &param_info) {
        std::string n = param_info.param.name;
        for (auto &c : n)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return n;
    });

TEST(Workloads, AllElevenBenchmarksBuild)
{
    auto nets = allBenchmarks();
    ASSERT_EQ(nets.size(), 11u);
    for (const auto &net : nets) {
        EXPECT_GT(net.macsPerSample(), 0) << net.name;
        EXPECT_GT(net.weightElems(), 0) << net.name;
        EXPECT_GT(net.numComputeLayers(), 0) << net.name;
    }
}

TEST(Workloads, UnknownBenchmarkIsFatal)
{
    EXPECT_EXIT(benchmarkByName("nope"),
                ::testing::ExitedWithCode(1), "unknown benchmark");
}

TEST(Workloads, Resnet50Geometry)
{
    Network net = makeResnet50();
    // First conv: 7x7 stride 2 on 224 -> 112.
    const Layer &conv1 = net.layers.front();
    ASSERT_EQ(conv1.type, LayerType::Conv);
    EXPECT_EQ(conv1.outH(), 112);
    EXPECT_EQ(conv1.kh, 7);
    // Shortcut projections are marked accuracy-sensitive.
    int sensitive = 0;
    for (const auto &l : net.layers)
        if (l.accuracy_sensitive)
            ++sensitive;
    EXPECT_EQ(sensitive, 4); // one per stage
}

TEST(Workloads, MobilenetIsDepthwiseHeavyByLayerCount)
{
    Network net = makeMobilenetV1();
    int64_t dw = 0, pw = 0;
    for (const auto &l : net.layers) {
        if (l.type != LayerType::Conv)
            continue;
        if (l.groups == l.ci && l.ci > 1)
            ++dw;
        else
            ++pw;
    }
    EXPECT_EQ(dw, 13);
    EXPECT_EQ(pw, 14); // 13 pointwise + stem
}

TEST(Workloads, BertLayerStructure)
{
    Network net = makeBert(384);
    // 12 encoder layers x 6 GEMM groups + 1 head.
    int64_t gemms = 0;
    for (const auto &l : net.layers)
        if (l.type == LayerType::Gemm)
            ++gemms;
    EXPECT_EQ(gemms, 12 * 6 + 1);
    // Attention-score GEMMs repeat per head.
    for (const auto &l : net.layers) {
        if (l.name.find("scores") != std::string::npos) {
            EXPECT_EQ(l.repeat, 12);
        }
    }
}

TEST(Workloads, LstmRepeatsTimesteps)
{
    Network net = makeLstmPtb(35);
    for (const auto &l : net.layers) {
        if (l.type == LayerType::Gemm) {
            EXPECT_EQ(l.repeat, 35) << l.name;
        }
    }
}

TEST(Workloads, DetectionHeadsAreProtected)
{
    for (const char *name : {"ssd300", "yolov3", "yolov3-tiny"}) {
        Network net = benchmarkByName(name);
        int sensitive = 0;
        for (const auto &l : net.layers)
            if (l.accuracy_sensitive)
                ++sensitive;
        EXPECT_GT(sensitive, 0) << name;
    }
}

TEST(NetBuilder, TracksGeometry)
{
    NetBuilder b("t", "test", 3, 32, 32);
    b.conv("c1", 16, 3, 2, 1);
    EXPECT_EQ(b.height(), 16);
    EXPECT_EQ(b.channels(), 16);
    b.maxPool(2, 2);
    EXPECT_EQ(b.height(), 8);
    b.globalPool();
    EXPECT_EQ(b.height(), 1);
    b.fc("fc", 10);
    Network net = std::move(b).build();
    EXPECT_EQ(net.layers.back().gk, 16);
    EXPECT_EQ(net.layers.back().gn, 10);
}

TEST(NetBuilder, AsymmetricKernelPads)
{
    NetBuilder b("t", "test", 8, 17, 17);
    // 1x7 factorized conv with "same" intent: pads only along width.
    b.convRect("c", 8, 1, 7, 1, 3);
    EXPECT_EQ(b.height(), 17);
    EXPECT_EQ(b.width(), 17);
}

TEST(NetBuilder, CollapsedConvIsFatal)
{
    NetBuilder b("t", "test", 3, 2, 2);
    EXPECT_DEATH(b.conv("bad", 8, 5, 1, 0), "collapses");
}

TEST(Sparsity, ProfileAveragesAndMonotonicity)
{
    Network net = makeVgg16();
    applySparsityProfile(net, 0.8);
    double sum = 0;
    int n = 0;
    double first = -1, last = -1;
    for (const auto &l : net.layers) {
        if (!l.isCompute())
            continue;
        if (first < 0)
            first = l.weight_sparsity;
        last = l.weight_sparsity;
        sum += l.weight_sparsity;
        EXPECT_GE(l.weight_sparsity, 0.2);
        EXPECT_LE(l.weight_sparsity, 0.92);
        ++n;
    }
    EXPECT_NEAR(sum / n, 0.8, 0.02);
    EXPECT_LT(first, last); // later layers prune harder
}

TEST(Sparsity, PrunedSetCoversPaperRange)
{
    auto pruned = prunedBenchmarks();
    EXPECT_GE(pruned.size(), 5u);
    for (const auto &[net, avg] : pruned) {
        EXPECT_GE(avg, 0.5);  // Section V-D: 50%-80%
        EXPECT_LE(avg, 0.8);
    }
}

TEST(Layer, AuxCostsOrdered)
{
    // Transcendental approximations cost more than elementwise ops.
    EXPECT_GT(auxOpsPerElement(AuxKind::Sigmoid),
              auxOpsPerElement(AuxKind::ReLU));
    EXPECT_GT(auxOpsPerElement(AuxKind::LayerNorm),
              auxOpsPerElement(AuxKind::BatchNorm));
}

} // namespace
} // namespace rapid
