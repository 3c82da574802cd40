/**
 * @file
 * Failure-injection and contract tests: the library must fail loudly
 * (panic/fatal) on misuse instead of producing silent garbage, and
 * the programmable FP8 bias must actually buy what the paper claims.
 */

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "common/error.hh"
#include "compiler/dataflow.hh"
#include "compiler/precision_assign.hh"
#include "func/cnn.hh"
#include "perf/perf_model.hh"
#include "power/throttle.hh"
#include "runtime/session.hh"
#include "sim/systolic.hh"
#include "workloads/networks.hh"

namespace rapid {
namespace {

TEST(Contracts, PerfModelRejectsMismatchedPlan)
{
    PerfModel pm(makeInferenceChip());
    Network net = makeMobilenetV1();
    ExecutionPlan plan; // empty: wrong length
    EXPECT_DEATH(pm.evaluate(net, plan, 1), "plan");
}

TEST(Contracts, PerfModelRejectsFp32ComputeLayers)
{
    PerfModel pm(makeInferenceChip());
    Layer l;
    l.type = LayerType::Gemm;
    l.gm = l.gk = l.gn = 8;
    LayerPlan lp;
    lp.precision = Precision::FP32;
    EXPECT_DEATH(pm.evaluateLayer(l, lp, 1, true), "FP32");
}

/** Run @p fn and expect an InvalidArgument rapid::Error. */
template <typename Fn>
void
expectInvalidArgument(Fn &&fn)
{
    EXPECT_THROW(fn(), Error);
    try {
        fn();
    } catch (const Error &e) {
        EXPECT_EQ(e.code(), ErrorCode::InvalidArgument) << e.message();
    }
}

TEST(Contracts, PerfModelRejectsNonPositiveBatch)
{
    const PerfModel pm(makeInferenceChip());
    const Network net = makeResnet50();
    PrecisionOptions popts;
    popts.target = Precision::INT4;
    const ExecutionPlan plan = assignPrecision(net, popts);
    for (int64_t batch : {-1, 0}) {
        expectInvalidArgument([&] { pm.evaluate(net, plan, batch); });
        expectInvalidArgument([&] {
            pm.evaluateLayer(net.layers[1], plan.at(1), batch, false);
        });
    }
}

TEST(Contracts, TrainingModelRejectsNonPositiveMinibatch)
{
    const TrainingPerfModel tm(makeTrainingSystem(4));
    const Network net = makeResnet50();
    for (int64_t minibatch : {-8, 0})
        expectInvalidArgument(
            [&] { tm.evaluate(net, Precision::HFP8, minibatch); });
}

/** Run @p fn and expect an InvalidConfig rapid::Error. */
template <typename Fn>
void
expectInvalidConfig(Fn &&fn, const std::string &what)
{
    EXPECT_THROW(fn(), Error) << what;
    try {
        fn();
    } catch (const Error &e) {
        EXPECT_EQ(e.code(), ErrorCode::InvalidConfig) << what;
    }
}

// A zero SIMD width would divide the mapper by zero and a zero SFU or
// L1 width would make every layer time infinite, so each is a config
// error at the validator, the mapper and the models alike.
TEST(Contracts, ZeroWidthChipsAreRejected)
{
    const struct
    {
        const char *field;
        void (*zero)(ChipConfig &);
    } cases[] = {
        {"fpu_simd_lanes",
         [](ChipConfig &c) { c.core.corelet.mpe.fpu_simd_lanes = 0; }},
        {"fxu_simd_lanes",
         [](ChipConfig &c) { c.core.corelet.mpe.fxu_simd_lanes = 0; }},
        {"int4_macs_per_fxu",
         [](ChipConfig &c) { c.core.corelet.mpe.int4_macs_per_fxu = 0; }},
        {"sfu_arrays",
         [](ChipConfig &c) { c.core.corelet.sfu_arrays = 0; }},
        {"sfus_per_array",
         [](ChipConfig &c) { c.core.corelet.sfus_per_array = 0; }},
        {"sfu_simd_lanes",
         [](ChipConfig &c) { c.core.corelet.sfu_simd_lanes = 0; }},
        {"l1_bw_bytes_per_cycle",
         [](ChipConfig &c) { c.core.l1_bw_bytes_per_cycle = 0; }},
    };
    const Network net = makeMobilenetV1();
    for (const auto &c : cases) {
        ChipConfig chip = makeInferenceChip();
        c.zero(chip);
        expectInvalidConfig([&] { validateChipConfig(chip); }, c.field);
        expectInvalidConfig([&] { DataflowMapper m(chip); }, c.field);
        expectInvalidConfig([&] { PerfModel pm(chip); }, c.field);
        expectInvalidConfig([&] { InferenceSession s(chip, net); },
                            c.field);
        SystemConfig sys = makeTrainingSystem(4);
        c.zero(sys.chip);
        expectInvalidConfig([&] { TrainingPerfModel tm(sys); }, c.field);
    }
}

// A huge SIMD width would overflow the mapper's int64 capacities
// (rows x MACs per lane, columns x lanes), so widths past
// kMaxSimdWidth are config errors too: first the probe chip (INT4
// packing 1.6e19), then each field alone just past the bound.
TEST(Contracts, HugeSimdWidthsAreRejected)
{
    const struct
    {
        const char *field;
        void (*widen)(ChipConfig &);
    } cases[] = {
        {"fxu_simd_lanes",
         [](ChipConfig &c) {
             c.core.corelet.mpe.fxu_simd_lanes = 4000000000u;
             c.core.corelet.mpe.int4_macs_per_fxu = 4000000000u;
             c.core.corelet.mpe.fpu_simd_lanes = 1;
         }},
        {"fpu_simd_lanes",
         [](ChipConfig &c) {
             c.core.corelet.mpe.fpu_simd_lanes = kMaxSimdWidth + 1;
         }},
        {"fxu_simd_lanes",
         [](ChipConfig &c) {
             c.core.corelet.mpe.fxu_simd_lanes = kMaxSimdWidth + 1;
         }},
        {"int4_macs_per_fxu",
         [](ChipConfig &c) {
             c.core.corelet.mpe.int4_macs_per_fxu = kMaxSimdWidth + 1;
         }},
    };
    const Network net = makeMobilenetV1();
    for (const auto &c : cases) {
        ChipConfig chip = makeInferenceChip();
        c.widen(chip);
        expectInvalidConfig([&] { validateChipConfig(chip); }, c.field);
        expectInvalidConfig([&] { DataflowMapper m(chip); }, c.field);
        expectInvalidConfig([&] { PerfModel pm(chip); }, c.field);
        expectInvalidConfig([&] { InferenceSession s(chip, net); },
                            c.field);
        SystemConfig sys = makeTrainingSystem(4);
        c.widen(sys.chip);
        expectInvalidConfig([&] { TrainingPerfModel tm(sys); }, c.field);
    }
    // The bound itself is a valid width.
    ChipConfig widest = makeInferenceChip();
    widest.core.corelet.mpe.fpu_simd_lanes = kMaxSimdWidth;
    widest.core.corelet.mpe.fxu_simd_lanes = kMaxSimdWidth;
    widest.core.corelet.mpe.int4_macs_per_fxu = kMaxSimdWidth;
    EXPECT_NO_THROW(DataflowMapper{widest});
}

TEST(Contracts, TrainingModelRejectsFullyMaskedChip)
{
    SystemConfig sys = makeTrainingSystem(4);
    sys.chip.dead_core_mask = ~uint64_t(0);
    expectInvalidConfig([&] { TrainingPerfModel tm(sys); },
                        "dead_core_mask");
}

// FP32 has no MPE datapath, so its reduction capacity is zero and the
// mapper must refuse it rather than divide by that zero.
TEST(Contracts, MapperRejectsFp32)
{
    const DataflowMapper m(makeInferenceChip());
    EXPECT_EQ(m.reductionCap(Precision::FP32), 0);
    Layer l;
    l.type = LayerType::Gemm;
    l.gm = l.gk = l.gn = 8;
    expectInvalidArgument([&] { m.map(l, 1, Precision::FP32); });
}

TEST(Contracts, SystolicSimIsFpuOnly)
{
    EXPECT_DEATH(SystolicArraySim(CoreletConfig{}, Precision::INT4),
                 "FPU");
}

TEST(Contracts, TensorBoundsChecked)
{
    Tensor t({2, 2});
    EXPECT_DEATH(t[4], "flat index");
    EXPECT_DEATH(t.at(0, 0, 0, 0), "rank-4");
    EXPECT_DEATH(Tensor({0, 4}), "non-positive");
}

TEST(Contracts, TrainingRejectsNonPositiveBatch)
{
    Rng rng(5);
    const Dataset spirals = makeSpirals(rng, 8);
    MlpConfig mlp_cfg;
    mlp_cfg.dims = {spirals.featureDim(), 4, 2};
    Mlp mlp(mlp_cfg);
    const ImageDataset stripes = makeStripes(rng, 4);
    SmallCnn cnn(CnnConfig{});
    for (int64_t batch : {0, -1}) {
        expectInvalidArgument([&] { mlp.train(spirals, 1, batch); });
        expectInvalidArgument([&] { cnn.train(stripes, 1, batch); });
    }
}

TEST(Contracts, CnnConfigValidated)
{
    const auto bad = [](auto edit) {
        CnnConfig cfg;
        edit(cfg);
        expectInvalidArgument([&] { SmallCnn cnn(cfg); });
    };
    bad([](CnnConfig &c) { c.classes = 0; });
    bad([](CnnConfig &c) { c.conv1_channels = 0; });
    bad([](CnnConfig &c) { c.conv2_channels = -2; });
    bad([](CnnConfig &c) { c.learning_rate = 0.0f; });
    bad([](CnnConfig &c) {
        c.learning_rate = std::numeric_limits<float>::quiet_NaN();
    });
    bad([](CnnConfig &c) { c.momentum = 1.0f; });
    bad([](CnnConfig &c) { c.momentum = -0.5f; });
}

TEST(Contracts, ThrottleRejectsBadSparsity)
{
    PowerModel pw(makeInferenceChip(), 1.5);
    ThrottlePlanner tp(pw);
    EXPECT_DEATH(tp.stallRate(1.5), "sparsity");
    EXPECT_DEATH(tp.stallRate(-0.1), "sparsity");
}

TEST(Contracts, TrainingModelRejectsIntPrecisions)
{
    TrainingPerfModel tm(makeTrainingSystem(4));
    EXPECT_DEATH(tm.evaluate(makeResnet50(), Precision::INT4, 512),
                 "FP16/HFP8");
}

TEST(Contracts, Fp8BiasRangeEnforced)
{
    EXPECT_DEATH(fp8e4m3(0), "bias");
    EXPECT_DEATH(fp8e4m3(16), "bias");
}

/**
 * The programmable exponent bias (Section III-A.2): layers with
 * small-magnitude tensors quantize better at high bias, large-
 * magnitude tensors at low bias — no single bias serves both, which
 * is why it is software-configurable per layer.
 */
TEST(ProgrammableBias, MatchesTensorDynamicRange)
{
    Rng rng(55);
    auto quantize_error = [](const std::vector<float> &vals,
                             int bias) {
        FloatFormat fmt = fp8e4m3(bias);
        double num = 0, den = 0;
        for (float v : vals) {
            double q = fmt.quantize(v);
            num += (q - v) * (q - v);
            den += double(v) * v;
        }
        return std::sqrt(num / den);
    };

    std::vector<float> small = rng.gaussianVector(4000, 0.0, 0.01);
    std::vector<float> large = rng.gaussianVector(4000, 0.0, 100.0);

    // Exhaustively find each tensor's best bias.
    int best_small = 1, best_large = 1;
    for (int b = 2; b <= 15; ++b) {
        if (quantize_error(small, b) <
            quantize_error(small, best_small))
            best_small = b;
        if (quantize_error(large, b) <
            quantize_error(large, best_large))
            best_large = b;
    }
    // Small magnitudes want the range shifted down (higher bias).
    EXPECT_GT(best_small, best_large + 4);
    // And the wrong bias is dramatically worse: the fixed-bias
    // format cannot serve both tensors.
    EXPECT_GT(quantize_error(small, best_large),
              5.0 * quantize_error(small, best_small));
}

/** The compiler-facing knob: each layer's datapath takes its bias. */
TEST(ProgrammableBias, DatapathReconfiguresBetweenLayers)
{
    const float tiny = 0.001f;
    float coarse = MpeDatapath(4).toFp9(tiny, Fp8Kind::Forward);
    // Bias 12 shifts the range down for a small-valued layer.
    float fine = MpeDatapath(12).toFp9(tiny, Fp8Kind::Forward);
    EXPECT_LT(std::abs(fine - tiny), std::abs(coarse - tiny));
}

TEST(Contracts, SessionRunsEveryBenchmarkAtEveryPrecision)
{
    // Broad smoke coverage: no benchmark/precision combination may
    // panic or produce non-finite results.
    ChipConfig chip = makeInferenceChip();
    for (const auto &net : allBenchmarks()) {
        InferenceSession session(chip, net);
        for (auto p : {Precision::FP16, Precision::HFP8,
                       Precision::INT4, Precision::INT2}) {
            InferenceOptions opts;
            opts.target = p;
            InferenceResult r = session.run(opts);
            EXPECT_TRUE(std::isfinite(r.perf.total_seconds))
                << net.name << " " << precisionName(p);
            EXPECT_GT(r.perf.total_seconds, 0.0)
                << net.name << " " << precisionName(p);
            EXPECT_TRUE(std::isfinite(r.energy.tops_per_w))
                << net.name << " " << precisionName(p);
        }
    }
}

} // namespace
} // namespace rapid
