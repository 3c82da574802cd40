/**
 * @file
 * Integration tests: the public session API driving the compiler,
 * performance, power, and throttling models end to end, covering the
 * cross-module behaviours each figure bench relies on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <type_traits>

#include "runtime/session.hh"
#include "workloads/networks.hh"

namespace rapid {
namespace {

// Sessions borrow their network: a temporary would dangle, so it does
// not compile, and the session reads the caller's object itself.
static_assert(!std::is_constructible_v<InferenceSession, const ChipConfig &,
                                       Network &&>);
static_assert(!std::is_constructible_v<TrainingSession, const SystemConfig &,
                                       Network &&>);
static_assert(std::is_constructible_v<InferenceSession, const ChipConfig &,
                                      const Network &>);
static_assert(std::is_constructible_v<TrainingSession, const SystemConfig &,
                                      const Network &>);

TEST(Sessions, BorrowTheNetwork)
{
    const Network net = makeMobilenetV1();
    const InferenceSession inference(makeInferenceChip(), net);
    EXPECT_EQ(&inference.network(), &net);
    const TrainingSession training(makeTrainingSystem(4), net);
    EXPECT_EQ(&training.network(), &net);
}

TEST(InferenceSession, EndToEndInt4)
{
    const Network net = makeResnet50();
    InferenceSession session(makeInferenceChip(), net);
    InferenceOptions opts;
    opts.target = Precision::INT4;
    opts.power_report_freq_ghz = 1.0;
    InferenceResult r = session.run(opts);

    EXPECT_EQ(r.plan.layers.size(), session.network().layers.size());
    EXPECT_GT(r.perf.samplesPerSecond(), 1000.0);
    EXPECT_LT(r.perf.samplesPerSecond(), 100000.0);
    EXPECT_GT(r.energy.tops_per_w, 3.0);
    EXPECT_LT(r.energy.tops_per_w, 16.5);
    EXPECT_GT(r.energy.avg_power_w, 1.0);
    EXPECT_LT(r.energy.avg_power_w, 8.0);
}

TEST(InferenceSession, PrecisionLadderIsMonotonic)
{
    const Network net = makeVgg16();
    InferenceSession session(makeInferenceChip(), net);
    double prev = 0;
    for (auto p : {Precision::FP16, Precision::HFP8, Precision::INT4}) {
        InferenceOptions opts;
        opts.target = p;
        double sps = session.run(opts).perf.samplesPerSecond();
        EXPECT_GT(sps, prev) << precisionName(p);
        prev = sps;
    }
}

TEST(InferenceSession, CompileOnlyMatchesRunPlan)
{
    const Network net = makeBert();
    InferenceSession session(makeInferenceChip(), net);
    InferenceOptions opts;
    opts.target = Precision::HFP8;
    ExecutionPlan plan = session.compile(opts);
    InferenceResult r = session.run(opts);
    ASSERT_EQ(plan.layers.size(), r.plan.layers.size());
    for (size_t i = 0; i < plan.layers.size(); ++i)
        EXPECT_EQ(plan.at(i).precision, r.plan.at(i).precision);
}

TEST(InferenceSession, SparsityThrottlingSpeedsUpPrunedModel)
{
    Network pruned = makeVgg16();
    applySparsityProfile(pruned, 0.8);
    InferenceSession session(makeInferenceChip(), pruned);
    InferenceOptions base;
    base.target = Precision::FP16;
    InferenceOptions throttled = base;
    throttled.sparsity_throttling = true;

    double t0 = session.run(base).perf.total_seconds;
    double t1 = session.run(throttled).perf.total_seconds;
    double speedup = t0 / t1;
    EXPECT_GT(speedup, 1.2);  // 80%-sparse model, Figure 16(b) band
    EXPECT_LT(speedup, 1.75);
}

TEST(InferenceSession, ThrottlingIsNoOpForDenseModel)
{
    const Network net = makeResnet50();
    InferenceSession session(makeInferenceChip(), net);
    InferenceOptions base;
    base.target = Precision::FP16;
    InferenceOptions throttled = base;
    throttled.sparsity_throttling = true;
    // Dense model (sparsity 0): plan throttle stays 1.0 everywhere.
    ExecutionPlan plan = session.compile(throttled);
    for (const auto &lp : plan.layers)
        EXPECT_NEAR(lp.throttle, 1.0, 1e-9);
}

TEST(TrainingSession, EndToEndHfp8)
{
    const Network net = makeResnet50();
    TrainingSession session(makeTrainingSystem(4), net);
    TrainingPerf r = session.run({Precision::HFP8, 512});
    EXPECT_GT(r.samplesPerSecond(), 1000.0);
    EXPECT_GT(r.sustainedTops(), 100.0);
    EXPECT_LT(r.sustainedTops(),
              session.system().peakOpsPerSecond(Precision::HFP8) /
                  1e12);
}

TEST(TrainingSession, Hfp8BeatsFp16OnEveryBenchmark)
{
    SystemConfig sys = makeTrainingSystem(4);
    for (const auto &net : allBenchmarks()) {
        TrainingSession session(sys, net);
        double h = session.run({Precision::HFP8, 512})
                       .samplesPerSecond();
        double f = session.run({Precision::FP16, 512})
                       .samplesPerSecond();
        EXPECT_GT(h, f) << net.name;
    }
}

TEST(Scaling, InferenceCoreScalingShape)
{
    // Figure 18(a): compute-heavy nets keep scaling to 32 cores;
    // MobileNet saturates with fixed external bandwidth.
    auto speedup_at = [](const char *name, unsigned cores) {
        ChipConfig chip = makeInferenceChip();
        ChipConfig scaled = chip;
        scaled.cores = cores; // external bandwidth stays fixed
        Network net = benchmarkByName(name);
        InferenceOptions opts;
        opts.target = Precision::INT4;
        double t1 = InferenceSession(chip, net).run(opts)
                        .perf.total_seconds;
        ChipConfig one = chip;
        one.cores = 1;
        double t_one = InferenceSession(one, net).run(opts)
                           .perf.total_seconds;
        double t_n = InferenceSession(scaled, net).run(opts)
                         .perf.total_seconds;
        (void)t1;
        return t_one / t_n;
    };
    // ResNet50 gains meaningfully from 8 -> 32 cores...
    EXPECT_GT(speedup_at("resnet50", 32), speedup_at("resnet50", 8) *
                                              1.15);
    // ...while MobileNet has flattened.
    EXPECT_LT(speedup_at("mobilenetv1", 32),
              speedup_at("mobilenetv1", 8) * 1.6);
    // And nobody scales superlinearly.
    EXPECT_LT(speedup_at("vgg16", 32), 33.0);
}

TEST(Scaling, TrainingChipScalingShape)
{
    // Figure 18(b): throughput grows with chips at 128 GB/s c2c, with
    // sub-linear efficiency from communication.
    Network net = makeResnet50();
    double prev = 0;
    for (unsigned chips : {1u, 2u, 4u, 8u, 16u, 32u}) {
        TrainingSession session(makeTrainingSystem(chips), net);
        double sps = session.run({Precision::HFP8, 512})
                         .samplesPerSecond();
        EXPECT_GT(sps, prev) << chips;
        prev = sps;
    }
}

} // namespace
} // namespace rapid
