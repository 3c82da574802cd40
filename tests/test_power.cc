/**
 * @file
 * Tests for the power models: the solved silicon characterization
 * must reproduce every Figure 10 entry, the activity model must obey
 * physical invariants, and the throttle planner must reproduce the
 * Figure 16 behaviour.
 */

#include <gtest/gtest.h>

#include "compiler/precision_assign.hh"
#include "power/throttle.hh"
#include "workloads/networks.hh"

namespace rapid {
namespace {

TEST(Characterization, ReproducesFigure10Efficiencies)
{
    SiliconCharacterization si(makeInferenceChip());
    // Anchors at both ends of the published range, within 2%.
    EXPECT_NEAR(si.peakEfficiency(Precision::FP16, 1.0), 1.80, 0.04);
    EXPECT_NEAR(si.peakEfficiency(Precision::FP16, 1.6), 0.98, 0.02);
    EXPECT_NEAR(si.peakEfficiency(Precision::HFP8, 1.0), 3.50, 0.07);
    EXPECT_NEAR(si.peakEfficiency(Precision::HFP8, 1.6), 1.90, 0.04);
    EXPECT_NEAR(si.peakEfficiency(Precision::INT4, 1.0), 16.50, 0.33);
    EXPECT_NEAR(si.peakEfficiency(Precision::INT4, 1.6), 8.90, 0.18);
}

TEST(Characterization, VoltageGradeIsMonotonic)
{
    SiliconCharacterization si(makeInferenceChip());
    EXPECT_DOUBLE_EQ(si.voltageAt(1.0), 0.55);
    EXPECT_DOUBLE_EQ(si.voltageAt(1.6), 0.75);
    EXPECT_LT(si.voltageAt(1.2), si.voltageAt(1.4));
}

TEST(Characterization, OutOfRangeFrequencyIsFatal)
{
    SiliconCharacterization si(makeInferenceChip());
    EXPECT_DEATH(si.voltageAt(2.5), "admissible");
}

TEST(Characterization, PowerScalesWithCores)
{
    SiliconCharacterization si4(makeInferenceChip());
    SiliconCharacterization si32(makeTrainingChip());
    // 32 cores burn 8x the 4-core power at the same efficiency.
    EXPECT_NEAR(si32.peakPower(Precision::HFP8, 1.5) /
                    si4.peakPower(Precision::HFP8, 1.5),
                8.0, 1e-6);
    EXPECT_NEAR(si32.peakEfficiency(Precision::HFP8, 1.5),
                si4.peakEfficiency(Precision::HFP8, 1.5), 1e-9);
}

TEST(Characterization, EfficiencyOrderedByPrecision)
{
    SiliconCharacterization si(makeInferenceChip());
    for (double f : {1.0, 1.25, 1.5}) {
        EXPECT_GT(si.peakEfficiency(Precision::HFP8, f),
                  si.peakEfficiency(Precision::FP16, f));
        EXPECT_GT(si.peakEfficiency(Precision::INT4, f),
                  si.peakEfficiency(Precision::HFP8, f));
        EXPECT_GT(si.peakEfficiency(Precision::INT2, f),
                  si.peakEfficiency(Precision::INT4, f));
    }
}

TEST(PowerModel, SustainedNeverExceedsPeakEfficiency)
{
    ChipConfig chip = makeInferenceChip();
    PerfModel pm(chip);
    PowerModel pw(chip, 1.0);
    for (const auto &net : allBenchmarks()) {
        PrecisionOptions o4{Precision::INT4, true};
        NetworkPerf perf =
            pm.evaluate(net, assignPrecision(net, o4), 1);
        EnergyReport e = pw.evaluate(perf, net);
        // Sustained TOPS/W can beat the *dense* peak only through
        // zero-gating credit; allow that headroom.
        double peak = pw.silicon().peakEfficiency(Precision::INT4, 1.0);
        EXPECT_LT(e.tops_per_w, peak * 1.05) << net.name;
        EXPECT_GT(e.avg_power_w, 0) << net.name;
    }
}

TEST(PowerModel, Figure14BandsHold)
{
    // INT4 sustained 3-13.5 avg 7 TOPS/W; FP8 up to 4.68 avg 3.16.
    ChipConfig chip = makeInferenceChip();
    PerfModel pm(chip);
    PowerModel pw(chip, 1.0);
    double sum4 = 0, max4 = 0, sum8 = 0;
    int n = 0;
    for (const auto &net : allBenchmarks()) {
        PrecisionOptions o4{Precision::INT4, true};
        PrecisionOptions o8{Precision::HFP8, true};
        double e4 =
            pw.evaluate(pm.evaluate(net, assignPrecision(net, o4), 1),
                        net)
                .tops_per_w;
        double e8 =
            pw.evaluate(pm.evaluate(net, assignPrecision(net, o8), 1),
                        net)
                .tops_per_w;
        sum4 += e4;
        sum8 += e8;
        max4 = std::max(max4, e4);
        ++n;
    }
    EXPECT_NEAR(sum4 / n, 7.0, 1.5);
    EXPECT_GT(max4, 9.0);
    EXPECT_LT(max4, 13.5);
    EXPECT_NEAR(sum8 / n, 3.16, 0.8);
}

TEST(PowerModel, ZeroGatingLowersPrunedPower)
{
    ChipConfig chip = makeInferenceChip();
    PerfModel pm(chip);
    PowerModel pw(chip);
    Network dense = makeVgg16();
    Network pruned = makeVgg16();
    applySparsityProfile(pruned, 0.8);
    ExecutionPlan plan = assignPrecision(dense, {Precision::FP16});
    NetworkPerf perf = pm.evaluate(dense, plan, 1);
    double p_dense = pw.evaluate(perf, dense).avg_power_w;
    double p_pruned = pw.evaluate(perf, pruned).avg_power_w;
    EXPECT_LT(p_pruned, p_dense * 0.85);
}

TEST(Throttle, DenseStallRateMatchesCalibration)
{
    PowerModel pw(makeInferenceChip(), 1.5);
    ThrottlePlanner tp(pw);
    EXPECT_NEAR(tp.stallRate(0.0), ThrottlePlanner::kDenseStallRate,
                1e-9);
    EXPECT_NEAR(tp.speedup(0.0), 1.0, 1e-9);
}

TEST(Throttle, StallRateDecreasesWithSparsity)
{
    // Figure 16(a): sparser layers need less clock-edge skipping.
    PowerModel pw(makeInferenceChip(), 1.5);
    ThrottlePlanner tp(pw);
    double prev = 1.0;
    for (double s : {0.0, 0.2, 0.4, 0.6, 0.8}) {
        double r = tp.stallRate(s);
        EXPECT_LT(r, prev) << "s=" << s;
        prev = r;
    }
}

TEST(Throttle, SpeedupBandMatchesFigure16)
{
    // Figure 16(b): 1.1-1.7x speedup at 50-80% sparsity.
    PowerModel pw(makeInferenceChip(), 1.5);
    ThrottlePlanner tp(pw);
    EXPECT_GT(tp.speedup(0.5), 1.1);
    EXPECT_LT(tp.speedup(0.92), 1.0 /
              (1.0 - ThrottlePlanner::kDenseStallRate) + 1e-9);
    EXPECT_GT(tp.speedup(0.8), 1.4);
    EXPECT_LT(tp.speedup(0.8), 1.7);
}

TEST(Throttle, PlanFollowsLayerSparsity)
{
    Network net = makeVgg16();
    applySparsityProfile(net, 0.8);
    ExecutionPlan plan = assignPrecision(net, {Precision::FP16});
    PowerModel pw(makeInferenceChip(), 1.5);
    ThrottlePlanner tp(pw);
    tp.planThrottle(net, plan);
    // Every compute layer got a >= 1 throttle boost, later layers
    // (sparser) larger than earlier ones.
    double first = 0, last = 0;
    for (size_t i = 0; i < net.layers.size(); ++i) {
        if (!net.layers[i].isCompute())
            continue;
        if (first == 0)
            first = plan.at(i).throttle;
        last = plan.at(i).throttle;
        EXPECT_GE(plan.at(i).throttle, 1.0);
    }
    EXPECT_GT(last, first);
}

TEST(Throttle, EndToEndPrunedSpeedupBand)
{
    // Pruned benchmarks run 1.1-1.7x faster with throttling planned
    // (the Figure 16(b) experiment).
    ChipConfig chip = makeInferenceChip();
    PerfModel pm(chip);
    PowerModel pw(chip, 1.5);
    ThrottlePlanner tp(pw);
    for (auto &[net, avg] : prunedBenchmarks()) {
        ExecutionPlan base = assignPrecision(net, {Precision::FP16});
        double t0 = pm.evaluate(net, base, 1).total_seconds;
        ExecutionPlan boosted = base;
        tp.planThrottle(net, boosted);
        double t1 = pm.evaluate(net, boosted, 1).total_seconds;
        double speedup = t0 / t1;
        EXPECT_GT(speedup, 1.05) << net.name;
        EXPECT_LT(speedup, 1.75) << net.name;
    }
}

} // namespace
} // namespace rapid
