/**
 * @file
 * Tests for the dataflow mapper and the performance model: exact
 * cycle counts on hand-analyzable shapes, utilization invariants,
 * paper-calibrated speedup bands for inference and training, and the
 * compiler's precision assignment.
 */

#include <gtest/gtest.h>

#include <bit>
#include <limits>
#include <string>

#include "common/bitfield.hh"
#include "common/stats.hh"
#include "compiler/precision_assign.hh"
#include "perf/perf_model.hh"
#include "runtime/session.hh"
#include "workloads/networks.hh"

namespace rapid {
namespace {

ChipConfig
chip4()
{
    return makeInferenceChip();
}

/**
 * The cycle cost of one (@p w_co, @p w_pos) worker split of @p shape
 * on @p chip, written out from the dataflow model: each (co,
 * reduction) tile block-loads a padded red_cap x out_cap x kernel
 * weight block at the corelet's L1 bandwidth, and position-split
 * workers replicate those loads.
 */
Mapping
referenceSplit(const DataflowMapper &m, const ChipConfig &chip,
               const MappedShape &shape, Precision p, int w_co, int w_pos)
{
    const int64_t red_cap = m.reductionCap(p);
    const int64_t out_cap = m.outputCap();
    const int64_t n_red = divCeil(shape.reduction, red_cap);
    const double tile_bytes =
        double(red_cap) * out_cap * shape.kernel * operandBytes(p);
    const double macs = double(shape.reduction) * shape.outputs *
                        shape.kernel * shape.positions;
    const int64_t co_local = divCeil(shape.outputs, int64_t(w_co));
    const int64_t pos_local = divCeil(shape.positions, int64_t(w_pos));
    const int64_t n_co = divCeil(co_local, out_cap);

    Mapping map;
    map.workers_co = w_co;
    map.workers_pos = w_pos;
    map.compute_cycles = double(n_co) * n_red * shape.kernel * pos_local;
    map.block_load_cycles = double(n_co) * n_red * tile_bytes /
                            chip.core.l1_bw_bytes_per_cycle;
    const double peak = map.totalCycles() * double(w_co) * w_pos *
                        red_cap * out_cap;
    map.utilization = peak > 0 ? macs / peak : 0.0;
    return map;
}

/** referenceSplit() with every worker on one split: (1, 1). */
Mapping
oneWorker(const Layer &l, Precision p)
{
    const DataflowMapper m(chip4());
    return referenceSplit(m, chip4(), mappedShape(l, 1), p, 1, 1);
}

TEST(Dataflow, ReductionCapsFollowPrecision)
{
    DataflowMapper m(chip4());
    EXPECT_EQ(m.reductionCap(Precision::FP16), 8);
    EXPECT_EQ(m.reductionCap(Precision::HFP8), 16);
    EXPECT_EQ(m.reductionCap(Precision::INT4), 64);
    EXPECT_EQ(m.reductionCap(Precision::INT2), 128);
    EXPECT_EQ(m.outputCap(), 64);
    EXPECT_EQ(m.workers(), 8); // 4 cores x 2 corelets
}

TEST(Dataflow, PerfectlyTiledConvCycles)
{
    // Conv with Ci=8, Co=64, 1x1 kernel, 16x16 output on ONE worker:
    // exactly one tile, one cycle per output position.
    Layer l;
    l.type = LayerType::Conv;
    l.ci = 8;
    l.co = 64;
    l.h = 16;
    l.w = 16;
    Mapping map = oneWorker(l, Precision::FP16);
    EXPECT_DOUBLE_EQ(map.compute_cycles, 256.0);
    // Block load: 8x64 FP16 weights over 128 B/cycle = 8 cycles.
    EXPECT_DOUBLE_EQ(map.block_load_cycles, 8.0);
}

TEST(Dataflow, ResidueUnderusesArray)
{
    // Ci=12 on an 8-row reduction: two tiles, second only 50% full.
    Layer l;
    l.type = LayerType::Conv;
    l.ci = 12;
    l.co = 64;
    l.h = 16;
    l.w = 16;
    Mapping map = oneWorker(l, Precision::FP16);
    EXPECT_DOUBLE_EQ(map.compute_cycles, 512.0); // 2 tiles
    EXPECT_LT(map.utilization, 0.8);
    EXPECT_GT(map.utilization, 0.5);
}

TEST(Dataflow, UtilizationNeverExceedsOne)
{
    DataflowMapper m(chip4());
    for (const auto &net : allBenchmarks()) {
        for (const auto &l : net.layers) {
            if (!l.isCompute())
                continue;
            for (auto p : {Precision::FP16, Precision::INT4}) {
                Mapping map = m.map(l, 1, p);
                EXPECT_LE(map.utilization, 1.0 + 1e-9)
                    << net.name << "/" << l.name;
                EXPECT_GT(map.utilization, 0.0)
                    << net.name << "/" << l.name;
            }
        }
    }
}

TEST(Dataflow, DepthwiseMapsKernelAlongRows)
{
    Layer l;
    l.type = LayerType::Conv;
    l.ci = 64;
    l.co = 64;
    l.groups = 64;
    l.h = 16;
    l.w = 16;
    l.kh = l.kw = 3;
    l.pad_h = l.pad_w = 1;
    MappedShape s = mappedShape(l, 1);
    EXPECT_EQ(s.reduction, 9);
    EXPECT_EQ(s.kernel, 1);
    EXPECT_EQ(s.outputs, 64);
    // At INT4 the 9-deep reduction wastes most of the 64-wide
    // capacity: the mobile-network effect of Section V-B.
    Mapping map = oneWorker(l, Precision::INT4);
    EXPECT_LT(map.utilization, 0.25);
}

TEST(Dataflow, WorkerSplitReducesCycles)
{
    Layer l;
    l.type = LayerType::Conv;
    l.ci = 256;
    l.co = 256;
    l.h = 28;
    l.w = 28;
    l.kh = l.kw = 3;
    l.pad_h = l.pad_w = 1;
    DataflowMapper m(chip4());
    Mapping one = oneWorker(l, Precision::FP16);
    Mapping full = m.map(l, 1, Precision::FP16);
    EXPECT_LT(full.totalCycles(), one.totalCycles() / 4);
}

TEST(Dataflow, BatchImprovesGemmAmortization)
{
    // FC layers block-load per position; batching amortizes.
    Layer l;
    l.type = LayerType::Gemm;
    l.gm = 1;
    l.gk = 4096;
    l.gn = 4096;
    DataflowMapper m(chip4());
    Mapping b1 = m.map(l, 1, Precision::FP16);
    Mapping b64 = m.map(l, 64, Precision::FP16);
    double per_sample_1 = b1.totalCycles();
    double per_sample_64 = b64.totalCycles() / 64.0;
    EXPECT_LT(per_sample_64, per_sample_1 / 4);
}

/**
 * The mapper's choice, recomputed the slow way: scan every
 * (w_co, w_pos) pair whose product is the live worker count through
 * referenceSplit, keep the first strict minimum of the repeated
 * cycles, then scale by the repeat count.
 */
Mapping
referenceMap(const DataflowMapper &m, const ChipConfig &chip,
             const Layer &layer, int64_t batch, Precision p)
{
    const MappedShape shape = mappedShape(layer, batch);
    const int w = int(chip.activeCores() * chip.core.corelets);
    Mapping best;
    double best_cycles = std::numeric_limits<double>::infinity();
    for (int w_co = 1; w_co <= w; ++w_co) {
        for (int w_pos = 1; w_pos <= w; ++w_pos) {
            if (w_co * w_pos != w)
                continue;
            const Mapping c = referenceSplit(m, chip, shape, p, w_co, w_pos);
            const double cycles = c.totalCycles() * layer.repeat;
            if (cycles < best_cycles) {
                best_cycles = cycles;
                best = c;
            }
        }
    }
    best.compute_cycles *= layer.repeat;
    best.block_load_cycles *= layer.repeat;
    return best;
}

TEST(DataflowMapper, MapMatchesExhaustiveSplitArgmin)
{
    struct Case
    {
        ChipConfig chip;
        int workers;
    };
    const Case cases[] = {{chip4(), 8},
                          {makeDegradedInferenceChip(1, 2), 6}};
    const std::vector<Network> nets = allBenchmarks();
    for (const Case &c : cases) {
        const DataflowMapper m(c.chip);
        ASSERT_EQ(m.workers(), c.workers);
        size_t checked = 0;
        for (const Network &net : nets) {
            for (const Layer &l : net.layers) {
                if (!l.isCompute())
                    continue;
                for (int64_t batch : {1, 7, 64}) {
                    for (Precision p :
                         {Precision::INT2, Precision::INT4,
                          Precision::HFP8, Precision::FP16}) {
                        const Mapping got = m.map(l, batch, p);
                        const Mapping want =
                            referenceMap(m, c.chip, l, batch, p);
                        const std::string where =
                            net.name + "/" + l.name + " batch " +
                            std::to_string(batch) + " " +
                            precisionName(p);
                        ASSERT_EQ(got.workers_co, want.workers_co)
                            << where;
                        ASSERT_EQ(got.workers_pos, want.workers_pos)
                            << where;
                        ASSERT_EQ(got.compute_cycles,
                                  want.compute_cycles) << where;
                        ASSERT_EQ(got.block_load_cycles,
                                  want.block_load_cycles) << where;
                        ASSERT_EQ(got.utilization, want.utilization)
                            << where;
                        ++checked;
                    }
                }
            }
        }
        EXPECT_EQ(checked, 6828u);
    }
}

/** FNV-1a over the little-endian bytes of 64-bit words. */
class Fnv1a
{
  public:
    void
    u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ull;
        }
    }

    void f64(double v) { u64(std::bit_cast<uint64_t>(v)); }

    void
    str(const std::string &s)
    {
        u64(s.size());
        for (char c : s)
            u64(uint64_t(uint8_t(c)));
    }

    void
    cycles(const CycleBreakdown &c)
    {
        for (double v : {c.conv_gemm, c.overhead, c.quantization, c.aux,
                         c.retry, c.checkpoint, c.mem_stall})
            f64(v);
    }

    void
    inference(const InferenceResult &r)
    {
        u64(r.plan.layers.size());
        for (const LayerPlan &lp : r.plan.layers) {
            u64(uint64_t(lp.precision));
            f64(lp.throttle);
        }
        str(r.perf.network);
        u64(uint64_t(r.perf.batch));
        u64(r.perf.layers.size());
        for (const LayerPerf &lp : r.perf.layers) {
            str(lp.name);
            u64(uint64_t(lp.type));
            u64(uint64_t(lp.precision));
            f64(lp.macs);
            cycles(lp.cycles);
            f64(lp.mem_bytes);
            f64(lp.utilization);
            f64(lp.seconds);
        }
        cycles(r.perf.breakdown);
        f64(r.perf.total_seconds);
        f64(r.perf.total_macs);
        f64(r.perf.mem_bytes);
        const EnergyReport &e = r.energy;
        for (double v : {e.avg_power_w, e.energy_j, e.sustained_tops,
                         e.tops_per_w, e.power.base, e.power.mpe,
                         e.power.sfu, e.power.leakage})
            f64(v);
    }

    void
    training(const TrainingPerf &t)
    {
        str(t.network);
        u64(uint64_t(t.precision));
        u64(uint64_t(t.minibatch));
        for (double v : {t.compute_seconds, t.comm_seconds,
                         t.step_seconds, t.total_macs})
            f64(v);
    }

    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ull;
};

// Pins every field the analytical model reports: inference sessions
// over the 11 networks x 4 precisions x 3 batches, dense and pruned
// with sparsity throttling, then training over both training
// precisions x 3 minibatches x 3 system sizes. Any change to how the
// model is evaluated must leave these bit for bit.
TEST(PerfModel, PinnedDigestOverAllNetworks)
{
    const std::vector<Network> nets = allBenchmarks();
    ASSERT_EQ(nets.size(), 11u);
    Fnv1a inf;
    size_t layers = 0, throttled_layers = 0;
    for (const Network &dense : nets) {
        Network pruned = dense;
        applySparsityProfile(pruned, 0.6);
        for (bool throttled : {false, true}) {
            const InferenceSession session(makeInferenceChip(),
                                           throttled ? pruned : dense);
            for (Precision p : {Precision::INT2, Precision::INT4,
                                Precision::HFP8, Precision::FP16}) {
                for (int64_t batch : {1, 3, 64}) {
                    InferenceOptions opts;
                    opts.target = p;
                    opts.batch = batch;
                    opts.sparsity_throttling = throttled;
                    const InferenceResult r = session.run(opts);
                    layers += r.perf.layers.size();
                    for (const LayerPlan &lp : r.plan.layers)
                        throttled_layers += lp.throttle > 1.0;
                    inf.inference(r);
                }
            }
        }
    }
    EXPECT_EQ(layers, 40752u);
    EXPECT_EQ(throttled_layers, 20340u);
    EXPECT_EQ(inf.value(), 0x86d53cd69725bc6eull);

    Fnv1a train;
    for (unsigned chips : {1u, 3u, 16u}) {
        const TrainingPerfModel tm(makeTrainingSystem(chips));
        for (const Network &net : nets)
            for (Precision p : {Precision::HFP8, Precision::FP16})
                for (int64_t mb : {64, 512, 4096})
                    train.training(tm.evaluate(net, p, mb));
    }
    EXPECT_EQ(train.value(), 0xfbe55072cd79940eull);
}

// The same pin on degraded chips, where every chip constant the model
// derives (live cores, live MPE rows, and all that follows from them)
// differs from the healthy value: a dead core, dead MPE rows, and
// both, then a training system whose chips have both.
TEST(PerfModel, PinnedDigestOnDegradedChips)
{
    const std::vector<Network> nets = allBenchmarks();
    ASSERT_EQ(nets.size(), 11u);
    const ChipConfig chips[] = {makeDegradedInferenceChip(1, 0),
                                makeDegradedInferenceChip(0, 3),
                                makeDegradedInferenceChip(2, 5)};
    Fnv1a inf;
    size_t layers = 0;
    for (const ChipConfig &chip : chips) {
        for (const Network &dense : nets) {
            Network pruned = dense;
            applySparsityProfile(pruned, 0.6);
            for (bool throttled : {false, true}) {
                const Network &net = throttled ? pruned : dense;
                const InferenceSession session(chip, net);
                for (Precision p : {Precision::INT2, Precision::INT4,
                                    Precision::HFP8, Precision::FP16}) {
                    for (int64_t batch : {1, 7}) {
                        InferenceOptions opts;
                        opts.target = p;
                        opts.batch = batch;
                        opts.sparsity_throttling = throttled;
                        const InferenceResult r = session.run(opts);
                        layers += r.perf.layers.size();
                        inf.inference(r);
                    }
                }
            }
        }
    }
    EXPECT_EQ(layers, 81504u);
    EXPECT_EQ(inf.value(), 0x8f07df3d3c664c79ull);

    SystemConfig sys = makeTrainingSystem(4);
    sys.chip.dead_core_mask = 0b1001;
    sys.chip.dead_mpe_row_mask = 0b11;
    Fnv1a train;
    const TrainingPerfModel tm(sys);
    for (const Network &net : nets)
        for (Precision p : {Precision::HFP8, Precision::FP16})
            for (int64_t mb : {64, 512})
                train.training(tm.evaluate(net, p, mb));
    EXPECT_EQ(train.value(), 0xd78c12e3640f1d35ull);
}

TEST(PrecisionAssign, ProtectsEdgesAndSensitiveLayers)
{
    Network net = makeResnet50();
    PrecisionOptions opts;
    opts.target = Precision::INT4;
    ExecutionPlan plan = assignPrecision(net, opts);
    ASSERT_EQ(plan.layers.size(), net.layers.size());

    // First and last compute layers at FP16.
    size_t first = 0, last = 0;
    bool seen = false;
    for (size_t i = 0; i < net.layers.size(); ++i) {
        if (net.layers[i].isCompute()) {
            if (!seen) {
                first = i;
                seen = true;
            }
            last = i;
        }
    }
    EXPECT_EQ(plan.at(first).precision, Precision::FP16);
    EXPECT_EQ(plan.at(last).precision, Precision::FP16);
    // Shortcut projections stay FP16; bulk layers go INT4.
    int int4 = 0;
    double int4_macs = 0, all_macs = 0;
    for (size_t i = 0; i < net.layers.size(); ++i) {
        all_macs += double(net.layers[i].macsPerSample());
        if (!net.layers[i].isCompute())
            continue;
        if (net.layers[i].accuracy_sensitive) {
            EXPECT_EQ(plan.at(i).precision, Precision::FP16);
        }
        if (plan.at(i).precision == Precision::INT4) {
            ++int4;
            int4_macs += double(net.layers[i].macsPerSample());
        }
    }
    EXPECT_GT(int4, 40);
    // The protected fraction of MACs is small.
    EXPECT_GT(int4_macs / all_macs, 0.85);
}

TEST(PerfModel, SpeedupBandsMatchPaper)
{
    // Figure 13: FP8 1.2-1.9x (avg 1.55), INT4 1.4-4.2x (avg 2.8).
    PerfModel pm(chip4());
    SummaryStat fp8, int4;
    for (const auto &net : allBenchmarks()) {
        PrecisionOptions o8{Precision::HFP8, true};
        PrecisionOptions o4{Precision::INT4, true};
        double t16 = pm.evaluate(net,
                                 assignPrecision(net, {Precision::FP16}), 1)
                         .total_seconds;
        fp8.add(t16 / pm.evaluate(net, assignPrecision(net, o8), 1)
                          .total_seconds);
        int4.add(t16 / pm.evaluate(net, assignPrecision(net, o4), 1)
                           .total_seconds);
    }
    EXPECT_GT(fp8.min(), 1.1);
    EXPECT_LT(fp8.max(), 2.0);
    EXPECT_NEAR(fp8.mean(), 1.55, 0.25);
    // Our floor is the PTB LSTM, slightly below the paper's 1.4 (its
    // batch-1 GEMMs are dominated by weight block-loads).
    EXPECT_GT(int4.min(), 1.2);
    EXPECT_LT(int4.max(), 5.0);
    EXPECT_NEAR(int4.mean(), 2.8, 0.5);
}

TEST(PerfModel, MobileNetBenefitsLeastAmongCnns)
{
    // Section V-B: mobile networks benefit the least from INT4.
    PerfModel pm(chip4());
    auto speedup = [&](const char *name) {
        Network net = benchmarkByName(name);
        PrecisionOptions o4{Precision::INT4, true};
        double t16 = pm.evaluate(net,
                                 assignPrecision(net, {Precision::FP16}), 1)
                         .total_seconds;
        return t16 / pm.evaluate(net, assignPrecision(net, o4), 1)
                         .total_seconds;
    };
    double mobile = speedup("mobilenetv1");
    for (const char *heavy : {"vgg16", "resnet50", "ssd300", "yolov3"})
        EXPECT_LT(mobile, speedup(heavy)) << heavy;
}

TEST(PerfModel, BreakdownCategoriesArePopulated)
{
    PerfModel pm(chip4());
    Network net = makeResnet50();
    PrecisionOptions o4{Precision::INT4, true};
    NetworkPerf r = pm.evaluate(net, assignPrecision(net, o4), 1);
    EXPECT_GT(r.breakdown.conv_gemm, 0);
    EXPECT_GT(r.breakdown.overhead, 0);
    EXPECT_GT(r.breakdown.quantization, 0);
    EXPECT_GT(r.breakdown.aux, 0);
    // Busy-cycle shares are broadly Figure-17-like for ResNet50.
    double busy = r.breakdown.busy();
    EXPECT_GT(r.breakdown.conv_gemm / busy, 0.25);
    EXPECT_LT(r.breakdown.conv_gemm / busy, 0.65);
}

TEST(PerfModel, ThrottleScalesTime)
{
    PerfModel pm(chip4());
    Network net = makeVgg16();
    ExecutionPlan plan = assignPrecision(net, {Precision::FP16});
    double base = pm.evaluate(net, plan, 1).total_seconds;
    for (auto &lp : plan.layers)
        lp.throttle = 1.25;
    double fast = pm.evaluate(net, plan, 1).total_seconds;
    EXPECT_NEAR(base / fast, 1.25, 1e-6);
}

TEST(PerfModel, BatchOneVsBatchedThroughput)
{
    PerfModel pm(chip4());
    Network net = makeResnet50();
    ExecutionPlan plan = assignPrecision(net, {Precision::FP16});
    double sps1 = pm.evaluate(net, plan, 1).samplesPerSecond();
    double sps16 = pm.evaluate(net, plan, 16).samplesPerSecond();
    EXPECT_GT(sps16, sps1); // batching never hurts throughput
}

TEST(TrainingModel, SpeedupBandMatchesPaper)
{
    // Figure 15: HFP8 over FP16 speedup 1.1-2x (avg 1.4); sustained
    // 102-588 TFLOPS. Our model is compute-optimistic, so assert the
    // band with tolerance on the average.
    TrainingPerfModel tm(makeTrainingSystem(4));
    SummaryStat spd, tops;
    for (const auto &net : allBenchmarks()) {
        TrainingPerf h = tm.evaluate(net, Precision::HFP8, 512);
        TrainingPerf f = tm.evaluate(net, Precision::FP16, 512);
        spd.add(f.step_seconds / h.step_seconds);
        tops.add(h.sustainedTops());
    }
    EXPECT_GT(spd.min(), 1.05);
    EXPECT_LT(spd.max(), 2.0);
    EXPECT_GT(tops.min(), 100.0);
    EXPECT_LT(tops.max(), 600.0);
}

TEST(TrainingModel, TrainingSpeedupBelowInferenceSpeedup)
{
    // Section V-C: training speedups are smaller than inference FP8
    // speedups for the same nets (comm + memory intensity).
    PerfModel pm(chip4());
    TrainingPerfModel tm(makeTrainingSystem(4));
    SummaryStat inf, tr;
    for (const char *name : {"resnet50", "mobilenetv1"}) {
        Network net = benchmarkByName(name);
        PrecisionOptions o8{Precision::HFP8, true};
        double t16 = pm.evaluate(net,
                                 assignPrecision(net, {Precision::FP16}), 1)
                         .total_seconds;
        inf.add(t16 / pm.evaluate(net, assignPrecision(net, o8), 1)
                          .total_seconds);
        tr.add(tm.evaluate(net, Precision::FP16, 512).step_seconds /
               tm.evaluate(net, Precision::HFP8, 512).step_seconds);
    }
    // Averages: training <= inference + small slack.
    EXPECT_LT(tr.mean(), inf.mean() + 0.35);
}

TEST(TrainingModel, MoreChipsMoreThroughput)
{
    Network net = makeResnet50();
    TrainingPerfModel t1(makeTrainingSystem(1));
    TrainingPerfModel t4(makeTrainingSystem(4));
    double s1 = t1.evaluate(net, Precision::HFP8, 512)
                    .samplesPerSecond();
    double s4 = t4.evaluate(net, Precision::HFP8, 512)
                    .samplesPerSecond();
    EXPECT_GT(s4, 2.0 * s1);
}

} // namespace
} // namespace rapid
