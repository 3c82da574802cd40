/**
 * @file
 * google-benchmark microbenchmarks of the emulation substrate: float
 * codec encode/decode throughput, FMA datapaths, chunked
 * accumulation, quantizers, the FP32 reference and reduced-precision
 * GEMM executors, the cycle-level systolic simulator, the ring
 * interconnect, the chip-level simulation of one compiled layer, the
 * analytical inference and training models and sessions over one
 * network, and the serving statistics: the calibrated admission window
 * and the metrics aggregation of one serving run.
 */

#include <string>

#include <benchmark/benchmark.h>

#include "common/random.hh"
#include "compiler/codegen.hh"
#include "compiler/precision_assign.hh"
#include "func/quantized_ops.hh"
#include "interconnect/mni.hh"
#include "perf/perf_model.hh"
#include "runtime/session.hh"
#include "serve/metrics.hh"
#include "serve/overload.hh"
#include "sim/chip_sim.hh"
#include "sim/systolic.hh"
#include "tensor/ops.hh"
#include "workloads/networks.hh"

namespace rapid {
namespace {

/**
 * Quantize throughput over Laplace-shaped values (typical of trained
 * weights, and reaching every format's underflow range): the
 * bit-direct quantize() against the decode(encode()) codec path it is
 * pinned to.
 */
void
BM_Quantize(benchmark::State &state, FloatFormat fmt, bool via_codec)
{
    Rng rng(2);
    std::vector<float> values(4096);
    for (float &v : values)
        v = float(rng.laplace(0.5));
    size_t i = 0;
    for (auto _ : state) {
        const float v = values[i++ & 4095];
        benchmark::DoNotOptimize(via_codec ? fmt.quantizeViaCodec(v)
                                           : fmt.quantize(v));
    }
    state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK_CAPTURE(BM_Quantize, dlfloat16, dlfloat16(), false);
BENCHMARK_CAPTURE(BM_Quantize, dlfloat16_codec, dlfloat16(), true);
BENCHMARK_CAPTURE(BM_Quantize, fp8e4m3, fp8e4m3(4), false);
BENCHMARK_CAPTURE(BM_Quantize, fp8e4m3_codec, fp8e4m3(4), true);
BENCHMARK_CAPTURE(BM_Quantize, fp8e5m2, fp8e5m2(), false);
BENCHMARK_CAPTURE(BM_Quantize, fp8e5m2_codec, fp8e5m2(), true);

void
BM_Hfp8Fma(benchmark::State &state)
{
    MpeDatapath dp;
    Rng rng(3);
    auto values = rng.gaussianVector(4096);
    size_t i = 0;
    float acc = 0.0f;
    for (auto _ : state) {
        acc = dp.hfp8Fma(values[i & 4095], Fp8Kind::Forward,
                         values[(i * 7 + 1) & 4095],
                         Fp8Kind::Backward, acc);
        ++i;
    }
    benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_Hfp8Fma);

void
BM_ChunkAccumulate(benchmark::State &state)
{
    ChunkAccumulator acc(size_t(state.range(0)), true);
    double term = 0.37;
    for (auto _ : state)
        acc.add(term);
    benchmark::DoNotOptimize(acc.total());
}
BENCHMARK(BM_ChunkAccumulate)->Arg(8)->Arg(64)->Arg(256);

void
BM_SawbConstruct(benchmark::State &state)
{
    Rng rng(4);
    auto weights = rng.gaussianVector(size_t(state.range(0)));
    for (auto _ : state) {
        SawbQuantizer q(weights, 4);
        benchmark::DoNotOptimize(q.alpha());
    }
}
BENCHMARK(BM_SawbConstruct)->Arg(1024)->Arg(16384);

/** The FP32 training GEMM (M, K, N) the emulated ones are measured
 *  against (items/s is MAC/s, as for the GEMMs below): square shapes,
 *  and the wide training MLP's forward (32x160x160), weight-gradient
 *  (160x32x160) and logit-edge (32x160x2, 160x32x2) GEMMs. */
void
BM_Matmul(benchmark::State &state)
{
    const int64_t m = state.range(0), k = state.range(1),
                  n = state.range(2);
    Rng rng(7);
    Tensor a({m, k}), b({k, n});
    a.fillGaussian(rng, 0.0, 0.5);
    b.fillGaussian(rng, 0.0, 0.5);
    for (auto _ : state)
        benchmark::DoNotOptimize(matmul(a, b));
    state.SetItemsProcessed(state.iterations() * m * k * n);
}
BENCHMARK(BM_Matmul)
    ->Args({32, 32, 32})
    ->Args({64, 64, 64})
    ->Args({160, 160, 160})
    ->Args({32, 160, 160})
    ->Args({160, 32, 160})
    ->Args({32, 160, 2})
    ->Args({160, 32, 2});

void
BM_IntMatmul(benchmark::State &state)
{
    const int64_t n = state.range(0);
    Rng rng(5);
    Tensor a({n, n}), b({n, n});
    for (int64_t i = 0; i < a.numel(); ++i)
        a[i] = float(std::abs(rng.gaussian()));
    b.fillGaussian(rng, 0.0, 0.4);
    PactQuantizer act_q(3.0f, 4);
    SawbQuantizer wt_q(b.storage(), 4);
    for (auto _ : state)
        benchmark::DoNotOptimize(intMatmul(a, act_q, b, wt_q, 4));
    state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_IntMatmul)->Arg(32)->Arg(64)->Arg(160);

/** A 3x3, pad-1 convolution of 16 -> 16 channels over an n x n image
 *  (items/s is MAC/s). */
struct ConvBench
{
    Tensor x, w;
    ConvParams p;
    int64_t macs;

    explicit ConvBench(int64_t n)
        : x({1, 16, n, n}), w({16, 16, 3, 3}), macs(16 * n * n * 16 * 9)
    {
        Rng rng(8);
        for (int64_t i = 0; i < x.numel(); ++i)
            x[i] = float(std::abs(rng.gaussian()));
        w.fillGaussian(rng, 0.0, 0.4);
        p.pad = 1;
    }
};

void
BM_IntConv2d(benchmark::State &state)
{
    const ConvBench c(state.range(0));
    PactQuantizer act_q(3.0f, 4);
    SawbQuantizer wt_q(c.w.storage(), 4);
    for (auto _ : state)
        benchmark::DoNotOptimize(intConv2d(c.x, act_q, c.w, wt_q, 4, c.p));
    state.SetItemsProcessed(state.iterations() * c.macs);
}
BENCHMARK(BM_IntConv2d)->Arg(8)->Arg(16);

void
BM_Fp16Conv2d(benchmark::State &state)
{
    const ConvBench c(state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(fp16Conv2d(c.x, c.w, c.p));
    state.SetItemsProcessed(state.iterations() * c.macs);
}
BENCHMARK(BM_Fp16Conv2d)->Arg(8)->Arg(16);

/**
 * Tensor FP8 quantize throughput on N(0, 0.5) values, one training
 * activation's worth (32 x 160): the forward format (bias 4) and the
 * backward format.
 */
void
BM_QuantizeTensorFp8(benchmark::State &state, Fp8Kind kind)
{
    Rng rng(5);
    Tensor t({32, 160});
    t.fillGaussian(rng, 0.0, 0.5);
    for (auto _ : state)
        benchmark::DoNotOptimize(quantizeTensorFp8(t, kind));
    state.SetItemsProcessed(state.iterations() * t.numel());
}
BENCHMARK_CAPTURE(BM_QuantizeTensorFp8, forward, Fp8Kind::Forward);
BENCHMARK_CAPTURE(BM_QuantizeTensorFp8, backward, Fp8Kind::Backward);

/** Each row's label: the lane width its GEMM ran at. */
std::string
laneLabel()
{
    return "lane width " + std::to_string(chunkedGemmLaneWidth());
}

/** HFP8 GEMM (M, K, N) MAC/s: square shapes, and the wide training
 *  MLP's forward (32x160x160), weight-gradient (160x32x160) and
 *  logit (32x160x2) GEMMs. */
void
BM_Hfp8Matmul(benchmark::State &state)
{
    const int64_t m = state.range(0), k = state.range(1),
                  n = state.range(2);
    Rng rng(6);
    Tensor a({m, k}), b({k, n});
    a.fillGaussian(rng, 0.0, 0.5);
    b.fillGaussian(rng, 0.0, 0.5);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            hfp8Matmul(a, Fp8Kind::Forward, b, Fp8Kind::Forward));
    state.SetItemsProcessed(state.iterations() * m * k * n);
    state.SetLabel(laneLabel());
}
BENCHMARK(BM_Hfp8Matmul)
    ->Args({32, 32, 32})
    ->Args({64, 64, 64})
    ->Args({160, 160, 160})
    ->Args({32, 160, 160})
    ->Args({160, 32, 160})
    ->Args({32, 160, 2});

/** FP16 GEMM (M, K, N) MAC/s: square shapes, and the wide INT
 *  deployment's FP16 edge layers over 1024 samples (1024x2x160 and
 *  1024x160x2). */
void
BM_Fp16Matmul(benchmark::State &state)
{
    const int64_t m = state.range(0), k = state.range(1),
                  n = state.range(2);
    Rng rng(6);
    Tensor a({m, k}), b({k, n});
    a.fillGaussian(rng, 0.0, 0.5);
    b.fillGaussian(rng, 0.0, 0.5);
    for (auto _ : state)
        benchmark::DoNotOptimize(fp16Matmul(a, b));
    state.SetItemsProcessed(state.iterations() * m * k * n);
    state.SetLabel(laneLabel());
}
BENCHMARK(BM_Fp16Matmul)
    ->Args({32, 32, 32})
    ->Args({64, 64, 64})
    ->Args({160, 160, 160})
    ->Args({1024, 2, 160})
    ->Args({1024, 160, 2});

/**
 * SystolicArraySim::gemm of an (M,K) x (K,N) GEMM at FP16 (last arg 0)
 * or HFP8 (1), reported in MACs per second: perfbench chip_model's
 * shapes (M = 16, K in {32, 64, 96}, N in {32, 48}) and two squares.
 */
void
BM_SystolicGemm(benchmark::State &state)
{
    const int64_t m = state.range(0), k = state.range(1),
                  n = state.range(2);
    Rng rng(7);
    Tensor a({m, k}), b({k, n});
    a.fillGaussian(rng, 0.0, 0.5);
    b.fillGaussian(rng, 0.0, 0.5);
    SystolicArraySim sim(CoreletConfig{}, state.range(3)
                                              ? Precision::HFP8
                                              : Precision::FP16);
    for (auto _ : state)
        benchmark::DoNotOptimize(sim.gemm(a, b));
    state.counters["macs_per_s"] = benchmark::Counter(
        double(state.iterations()) * double(m * k * n),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SystolicGemm)
    ->ArgsProduct({{16}, {32, 64, 96}, {32, 48}, {0, 1}})
    ->Args({32, 32, 32, 0})
    ->Args({64, 64, 64, 0})
    ->Args({64, 64, 64, 1})
    ->ArgNames({"m", "k", "n", "hfp8"});

void
BM_RingMulticast(benchmark::State &state)
{
    for (auto _ : state) {
        RingConfig cfg;
        cfg.num_nodes = 5;
        RingNetwork ring(cfg);
        ring.send(0, {1, 2, 3}, 128 * 256);
        ring.drain();
        benchmark::DoNotOptimize(ring.now());
    }
}
BENCHMARK(BM_RingMulticast);

/**
 * ChipSim over one FP16 layer on the inference chip (4 cores,
 * multicast), reported in simulated cycles per second. inception3
 * mixedC0.b0.0 streams 480 weight tiles; vgg16 conv1_1 streams one,
 * then computes for about 56 k cycles with the ring idle.
 */
void
BM_ChipSimLayer(benchmark::State &state, const char *net,
                const char *layer)
{
    const ChipConfig chip = makeInferenceChip();
    const Network network = benchmarkByName(net);
    LayerProgram prog;
    for (const Layer &l : network.layers)
        if (l.name == layer) {
            LayerPlan plan;
            plan.precision = Precision::FP16;
            prog = CodeGenerator(chip).generate(l, plan, 1);
        }
    const ChipSim sim(chip.cores, true);
    int64_t cycles = 0;
    for (auto _ : state) {
        const ChipRunStats stats = sim.run(prog);
        benchmark::DoNotOptimize(stats);
        cycles += stats.makespan;
    }
    state.counters["transfers"] = double(prog.transfers.size());
    state.counters["sim_cycles_per_s"] =
        benchmark::Counter(double(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK_CAPTURE(BM_ChipSimLayer, inception3_mixedC0_b0_0, "inception3",
                  "mixedC0.b0.0")
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_ChipSimLayer, vgg16_conv1_1, "vgg16", "conv1_1")
    ->Unit(benchmark::kMicrosecond);

/**
 * The analytical inference model over resnet50 at batch 1 under the
 * compiler's INT4 plan, reported in layers evaluated per second.
 */
void
BM_PerfModelEvaluate(benchmark::State &state)
{
    const Network net = makeResnet50();
    PrecisionOptions popts;
    popts.target = Precision::INT4;
    const ExecutionPlan plan = assignPrecision(net, popts);
    const PerfModel model(makeInferenceChip());
    for (auto _ : state)
        benchmark::DoNotOptimize(model.evaluate(net, plan, 1));
    state.counters["layers_per_s"] = benchmark::Counter(
        double(state.iterations()) * double(net.layers.size()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PerfModelEvaluate)->Unit(benchmark::kMicrosecond)->UseRealTime();

/**
 * The data-parallel training model over resnet50 in HFP8 at minibatch
 * 512 on 4 chips, reported in layers evaluated per second.
 */
void
BM_TrainingEvaluate(benchmark::State &state)
{
    const Network net = makeResnet50();
    const TrainingPerfModel model(makeTrainingSystem(4));
    for (auto _ : state)
        benchmark::DoNotOptimize(
            model.evaluate(net, Precision::HFP8, 512));
    state.counters["layers_per_s"] = benchmark::Counter(
        double(state.iterations()) * double(net.layers.size()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TrainingEvaluate)->Unit(benchmark::kMicrosecond)->UseRealTime();

/**
 * One inference session as the sweeps use it: construct it on
 * resnet50 and run INT4 at batch 1 (compile, evaluate, power),
 * reported in layers per second.
 */
void
BM_InferenceSessionRun(benchmark::State &state)
{
    const Network net = makeResnet50();
    const ChipConfig chip = makeInferenceChip();
    InferenceOptions opts;
    opts.target = Precision::INT4;
    opts.batch = 1;
    for (auto _ : state) {
        const InferenceSession session(chip, net);
        benchmark::DoNotOptimize(session.run(opts));
    }
    state.counters["layers_per_s"] = benchmark::Counter(
        double(state.iterations()) * double(net.layers.size()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_InferenceSessionRun)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

/**
 * One training session: construct it on resnet50 and a 4-chip system
 * and run HFP8 at minibatch 512, reported in layers per second.
 */
void
BM_TrainingSessionRun(benchmark::State &state)
{
    const Network net = makeResnet50();
    const SystemConfig sys = makeTrainingSystem(4);
    const TrainingOptions opts{Precision::HFP8, 512};
    for (auto _ : state) {
        const TrainingSession session(sys, net);
        benchmark::DoNotOptimize(session.run(opts));
    }
    state.counters["layers_per_s"] = benchmark::Counter(
        double(state.iterations()) * double(net.layers.size()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TrainingSessionRun)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

/**
 * One routing-time cost of the calibrated admission tier: a warm
 * 512-sample window takes one observed wait and is asked for its
 * prediction, as the serve router does at every launch and routing
 * decision.
 */
void
BM_CalibratedPredict(benchmark::State &state)
{
    CalibratedAdmissionConfig cfg;
    cfg.enabled = true;
    cfg.window = 512;
    CalibratedAdmission admission(cfg);
    Rng rng(5);
    std::vector<int64_t> waits(4096);
    for (int64_t &w : waits)
        w = rng.uniformInt(0, 2'000'000);
    for (size_t i = 0; i < cfg.window; ++i)
        admission.observe(waits[i]);
    size_t i = 0;
    for (auto _ : state) {
        admission.observe(waits[i++ & 4095]);
        benchmark::DoNotOptimize(admission.predictNs());
    }
    state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_CalibratedPredict);

/**
 * computeMetrics over one single-chip serving run of about 45 k
 * requests on three queues: per-tenant latency summaries, the total,
 * and the queue-wait replay.
 */
void
BM_ServeComputeMetrics(benchmark::State &state)
{
    ServeConfig cfg;
    for (const char *net : {"resnet50", "mobilenetv1", "bert"}) {
        TenantConfig t;
        t.name = net;
        t.network = net;
        t.arrival_rps = 3000.0;
        t.deadline_ns = 1'000'000'000;
        cfg.tenants.push_back(t);
    }
    cfg.horizon_ns = 5'000'000'000;
    const ServeResult result = ServeSim(makeInferenceChip(), cfg).run();
    for (auto _ : state)
        benchmark::DoNotOptimize(computeMetrics(cfg, result));
    state.counters["requests"] = double(result.requests.size());
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(result.requests.size()));
}
BENCHMARK(BM_ServeComputeMetrics)->Unit(benchmark::kMillisecond);

} // namespace
} // namespace rapid

BENCHMARK_MAIN();
