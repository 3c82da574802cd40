/**
 * @file
 * Tests for token synchronization on a DES domain, and the
 * cycle-level systolic array simulator: numerics must match the
 * bit-accurate functional executors exactly, and cycle counts must
 * agree with the analytical dataflow model.
 */

#include <gtest/gtest.h>

#include "common/parallel.hh"
#include "common/random.hh"
#include "func/quantized_ops.hh"
#include "compiler/codegen.hh"
#include "compiler/dataflow.hh"
#include "sim/chip_sim.hh"
#include "sim/mpe_thread.hh"
#include "sim/systolic.hh"
#include "workloads/networks.hh"

namespace rapid {
namespace {

TEST(TokenBoard, ProducerConsumerOrdering)
{
    // The Section II-A pattern: the L0-writer posts a token after
    // each block; the PE-array reader waits on it before streaming.
    DesEngine engine;
    DesDomain &dom = engine.domain(engine.addDomain("tokens"));
    TokenBoard tokens(dom);
    std::vector<std::string> trace;
    dom.schedule(10, 0, [&] {
        trace.push_back("write");
        tokens.post(1);
    });
    tokens.wait(1, [&] { trace.push_back("read"); });
    engine.run();
    ASSERT_EQ(trace.size(), 2u);
    EXPECT_EQ(trace[0], "write");
    EXPECT_EQ(trace[1], "read");
    EXPECT_EQ(dom.now(), 10);
}

TEST(TokenBoard, BanksTokensWhenNoWaiter)
{
    // Two posts with no waiter bank two tokens: the first two waits
    // run at once, the third parks until the next post.
    DesEngine engine;
    DesDomain &dom = engine.domain(engine.addDomain("tokens"));
    TokenBoard tokens(dom);
    tokens.post(3);
    tokens.post(3);
    std::vector<SimTime> fired;
    dom.schedule(5, 0, [&] {
        for (int i = 0; i < 3; ++i)
            tokens.wait(3, [&] { fired.push_back(dom.now()); });
    });
    dom.schedule(9, 0, [&] { tokens.post(3); });
    engine.run();
    EXPECT_EQ(fired, (std::vector<SimTime>{5, 5, 9}));
}

CoreletConfig
corelet8x8()
{
    return CoreletConfig{};
}

TEST(Systolic, Fp16GemmMatchesDatapathChain)
{
    // Single-tile GEMM (K <= 8): the simulated result must equal a
    // straight DLFloat16 FMA chain in k order.
    Rng rng(21);
    Tensor a({5, 8}), b({8, 12});
    a.fillGaussian(rng, 0.0, 0.5);
    b.fillGaussian(rng, 0.0, 0.5);
    SystolicArraySim sim(corelet8x8(), Precision::FP16);
    SystolicResult res = sim.gemm(a, b);

    MpeDatapath dp;
    for (int64_t m = 0; m < 5; ++m) {
        for (int64_t n = 0; n < 12; ++n) {
            float acc = 0.0f;
            for (int64_t k = 0; k < 8; ++k)
                acc = dp.fp16Fma(dlfloat16().quantize(a.at(m, k)),
                                 dlfloat16().quantize(b.at(k, n)),
                                 acc);
            EXPECT_FLOAT_EQ(res.c.at(m, n), acc)
                << "m=" << m << " n=" << n;
        }
    }
}

TEST(Systolic, Hfp8GemmMatchesScalarDatapath)
{
    Rng rng(22);
    Tensor a({4, 16}), b({16, 8});
    a.fillGaussian(rng, 0.0, 0.7);
    b.fillGaussian(rng, 0.0, 0.7);
    SystolicArraySim sim(corelet8x8(), Precision::HFP8, 4);
    SystolicResult res = sim.gemm(a, b, Fp8Kind::Forward,
                                  Fp8Kind::Forward);
    MpeDatapath dp(4);
    for (int64_t m = 0; m < 4; ++m) {
        for (int64_t n = 0; n < 8; ++n) {
            float acc = 0.0f;
            for (int64_t k = 0; k < 16; ++k)
                acc = dp.hfp8Fma(a.at(m, k), Fp8Kind::Forward,
                                 b.at(k, n), Fp8Kind::Forward, acc);
            EXPECT_FLOAT_EQ(res.c.at(m, n), acc);
        }
    }
}

TEST(Systolic, GemmCloseToGoldenReference)
{
    Rng rng(23);
    Tensor a({16, 32}), b({32, 64});
    a.fillGaussian(rng, 0.0, 0.4);
    b.fillGaussian(rng, 0.0, 0.4);
    SystolicArraySim sim(corelet8x8(), Precision::FP16);
    SystolicResult res = sim.gemm(a, b);
    EXPECT_LT(relativeL2(res.c, matmul(a, b)), 6e-3);
}

TEST(Systolic, ZeroGatingCountsSparseOperands)
{
    Tensor a({4, 8}), b({8, 8});
    a.fill(0.0f);
    for (int64_t i = 0; i < 4; ++i)
        a.at(i, 0) = 1.0f; // 1 of 8 operands non-zero
    b.fill(1.0f);
    SystolicArraySim sim(corelet8x8(), Precision::FP16);
    SystolicResult res = sim.gemm(a, b);
    EXPECT_EQ(res.fmas, uint64_t(4 * 8 * 8));
    EXPECT_EQ(res.zero_gated, uint64_t(4 * 8 * 7));
    for (int64_t i = 0; i < 4; ++i)
        for (int64_t j = 0; j < 8; ++j)
            EXPECT_FLOAT_EQ(res.c.at(i, j), 1.0f);
}

TEST(Systolic, CycleCountTracksAnalyticalModel)
{
    // Large single-worker GEMM: the simulated cycles must agree with
    // the analytical dataflow mapping within the pipeline-fill slack.
    Rng rng(24);
    const int64_t m = 256, k = 32, n = 128;
    Tensor a({m, k}), b({k, n});
    a.fillGaussian(rng);
    b.fillGaussian(rng);
    SystolicArraySim sim(corelet8x8(), Precision::FP16);
    SystolicResult res = sim.gemm(a, b);

    Layer l;
    l.type = LayerType::Gemm;
    l.gm = m;
    l.gk = k;
    l.gn = n;
    DataflowMapper mapper(makeInferenceChip());
    Mapping map = mapper.evaluateSplit(mappedShape(l, 1),
                                       Precision::FP16, 1, 1);
    const double analytical = map.totalCycles();
    EXPECT_NEAR(double(res.cycles), analytical, analytical * 0.15);
    EXPECT_GE(double(res.cycles), analytical); // fill/drain only adds
}

TEST(Systolic, TileProgramEncodesAndDisassembles)
{
    SystolicArraySim sim(corelet8x8(), Precision::HFP8, 6);
    auto prog = sim.buildTileProgram(64);
    ASSERT_GE(prog.size(), 5u);
    EXPECT_EQ(prog[0].op, Opcode::SetPrec);
    EXPECT_EQ(prog[0].prec, Precision::HFP8);
    EXPECT_EQ(prog[1].op, Opcode::SetBias);
    EXPECT_EQ(prog[1].imm, 6);
    EXPECT_EQ(prog.back().op, Opcode::Halt);
    // Round-tripped through encode(): still prints sensibly.
    bool has_fmma = false;
    for (const auto &inst : prog)
        if (inst.op == Opcode::Fmma) {
            has_fmma = true;
            EXPECT_EQ(inst.toString().substr(0, 9), "fmma.HFP8");
        }
    EXPECT_TRUE(has_fmma);
}

TEST(Systolic, MatchesFunctionalExecutorWithSingleChunk)
{
    // The functional hfp8Matmul with chunk >= K and FP16-chained
    // accumulation equals the systolic sim on single-reduction-tile
    // shapes (both are the same FMA chain).
    Rng rng(25);
    Tensor a({6, 16}), b({16, 10});
    a.fillGaussian(rng, 0.0, 0.6);
    b.fillGaussian(rng, 0.0, 0.6);
    ExecConfig cfg;
    cfg.chunk_size = 64;
    cfg.fp32_outer = false;
    Tensor func = hfp8Matmul(a, Fp8Kind::Forward, b, Fp8Kind::Forward,
                             cfg);
    SystolicArraySim sim(corelet8x8(), Precision::HFP8, cfg.fwd_bias);
    SystolicResult res = sim.gemm(a, b);
    for (int64_t i = 0; i < func.numel(); ++i)
        EXPECT_FLOAT_EQ(func[i], res.c[i]) << "i=" << i;
}

// runBatch forks independent run() calls, each on its own DesEngine,
// over the pool; every stat must stay bit-identical to one-at-a-time
// run() calls at any thread count.
TEST(ChipSimEngine, RunBatchMatchesSerialRunsOnDesEngine)
{
    std::vector<LayerProgram> progs;
    for (int64_t co : {24, 48, 72}) {
        Layer l;
        l.type = LayerType::Conv;
        l.name = "conv";
        l.ci = 32;
        l.co = co;
        l.h = 7;
        l.w = 7;
        l.kh = l.kw = 3;
        l.pad_h = l.pad_w = 1;
        CodeGenerator cg(makeInferenceChip());
        LayerPlan plan;
        plan.precision = Precision::INT4;
        progs.push_back(cg.generate(l, plan, 1));
    }

    ChipSim sim(4, /*multicast=*/true);
    std::vector<ChipRunStats> serial;
    serial.reserve(progs.size());
    for (const LayerProgram &p : progs)
        serial.push_back(ChipSim(4, true).run(p));

    for (size_t threads : {1u, 2u, 4u, 8u}) {
        ThreadPool::setDefaultThreads(threads);
        const std::vector<ChipRunStats> batched = sim.runBatch(progs);
        ASSERT_EQ(batched.size(), serial.size());
        for (size_t i = 0; i < serial.size(); ++i) {
            EXPECT_EQ(batched[i].makespan, serial[i].makespan);
            EXPECT_EQ(batched[i].ring_flit_hops,
                      serial[i].ring_flit_hops);
            ASSERT_EQ(batched[i].cores.size(),
                      serial[i].cores.size());
            for (size_t c = 0; c < serial[i].cores.size(); ++c) {
                EXPECT_EQ(batched[i].cores[c].finish_cycle,
                          serial[i].cores[c].finish_cycle);
                EXPECT_EQ(batched[i].cores[c].stall_cycles,
                          serial[i].cores[c].stall_cycles);
                EXPECT_EQ(batched[i].cores[c].fmma_issued,
                          serial[i].cores[c].fmma_issued);
                EXPECT_EQ(batched[i].cores[c].tiles_loaded,
                          serial[i].cores[c].tiles_loaded);
            }
        }
    }
    ThreadPool::setDefaultThreads(0);
}

} // namespace
} // namespace rapid
