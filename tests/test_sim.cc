/**
 * @file
 * Tests for token synchronization on a DES domain, and the
 * cycle-level systolic array simulator: numerics must match the
 * bit-accurate functional executors exactly, and cycle counts must
 * agree with the analytical dataflow model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string>

#include "common/bitfield.hh"
#include "common/fault.hh"
#include "common/parallel.hh"
#include "common/random.hh"
#include "func/quantized_ops.hh"
#include "compiler/codegen.hh"
#include "compiler/dataflow.hh"
#include "fp16_fma.hh"
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

TEST(TokenBoard, FlatTableCoversSparseIdsUpToTheImmediateLimit)
{
    // Ids far apart and the largest 16-bit immediate, on one board:
    // waiters on one id wake in the order they parked, a post with no
    // waiter on its id banks a token (even while other ids have
    // waiters), and a later wait takes the banked token at once.
    DesEngine engine;
    DesDomain &dom = engine.domain(engine.addDomain("tokens"));
    TokenBoard tokens(dom);
    std::vector<std::string> trace;
    auto waiter = [&](const std::string &name) {
        return [&trace, &dom, name] {
            trace.push_back(name + "@" + std::to_string(dom.now()));
        };
    };
    tokens.wait(TokenBoard::kMaxToken, waiter("max-a"));
    tokens.wait(7, waiter("seven"));
    tokens.wait(TokenBoard::kMaxToken, waiter("max-b"));
    tokens.wait(40000, waiter("sparse"));
    tokens.post(12); // banked: nobody waits on 12
    dom.schedule(2, 0, [&] { tokens.post(TokenBoard::kMaxToken); });
    dom.schedule(3, 0, [&] { tokens.post(40000); });
    dom.schedule(4, 0, [&] {
        tokens.post(TokenBoard::kMaxToken);
        tokens.post(7);
    });
    dom.schedule(6, 0, [&] { tokens.wait(12, waiter("banked")); });
    engine.run();
    EXPECT_EQ(trace, (std::vector<std::string>{"max-a@2", "sparse@3",
                                               "max-b@4", "seven@4",
                                               "banked@6"}));
    EXPECT_DEATH(tokens.post(TokenBoard::kMaxToken + 1),
                 "exceeds the 16-bit immediate");
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

    for (int64_t m = 0; m < 5; ++m) {
        for (int64_t n = 0; n < 12; ++n) {
            float acc = 0.0f;
            for (int64_t k = 0; k < 8; ++k)
                acc = fp16Fma(dlfloat16().quantize(a.at(m, k)),
                              dlfloat16().quantize(b.at(k, n)), acc);
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
    std::ranges::fill(a.storage(), 0.0f);
    for (int64_t i = 0; i < 4; ++i)
        a.at(i, 0) = 1.0f; // 1 of 8 operands non-zero
    std::ranges::fill(b.storage(), 1.0f);
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
    // One core of one corelet: the mapper's only split is (1, 1).
    ChipConfig one_corelet = makeInferenceChip();
    one_corelet.cores = 1;
    one_corelet.core.corelets = 1;
    Mapping map = DataflowMapper(one_corelet).map(l, 1, Precision::FP16);
    const double analytical = map.totalCycles();
    EXPECT_NEAR(double(res.cycles), analytical, analytical * 0.15);
    EXPECT_GE(double(res.cycles), analytical); // fill/drain only adds
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

/** One MacOutput injection item against @p acc, resolved as the
 *  systolic sim documents it: a silent hit flips one bit of the
 *  DLFloat16 encoding, anything else leaves the value restored. */
float
referenceMacFault(const FaultInjector &inj, float acc, uint64_t item,
                  FaultStats &stats)
{
    ++stats.sampled;
    Rng rng = inj.stream(FaultSite::MacOutput, item);
    if (!inj.eventDraw(rng))
        return acc;
    ++stats.injected;
    if (inj.resolveProtection(FaultSite::MacOutput, rng, stats) !=
        FaultOutcome::Silent)
        return acc;
    const uint32_t word = dlfloat16().encode(acc);
    const float clean = dlfloat16().decode(word);
    const float bad = dlfloat16().decode(
        inj.flipOneBit(rng, dlfloat16().storageBits(), word));
    if (bad == clean) {
        ++stats.masked;
        return acc;
    }
    ++stats.sdc;
    return bad;
}

/**
 * The per-MAC weight-stationary GEMM: tile by tile over (output
 * columns, reduction rows), every MAC re-quantizes both operands
 * through MpeDatapath::hfp8Fma (HFP8) or DLFloat16 + fp16Fma (FP16),
 * and each output's accumulator leaves the array once per tile pass
 * as one MacOutput injection item. The oracle for SystolicArraySim's
 * values, cycle count, FMA counters and fault outcome.
 */
SystolicResult
referenceSystolicGemm(const CoreletConfig &corelet, Precision precision,
                      int fwd_bias, const FaultInjector *inj,
                      const Tensor &a, const Tensor &b, Fp8Kind a_kind,
                      Fp8Kind b_kind)
{
    const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
    const int64_t red_cap = int64_t(corelet.mpe_rows) *
                            (precision == Precision::HFP8 ? 2 : 1);
    const int64_t out_cap =
        int64_t(corelet.mpe_cols) * corelet.mpe.fpu_simd_lanes;
    const int64_t pipe_fill = corelet.mpe_rows + 3;
    const int64_t l1_bw = corelet.l0_bw_bytes_per_cycle * 2;
    const double wt_bytes_per_elem = operandBytes(precision);

    MpeDatapath dp(fwd_bias);
    uint64_t fp16_fmas = 0, fp16_gated = 0;
    uint64_t fault_item = 0;
    SystolicResult res;
    res.c = Tensor({m, n});
    for (int64_t n0 = 0; n0 < n; n0 += out_cap) {
        const int64_t n_hi = std::min(n, n0 + out_cap);
        for (int64_t k0 = 0; k0 < k; k0 += red_cap) {
            const int64_t k_hi = std::min(k, k0 + red_cap);
            const uint64_t load_cycles = uint64_t(divCeil(
                int64_t(red_cap * out_cap * wt_bytes_per_elem), l1_bw));
            res.block_load_cycles += load_cycles;
            res.cycles += load_cycles + uint64_t(m) + pipe_fill;
            for (int64_t mi = 0; mi < m; ++mi) {
                for (int64_t ni = n0; ni < n_hi; ++ni) {
                    float acc = res.c.at(mi, ni);
                    for (int64_t ki = k0; ki < k_hi; ++ki) {
                        if (precision == Precision::HFP8) {
                            acc = dp.hfp8Fma(a.at(mi, ki), a_kind,
                                             b.at(ki, ni), b_kind, acc);
                            continue;
                        }
                        const float qa = dlfloat16().quantize(a.at(mi, ki));
                        const float qb = dlfloat16().quantize(b.at(ki, ni));
                        ++fp16_fmas;
                        fp16_gated += std::fpclassify(qa) == FP_ZERO ||
                                      std::fpclassify(qb) == FP_ZERO;
                        acc = fp16Fma(qa, qb, acc);
                    }
                    if (inj && inj->active(FaultSite::MacOutput))
                        acc = referenceMacFault(*inj, acc, fault_item++,
                                                res.faults);
                    res.c.at(mi, ni) = acc;
                }
            }
        }
    }
    res.cycles += uint64_t(std::llround(res.faults.retry_cycles));
    res.fmas = dp.fmaCount() + fp16_fmas;
    res.zero_gated = dp.zeroGatedCount() + fp16_gated;
    return res;
}

/** Gaussian values spread over 2^-24 .. 2^24 (FP8 subnormals,
 *  underflow and saturation at every bias), a quarter of them zero. */
void
fillWideWithZeros(Tensor &t, Rng &rng)
{
    for (int64_t i = 0; i < t.numel(); ++i)
        t[i] = rng.uniform() < 0.25
                   ? 0.0f
                   : float(std::ldexp(rng.gaussian(),
                                      int(rng.uniformInt(-24, 24))));
}

/** Bit identity of everything a SystolicResult reports. */
void
expectSameResult(const SystolicResult &got, const SystolicResult &want)
{
    ASSERT_EQ(got.c.numel(), want.c.numel());
    size_t bad = 0;
    for (int64_t i = 0; i < want.c.numel(); ++i)
        bad += std::bit_cast<uint32_t>(got.c[i]) !=
               std::bit_cast<uint32_t>(want.c[i]);
    EXPECT_EQ(bad, 0u);
    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(got.block_load_cycles, want.block_load_cycles);
    EXPECT_EQ(got.fmas, want.fmas);
    EXPECT_EQ(got.zero_gated, want.zero_gated);
    EXPECT_EQ(got.faults.sampled, want.faults.sampled);
    EXPECT_EQ(got.faults.injected, want.faults.injected);
    EXPECT_EQ(got.faults.detected, want.faults.detected);
    EXPECT_EQ(got.faults.corrected, want.faults.corrected);
    EXPECT_EQ(got.faults.retries, want.faults.retries);
    EXPECT_EQ(got.faults.masked, want.faults.masked);
    EXPECT_EQ(got.faults.sdc, want.faults.sdc);
    EXPECT_EQ(std::bit_cast<uint64_t>(got.faults.retry_cycles),
              std::bit_cast<uint64_t>(want.faults.retry_cycles));
}

// The systolic sim against the per-MAC reference, bit for bit: HFP8
// at every operand-kind pairing and biases 1/4/7, and FP16; reduction
// depth below, at and above the chain cap; zero operands (gating);
// with no injector and with a MacOutput injector (parity: some hits
// retry, some escape).
TEST(Systolic, GemmMatchesPerMacReference)
{
    const CoreletConfig corelet = corelet8x8();
    const FaultConfig clean;
    FaultConfig faulty = FaultConfig::withRate(0.05);
    faulty.protectAll(parityProtection(16.0));
    const FaultInjector clean_inj(clean), faulty_inj(faulty);

    struct Case
    {
        Precision precision;
        int bias;
        Fp8Kind a_kind, b_kind;
    };
    std::vector<Case> cases;
    for (int bias : {1, 4, 7})
        for (Fp8Kind ak : {Fp8Kind::Forward, Fp8Kind::Backward})
            for (Fp8Kind bk : {Fp8Kind::Forward, Fp8Kind::Backward})
                cases.push_back({Precision::HFP8, bias, ak, bk});
    cases.push_back(
        {Precision::FP16, 4, Fp8Kind::Forward, Fp8Kind::Forward});

    Rng rng(26);
    uint64_t faults_seen = 0;
    for (const Case &cs : cases) {
        SystolicArraySim sim(corelet, cs.precision, cs.bias);
        const int64_t cap = sim.reductionCap();
        const int64_t n = sim.outputCap() + 5; // two column tiles
        for (int64_t k : {cap - 3, cap, 2 * cap + 5}) {
            Tensor a({3, k}), b({k, n});
            fillWideWithZeros(a, rng);
            fillWideWithZeros(b, rng);
            for (const FaultInjector *inj : {&clean_inj, &faulty_inj}) {
                SCOPED_TRACE(testing::Message()
                             << precisionName(cs.precision) << " bias "
                             << cs.bias << " kinds " << int(cs.a_kind)
                             << int(cs.b_kind) << " k " << k
                             << (inj == &faulty_inj ? " faulty" : ""));
                sim.setFaultInjector(inj);
                const SystolicResult got =
                    sim.gemm(a, b, cs.a_kind, cs.b_kind);
                const SystolicResult want = referenceSystolicGemm(
                    corelet, cs.precision, cs.bias, inj, a, b,
                    cs.a_kind, cs.b_kind);
                expectSameResult(got, want);
                EXPECT_GT(want.zero_gated, 0u);
                faults_seen += want.faults.injected;
            }
        }
    }
    EXPECT_GT(faults_seen, 0u);
}

// The systolic sim against the per-MAC reference on what the lane
// kernel must get right besides plain values: +-Inf and NaN operands
// (the merged NaN, which poisons its outputs), -0.0 and binary32
// subnormals (zeros after conversion, so gated), sums that saturate
// DLFloat16, a single output row, and output widths with a lane tail
// (under one lane block, and past one column tile).
TEST(Systolic, GemmMatchesPerMacReferenceOnSpecialValues)
{
    const CoreletConfig corelet = corelet8x8();
    FaultConfig faulty = FaultConfig::withRate(0.05);
    faulty.protectAll(parityProtection(16.0));
    const FaultInjector faulty_inj(faulty);
    const float inf = std::numeric_limits<float>::infinity();
    const float specials[] = {inf,
                              -inf,
                              std::numeric_limits<float>::quiet_NaN(),
                              -0.0f,
                              std::numeric_limits<float>::denorm_min(),
                              -std::ldexp(1.5f, -130),
                              std::ldexp(1.0f, 40),
                              -std::ldexp(1.0f, 40)};
    const uint32_t fp16_max = 0x4f7fc000u; // DLFloat16's largest value

    struct Case
    {
        Precision precision;
        Fp8Kind a_kind, b_kind;
    };
    const Case cases[] = {
        {Precision::FP16, Fp8Kind::Forward, Fp8Kind::Forward},
        {Precision::HFP8, Fp8Kind::Forward, Fp8Kind::Forward},
        {Precision::HFP8, Fp8Kind::Backward, Fp8Kind::Backward}};
    const int64_t shapes[][2] = {{1, 3}, {1, 8}, {1, 13}, {2, 5},
                                 {4, 21}, {3, 70}};
    Rng rng(27);
    size_t nan_outputs = 0, saturated_outputs = 0;
    for (const Case &cs : cases) {
        SystolicArraySim sim(corelet, cs.precision, 4);
        const int64_t cap = sim.reductionCap();
        for (const auto &shape : shapes) {
            for (int64_t k : {int64_t(1), cap + 3}) {
                const int64_t m = shape[0], n = shape[1];
                Tensor a({m, k}), b({k, n});
                // Wide values, a few specials, and large ones that
                // make saturating sums.
                for (Tensor *t : {&a, &b}) {
                    fillWideWithZeros(*t, rng);
                    for (int64_t i = 0; i < t->numel(); ++i) {
                        const double u = rng.uniform();
                        if (u < 0.08)
                            (*t)[i] = specials[rng.uniformInt(0, 7)];
                        else if (u < 0.3)
                            (*t)[i] = float(std::ldexp(
                                1.0 + rng.uniform(), 12 + int(u * 60)));
                    }
                }
                for (const FaultInjector *inj :
                     {static_cast<const FaultInjector *>(nullptr),
                      &faulty_inj}) {
                    SCOPED_TRACE(testing::Message()
                                 << precisionName(cs.precision)
                                 << " kinds " << int(cs.a_kind)
                                 << int(cs.b_kind) << " m " << m << " k "
                                 << k << " n " << n
                                 << (inj ? " faulty" : ""));
                    sim.setFaultInjector(inj);
                    const SystolicResult got =
                        sim.gemm(a, b, cs.a_kind, cs.b_kind);
                    const SystolicResult want = referenceSystolicGemm(
                        corelet, cs.precision, 4, inj, a, b, cs.a_kind,
                        cs.b_kind);
                    expectSameResult(got, want);
                    for (int64_t i = 0; i < want.c.numel(); ++i) {
                        const uint32_t mag =
                            std::bit_cast<uint32_t>(want.c[i]) &
                            0x7fffffffu;
                        nan_outputs += mag > 0x7f800000u;
                        saturated_outputs += mag == fp16_max;
                    }
                }
            }
        }
    }
    EXPECT_GT(nan_outputs, 0u);
    EXPECT_GT(saturated_outputs, 0u);
}

// The HFP8 datapath is the FP16 FMA on FP9 operands: the two pipelines
// merge at the adder, so converting each operand once with toFp9 and
// running fp16Fma equals hfp8Fma over operands of every rounding class
// of both FP8 flavours and every bias.
TEST(MpeDatapath, Fp16FmaOnFp9OperandsEqualsHfp8Fma)
{
    // Operands of every rounding class of both FP8 flavours at biases
    // 1/4/7: in each binade from 2^-28 (below every subnormal) to 2^18
    // (past every finite value), a 1/16 grid holds every FP8 value and
    // every tie between neighbours, and the offsets within a grid step
    // fall below, on and just past its middle.
    std::vector<float> vals{0.0f, -0.0f};
    for (int e = -28; e <= 18; ++e)
        for (int step = 0; step < 16; ++step)
            for (double off : {0.0, 0.25, 0.5, 0.5 + 1.0 / 1024, 0.75})
                for (double sign : {1.0, -1.0})
                    vals.push_back(float(
                        sign * std::ldexp(1.0 + (step + off) / 16.0, e)));
    const float accs[] = {0.0f, 1.0f, -3.25f, 1e-6f, 6e4f};
    for (int bias : {1, 4, 7}) {
        MpeDatapath ref(bias), dp(bias);
        for (Fp8Kind ak : {Fp8Kind::Forward, Fp8Kind::Backward}) {
            for (Fp8Kind bk : {Fp8Kind::Forward, Fp8Kind::Backward}) {
                size_t bad = 0;
                for (size_t i = 0; i < vals.size(); ++i) {
                    const float a = vals[i];
                    const float b = vals[(i * 7919 + 13) % vals.size()];
                    const float acc = accs[i % 5];
                    const float want = ref.hfp8Fma(a, ak, b, bk, acc);
                    const float got = fp16Fma(dp.toFp9(a, ak),
                                              dp.toFp9(b, bk), acc);
                    bad += std::bit_cast<uint32_t>(got) !=
                           std::bit_cast<uint32_t>(want);
                }
                EXPECT_EQ(bad, 0u) << "bias " << bias << " kinds "
                                   << int(ak) << int(bk);
            }
        }
    }
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
