/**
 * @file
 * Tests of the fault-injection subsystem: determinism across thread
 * counts, provable zero-effect at rate 0, protection accounting,
 * masked-vs-SDC behaviour across precision formats, graceful
 * degradation under dead units, and the always-on structured error
 * checks at the public API boundary.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hh"
#include "common/parallel.hh"
#include "common/fault.hh"
#include "fault/storage_sim.hh"
#include "interconnect/ring.hh"
#include "runtime/session.hh"
#include "sim/corelet_sim.hh"
#include "sim/systolic.hh"
#include "workloads/networks.hh"

using namespace rapid;

namespace {

class FaultTest : public ::testing::Test
{
  protected:
    void TearDown() override { ThreadPool::setDefaultThreads(0); }
};

bool
sameStats(const FaultStats &a, const FaultStats &b)
{
    return a.sampled == b.sampled && a.injected == b.injected &&
           a.detected == b.detected && a.corrected == b.corrected &&
           a.retries == b.retries && a.masked == b.masked &&
           a.sdc == b.sdc && a.retry_cycles == b.retry_cycles;
}

Tensor
randomMatrix(int64_t rows, int64_t cols, uint64_t seed)
{
    Tensor t({rows, cols});
    Rng rng(seed);
    for (int64_t i = 0; i < rows; ++i)
        for (int64_t j = 0; j < cols; ++j)
            t.at(i, j) = float(rng.gaussian());
    return t;
}

// ---------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------

TEST(FaultInjector, StreamsAreSeedAndItemDeterministic)
{
    const FaultInjector inj(FaultConfig::withRate(0.5));
    Rng a = inj.stream(FaultSite::StorageWord, 42);
    Rng b = inj.stream(FaultSite::StorageWord, 42);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(a.uniform(), b.uniform());
    // Different items and different sites give decorrelated streams.
    Rng c = inj.stream(FaultSite::StorageWord, 43);
    Rng d = inj.stream(FaultSite::MacOutput, 42);
    EXPECT_NE(a.uniform(), c.uniform());
    EXPECT_NE(b.uniform(), d.uniform());
}

TEST(FaultInjector, MixSeedIsABijectionPerSeed)
{
    // Distinct items must never collide for a fixed seed (splitmix64
    // is a bijection; sanity-check a window of item indices).
    const uint64_t seed = 0x1234;
    for (uint64_t i = 0; i < 256; ++i)
        for (uint64_t j = i + 1; j < 256; ++j)
            ASSERT_NE(mixSeed(seed, i), mixSeed(seed, j));
}

TEST_F(FaultTest, StorageExperimentBitIdenticalAcrossThreadCounts)
{
    StorageExperiment exp;
    exp.format = StorageFormat::Fp8E4M3;
    FaultConfig cfg = FaultConfig::withRate(1e-2);
    cfg.protectAll(parityProtection(64.0));
    const FaultInjector inj(cfg);

    ThreadPool::setDefaultThreads(1);
    const StorageResult serial = runStorageExperiment(exp, inj);
    ThreadPool::setDefaultThreads(8);
    const StorageResult parallel = runStorageExperiment(exp, inj);

    EXPECT_TRUE(sameStats(serial.stats, parallel.stats));
    EXPECT_EQ(serial.catastrophic, parallel.catastrophic);
    EXPECT_EQ(serial.max_abs_error, parallel.max_abs_error);
    EXPECT_EQ(serial.sum_abs_error, parallel.sum_abs_error);
    EXPECT_GT(serial.stats.injected, 0u);
}

TEST(FaultInjector, SameSeedSameFaultSites)
{
    // The set of struck items depends only on (seed, site, rate).
    const FaultInjector a(FaultConfig::withRate(0.05, 7));
    const FaultInjector b(FaultConfig::withRate(0.05, 7));
    const FaultInjector c(FaultConfig::withRate(0.05, 8));
    int diffs = 0;
    for (uint64_t item = 0; item < 2000; ++item) {
        FaultStats sa, sb, sc;
        const FaultOutcome oa =
            a.inject(FaultSite::RingFlit, item, sa);
        const FaultOutcome ob =
            b.inject(FaultSite::RingFlit, item, sb);
        const FaultOutcome oc =
            c.inject(FaultSite::RingFlit, item, sc);
        ASSERT_EQ(oa, ob);
        diffs += oa != oc ? 1 : 0;
    }
    EXPECT_GT(diffs, 0); // a different seed strikes different items
}

// ---------------------------------------------------------------
// Zero-rate is provably a no-op
// ---------------------------------------------------------------

TEST(FaultZeroRate, StorageExperimentUntouched)
{
    StorageExperiment exp;
    const FaultInjector off{FaultConfig{}};
    EXPECT_FALSE(off.enabled());
    const StorageResult r = runStorageExperiment(exp, off);
    EXPECT_EQ(r.stats.injected, 0u);
    EXPECT_EQ(r.stats.sdc, 0u);
    EXPECT_EQ(r.catastrophic, 0u);
    EXPECT_EQ(r.max_abs_error, 0.0);
}

TEST(FaultZeroRate, SystolicGemmBitIdenticalToNoInjector)
{
    const Tensor a = randomMatrix(24, 24, 1);
    const Tensor b = randomMatrix(24, 24, 2);
    CoreletConfig corelet;
    SystolicArraySim plain(corelet, Precision::FP16);
    const SystolicResult base = plain.gemm(a, b);

    const FaultInjector off{FaultConfig{}};
    SystolicArraySim wired(corelet, Precision::FP16);
    wired.setFaultInjector(&off);
    const SystolicResult r = wired.gemm(a, b);

    EXPECT_EQ(r.cycles, base.cycles);
    EXPECT_EQ(r.faults.sampled, 0u);
    for (int64_t i = 0; i < 24; ++i)
        for (int64_t j = 0; j < 24; ++j)
            ASSERT_EQ(r.c.at(i, j), base.c.at(i, j));
}

TEST(FaultZeroRate, RingAndCoreletSimUntouched)
{
    const FaultInjector off{FaultConfig{}};
    RingNetwork plain{RingConfig{}};
    RingNetwork wired{RingConfig{}};
    wired.setFaultInjector(&off);
    plain.send(0, {2, 3}, 4096);
    wired.send(0, {2, 3}, 4096);
    plain.drain();
    wired.drain();
    EXPECT_EQ(plain.now(), wired.now());
    EXPECT_EQ(plain.flitHopsMoved(), wired.flitHopsMoved());
    EXPECT_EQ(wired.faultStats().sampled, 0u);
    EXPECT_FALSE(wired.message(0).corrupted);
}

TEST(FaultZeroRate, SessionDefaultOptionsMatchFaultFreeModel)
{
    // InferenceOptions default-constructs with rate 0: the reported
    // perf must be bit-identical to the pre-fault model (the golden
    // figures enforce the same property end to end).
    const Network net = makeMobilenetV1();
    InferenceSession session(makeInferenceChip(), net);
    InferenceOptions opts;
    const InferenceResult r = session.run(opts);
    EXPECT_EQ(r.perf.breakdown.retry, 0.0);
    EXPECT_GT(r.perf.samplesPerSecond(), 0.0);
}

// ---------------------------------------------------------------
// Protection accounting
// ---------------------------------------------------------------

TEST(FaultProtection, FullEccMeansZeroSdcAndZeroRetries)
{
    FaultConfig cfg = FaultConfig::withRate(5e-2);
    SiteProtection ecc;
    ecc.detect = 1.0;
    ecc.correct = 1.0;
    ecc.retry_cost = 64.0;
    cfg.protectAll(ecc);
    StorageExperiment exp;
    const StorageResult r =
        runStorageExperiment(exp, FaultInjector(cfg));
    EXPECT_GT(r.stats.injected, 0u);
    EXPECT_EQ(r.stats.detected, r.stats.injected);
    EXPECT_EQ(r.stats.corrected, r.stats.injected);
    EXPECT_EQ(r.stats.sdc, 0u);
    EXPECT_EQ(r.stats.retries, 0u);
    EXPECT_EQ(r.stats.retry_cycles, 0.0);
    EXPECT_TRUE(r.stats.accountingConsistent());
}

TEST(FaultProtection, ParityConvertsSdcIntoRetries)
{
    StorageExperiment exp;
    FaultConfig bare = FaultConfig::withRate(1e-2);
    FaultConfig parity = bare;
    parity.protectAll(parityProtection(64.0));
    const StorageResult r0 =
        runStorageExperiment(exp, FaultInjector(bare));
    const StorageResult r1 =
        runStorageExperiment(exp, FaultInjector(parity));
    // Same upset population (same seed), radically fewer escapes.
    EXPECT_EQ(r0.stats.injected, r1.stats.injected);
    EXPECT_GT(r0.stats.sdc, 10 * r1.stats.sdc);
    EXPECT_GT(r1.stats.retries, 0u);
    EXPECT_EQ(r1.stats.retry_cycles, 64.0 * double(r1.stats.retries));
    EXPECT_TRUE(r0.stats.accountingConsistent());
    EXPECT_TRUE(r1.stats.accountingConsistent());
}

TEST(FaultProtection, ExpectedRetryCyclesFormula)
{
    FaultConfig cfg = FaultConfig::withRate(1e-6);
    cfg.protectAll(parityProtection(100.0));
    // events * rate * exposure * detect * (1 - correct) * cost
    const double expect = 1e9 * 1e-6 * 4.0 * 0.99 * 1.0 * 100.0;
    EXPECT_NEAR(expectedRetryCycles(cfg, FaultSite::StorageWord, 1e9,
                                    4.0),
                expect, 1e-6 * expect);
    // Disabled config or site charges nothing.
    EXPECT_EQ(expectedRetryCycles(FaultConfig{},
                                  FaultSite::StorageWord, 1e9, 4.0),
              0.0);
    cfg.site_enabled[unsigned(FaultSite::MacOutput)] = false;
    EXPECT_EQ(expectedRetryCycles(cfg, FaultSite::MacOutput, 1e9, 1.0),
              0.0);
}

// ---------------------------------------------------------------
// Masked-vs-SDC behaviour across formats
// ---------------------------------------------------------------

TEST(FaultFormats, Int4UpsetsAreBoundedFloatUpsetsAreNot)
{
    const FaultInjector inj(FaultConfig::withRate(1e-2));
    StorageExperiment i4;
    i4.format = StorageFormat::Int4;
    StorageExperiment f16;
    f16.format = StorageFormat::DLFloat16;
    const StorageResult ri = runStorageExperiment(i4, inj);
    const StorageResult rf = runStorageExperiment(f16, inj);

    // INT4: uniformly spaced bounded levels -> every upset lands
    // within twice the clip range.
    EXPECT_GT(ri.stats.injected, 0u);
    EXPECT_LE(ri.max_abs_error, 2.0 * i4.clip);
    // DLFloat16: exponent-bit upsets blow far past the value range.
    EXPECT_GT(rf.max_abs_error, 100.0 * f16.clip);
    EXPECT_GT(rf.catastrophic, 0u);

    // Float formats mask mantissa-LSB upsets below the benign
    // threshold; INT formats cannot (one level step is already
    // visible at INT4's coarse resolution).
    const double masked_f16 =
        double(rf.stats.masked) / double(rf.stats.injected);
    const double masked_i4 =
        double(ri.stats.masked) / double(ri.stats.injected);
    EXPECT_GT(masked_f16, masked_i4);
}

// ---------------------------------------------------------------
// Cycle-level sites
// ---------------------------------------------------------------

TEST(FaultSystolic, DetectedMacFaultsChargeRetryCycles)
{
    const Tensor a = randomMatrix(32, 32, 3);
    const Tensor b = randomMatrix(32, 32, 4);
    CoreletConfig corelet;
    SystolicArraySim clean_sim(corelet, Precision::FP16);
    const SystolicResult clean = clean_sim.gemm(a, b);

    FaultConfig cfg = FaultConfig::withRate(5e-2);
    SiteProtection detect_all;
    detect_all.detect = 1.0;
    detect_all.correct = 0.0;
    detect_all.retry_cost = 16.0;
    cfg.protectAll(detect_all);
    const FaultInjector inj(cfg);
    SystolicArraySim sim(corelet, Precision::FP16);
    sim.setFaultInjector(&inj);
    const SystolicResult r = sim.gemm(a, b);

    EXPECT_GT(r.faults.retries, 0u);
    EXPECT_EQ(r.faults.sdc, 0u);
    EXPECT_EQ(r.cycles, clean.cycles + 16 * r.faults.retries);
    // Detected faults restore the value: numerics are unchanged.
    for (int64_t i = 0; i < 32; ++i)
        for (int64_t j = 0; j < 32; ++j)
            ASSERT_EQ(r.c.at(i, j), clean.c.at(i, j));
}

TEST(FaultSystolic, UnprotectedMacFaultsCorruptOutputs)
{
    const Tensor a = randomMatrix(32, 32, 5);
    const Tensor b = randomMatrix(32, 32, 6);
    CoreletConfig corelet;
    SystolicArraySim clean_sim(corelet, Precision::FP16);
    const SystolicResult clean = clean_sim.gemm(a, b);

    const FaultInjector inj(FaultConfig::withRate(5e-2));
    SystolicArraySim sim(corelet, Precision::FP16);
    sim.setFaultInjector(&inj);
    const SystolicResult r = sim.gemm(a, b);
    EXPECT_GT(r.faults.sdc, 0u);
    EXPECT_EQ(r.cycles, clean.cycles); // silent = free but wrong
    uint64_t diffs = 0;
    for (int64_t i = 0; i < 32; ++i)
        for (int64_t j = 0; j < 32; ++j)
            diffs += r.c.at(i, j) != clean.c.at(i, j) ? 1 : 0;
    EXPECT_GT(diffs, 0u);
    EXPECT_LE(diffs, r.faults.sdc);
}

TEST(FaultRing, DetectedFlitFaultsRetransmitAndStretchDrain)
{
    FaultConfig cfg = FaultConfig::withRate(2e-2);
    cfg.protectAll(parityProtection(1.0));
    const FaultInjector inj(cfg);

    RingNetwork clean{RingConfig{}};
    RingNetwork faulty{RingConfig{}};
    faulty.setFaultInjector(&inj);
    clean.send(0, {1, 2, 3, 4}, 32 * 1024);
    faulty.send(0, {1, 2, 3, 4}, 32 * 1024);
    clean.drain();
    faulty.drain();

    const FaultStats &fs = faulty.faultStats();
    EXPECT_GT(fs.retries, 0u);
    EXPECT_TRUE(fs.accountingConsistent());
    // Each retransmit squashes one hop, so the drain takes longer and
    // the total hop count is unchanged (the hop happens later).
    EXPECT_GT(faulty.now(), clean.now());
    EXPECT_EQ(faulty.flitHopsMoved(), clean.flitHopsMoved());
    EXPECT_TRUE(faulty.message(0).delivered);
}

TEST(FaultRing, UndetectedFlitFaultMarksMessageCorrupted)
{
    const FaultInjector inj(FaultConfig::withRate(5e-2));
    RingNetwork ring{RingConfig{}};
    ring.setFaultInjector(&inj);
    ring.send(0, {1, 2, 3, 4}, 32 * 1024);
    ring.drain();
    EXPECT_GT(ring.faultStats().sdc, 0u);
    EXPECT_TRUE(ring.message(0).corrupted);
    EXPECT_TRUE(ring.message(0).delivered);
}

TEST(FaultCorelet, ReStreamedBlocksStretchTheMakespan)
{
    // Fetch-bound walk (borrowed from the corelet-sim tests): 4 KiB
    // blocks at 128 B/cycle with tiny compute.
    LayerProgram prog;
    MpeInstruction set_prec;
    set_prec.op = Opcode::SetPrec;
    set_prec.prec = Precision::FP16;
    prog.mpe_program.push_back(set_prec);
    for (int t = 0; t < 16; ++t) {
        PlannedTransfer tr;
        tr.tag = unsigned(t + 1);
        tr.ready_token = unsigned(t + 1);
        tr.bytes = 4096;
        prog.transfers.push_back(tr);
        MpeInstruction wait;
        wait.op = Opcode::TokWait;
        wait.imm = uint16_t(t + 1);
        prog.mpe_program.push_back(wait);
        prog.mpe_program.push_back(makeLrfLoad(0));
        MpeInstruction fmma = makeFmma(
            Precision::FP16, OperandSel::West, OperandSel::Lrf, 1, 0);
        fmma.imm = 4;
        prog.mpe_program.push_back(fmma);
        prog.fmma_slots += 4;
        prog.mpe_program.push_back(makeMovSouth(1));
        ++prog.num_tiles;
    }
    prog.mpe_program.push_back(makeHalt());

    CoreletSim clean_sim(128.0, 8);
    const CoreletRunStats clean = clean_sim.run(prog);

    FaultConfig cfg = FaultConfig::withRate(0.2);
    cfg.protectAll(parityProtection(32.0));
    const FaultInjector inj(cfg);
    CoreletSim sim(128.0, 8);
    sim.setFaultInjector(&inj);
    const CoreletRunStats r = sim.run(prog);

    EXPECT_GT(r.faults.retries, 0u);
    // Every detected block re-streams its 32 fetch cycles, and the
    // run is fetch-bound, so the makespan grows by at least that.
    EXPECT_GE(r.total_cycles,
              clean.total_cycles + 32 * (r.faults.retries - 1));
    EXPECT_TRUE(r.faults.accountingConsistent());
}

// ---------------------------------------------------------------
// Graceful degradation
// ---------------------------------------------------------------

TEST_F(FaultTest, OneDeadCoreDeratesButRuns)
{
    ChipConfig healthy = makeInferenceChip();
    ChipConfig degraded = healthy;
    degraded.dead_core_mask = 0x2; // core 1 of 4 dead
    EXPECT_EQ(degraded.activeCores(), 3u);

    InferenceOptions opts;
    opts.target = Precision::INT4;
    opts.batch = 8;
    const Network net = makeResnet50();
    const double full =
        InferenceSession(healthy, net).run(opts).perf.samplesPerSecond();
    const double derated =
        InferenceSession(degraded, net).run(opts).perf.samplesPerSecond();
    EXPECT_GT(derated, 0.0);
    EXPECT_LT(derated, full);
    // Throughput lands in the [1/4, 1] derating band for 3/4 cores.
    EXPECT_GT(derated, 0.25 * full);
}

TEST(FaultDegradation, DeadMpeRowsShrinkPeakAndReductionCap)
{
    ChipConfig chip = makeInferenceChip();
    const double full = chip.peakOpsPerSecond(Precision::INT4);
    chip.dead_mpe_row_mask = 0x5; // rows 0 and 2 dead
    EXPECT_EQ(chip.activeMpeRows(), 6u);
    EXPECT_NEAR(chip.peakOpsPerSecond(Precision::INT4),
                full * 6.0 / 8.0, 1e-6 * full);
    // Healthy masks leave the peak bit-identical.
    chip.dead_mpe_row_mask = 0;
    EXPECT_EQ(chip.peakOpsPerSecond(Precision::INT4), full);
}

TEST(FaultDegradation, FullyMaskedChipIsRejected)
{
    ChipConfig chip = makeInferenceChip();
    chip.dead_core_mask = 0xf; // all 4 cores dead
    EXPECT_THROW(validateChipConfig(chip), Error);
    const Network net = makeMobilenetV1();
    try {
        InferenceSession session(chip, net);
        FAIL() << "fully-masked chip must be rejected";
    } catch (const Error &e) {
        EXPECT_EQ(e.code(), ErrorCode::InvalidConfig);
    }
    chip.dead_core_mask = 0;
    chip.dead_mpe_row_mask = 0xff; // all 8 MPE rows dead
    EXPECT_THROW(validateChipConfig(chip), Error);
}

TEST(FaultSession, RetryCyclesDerateThroughput)
{
    InferenceOptions clean;
    clean.target = Precision::INT4;
    clean.batch = 8;
    InferenceOptions faulty = clean;
    faulty.fault = FaultConfig::withRate(1e-7);
    faulty.fault.protectAll(parityProtection(64.0));

    const Network net = makeResnet50();
    InferenceSession session(makeInferenceChip(), net);
    const InferenceResult r0 = session.run(clean);
    const InferenceResult r1 = session.run(faulty);
    EXPECT_EQ(r0.perf.breakdown.retry, 0.0);
    EXPECT_GT(r1.perf.breakdown.retry, 0.0);
    EXPECT_LT(r1.perf.samplesPerSecond(), r0.perf.samplesPerSecond());
}

// ---------------------------------------------------------------
// Structured boundary errors (always on, also in Release builds)
// ---------------------------------------------------------------

TEST(BoundaryErrors, InvalidInferenceOptionsThrow)
{
    const Network net = makeMobilenetV1();
    InferenceSession session(makeInferenceChip(), net);
    InferenceOptions opts;
    opts.batch = 0;
    EXPECT_THROW(session.run(opts), Error);
    opts.batch = -4;
    EXPECT_THROW(session.run(opts), Error);
    opts.batch = 1;
    opts.power_report_freq_ghz = -1.5;
    EXPECT_THROW(session.run(opts), Error);
    opts.power_report_freq_ghz = std::nan("");
    EXPECT_THROW(session.run(opts), Error);
    opts.power_report_freq_ghz = 0.0;
    opts.fault.rate = 1.5; // probabilities live in [0, 1]
    EXPECT_THROW(session.run(opts), Error);
    opts.fault.rate = 0.0;
    EXPECT_NO_THROW(session.run(opts));
}

TEST(BoundaryErrors, InvalidTrainingOptionsThrow)
{
    const Network net = makeBert(64);
    TrainingSession session(makeTrainingSystem(), net);
    TrainingOptions opts;
    opts.minibatch = 0;
    EXPECT_THROW(session.run(opts), Error);
    opts.minibatch = 512;
    opts.precision = Precision::INT4; // no INT training datapath
    EXPECT_THROW(session.run(opts), Error);
}

TEST(BoundaryErrors, InvalidRingConfigThrows)
{
    RingConfig cfg;
    cfg.num_nodes = 1;
    EXPECT_THROW(RingNetwork{cfg}, Error);
    cfg.num_nodes = 5;
    cfg.bytes_per_flit = 0;
    EXPECT_THROW(validateRingConfig(cfg), Error);
    EXPECT_NO_THROW(validateRingConfig(RingConfig{}));
}

TEST(BoundaryErrors, InvalidFaultConfigThrows)
{
    FaultConfig cfg = FaultConfig::withRate(0.5);
    cfg.protection[0].detect = 1.5;
    EXPECT_THROW(FaultInjector{cfg}, Error);
    cfg.protection[0].detect = 0.5;
    cfg.protection[2].retry_cost = -1.0;
    EXPECT_THROW(validateFaultConfig(cfg), Error);
    EXPECT_THROW(validateFaultConfig(FaultConfig::withRate(-0.1)),
                 Error);
}

TEST(BoundaryErrors, ErrorCarriesCodeOriginAndMessage)
{
    try {
        RAPID_CHECK_ARG(1 + 1 == 3, "arithmetic drifted to ", 42);
        FAIL() << "check must throw";
    } catch (const Error &e) {
        EXPECT_EQ(e.code(), ErrorCode::InvalidArgument);
        EXPECT_NE(e.message().find("arithmetic drifted to 42"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("invalid argument"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("test_fault.cc"),
                  std::string::npos);
        EXPECT_GT(e.line(), 0);
    }
}

} // namespace
