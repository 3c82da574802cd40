/**
 * @file
 * Tests for the resilient training runtime: the loss-scaler state
 * machine, health sentinels, the byte-stable checkpoint format,
 * bit-exact rollback/resume at multiple thread counts, pass-through
 * equivalence with the plain trainer, the recovery-policy ladder
 * (retry, rollback, escalation, skip) with closed accounting, and the
 * Young/Daly checkpoint-overhead model.
 */

// The fault pre-filter runs here at every lane width (lane_widths.hh).
#pragma GCC diagnostic ignored "-Wpsabi"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hh"
#include "common/parallel.hh"
#include "lane_widths.hh"
#include "func/datasets.hh"
#include "func/quantized_ops.hh"
#include "resilience/checkpoint.hh"
#include "resilience/loss_scaler.hh"
#include "resilience/overhead.hh"
#include "resilience/resilient_trainer.hh"
#include "resilience/sentinel.hh"

using namespace rapid;

namespace {

MlpConfig
smallModel(TrainPrecision precision = TrainPrecision::HFP8)
{
    MlpConfig cfg;
    cfg.dims = {2, 16, 16, 2};
    cfg.precision = precision;
    cfg.seed = 7;
    return cfg;
}

/** 256 spiral rows: 192 train / 64 test. */
Dataset
spiralData()
{
    Rng rng(321);
    return makeSpirals(rng, 128);
}

constexpr int64_t kBatch = 32;

} // namespace

// ---------------------------------------------------------------------
// Loss scaler
// ---------------------------------------------------------------------

TEST(LossScaler, DisabledPinsScaleToOne)
{
    LossScaler scaler; // default config: disabled
    EXPECT_EQ(scaler.scale(), 1.0f);
    EXPECT_TRUE(scaler.update(true));
    EXPECT_FALSE(scaler.update(false));
    EXPECT_EQ(scaler.scale(), 1.0f);
    EXPECT_EQ(scaler.state().growths, 0u);
    EXPECT_EQ(scaler.state().backoffs, 0u);
}

TEST(LossScaler, GrowsAfterHealthyInterval)
{
    LossScalerConfig cfg;
    cfg.enabled = true;
    cfg.init_scale = 2.0f;
    cfg.growth_interval = 4;
    LossScaler scaler(cfg);
    for (int i = 0; i < 3; ++i)
        EXPECT_TRUE(scaler.update(true));
    EXPECT_EQ(scaler.scale(), 2.0f); // not yet
    EXPECT_TRUE(scaler.update(true));
    EXPECT_EQ(scaler.scale(), 4.0f); // 4th healthy step doubles
    EXPECT_EQ(scaler.state().growths, 1u);
    EXPECT_EQ(scaler.state().good_steps, 0);
}

TEST(LossScaler, BacksOffAndSkipsOnUnhealthyStep)
{
    LossScalerConfig cfg;
    cfg.enabled = true;
    cfg.init_scale = 256.0f;
    LossScaler scaler(cfg);
    EXPECT_FALSE(scaler.update(false)); // skip the update
    EXPECT_EQ(scaler.scale(), 128.0f);
    EXPECT_EQ(scaler.state().backoffs, 1u);
    EXPECT_EQ(scaler.state().skips, 1u);
}

TEST(LossScaler, ClampsAtMinAndMax)
{
    LossScalerConfig cfg;
    cfg.enabled = true;
    cfg.init_scale = 2.0f;
    cfg.min_scale = 1.0f;
    cfg.max_scale = 4.0f;
    cfg.growth_interval = 1;
    LossScaler scaler(cfg);
    scaler.update(true);
    scaler.update(true);
    scaler.update(true);
    EXPECT_EQ(scaler.scale(), 4.0f); // growth stops at max
    const uint64_t growths = scaler.state().growths;
    scaler.update(true);
    EXPECT_EQ(scaler.state().growths, growths); // saturated, no count
    for (int i = 0; i < 5; ++i)
        scaler.update(false);
    EXPECT_EQ(scaler.scale(), 1.0f); // backoff stops at min
}

TEST(LossScaler, RestoreRewindsFullState)
{
    LossScalerConfig cfg;
    cfg.enabled = true;
    cfg.growth_interval = 2;
    LossScaler scaler(cfg);
    scaler.update(true);
    const LossScalerState snap = scaler.state();
    scaler.update(false);
    EXPECT_NE(scaler.scale(), snap.scale);
    EXPECT_NE(scaler.state().good_steps, snap.good_steps);
    scaler.restore(snap);
    EXPECT_EQ(scaler.scale(), snap.scale);
    EXPECT_EQ(scaler.state().good_steps, snap.good_steps);
}

TEST(LossScaler, ValidationRejectsBadKnobs)
{
    LossScalerConfig cfg;
    cfg.growth_interval = 0;
    EXPECT_THROW(validateLossScalerConfig(cfg), Error);
    cfg = {};
    cfg.min_scale = 8.0f;
    cfg.max_scale = 4.0f;
    EXPECT_THROW(validateLossScalerConfig(cfg), Error);
    cfg = {};
    cfg.init_scale = 1e9f; // above max_scale
    try {
        validateLossScalerConfig(cfg);
        FAIL() << "init_scale above max_scale must be rejected";
    } catch (const Error &e) {
        EXPECT_EQ(e.code(), ErrorCode::InvalidArgument);
    }
}

// ---------------------------------------------------------------------
// Health sentinels
// ---------------------------------------------------------------------

TEST(Sentinel, NoSpikeVerdictBeforeMinHistory)
{
    SentinelConfig cfg;
    cfg.window = 8;
    cfg.min_history = 4;
    cfg.spike_factor = 4.0;
    HealthSentinel s(cfg);
    s.recordLoss(1.0f);
    s.recordLoss(1.0f);
    s.recordLoss(1.0f);
    EXPECT_FALSE(s.isSpike(100.0f)); // only 3 banked
    s.recordLoss(1.0f);
    EXPECT_TRUE(s.isSpike(100.0f));
}

TEST(Sentinel, SpikeIsMedianTimesFactor)
{
    SentinelConfig cfg;
    cfg.window = 8;
    cfg.min_history = 4;
    cfg.spike_factor = 4.0;
    cfg.abs_floor = 1e-3;
    HealthSentinel s(cfg);
    for (int i = 0; i < 4; ++i)
        s.recordLoss(1.0f);
    EXPECT_FALSE(s.isSpike(3.9f));
    EXPECT_TRUE(s.isSpike(4.1f));
    // Non-finite losses are the finiteness scan's business.
    EXPECT_FALSE(s.isSpike(std::numeric_limits<float>::quiet_NaN()));
    EXPECT_FALSE(s.isSpike(std::numeric_limits<float>::infinity()));
}

TEST(Sentinel, AbsFloorSuppressesTinyBaselineSpikes)
{
    SentinelConfig cfg;
    cfg.window = 8;
    cfg.min_history = 4;
    cfg.spike_factor = 4.0;
    cfg.abs_floor = 0.01;
    HealthSentinel s(cfg);
    for (int i = 0; i < 4; ++i)
        s.recordLoss(1e-6f); // converged run: median ~ 0
    EXPECT_FALSE(s.isSpike(0.009f)); // below the floor, not a spike
    EXPECT_TRUE(s.isSpike(0.02f));
}

TEST(Sentinel, LossWindowIsARing)
{
    SentinelConfig cfg;
    cfg.window = 4;
    cfg.min_history = 2;
    HealthSentinel s(cfg);
    for (int i = 0; i < 10; ++i)
        s.recordLoss(float(i));
    ASSERT_EQ(s.lossWindow().size(), 4u);
    EXPECT_EQ(s.lossWindow().front(), 6.0f); // oldest retained
    std::vector<float> snap = {1.0f, 2.0f};
    s.restoreLossWindow(snap);
    EXPECT_EQ(s.lossWindow(), snap);
}

TEST(Sentinel, EventLogCountsByKind)
{
    HealthSentinel s;
    s.record(3, HealthEventKind::LossSpike, "x");
    s.record(4, HealthEventKind::LossSpike, "y");
    s.record(5, HealthEventKind::NumericFault, "z");
    EXPECT_EQ(s.count(HealthEventKind::LossSpike), 2u);
    EXPECT_EQ(s.count(HealthEventKind::NumericFault), 1u);
    EXPECT_EQ(s.count(HealthEventKind::NonFiniteWeight), 0u);
    ASSERT_EQ(s.events().size(), 3u);
    EXPECT_EQ(s.events()[0].step, 3u);
    EXPECT_EQ(s.events()[0].kind, HealthEventKind::LossSpike);
}

TEST(Sentinel, ValidationRejectsBadKnobs)
{
    SentinelConfig cfg;
    cfg.window = 0;
    EXPECT_THROW(validateSentinelConfig(cfg), Error);
    cfg = {};
    cfg.spike_factor = 1.0;
    EXPECT_THROW(validateSentinelConfig(cfg), Error);
    cfg = {};
    cfg.min_history = cfg.window + 1;
    EXPECT_THROW(validateSentinelConfig(cfg), Error);
    cfg = {};
    cfg.abs_floor = -1.0;
    EXPECT_THROW(validateSentinelConfig(cfg), Error);
}

// ---------------------------------------------------------------------
// Config validation: MlpConfig (the trainer's front door) and the
// resilience runtime's own knobs.
// ---------------------------------------------------------------------

TEST(MlpConfigValidation, RejectsMalformedConfigs)
{
    MlpConfig cfg = smallModel();
    validateMlpConfig(cfg); // baseline passes

    cfg.dims = {2};
    EXPECT_THROW(validateMlpConfig(cfg), Error);
    cfg = smallModel();
    cfg.dims = {2, 0, 2};
    EXPECT_THROW(validateMlpConfig(cfg), Error);
    cfg = smallModel();
    cfg.learning_rate = 0.0f;
    EXPECT_THROW(validateMlpConfig(cfg), Error);
    cfg = smallModel();
    cfg.learning_rate = std::numeric_limits<float>::quiet_NaN();
    EXPECT_THROW(validateMlpConfig(cfg), Error);
    cfg = smallModel();
    cfg.momentum = 1.0f;
    EXPECT_THROW(validateMlpConfig(cfg), Error);
    cfg = smallModel();
    cfg.momentum = -0.1f;
    EXPECT_THROW(validateMlpConfig(cfg), Error);
    cfg = smallModel();
    cfg.pact_alpha_init = 0.0f;
    EXPECT_THROW(validateMlpConfig(cfg), Error);
    cfg = smallModel();
    cfg.pact_bits = 1;
    EXPECT_THROW(validateMlpConfig(cfg), Error);
    cfg = smallModel();
    cfg.pact_alpha_init = std::numeric_limits<float>::infinity();
    try {
        validateMlpConfig(cfg);
        FAIL() << "non-finite pact_alpha_init must be rejected";
    } catch (const Error &e) {
        EXPECT_EQ(e.code(), ErrorCode::InvalidArgument);
    }
}

TEST(MlpConfigValidation, ConstructorRunsTheValidator)
{
    MlpConfig cfg = smallModel();
    cfg.dims = {2, -3, 2};
    EXPECT_THROW(Mlp{cfg}, Error);
}

TEST(ResilienceConfigValidation, RejectsNegativeBudgets)
{
    ResilienceConfig cfg;
    cfg.checkpoint_interval = -1;
    EXPECT_THROW(validateResilienceConfig(cfg), Error);
    cfg = {};
    cfg.max_retries = -1;
    EXPECT_THROW(validateResilienceConfig(cfg), Error);
    cfg = {};
    cfg.max_rollbacks = -1;
    EXPECT_THROW(validateResilienceConfig(cfg), Error);
    cfg = {};
    validateResilienceConfig(cfg); // defaults pass
}

// ---------------------------------------------------------------------
// The always-on numeric guard in the chunked accumulation datapath.
// This must hold in release builds: a poisoned operand surfaces as a
// structured, catchable NumericFault, never a silent NaN.
// ---------------------------------------------------------------------

TEST(NumericGuard, PoisonedOperandThrowsStructuredNumericFault)
{
    Tensor a({2, 4});
    Tensor b({4, 2});
    std::ranges::fill(a.storage(), 1.0f);
    std::ranges::fill(b.storage(), 1.0f);
    a[1] = std::numeric_limits<float>::quiet_NaN();
    try {
        fp16Matmul(a, b);
        FAIL() << "NaN operand must trip the accumulation guard";
    } catch (const Error &e) {
        EXPECT_EQ(e.code(), ErrorCode::NumericFault);
        EXPECT_NE(e.message().find("poisoned operand"),
                  std::string::npos);
    }
}

// ---------------------------------------------------------------------
// Checkpoint format
// ---------------------------------------------------------------------

namespace {

/** A checkpoint with real trained state in it. */
TrainerCheckpoint
trainedCheckpoint(uint64_t steps = 12)
{
    const Dataset data = spiralData();
    ResilienceConfig rc;
    rc.checkpoint_interval = 0;
    ResilientTrainer trainer(smallModel(), rc);
    trainer.runSteps(data.slice(0, 192), kBatch, steps);
    return trainer.checkpointNow();
}

} // namespace

TEST(Checkpoint, SerializeRoundTripIsByteStable)
{
    const TrainerCheckpoint ckpt = trainedCheckpoint();
    const std::vector<uint8_t> bytes = serializeCheckpoint(ckpt);
    EXPECT_EQ(checkpointBytes(ckpt), bytes.size());
    const TrainerCheckpoint parsed = deserializeCheckpoint(bytes);
    EXPECT_EQ(serializeCheckpoint(parsed), bytes);
}

TEST(Checkpoint, RejectsCorruptedPayloads)
{
    const TrainerCheckpoint ckpt = trainedCheckpoint(4);
    std::vector<uint8_t> bytes = serializeCheckpoint(ckpt);

    std::vector<uint8_t> bad = bytes;
    bad[0] ^= 0xff; // magic
    EXPECT_THROW(deserializeCheckpoint(bad), Error);

    bad = bytes;
    bad[4] += 1; // version
    EXPECT_THROW(deserializeCheckpoint(bad), Error);

    bad = bytes;
    bad.pop_back(); // truncated
    EXPECT_THROW(deserializeCheckpoint(bad), Error);

    bad = bytes;
    bad.push_back(0); // trailing garbage
    try {
        deserializeCheckpoint(bad);
        FAIL() << "trailing bytes must be rejected";
    } catch (const Error &e) {
        EXPECT_EQ(e.code(), ErrorCode::InvalidArgument);
    }
}

TEST(Checkpoint, CapturesEscalatedPrecision)
{
    const Dataset data = spiralData();
    ResilienceConfig rc;
    rc.checkpoint_interval = 0;
    ResilientTrainer trainer(smallModel(), rc);
    trainer.runSteps(data.slice(0, 192), kBatch, 4);
    trainer.model().setPrecision(TrainPrecision::FP16);
    const std::vector<uint8_t> bytes =
        serializeCheckpoint(trainer.checkpointNow());

    ResilientTrainer restored(smallModel(), rc);
    restored.rollbackTo(deserializeCheckpoint(bytes));
    EXPECT_EQ(restored.model().precision(), TrainPrecision::FP16);
    EXPECT_EQ(restored.step(), 4u);
}

// ---------------------------------------------------------------------
// Bit-exact rollback/resume and pass-through equivalence — the
// headline determinism guarantees, checked at 1 and 8 threads.
// ---------------------------------------------------------------------

TEST(ResilientTrainer, RollbackResumeBitExactAtAnyThreadCount)
{
    const MlpConfig mc = smallModel();
    const Dataset data = spiralData();
    const Dataset train = data.slice(0, 192);
    ResilienceConfig rc;
    rc.checkpoint_interval = 0; // manual checkpoints only

    for (unsigned threads : {1u, 8u}) {
        ThreadPool::setDefaultThreads(threads);

        ResilientTrainer straight(mc, rc);
        straight.runSteps(train, kBatch, 40);
        const MlpState end_state = straight.model().exportState();

        ResilientTrainer resumed(mc, rc);
        resumed.runSteps(train, kBatch, 25);
        // Resume from the *parsed bytes*, not the live object, so the
        // byte-stable format itself carries the full determinism.
        const std::vector<uint8_t> bytes =
            serializeCheckpoint(resumed.checkpointNow());
        resumed.runSteps(train, kBatch, 15); // diverge past the snap
        EXPECT_TRUE(resumed.model().exportState() == end_state);

        resumed.rollbackTo(deserializeCheckpoint(bytes));
        EXPECT_EQ(resumed.step(), 25u);
        resumed.runSteps(train, kBatch, 15); // replay 25..40
        EXPECT_TRUE(resumed.model().exportState() == end_state)
            << "rollback/replay diverged at --threads " << threads;
    }
    ThreadPool::setDefaultThreads(0);
}

TEST(ResilientTrainer, RateZeroIsBitIdenticalToPlainTrainer)
{
    const MlpConfig mc = smallModel();
    const Dataset data = spiralData();
    const Dataset train = data.slice(0, 192);

    Mlp plain(mc);
    plain.train(train, 4, kBatch);

    ResilienceConfig rc; // defaults: rate 0, sentinels on, ckpt on
    ResilientTrainer resilient(mc, rc);
    resilient.runSteps(train, kBatch, uint64_t(4 * (train.size() / kBatch)));

    EXPECT_TRUE(plain.exportState() == resilient.model().exportState());
    const RecoveryStats s = resilient.stats();
    EXPECT_EQ(s.steps, s.clean); // nothing fired
    EXPECT_TRUE(s.closed());
    EXPECT_EQ(resilient.faultStats().injected, 0u);
}

TEST(ResilientTrainer, TrainerGemmSiteStaysOffForPlainModels)
{
    // The hardware-site golden scenarios construct FaultConfigs with
    // every default site; TrainerGemm must not join them implicitly.
    const FaultConfig fc = FaultConfig::withRate(0.5);
    EXPECT_FALSE(fc.site_enabled[unsigned(FaultSite::TrainerGemm)]);

    const Dataset data = spiralData();
    FaultInjector injector(fc);
    Mlp plain(smallModel());
    plain.setFaultInjector(&injector);
    plain.train(data.slice(0, 192), 1, kBatch);
    EXPECT_EQ(plain.faultStats().sampled, 0u); // site gated off
}

// ---------------------------------------------------------------------
// The recovery ladder under injected faults
// ---------------------------------------------------------------------

namespace {

ResilienceConfig
faultedConfig(double rate)
{
    ResilienceConfig rc;
    rc.fault = FaultConfig::withRate(rate, 0x5eed);
    rc.checkpoint_interval = 10;
    return rc;
}

} // namespace

TEST(RecoveryLadder, ClosedAccountingUnderFaults)
{
    const Dataset data = spiralData();
    ResilientTrainer trainer(smallModel(), faultedConfig(1e-3));
    trainer.runSteps(data.slice(0, 192), kBatch, 60);
    const RecoveryStats s = trainer.stats();
    EXPECT_EQ(s.steps, 60u);
    EXPECT_TRUE(s.closed())
        << s.clean << "+" << s.retried << "+" << s.rolled_back << "+"
        << s.escalated << "+" << s.skipped << " != " << s.steps;
    EXPECT_GT(trainer.faultStats().injected, 0u);
}

TEST(RecoveryLadder, RetryHealsDetectedIncidents)
{
    const Dataset data = spiralData();
    ResilientTrainer trainer(smallModel(), faultedConfig(1e-3));
    trainer.runSteps(data.slice(0, 192), kBatch, 60);
    const RecoveryStats s = trainer.stats();
    EXPECT_GT(s.retries, 0u);
    EXPECT_GT(s.retried, 0u);
    EXPECT_FALSE(trainer.sentinel().events().empty());
}

TEST(RecoveryLadder, RollbackRungFiresWhenRetryIsOff)
{
    const Dataset data = spiralData();
    ResilienceConfig rc = faultedConfig(1e-3);
    rc.enable_retry = false;     // detection goes straight to rollback
    rc.enable_escalation = false;
    ResilientTrainer trainer(smallModel(), rc);
    trainer.runSteps(data.slice(0, 192), kBatch, 60);
    const RecoveryStats s = trainer.stats();
    EXPECT_GT(s.rollbacks, 0u);
    EXPECT_GT(s.rolled_back, 0u); // replayed steps re-classified
    EXPECT_GT(s.replayed, 0u);
    EXPECT_TRUE(s.closed());
}

TEST(RecoveryLadder, EscalationRungSwitchesHfp8ToFp16)
{
    const Dataset data = spiralData();
    ResilienceConfig rc = faultedConfig(1e-3);
    rc.enable_retry = false;
    rc.enable_rollback = false; // first detection escalates
    ResilientTrainer trainer(smallModel(), rc);
    trainer.runSteps(data.slice(0, 192), kBatch, 60);
    const RecoveryStats s = trainer.stats();
    EXPECT_EQ(s.escalations, 1u); // monotonic: HFP8 -> FP16 once
    EXPECT_GE(s.escalated, 1u);
    EXPECT_EQ(trainer.model().precision(), TrainPrecision::FP16);
    EXPECT_TRUE(s.closed());
}

TEST(RecoveryLadder, FullLadderRecoversCleanAccuracy)
{
    // The acceptance bar: a faulted HFP8 run with the full recovery
    // ladder lands within 1% of the clean run's final test accuracy.
    // A 128-row test split keeps one sample under the 1% bar.
    Rng rng(321);
    const Dataset data = makeSpirals(rng, 256); // 512 rows
    const Dataset train = data.slice(0, 384);
    const Dataset test = data.slice(384, 128);
    const uint64_t kSteps = 240;

    ResilientTrainer clean(smallModel(), faultedConfig(0.0));
    clean.runSteps(train, kBatch, kSteps);
    const double clean_acc = clean.evaluate(test);

    ResilientTrainer faulted(smallModel(), faultedConfig(3e-4));
    faulted.runSteps(train, kBatch, kSteps);
    const double faulted_acc = faulted.evaluate(test);

    EXPECT_GT(faulted.faultStats().injected, 0u);
    EXPECT_TRUE(faulted.stats().closed());
    EXPECT_GE(faulted_acc, clean_acc - 0.01)
        << "faulted " << faulted_acc << " vs clean " << clean_acc;
}

// ---------------------------------------------------------------------
// Checkpoint-overhead model (Young/Daly)
// ---------------------------------------------------------------------

TEST(Overhead, CheckpointCostFollowsMemoryBandwidth)
{
    ChipConfig chip; // 200 GB/s, 1.5 GHz defaults
    const uint64_t bytes = 200ull * 1000 * 1000 * 1000;
    EXPECT_NEAR(checkpointSeconds(bytes, chip), 1.0, 1e-9);
    EXPECT_NEAR(checkpointCycles(bytes, chip), 1.5e9, 1.0);
}

TEST(Overhead, YoungDalyInterval)
{
    EXPECT_NEAR(youngDalyInterval(1.0, 50.0), 10.0, 1e-12);
    EXPECT_THROW(youngDalyInterval(0.0, 50.0), Error);
    EXPECT_THROW(youngDalyInterval(1.0, -1.0), Error);
    // sqrt(2 * 0.5 * 100) = 10 seconds of 2-second steps -> 5 steps.
    EXPECT_EQ(youngDalyIntervalSteps(0.5, 100.0, 2.0), 5u);
    // Rounded up to at least one step.
    EXPECT_EQ(youngDalyIntervalSteps(1e-9, 1e-6, 100.0), 1u);
}

TEST(Overhead, OverheadAndReworkFractions)
{
    EXPECT_NEAR(checkpointOverheadFraction(1.0, 9, 1.0), 0.1, 1e-12);
    EXPECT_NEAR(expectedReworkFraction(1.0, 10, 100.0), 0.05, 1e-12);
    // A checkpoint interval longer than the MTBF clamps: every step
    // computed is (at most) lost once.
    EXPECT_NEAR(expectedReworkFraction(1.0, 1000, 1.0), 1.0, 1e-12);
}

TEST(Overhead, ChargesTheCheckpointLane)
{
    CycleBreakdown b;
    b.conv_gemm = 90.0;
    const double busy = b.busy();
    chargeCheckpoint(b, 10.0);
    EXPECT_NEAR(b.checkpoint, 10.0, 1e-12);
    EXPECT_NEAR(b.busy(), busy + 10.0, 1e-12);
}

// ---------------------------------------------------------------------
// The hash pre-filter that makes per-element trainer injection cheap
// ---------------------------------------------------------------------

/** The seed of @p site's item streams under injector seed @p seed. */
uint64_t
siteSalt(uint64_t seed, FaultSite site)
{
    return seed ^ (uint64_t(site) + 1) * 0xd6e8feb86659fd93ULL;
}

/** The per-item draw hashEventHits() batches, written out on its own:
 *  the site's salt mixed with @p item, whose top 53 bits as a uniform
 *  in [0, 1) are compared with the rate. */
bool
hashEventDraw(const FaultInjector &inj, FaultSite site, uint64_t item)
{
    const FaultConfig &cfg = inj.config();
    return double(mixSeed(siteSalt(cfg.seed, site), item) >> 11) *
               0x1.0p-53 <
           cfg.rate;
}

TEST(FaultPrefilter, HashDrawIsDeterministicAndRateFaithful)
{
    const FaultInjector off(FaultConfig::withRate(0.0));
    const FaultInjector half(FaultConfig::withRate(0.5, 42));
    const FaultInjector always(FaultConfig::withRate(1.0));

    uint64_t hits = 0;
    for (uint64_t item = 0; item < 4096; ++item) {
        EXPECT_FALSE(hashEventDraw(off, FaultSite::TrainerGemm, item));
        EXPECT_TRUE(hashEventDraw(always, FaultSite::TrainerGemm, item));
        const bool hit =
            hashEventDraw(half, FaultSite::TrainerGemm, item);
        // Pure function of (seed, site, item): stable on re-ask.
        EXPECT_EQ(hit,
                  hashEventDraw(half, FaultSite::TrainerGemm, item));
        hits += hit ? 1u : 0u;
    }
    EXPECT_NEAR(double(hits) / 4096.0, 0.5, 0.05);

    // Different sites draw from decorrelated streams.
    uint64_t agree = 0;
    for (uint64_t item = 0; item < 4096; ++item)
        agree += hashEventDraw(half, FaultSite::TrainerGemm, item) ==
                         hashEventDraw(half, FaultSite::MacOutput, item)
                     ? 1u
                     : 0u;
    EXPECT_NEAR(double(agree) / 4096.0, 0.5, 0.05);
}

/** hashEventHits() of [first, first + n) against hashEventDraw() of
 *  each item in it. */
void
expectHitsMatchDraws(const FaultInjector &inj, uint64_t first, uint64_t n)
{
    std::vector<uint64_t> want;
    for (uint64_t i = 0; i < n; ++i)
        if (hashEventDraw(inj, FaultSite::TrainerGemm, first + i))
            want.push_back(i);
    EXPECT_EQ(inj.hashEventHits(FaultSite::TrainerGemm, first, n), want)
        << "rate " << inj.config().rate << ", items [" << first << ", "
        << first + n << ")";
}

// The pre-filter at every lane width, compiled here under the same
// targets as the library's entries.

RAPID_TARGET_AVX512 void
laneHashHits16(uint64_t key, uint64_t first, uint64_t n, uint64_t threshold,
               std::vector<uint64_t> &hits)
{
    hashHitsLanes<16>(key, first, n, threshold, hits);
}

RAPID_TARGET_AVX2 void
laneHashHits8(uint64_t key, uint64_t first, uint64_t n, uint64_t threshold,
              std::vector<uint64_t> &hits)
{
    hashHitsLanes<8>(key, first, n, threshold, hits);
}

void
laneHashHits4(uint64_t key, uint64_t first, uint64_t n, uint64_t threshold,
              std::vector<uint64_t> &hits)
{
    hashHitsLanes<4>(key, first, n, threshold, hits);
}

/** Every lane width's pre-filter. */
const LaneHashHits kLaneHashHits[] = {
    {16, &laneHashHits16}, {8, &laneHashHits8}, {4, &laneHashHits4}};

/** The fault configs of the recovery-ladder and rework tests, walked
 *  in the GEMM output sizes of one 2-16-16-2 step at batch 32
 *  (forward, then each layer's weight and data gradient) from item 0,
 *  as TrainGemm consumes them, for 200 steps; then random ranges at
 *  every rate class, empty ones included. */
void
expectScenarioHitsMatch()
{
    const int64_t kStepGemms[] = {512, 512, 64, 32, 64, 256, 512, 32, 512};
    std::vector<FaultConfig> scenarios = {FaultConfig::withRate(0.5),
                                          FaultConfig::withRate(1e-3,
                                                                0x5eed)};
    for (uint64_t seed = 0; seed < 3; ++seed)
        scenarios.push_back(FaultConfig::withRate(1e-3, 0x5eed + seed));
    for (const FaultConfig &fc : scenarios) {
        const FaultInjector inj(fc);
        uint64_t item = 0;
        for (int step = 0; step < 200; ++step)
            for (int64_t n : kStepGemms) {
                expectHitsMatchDraws(inj, item, uint64_t(n));
                item += uint64_t(n);
            }
    }
    Rng rng(4242);
    for (double rate : {0.0, 1e-4, 6e-3, 0.5, 1.0}) {
        const FaultInjector inj(FaultConfig::withRate(rate, 99));
        for (int r = 0; r < 200; ++r)
            expectHitsMatchDraws(
                inj, uint64_t(rng.uniformInt(0, int64_t(1) << 40)),
                uint64_t(rng.uniformInt(0, 5000)));
    }
}

/** The threshold's edges: rates of 0, 1, the least positive double and
 *  the double below 1; rates that are a whole number of 2^-53 steps
 *  (each item's own draw among them) and their neighbours on both
 *  sides; lengths off the lane blocks; and ranges that run past
 *  2^64 - 1 and wrap. */
void
expectThresholdEdgeHitsMatch()
{
    constexpr double kLeast = std::numeric_limits<double>::denorm_min();
    constexpr uint64_t kNearTop = ~uint64_t(0) - 20;
    const uint64_t lengths[] = {0, 1, 3, 4, 5, 15, 16, 17, 31, 33, 4097};
    for (double rate : {0.0, 1.0, kLeast, std::nextafter(1.0, 0.0)}) {
        const FaultInjector inj(FaultConfig::withRate(rate, 7));
        for (uint64_t n : lengths) {
            expectHitsMatchDraws(inj, 1000, n);
            expectHitsMatchDraws(inj, kNearTop, n + 24);
        }
    }
    // At a rate equal to an item's own draw the item misses, and at the
    // next double up it hits. Below 1/2 a double's ulp is finer than
    // 2^-53, so that next double lies strictly between two steps: the
    // items are the first whose draws lie below 1/2, 2^-8 and 2^-16,
    // and one whose range wraps.
    const uint64_t salt = siteSalt(11, FaultSite::TrainerGemm);
    auto own = [salt](uint64_t item) {
        return double(mixSeed(salt, item) >> 11) * 0x1.0p-53;
    };
    std::vector<uint64_t> items = {kNearTop + 3};
    for (double below : {0.5, 0x1.0p-8, 0x1.0p-16}) {
        uint64_t item = 0;
        while (own(item) >= below)
            ++item;
        items.push_back(item);
    }
    for (uint64_t item : items) {
        for (double step : {own(item), 0.5, 0.25, 0x1.0p-53, 0x1.8p-52}) {
            for (double rate : {step, std::nextafter(step, 0.0),
                                std::nextafter(step, 1.0)}) {
                const FaultInjector inj(FaultConfig::withRate(rate, 11));
                for (uint64_t n : lengths)
                    expectHitsMatchDraws(inj, item - std::min(item, n / 2),
                                         n + 1);
            }
        }
    }
}

TEST(FaultPrefilter, HitListMatchesPerItemDraws)
{
    RAPID_AT_EVERY_LANE_WIDTH(kLaneHashHits, [] {
        expectScenarioHitsMatch();
        expectThresholdEdgeHitsMatch();
    });
}
