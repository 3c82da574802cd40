/**
 * @file
 * Transformer-serving invariants: decode-step and prefill MAC
 * arithmetic against closed-form counts, the KV-residency capacity
 * boundary and its 4x precision gap, deterministic request
 * generation, thread-count bit-identity, continuous-vs-one-shot
 * goodput ordering under load, closed request AND token accounting,
 * and negative-path config validation.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/error.hh"
#include "common/parallel.hh"
#include "llm/kv_cache.hh"
#include "llm/llm_metrics.hh"
#include "llm/llm_sim.hh"
#include "llm/llm_workload.hh"
#include "serve/queue_delay.hh"
#include "serve/workload.hh"

using namespace rapid;

namespace {

constexpr int64_t kMs = 1'000'000;

/** One chat tenant at @p rps on llm-micro (cheap tables). */
LlmServeConfig
microConfig(double rps, BatchPolicy policy = BatchPolicy::Continuous)
{
    LlmServeConfig cfg;
    cfg.model = "llm-micro";
    cfg.policy = policy;
    cfg.max_batch = 4;
    cfg.horizon_ns = 200 * kMs;
    LlmTenantConfig t;
    t.name = "chat";
    t.arrival_rps = rps;
    t.mean_prompt_tokens = 48.0;
    t.mean_output_tokens = 24.0;
    t.ttft_deadline_ns = 400 * kMs;
    t.tpot_deadline_ns = 30 * kMs;
    cfg.tenants.push_back(t);
    return cfg;
}

class LlmTest : public ::testing::Test
{
  protected:
    void TearDown() override { ThreadPool::setDefaultThreads(0); }
};

// ---------------------------------------------------------------------
// Workload shapes: closed-form MAC counts
// ---------------------------------------------------------------------

TEST_F(LlmTest, DecodeStepMacsMatchClosedForm)
{
    const LlmModelConfig m = llmModelByName("llm-micro");
    for (int64_t ctx : {int64_t(1), int64_t(64), int64_t(777),
                        m.max_context}) {
        const Network net = makeLlmDecodeStep(m, ctx);
        // Per layer: QKV d*3d, scores + context 2*ctx*d (the KV
        // streaming), out-proj d*d, FFN 2*d*d_ff; plus the LM head.
        const int64_t per_layer = 4 * m.d_model * m.d_model +
                                  2 * ctx * m.d_model +
                                  2 * m.d_model * m.d_ff;
        EXPECT_EQ(net.macsPerSample(),
                  m.layers * per_layer + m.d_model * m.vocab)
            << "ctx " << ctx;
    }
}

TEST_F(LlmTest, PrefillMacsScaleWithPromptLength)
{
    const LlmModelConfig m = llmModelByName("llm-micro");
    const int64_t s = 128;
    const Network net = makeLlmPrefill(m, s);
    // Per layer at sequence s: QKV s*d*3d, scores + context
    // 2*s*s*d, out-proj s*d*d, FFN 2*s*d*d_ff. No LM head: prefill
    // emits its first token via the decode path.
    const int64_t per_layer = 4 * s * m.d_model * m.d_model +
                              2 * s * s * m.d_model +
                              2 * s * m.d_model * m.d_ff;
    EXPECT_EQ(net.macsPerSample(), m.layers * per_layer);
    // Builders reject out-of-range shapes.
    EXPECT_THROW(makeLlmPrefill(m, 0), Error);
    EXPECT_THROW(makeLlmPrefill(m, m.max_context + 1), Error);
    EXPECT_THROW(makeLlmDecodeStep(m, 0), Error);
    EXPECT_THROW(makeLlmDecodeStep(m, m.max_context + 1), Error);
}

// ---------------------------------------------------------------------
// KV-cache residency
// ---------------------------------------------------------------------

TEST_F(LlmTest, KvResidencyCapacityBoundary)
{
    const LlmModelConfig m = llmModelByName("llm-small");
    const ChipConfig chip = makeInferenceChip();
    for (Precision kv : {Precision::INT4, Precision::HFP8,
                         Precision::FP16}) {
        const int64_t cap = kvResidentTokens(m, kv, chip);
        ASSERT_GT(cap, 0);
        EXPECT_EQ(kvSpillBytes(m, kv, chip, cap), 0);
        // One token past capacity spills its per-layer overflow
        // once per layer.
        EXPECT_EQ(kvSpillBytes(m, kv, chip, cap + 1),
                  kvLayerBytesPerToken(m, kv) * m.layers);
        EXPECT_EQ(kvSpillStepNs(m, kv, chip, cap), 0);
        EXPECT_GT(kvSpillStepNs(m, kv, chip, cap + 1), 0);
    }
    EXPECT_EQ(kvSpillNs(chip, 0), 0);
    EXPECT_GE(kvSpillNs(chip, 1), 1); // nonzero bytes cost >= 1 ns
}

TEST_F(LlmTest, Int4KvHoldsFourTimesFp16Context)
{
    const LlmModelConfig m = llmModelByName("llm-small");
    const ChipConfig chip = makeInferenceChip();
    // 4 bits vs 16 bits per element: exactly 4x the resident context.
    EXPECT_EQ(kvLayerBytesPerToken(m, Precision::FP16),
              4 * kvLayerBytesPerToken(m, Precision::INT4));
    EXPECT_EQ(kvResidentTokens(m, Precision::INT4, chip),
              4 * kvResidentTokens(m, Precision::FP16, chip));
}

// ---------------------------------------------------------------------
// Workload generation
// ---------------------------------------------------------------------

TEST_F(LlmTest, RequestTraceIsDeterministicAndWellFormed)
{
    const LlmServeConfig cfg = microConfig(400.0);
    const LlmModelConfig m = llmModelByName(cfg.model);
    const std::vector<LlmRequest> a = generateLlmRequests(cfg, m);
    const std::vector<LlmRequest> b = generateLlmRequests(cfg, m);
    ASSERT_FALSE(a.empty());
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].arrival_ns, b[i].arrival_ns);
        EXPECT_EQ(a[i].prompt_tokens, b[i].prompt_tokens);
        EXPECT_EQ(a[i].output_tokens, b[i].output_tokens);
        EXPECT_EQ(a[i].id, i); // dense, merged order
        EXPECT_GE(a[i].prompt_tokens, 1);
        EXPECT_GE(a[i].output_tokens, 1);
        EXPECT_LE(a[i].prompt_tokens + a[i].output_tokens,
                  m.max_context);
        EXPECT_GE(a[i].arrival_ns, 0);
        EXPECT_LT(a[i].arrival_ns, cfg.horizon_ns);
        if (i > 0) {
            EXPECT_GE(a[i].arrival_ns, a[i - 1].arrival_ns);
        }
    }
}

// The serve and LLM generators share one arrival process; this FNV-1a
// digest of both merged traces over Poisson, bursty (burst_mean 8 and
// 40) and zero-rate tenants at three seeds pins every draw they make.
TEST_F(LlmTest, ArrivalStreamsArePinned)
{
    uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    struct Traffic
    {
        double rps;
        ArrivalPattern pattern;
        double burst_mean;
    };
    const Traffic traffic[] = {{2000.0, ArrivalPattern::Poisson, 8.0},
                               {1500.0, ArrivalPattern::Bursty, 8.0},
                               {0.0, ArrivalPattern::Poisson, 8.0},
                               {1000.0, ArrivalPattern::Bursty, 40.0}};
    size_t serve_arrivals = 0, llm_requests = 0;
    for (uint64_t seed : {1ull, 0x5e77eull, 0xdeadbeefull}) {
        ServeConfig s;
        s.seed = seed;
        s.horizon_ns = 200 * kMs;
        LlmServeConfig l = microConfig(0.0);
        l.seed = seed;
        l.tenants.clear();
        for (const Traffic &t : traffic) {
            TenantConfig st;
            st.arrival_rps = t.rps;
            st.pattern = t.pattern;
            st.burst_mean = t.burst_mean;
            s.tenants.push_back(st);
            LlmTenantConfig lt = microConfig(t.rps / 10.0).tenants[0];
            lt.pattern = t.pattern;
            lt.burst_mean = t.burst_mean;
            l.tenants.push_back(lt);
        }
        for (const Arrival &a : generateArrivals(s)) {
            mix(uint64_t(a.time_ns));
            mix(a.tenant);
            mix(a.id);
            ++serve_arrivals;
        }
        for (const LlmRequest &r :
             generateLlmRequests(l, llmModelByName(l.model))) {
            mix(r.id);
            mix(r.tenant);
            mix(uint64_t(r.arrival_ns));
            mix(uint64_t(r.prompt_tokens));
            mix(uint64_t(r.output_tokens));
            ++llm_requests;
        }
    }
    EXPECT_GT(serve_arrivals, 1000u);
    EXPECT_GT(llm_requests, 100u);
    EXPECT_EQ(h, 0xd39f6a78e93b0519ull);
}

// ---------------------------------------------------------------------
// Simulation invariants
// ---------------------------------------------------------------------

TEST_F(LlmTest, ClosedRequestAndTokenAccounting)
{
    for (BatchPolicy policy : {BatchPolicy::OneShot,
                               BatchPolicy::Continuous}) {
        const LlmServeConfig cfg = microConfig(600.0, policy);
        const LlmSim sim(makeInferenceChip(), cfg);
        const LlmResult r = sim.run();
        const LlmMetrics m = computeLlmMetrics(cfg, r);
        EXPECT_TRUE(m.total.requestAccountingClosed());
        EXPECT_TRUE(m.total.tokenAccountingClosed());
        EXPECT_GT(m.total.completed, 0u);
        for (const LlmRequestRecord &rec : r.requests) {
            if (rec.shed) {
                EXPECT_EQ(rec.mode, -1);
                EXPECT_EQ(rec.generated_tokens, 0);
                continue;
            }
            // Every admitted sequence decodes to completion.
            EXPECT_EQ(rec.generated_tokens, rec.output_tokens);
            EXPECT_GE(rec.first_token_ns, rec.arrival_ns);
            EXPECT_GE(rec.completion_ns, rec.first_token_ns);
            EXPECT_LE(rec.completion_ns, r.end_ns);
        }
    }
}

TEST_F(LlmTest, StepsAreSerializedOnTheExecutor)
{
    const LlmServeConfig cfg = microConfig(600.0);
    const LlmResult r = LlmSim(makeInferenceChip(), cfg).run();
    ASSERT_FALSE(r.steps.empty());
    int64_t prev_done = 0;
    for (const LlmStepRecord &s : r.steps) {
        EXPECT_GE(s.launch_ns, prev_done); // one executor, no overlap
        EXPECT_GT(s.completion_ns, s.launch_ns);
        EXPECT_GE(s.live, 1);
        EXPECT_LE(s.live, s.batch);
        EXPECT_LE(s.batch, cfg.max_batch);
        prev_done = s.completion_ns;
    }
}

TEST_F(LlmTest, BitIdenticalAcrossThreadCounts)
{
    const LlmServeConfig cfg = microConfig(500.0);

    ThreadPool::setDefaultThreads(1);
    const LlmResult serial = LlmSim(makeInferenceChip(), cfg).run();

    ThreadPool::setDefaultThreads(8);
    const LlmSim sim(makeInferenceChip(), cfg);
    const LlmResult wide = sim.run();
    // And through the batch engine, which shares one DesEngine.
    const LlmResult batched = runLlmBatch({&sim}).at(0);

    ASSERT_EQ(serial.requests.size(), wide.requests.size());
    for (size_t i = 0; i < serial.requests.size(); ++i) {
        EXPECT_EQ(serial.requests[i].first_token_ns,
                  wide.requests[i].first_token_ns);
        EXPECT_EQ(serial.requests[i].completion_ns,
                  wide.requests[i].completion_ns);
        EXPECT_EQ(serial.requests[i].mode, wide.requests[i].mode);
        EXPECT_EQ(serial.requests[i].completion_ns,
                  batched.requests[i].completion_ns);
    }
    ASSERT_EQ(serial.steps.size(), batched.steps.size());
    EXPECT_EQ(serial.end_ns, wide.end_ns);
    EXPECT_EQ(serial.end_ns, batched.end_ns);
}

TEST_F(LlmTest, ContinuousBatchingBeatsOneShotUnderLoad)
{
    // Past the one-shot knee, per-token re-admission keeps the decode
    // batch full while static cohorts decay and block admission.
    const double rps = 32000.0;
    const LlmSim one(makeInferenceChip(),
                     microConfig(rps, BatchPolicy::OneShot));
    const LlmSim cont(makeInferenceChip(),
                      microConfig(rps, BatchPolicy::Continuous));
    const std::vector<LlmResult> r = runLlmBatch({&one, &cont});
    const LlmMetrics mo = computeLlmMetrics(one.config(), r[0]);
    const LlmMetrics mc = computeLlmMetrics(cont.config(), r[1]);
    EXPECT_GT(mc.total.goodput_rps, mo.total.goodput_rps);
    // Continuous keeps live members near the charged batch.
    EXPECT_GT(mc.mean_decode_live, mo.mean_decode_live);
    // One-shot charges the fixed cohort even as members finish.
    EXPECT_LT(mo.mean_decode_live / mo.mean_decode_batch, 0.9);
}

TEST_F(LlmTest, LadderRoutesLongContextsToPackedKv)
{
    // A ladder whose FP16 rung cannot meet the TPOT bound at long
    // context (its spill penalty is 4x the INT4 rung's) must route
    // those requests down to the packed-KV mode, not shed them.
    LlmServeConfig cfg = microConfig(100.0);
    cfg.ladder = {{Precision::INT4, Precision::INT4},
                  {Precision::FP16, Precision::FP16}};
    cfg.tenants[0].mean_prompt_tokens = 600.0;
    cfg.tenants[0].tpot_deadline_ns = 2 * kMs;
    const LlmSim sim(makeInferenceChip(), cfg);
    const LlmResult r = sim.run();
    const LlmMetrics m = computeLlmMetrics(cfg, r);
    ASSERT_GT(m.total.completed, 0u);
    EXPECT_GT(m.total.served_by_mode[0], 0u); // INT4 took traffic
    EXPECT_TRUE(m.total.requestAccountingClosed());
}

// ---------------------------------------------------------------------
// Calibrated TPOT admission: tier recovery, trust fuse, closed ledger
// ---------------------------------------------------------------------

TEST_F(LlmTest, CalibratedTpotTierRecoversFullBatchBoundOverShed)
{
    // The bench's llm_tpot scenario: a wide decode batch makes the
    // proven bound price every candidate at a max_batch step over its
    // *final* context, KV spill included, while the running batch
    // rarely fills. The calibrated tier must recover most of that
    // over-shed without a single TPOT violation, and the per-tier
    // request ledger must close on both runs.
    auto scenario = [](bool calibrated) {
        LlmServeConfig cfg;
        cfg.model = "llm-small";
        cfg.policy = BatchPolicy::Continuous;
        cfg.max_batch = 32;
        cfg.horizon_ns = 500 * kMs;
        LlmTenantConfig chat;
        chat.name = "chat";
        chat.arrival_rps = 180.0;
        chat.mean_prompt_tokens = 256.0;
        chat.mean_output_tokens = 192.0;
        chat.ttft_deadline_ns = 400 * kMs;
        chat.tpot_deadline_ns = 500'000;
        cfg.tenants.push_back(chat);
        cfg.admission.enabled = calibrated;
        cfg.admission.min_samples = 8;
        cfg.admission.window = 64;
        cfg.admission.safety_margin = 1.25;
        return cfg;
    };
    const LlmServeConfig bound = scenario(false);
    const LlmServeConfig cal = scenario(true);
    const ChipConfig chip = makeInferenceChip();
    const LlmMetrics mb =
        computeLlmMetrics(bound, LlmSim(chip, bound).run());
    const LlmMetrics mc = computeLlmMetrics(cal, LlmSim(chip, cal).run());

    ASSERT_GT(mb.total.shed, 0u); // the bound's pessimism is real
    EXPECT_LT(2 * mc.total.shed, mb.total.shed); // >= 50% recovered
    EXPECT_EQ(mc.total.tpot_violations, 0u); // at zero SLA cost
    EXPECT_GT(mc.total.admitted_calibrated, 0u);
    EXPECT_GT(mc.total.tokens_per_s, mb.total.tokens_per_s);
    EXPECT_EQ(mb.total.admitted_calibrated, 0u);
    for (const LlmMetrics *m : {&mb, &mc}) {
        EXPECT_TRUE(m->total.requestAccountingClosed());
        EXPECT_TRUE(m->total.tierAccountingClosed());
        EXPECT_TRUE(m->total.tokenAccountingClosed());
    }
}

TEST_F(LlmTest, PerGroupAdmitCountsMatchRequestTiers)
{
    // The batcher's per-group admit counts must agree with the tiers
    // the request records carry, and exist only while the calibrated
    // tier is enabled.
    LlmServeConfig cfg;
    cfg.model = "llm-small";
    cfg.max_batch = 32;
    cfg.horizon_ns = 500 * kMs;
    LlmTenantConfig chat;
    chat.name = "chat";
    chat.arrival_rps = 180.0;
    chat.mean_prompt_tokens = 256.0;
    chat.mean_output_tokens = 192.0;
    chat.ttft_deadline_ns = 400 * kMs;
    chat.tpot_deadline_ns = 500'000;
    cfg.tenants.push_back(chat);
    cfg.admission.enabled = true;
    cfg.admission.min_samples = 8;
    cfg.admission.window = 64;
    cfg.admission.safety_margin = 1.25;
    const ChipConfig chip = makeInferenceChip();
    const LlmResult r = LlmSim(chip, cfg).run();
    ASSERT_EQ(r.group_admission.size(), cfg.ladder.size());
    uint64_t calibrated = 0, bound = 0;
    for (const AdmissionStats &g : r.group_admission) {
        calibrated += g.admitted_calibrated;
        bound += g.admitted_bound;
    }
    const LlmMetrics m = computeLlmMetrics(cfg, r);
    EXPECT_GT(calibrated, 0u);
    EXPECT_EQ(calibrated, m.total.admitted_calibrated);
    EXPECT_EQ(bound, m.total.admitted_bound);

    cfg.admission.enabled = false;
    EXPECT_TRUE(LlmSim(chip, cfg).run().group_admission.empty());

    // Single-token outputs have no TPOT, so they never feed the
    // window: the tier stays cold and every admit is a bound admit.
    cfg.admission.enabled = true;
    cfg.tenants[0].mean_output_tokens = 1.0;
    const LlmResult single = LlmSim(chip, cfg).run();
    for (const AdmissionStats &g : single.group_admission)
        EXPECT_EQ(g.admitted_calibrated, 0u);
    EXPECT_GT(computeLlmMetrics(cfg, single).total.completed, 0u);
}

TEST_F(LlmTest, TpotTrustFuseLatchesGroupBackToBound)
{
    // A TPOT deadline trap: a short-prompt tenant keeps the shared
    // window full of comfortable TPOTs, a long-context tenant rides
    // the calibrated shortcut past a deadline its spill-heavy decode
    // cannot actually meet. The fuse must latch the ladder group back
    // to the proven bound after the strike; without the fuse the
    // shortcut keeps admitting on the polluted window.
    auto trap = [](bool fuse_on) {
        LlmServeConfig cfg;
        cfg.model = "llm-micro";
        cfg.policy = BatchPolicy::Continuous;
        cfg.max_batch = 4;
        cfg.horizon_ns = 300 * kMs;
        LlmTenantConfig shortT;
        shortT.name = "short";
        shortT.arrival_rps = 400.0;
        shortT.mean_prompt_tokens = 16.0;
        shortT.mean_output_tokens = 8.0;
        shortT.ttft_deadline_ns = 100 * kMs;
        shortT.tpot_deadline_ns = 30 * kMs;
        cfg.tenants.push_back(shortT);
        LlmTenantConfig longT;
        longT.name = "long";
        longT.arrival_rps = 60.0;
        longT.mean_prompt_tokens = 1200.0;
        longT.mean_output_tokens = 64.0;
        longT.ttft_deadline_ns = 100 * kMs;
        longT.tpot_deadline_ns = 20'000; // the trap: bound says no
        cfg.tenants.push_back(longT);
        cfg.admission.enabled = true;
        cfg.admission.min_samples = 4;
        cfg.admission.window = 32;
        cfg.admission.safety_margin = 1.0;
        cfg.admission.fuse_enabled = fuse_on;
        return cfg;
    };
    const LlmServeConfig nofuse = trap(false);
    const LlmServeConfig fused = trap(true);
    const ChipConfig chip = makeInferenceChip();
    const LlmResult rn = LlmSim(chip, nofuse).run();
    const LlmResult rf = LlmSim(chip, fused).run();
    const LlmMetrics mn = computeLlmMetrics(nofuse, rn);
    const LlmMetrics mf = computeLlmMetrics(fused, rf);

    EXPECT_EQ(mn.fuse_trips, 0u); // disabled fuse never latches
    ASSERT_GE(mf.fuse_trips, 1u);
    // The latch is visible in the tier split: after the trip the
    // group admits on the bound, so strictly fewer calibrated admits.
    EXPECT_LT(mf.total.admitted_calibrated,
              mn.total.admitted_calibrated);
    EXPECT_LE(mf.total.tpot_violations, mn.total.tpot_violations);
    EXPECT_TRUE(mn.total.tierAccountingClosed());
    EXPECT_TRUE(mf.total.tierAccountingClosed());

    // The per-group stats name the tripped group and stamp the trip.
    bool tripped = false;
    for (const AdmissionStats &g : rf.group_admission)
        if (g.fuse_tripped) {
            tripped = true;
            EXPECT_GE(g.fuse_trip_ns, 0);
        }
    EXPECT_TRUE(tripped);
}

// ---------------------------------------------------------------------
// Config validation: negative paths
// ---------------------------------------------------------------------

TEST_F(LlmTest, ValidationRejectsBadConfigs)
{
    const auto reject = [](auto mutate) {
        LlmServeConfig cfg = microConfig(10.0);
        mutate(cfg);
        EXPECT_THROW(validateLlmConfig(cfg), Error);
    };
    reject([](LlmServeConfig &c) { c.tenants.clear(); });
    reject([](LlmServeConfig &c) { c.max_batch = 0; });
    reject([](LlmServeConfig &c) { c.horizon_ns = 0; });
    reject([](LlmServeConfig &c) { c.ladder.clear(); });
    reject([](LlmServeConfig &c) {
        c.ladder = {{Precision::FP32, Precision::FP32}};
    });
    reject([](LlmServeConfig &c) { c.tenants[0].name.clear(); });
    reject([](LlmServeConfig &c) { c.tenants[0].arrival_rps = -1; });
    reject([](LlmServeConfig &c) {
        c.tenants[0].mean_prompt_tokens = 0.5;
    });
    reject([](LlmServeConfig &c) {
        c.tenants[0].mean_output_tokens = 0;
    });
    reject([](LlmServeConfig &c) {
        // Means must leave room inside max_context.
        c.tenants[0].mean_prompt_tokens = 2000.0;
        c.tenants[0].mean_output_tokens = 100.0;
    });
    reject([](LlmServeConfig &c) { c.tenants[0].ttft_deadline_ns = 0; });
    reject([](LlmServeConfig &c) { c.tenants[0].tpot_deadline_ns = 0; });
    reject([](LlmServeConfig &c) {
        // Quality floor above every ladder rung.
        c.tenants[0].min_precision = Precision::FP16;
        c.ladder = {{Precision::INT4, Precision::INT4}};
    });
    reject([](LlmServeConfig &c) {
        c.tenants[0].pattern = ArrivalPattern::Bursty;
        c.tenants[0].burst_mean = 0.5;
    });
    // Infinite traffic would draw a request per nanosecond of the
    // horizon and die in bad_alloc inside run() instead of here.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    reject([](LlmServeConfig &c) { c.tenants[0].arrival_rps = kInf; });
    reject([](LlmServeConfig &c) {
        c.tenants[0].pattern = ArrivalPattern::Bursty;
        c.tenants[0].burst_mean = kInf;
    });
    reject([](LlmServeConfig &c) { c.fault.rate = -0.5; });
    // The calibrated TPOT tier shares the serve-side knob contract.
    reject([](LlmServeConfig &c) { c.admission.window = 0; });
    reject([](LlmServeConfig &c) {
        c.admission.window = QueueDelayEstimator::kMaxWindow + 1;
    });
    reject([](LlmServeConfig &c) {
        c.admission.window = std::numeric_limits<size_t>::max();
    });
    reject([](LlmServeConfig &c) { c.admission.min_samples = 0; });
    reject([](LlmServeConfig &c) { c.admission.safety_margin = 0.9; });

    // The simulator constructor runs the same validation.
    LlmServeConfig bad = microConfig(10.0);
    bad.tenants.clear();
    EXPECT_THROW(LlmSim(makeInferenceChip(), bad), Error);
    EXPECT_THROW(runLlmBatch({nullptr}), Error);
    // An absurd TPOT window is a config error, not std::bad_alloc from
    // the estimator's allocation.
    LlmServeConfig huge = microConfig(10.0);
    huge.admission.enabled = true;
    huge.admission.window = std::numeric_limits<size_t>::max();
    try {
        LlmSim sim(makeInferenceChip(), huge);
        ADD_FAILURE() << "an absurd window was accepted";
    } catch (const Error &e) {
        EXPECT_EQ(e.code(), ErrorCode::InvalidConfig);
    }

    // And the model registry is closed.
    EXPECT_NO_THROW(llmModelByName("llm-micro"));
    EXPECT_NO_THROW(llmModelByName("llm-small"));
}

} // namespace
