/**
 * @file
 * Fleet-serving invariants: rate-0 bit-equivalence to N independent
 * ServeSim runs, closed origin-resolved accounting and a goodput
 * floor under chip kills, bit-exact checkpoint-replica training
 * restore, schedule-fuzzed thread-count bit-identity under scripted
 * kill sequences, policy semantics, and config-validation negative
 * paths.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cstdint>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "cluster/fleet.hh"
#include "cluster/fleet_metrics.hh"
#include "common/error.hh"
#include "common/parallel.hh"
#include "interconnect/ring.hh"
#include "serve/metrics.hh"
#include "workloads/networks.hh"

using namespace rapid;

namespace {

constexpr int64_t kMs = 1'000'000;

/** A small fleet scenario: 6 tenants over 3 chips, 200 ms horizon. */
ClusterConfig
smallFleet(size_t num_chips = 3,
           FleetPolicy policy = FleetPolicy::FailoverRestore)
{
    ClusterConfig cfg;
    cfg.num_chips = num_chips;
    cfg.policy = policy;
    cfg.serve.horizon_ns = 200 * kMs;
    for (int ti = 0; ti < 6; ++ti) {
        TenantConfig t;
        t.name = "tenant" + std::to_string(ti);
        t.network = ti % 2 == 0 ? "resnet50" : "mobilenetv1";
        t.arrival_rps = 300.0;
        t.deadline_ns = 15 * kMs;
        cfg.serve.tenants.push_back(t);
    }
    cfg.serve.batcher.max_batch = 8;
    cfg.serve.batcher.max_wait_ns = 2 * kMs;
    return cfg;
}

ClusterConfig
trainingFleet(bool kill_home)
{
    ClusterConfig cfg = smallFleet(3);
    cfg.training.enabled = true;
    cfg.training.home_chip = 0;
    cfg.training.replica_chip = 2;
    cfg.training.model.dims = {2, 16, 16, 2};
    cfg.training.model.precision = TrainPrecision::HFP8;
    cfg.training.steps = 80;
    cfg.training.step_ns = 2 * kMs;
    cfg.training.checkpoint_interval = 20;
    if (kill_home)
        cfg.failures.scripted = {{0, 100 * kMs, false}};
    return cfg;
}

/** FNV-1a over every determinism-relevant field of a fleet result. */
uint64_t
fleetDigest(const FleetResult &r)
{
    uint64_t h = 1469598103934665603ull;
    auto mix = [&h](uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= 1099511628211ull;
        }
    };
    for (const ServeResult &sr : r.chips) {
        mix(sr.requests.size());
        for (const RequestRecord &rec : sr.requests) {
            mix(rec.id);
            mix(uint64_t(rec.tenant));
            mix(uint64_t(rec.arrival_ns));
            mix(uint64_t(rec.launch_ns));
            mix(uint64_t(rec.completion_ns));
            mix(uint64_t(rec.precision));
            mix(uint64_t(rec.shed) | (uint64_t(rec.failed) << 1));
        }
        mix(sr.batches.size());
        mix(uint64_t(sr.end_ns));
    }
    for (const ChipStatus &st : r.status) {
        mix(uint64_t(st.failed_stop) | (uint64_t(st.degraded) << 1));
        mix(uint64_t(st.detect_ns));
        mix(st.heartbeats_sent);
        mix(st.orphans);
    }
    for (const AdoptionMeta &a : r.adoptions) {
        mix(a.host_chip);
        mix(a.local_id);
        mix(a.origin_chip);
        mix(a.origin_id);
        mix(uint64_t(a.origin_arrival_ns));
        mix(uint64_t(a.attempts));
    }
    mix(r.training.steps_completed);
    mix(r.training.restore_step);
    for (uint8_t b : r.training.final_checkpoint) {
        h ^= b;
        h *= 1099511628211ull;
    }
    return h;
}

class ClusterTest : public ::testing::Test
{
  protected:
    void TearDown() override { ThreadPool::setDefaultThreads(0); }
};

// ---------------------------------------------------------------------
// Rate-0 equivalence: the fleet is N independent chips
// ---------------------------------------------------------------------

TEST_F(ClusterTest, RateZeroFleetMatchesIndependentShards)
{
    const ClusterConfig cfg = smallFleet(3);
    const FleetSim fleet(makeInferenceChip(), cfg);
    const FleetResult result = fleet.run();

    std::vector<const ServeSim *> shards;
    for (size_t c = 0; c < cfg.num_chips; ++c)
        shards.push_back(&fleet.chipSim(c));
    const std::vector<ServeResult> solo = runServeBatch(shards);

    ASSERT_EQ(result.chips.size(), solo.size());
    for (size_t c = 0; c < solo.size(); ++c) {
        const auto &a = result.chips[c].requests;
        const auto &b = solo[c].requests;
        ASSERT_EQ(a.size(), b.size()) << "chip " << c;
        for (size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].arrival_ns, b[i].arrival_ns);
            EXPECT_EQ(a[i].launch_ns, b[i].launch_ns);
            EXPECT_EQ(a[i].completion_ns, b[i].completion_ns);
            EXPECT_EQ(a[i].precision, b[i].precision);
            EXPECT_EQ(a[i].shed, b[i].shed);
            EXPECT_EQ(a[i].failed, b[i].failed);
        }
        EXPECT_EQ(result.chips[c].batches.size(),
                  solo[c].batches.size());
    }
    EXPECT_TRUE(result.adoptions.empty());
    for (const ChipStatus &st : result.status) {
        EXPECT_FALSE(st.failed_stop);
        EXPECT_FALSE(st.degraded);
        EXPECT_GT(st.heartbeats_sent, 0u);
    }
}

TEST_F(ClusterTest, ShardsPartitionTheGlobalWorkload)
{
    const ClusterConfig cfg = smallFleet(3);
    // Each tenant keeps its global arrival stream on exactly its home
    // chip; every other shard zeroes it.
    for (size_t c = 0; c < cfg.num_chips; ++c) {
        const ServeConfig shard = shardServeConfig(cfg, c);
        ASSERT_EQ(shard.tenants.size(), cfg.serve.tenants.size());
        for (size_t ti = 0; ti < shard.tenants.size(); ++ti) {
            if (ti % cfg.num_chips == c)
                EXPECT_EQ(shard.tenants[ti].arrival_rps,
                          cfg.serve.tenants[ti].arrival_rps);
            else
                EXPECT_EQ(shard.tenants[ti].arrival_rps, 0.0);
        }
    }
    EXPECT_THROW(shardServeConfig(cfg, cfg.num_chips), Error);
}

TEST_F(ClusterTest, FleetBatchMatchesIndividualRuns)
{
    const ClusterConfig a = smallFleet(2);
    ClusterConfig b = smallFleet(3);
    b.failures.scripted = {{1, 60 * kMs, false}};
    const FleetSim fa(makeInferenceChip(), a);
    const FleetSim fb(makeInferenceChip(), b);
    const std::vector<FleetResult> batch = runFleetBatch({&fa, &fb});
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_EQ(fleetDigest(batch[0]), fleetDigest(fa.run()));
    EXPECT_EQ(fleetDigest(batch[1]), fleetDigest(fb.run()));
    EXPECT_THROW(runFleetBatch({nullptr}), Error);
}

// ---------------------------------------------------------------------
// Failure, drain, and the goodput floor
// ---------------------------------------------------------------------

TEST_F(ClusterTest, AccountingClosesUnderKills)
{
    for (FleetPolicy policy :
         {FleetPolicy::NoFailover, FleetPolicy::DrainOnly,
          FleetPolicy::FailoverRestore}) {
        ClusterConfig cfg = smallFleet(3, policy);
        cfg.failures.scripted = {{1, 80 * kMs, false}};
        const FleetSim fleet(makeInferenceChip(), cfg);
        const FleetResult result = fleet.run();
        const FleetLedger ledger = buildFleetLedger(cfg, result);
        EXPECT_TRUE(ledger.closed())
            << fleetPolicyName(policy) << ": offered "
            << ledger.offered << " != " << ledger.completed << " + "
            << ledger.shed << " + " << ledger.failed;
        EXPECT_EQ(ledger.chips_failed, 1u);
        EXPECT_TRUE(result.status[1].failed_stop);
        EXPECT_GE(result.status[1].detect_ns, 80 * kMs);
        // Offered load is policy-invariant: the same origin streams.
        EXPECT_EQ(ledger.offered,
                  buildFleetLedger(
                      cfg, FleetSim(makeInferenceChip(),
                                    smallFleet(3, policy))
                               .run())
                      .offered);
    }
}

// Chip 2 adopts chip 1's orphans, then dies itself: its death manifest
// must carry each re-stranded request's original origin and hop count
// (the adoption join), and its own trace requests as its own.
TEST_F(ClusterTest, ChainedDeathKeepsAdoptedOriginsInTheLedger)
{
    ClusterConfig cfg = smallFleet(3);
    cfg.failures.scripted = {{1, 80 * kMs, false},
                             {2, 120 * kMs, false}};
    const FleetResult result =
        FleetSim(makeInferenceChip(), cfg).run();
    const FleetLedger ledger = buildFleetLedger(cfg, result);
    EXPECT_TRUE(ledger.closed())
        << "offered " << ledger.offered << " != " << ledger.completed
        << " + " << ledger.shed << " + " << ledger.failed;
    EXPECT_EQ(ledger.chips_failed, 2u);
    size_t adopted_by_2 = 0, readopted_from_1 = 0, own_from_2 = 0;
    std::set<std::tuple<size_t, uint64_t, size_t>> seen;
    for (const AdoptionMeta &a : result.adoptions) {
        EXPECT_NE(a.origin_chip, a.host_chip);
        EXPECT_TRUE(
            seen.insert({a.origin_chip, a.origin_id, a.host_chip}).second)
            << "origin " << a.origin_chip << "/" << a.origin_id
            << " adopted twice by chip " << a.host_chip;
        adopted_by_2 += a.host_chip == 2 ? 1 : 0;
        readopted_from_1 +=
            a.host_chip == 0 && a.origin_chip == 1 && a.attempts > 0;
        own_from_2 += a.host_chip == 0 && a.origin_chip == 2;
    }
    EXPECT_GT(adopted_by_2, 0u);
    EXPECT_GT(readopted_from_1, 0u);
    EXPECT_GT(own_from_2, 0u);
}

TEST_F(ClusterTest, FailoverHoldsGoodputWhereNoFailoverCollapses)
{
    ClusterConfig healthy = smallFleet(3);
    const FleetLedger base = buildFleetLedger(
        healthy, FleetSim(makeInferenceChip(), healthy).run());

    ClusterConfig killed = smallFleet(3);
    killed.failures.scripted = {{1, 80 * kMs, false}};
    const FleetLedger failover = buildFleetLedger(
        killed, FleetSim(makeInferenceChip(), killed).run());

    ClusterConfig abandoned = smallFleet(3, FleetPolicy::NoFailover);
    abandoned.failures.scripted = {{1, 80 * kMs, false}};
    const FleetLedger writeoff = buildFleetLedger(
        abandoned, FleetSim(makeInferenceChip(), abandoned).run());

    // The acceptance floor: failover goodput stays within 10% of the
    // live-fraction-scaled healthy goodput.
    EXPECT_GE(failover.goodput_rps,
              failover.live_fraction * base.goodput_rps * 0.9);
    // No-failover loses the dead shard's remainder outright.
    EXPECT_GT(writeoff.failed, 0u);
    EXPECT_LT(writeoff.goodput_rps, failover.goodput_rps);
    EXPECT_EQ(failover.failed, 0u);
    EXPECT_GT(failover.failed_over, 0u);
}

TEST_F(ClusterTest, DrainOnlyRedirectsOnlyPostDetectionTraffic)
{
    ClusterConfig cfg = smallFleet(3, FleetPolicy::DrainOnly);
    cfg.failures.scripted = {{1, 80 * kMs, false}};
    const FleetSim fleet(makeInferenceChip(), cfg);
    const FleetResult result = fleet.run();
    const FleetLedger ledger = buildFleetLedger(cfg, result);
    const int64_t detect = result.status[1].detect_ns;
    ASSERT_GT(detect, 0);
    // Every adopted request arrived (on the dead chip's clock) after
    // detection; the stranded remainder stays failed.
    for (const AdoptionMeta &a : result.adoptions) {
        EXPECT_EQ(a.origin_chip, 1u);
        const RequestRecord &origin =
            result.chips[1].requests[a.origin_id];
        EXPECT_GE(origin.arrival_ns, detect);
    }
    EXPECT_GT(ledger.failed, 0u);
    EXPECT_TRUE(ledger.closed());
}

TEST_F(ClusterTest, NoFailoverLeavesNoAdoptions)
{
    ClusterConfig cfg = smallFleet(3, FleetPolicy::NoFailover);
    cfg.failures.scripted = {{1, 80 * kMs, false}};
    const FleetResult result =
        FleetSim(makeInferenceChip(), cfg).run();
    EXPECT_TRUE(result.adoptions.empty());
    uint64_t failed = 0;
    for (const RequestRecord &r : result.chips[1].requests)
        if (r.failed)
            ++failed;
    EXPECT_EQ(failed, result.status[1].orphans);
}

TEST_F(ClusterTest, DegradedChipKeepsServingOnDegradedTable)
{
    ClusterConfig cfg = smallFleet(3);
    cfg.failures.degrade_dead_cores = 2;
    cfg.failures.scripted = {{0, 50 * kMs, true}};
    const FleetSim fleet(makeInferenceChip(), cfg);
    const FleetResult result = fleet.run();
    EXPECT_TRUE(result.status[0].degraded);
    EXPECT_FALSE(result.status[0].failed_stop);
    EXPECT_LT(result.status[0].detect_ns, 0); // still heartbeating
    EXPECT_TRUE(result.adoptions.empty());
    const FleetLedger ledger = buildFleetLedger(cfg, result);
    EXPECT_TRUE(ledger.closed());
    EXPECT_EQ(ledger.failed, 0u);
    EXPECT_EQ(ledger.chips_degraded, 1u);
    EXPECT_EQ(ledger.live_fraction, 1.0);
}

TEST_F(ClusterTest, SeededFailurePlanIsDeterministic)
{
    ClusterConfig cfg = smallFleet(3);
    cfg.failures.rate = 0.7;
    cfg.failures.degraded_fraction = 0.4;
    const std::vector<PlannedFailure> a = buildFailurePlan(cfg);
    const std::vector<PlannedFailure> b = buildFailurePlan(cfg);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].chip, b[i].chip);
        EXPECT_EQ(a[i].time_ns, b[i].time_ns);
        EXPECT_EQ(a[i].degrade, b[i].degrade);
        EXPECT_GT(a[i].time_ns, 0);
        EXPECT_LT(a[i].time_ns, cfg.serve.horizon_ns);
    }
    cfg.failures.seed ^= 0x5eedULL;
    const std::vector<PlannedFailure> c = buildFailurePlan(cfg);
    bool same = a.size() == c.size();
    for (size_t i = 0; same && i < a.size(); ++i)
        same = a[i].chip == c[i].chip && a[i].time_ns == c[i].time_ns;
    EXPECT_FALSE(same && !a.empty());
}

// ---------------------------------------------------------------------
// Retry budgets and the failure-strike window
// ---------------------------------------------------------------------

TEST_F(ClusterTest, RetryBudgetConvertsStormIntoAccountedSheds)
{
    // Two of four chips die 30 ms apart: every stranded request
    // retries onto the survivors at once. The per-target token bucket
    // must cap that storm, convert the excess into shed_budget (not
    // silent loss), and keep the global ledger closed.
    auto scenario = [](bool budget_on) {
        ClusterConfig cfg;
        cfg.num_chips = 4;
        cfg.policy = FleetPolicy::FailoverRestore;
        cfg.serve.horizon_ns = 400 * kMs;
        for (int ti = 0; ti < 8; ++ti) {
            TenantConfig t;
            t.name = "tenant" + std::to_string(ti);
            t.network = ti % 2 == 0 ? "resnet50" : "mobilenetv1";
            t.arrival_rps = 500.0;
            t.deadline_ns = 15 * kMs;
            cfg.serve.tenants.push_back(t);
        }
        cfg.serve.batcher.max_batch = 8;
        cfg.serve.batcher.max_wait_ns = 2 * kMs;
        cfg.failures.scripted = {{1, 120 * kMs, false},
                                 {2, 150 * kMs, false}};
        cfg.failover.budget.enabled = budget_on;
        cfg.failover.budget.tokens_per_s = 120.0;
        cfg.failover.budget.burst = 16.0;
        return cfg;
    };
    const ClusterConfig storm_cfg = scenario(false);
    const ClusterConfig budget_cfg = scenario(true);
    const FleetLedger storm = buildFleetLedger(
        storm_cfg, FleetSim(makeInferenceChip(), storm_cfg).run());
    const FleetLedger budget = buildFleetLedger(
        budget_cfg, FleetSim(makeInferenceChip(), budget_cfg).run());

    // Unbudgeted: a real storm, nothing denied.
    ASSERT_GT(storm.retries, 0u);
    EXPECT_EQ(storm.retries_denied, 0u);
    EXPECT_EQ(storm.shed_budget, 0u);
    EXPECT_TRUE(storm.closed());

    // Budgeted: strictly fewer deliveries, every denial accounted.
    EXPECT_LT(budget.retries, storm.retries);
    EXPECT_GT(budget.retries_denied, 0u);
    EXPECT_GT(budget.shed_budget, 0u);
    EXPECT_LE(budget.shed_budget, budget.retries_denied);
    EXPECT_TRUE(budget.closed());
    // The budget trades deliveries for sheds, never for write-offs.
    EXPECT_LE(budget.failed, storm.failed);
}

TEST_F(ClusterTest, StrikeWindowConfinesSeededFailurePlan)
{
    // Every seeded strike must land inside the middle [10%, 90%] of
    // the horizon, so detection and drain always have room. Enough
    // chips draw a strike that both edges of the window are reached.
    ClusterConfig cfg = smallFleet(200);
    cfg.failures.rate = 1.0;
    const std::vector<PlannedFailure> plan = buildFailurePlan(cfg);
    ASSERT_EQ(plan.size(), cfg.num_chips);
    const double horizon = double(cfg.serve.horizon_ns);
    for (const PlannedFailure &f : plan) {
        EXPECT_GE(f.time_ns, int64_t(0.1 * horizon));
        EXPECT_LE(f.time_ns, int64_t(0.9 * horizon));
    }
    // The plan is sorted by time: its first and last strikes sit near
    // the two edges of the window.
    EXPECT_LT(plan.front().time_ns, int64_t(0.15 * horizon));
    EXPECT_GT(plan.back().time_ns, int64_t(0.85 * horizon));
}

TEST_F(ClusterTest, RejectsBadRetryBudget)
{
    const auto reject = [](auto mutate) {
        ClusterConfig cfg = smallFleet(3);
        mutate(cfg);
        EXPECT_THROW(validateClusterConfig(cfg), Error);
    };
    reject([](ClusterConfig &c) {
        c.failover.budget.enabled = true;
        c.failover.budget.tokens_per_s = 0.0;
    });
    reject([](ClusterConfig &c) {
        c.failover.budget.enabled = true;
        c.failover.budget.tokens_per_s = -10.0;
    });
    reject([](ClusterConfig &c) {
        // A bucket that can never hold one token can never retry.
        c.failover.budget.enabled = true;
        c.failover.budget.burst = 0.5;
    });
    // Disabled budget knobs are inert: the same bad values pass.
    ClusterConfig cfg = smallFleet(3);
    cfg.failover.budget.enabled = false;
    cfg.failover.budget.tokens_per_s = 0.0;
    EXPECT_NO_THROW(validateClusterConfig(cfg));
}

// ---------------------------------------------------------------------
// Training failover
// ---------------------------------------------------------------------

TEST_F(ClusterTest, TrainingRestoreIsBitExact)
{
    const FleetResult reference =
        FleetSim(makeInferenceChip(), trainingFleet(false)).run();
    const FleetResult failed =
        FleetSim(makeInferenceChip(), trainingFleet(true)).run();

    EXPECT_FALSE(reference.training.home_failed);
    EXPECT_EQ(reference.training.steps_completed,
              reference.training.steps_target);
    ASSERT_FALSE(reference.training.final_checkpoint.empty());

    EXPECT_TRUE(failed.training.home_failed);
    EXPECT_TRUE(failed.training.restored);
    EXPECT_EQ(failed.training.steps_completed,
              failed.training.steps_target);
    // Home died at 100 ms; the step-50 tick shares that instant but
    // the failure event was scheduled first, so 49 steps completed.
    // The last replicated checkpoint was step 40: 9 steps replay.
    EXPECT_EQ(failed.training.steps_at_death, 49u);
    EXPECT_EQ(failed.training.restore_step, 40u);
    EXPECT_EQ(failed.training.lost_steps, 9u);
    EXPECT_GT(failed.training.checkpoints_replicated, 0u);
    // The acceptance bar: the restored trainer's final serialized
    // checkpoint is byte-identical to the unfailed reference.
    EXPECT_EQ(failed.training.final_checkpoint,
              reference.training.final_checkpoint);
}

TEST_F(ClusterTest, TrainingIsLostWithoutRestorePolicy)
{
    ClusterConfig cfg = trainingFleet(true);
    cfg.policy = FleetPolicy::DrainOnly;
    const FleetResult result =
        FleetSim(makeInferenceChip(), cfg).run();
    EXPECT_TRUE(result.training.home_failed);
    EXPECT_FALSE(result.training.restored);
    EXPECT_TRUE(result.training.final_checkpoint.empty());
    EXPECT_EQ(result.training.lost_steps,
              result.training.steps_at_death);
}

// ---------------------------------------------------------------------
// Schedule fuzz: bit-identity across thread counts under kills
// ---------------------------------------------------------------------

TEST_F(ClusterTest, KillSequenceFuzzIsBitIdenticalAcrossThreads)
{
    // Three scripted kill/degrade sequences plus a seeded plan, all
    // with the training tenant live — the full protocol surface.
    std::vector<ClusterConfig> cfgs;
    {
        ClusterConfig cfg = trainingFleet(true);
        cfg.failures.scripted.push_back({1, 140 * kMs, true});
        cfg.failures.degrade_dead_cores = 2;
        cfgs.push_back(cfg);
    }
    {
        // Chained deaths: the first failover target dies too.
        ClusterConfig cfg = smallFleet(4);
        cfg.failures.scripted = {{1, 60 * kMs, false},
                                 {2, 100 * kMs, false}};
        cfgs.push_back(cfg);
    }
    {
        ClusterConfig cfg = smallFleet(3, FleetPolicy::DrainOnly);
        cfg.failures.rate = 0.8;
        cfg.failures.degraded_fraction = 0.5;
        cfg.failures.degrade_dead_cores = 1;
        cfgs.push_back(cfg);
    }

    std::vector<std::unique_ptr<FleetSim>> sims;
    std::vector<const FleetSim *> ptrs;
    for (const ClusterConfig &cfg : cfgs) {
        sims.push_back(
            std::make_unique<FleetSim>(makeInferenceChip(), cfg));
        ptrs.push_back(sims.back().get());
    }

    std::vector<uint64_t> baseline;
    for (size_t threads : {1u, 2u, 4u, 8u}) {
        ThreadPool::setDefaultThreads(threads);
        const std::vector<FleetResult> results = runFleetBatch(ptrs);
        ASSERT_EQ(results.size(), cfgs.size());
        std::vector<uint64_t> digests;
        for (size_t i = 0; i < results.size(); ++i) {
            digests.push_back(fleetDigest(results[i]));
            EXPECT_TRUE(
                buildFleetLedger(cfgs[i], results[i]).closed())
                << "scenario " << i << " at " << threads
                << " threads";
        }
        if (baseline.empty())
            baseline = digests;
        else
            EXPECT_EQ(digests, baseline)
                << "diverged at " << threads << " threads";
    }
}

// ---------------------------------------------------------------------
// Config validation negative paths
// ---------------------------------------------------------------------

TEST_F(ClusterTest, RejectsInfeasibleHeartbeatWindow)
{
    // The worst-case fabric delay grows with the ring: at 1,979 chips
    // one heartbeat period (5 ms) plus 100 us + 990 hops x 10 us fills
    // the 3-period window, so a live chip could be declared dead.
    ClusterConfig cfg = smallFleet(1979);
    try {
        validateClusterConfig(cfg);
        FAIL() << "infeasible heartbeat window accepted";
    } catch (const Error &e) {
        EXPECT_EQ(e.code(), ErrorCode::InvalidConfig);
    }
    cfg.num_chips = 1978; // 989 hops: the largest feasible fleet
    EXPECT_NO_THROW(validateClusterConfig(cfg));
}

TEST_F(ClusterTest, FabricDelayIsRingShortestPath)
{
    // The fleet's closed-form hop count must agree with the
    // interconnect ring's own shortest-direction routing for every
    // pair of nodes (chips at 0..n-1, router at n).
    constexpr int64_t kBaseNs = 100'000, kPerHopNs = 10'000;
    for (size_t n = 1; n <= 64; ++n) {
        RingConfig geometry;
        geometry.num_nodes = unsigned(n) + 1;
        const RingNetwork ring(geometry);
        int64_t worst = 0;
        for (unsigned a = 0; a <= n; ++a) {
            for (unsigned b = 0; b <= n; ++b) {
                if (a == b)
                    continue;
                const RingDir dir = ring.chooseDirection(a, {b});
                const int64_t want =
                    kBaseNs +
                    int64_t(ring.hopDistance(a, b, dir)) * kPerHopNs;
                const int64_t got = fabricDelayNs(n, a, b);
                ASSERT_EQ(got, want)
                    << n << " chips, " << a << " -> " << b;
                worst = std::max(worst, got);
            }
        }
        EXPECT_EQ(maxFabricDelayNs(n), worst) << n << " chips";
    }
}

TEST_F(ClusterTest, RejectsBadKnobs)
{
    {
        ClusterConfig cfg = smallFleet(3);
        cfg.num_chips = 0;
        EXPECT_THROW(validateClusterConfig(cfg), Error);
    }
    {
        ClusterConfig cfg = smallFleet(3);
        cfg.failures.rate = 1.5;
        EXPECT_THROW(validateClusterConfig(cfg), Error);
    }
    // Chip counts the fleet ring cannot hold: SIZE_MAX wraps the hop
    // count to 0, and 2^63 + 1 overflows the worst-case fabric delay.
    for (size_t n : {SIZE_MAX, (size_t(1) << 63) + 1}) {
        ClusterConfig cfg = smallFleet(3);
        cfg.num_chips = n;
        try {
            validateClusterConfig(cfg);
            ADD_FAILURE() << n << " chips accepted";
        } catch (const Error &e) {
            EXPECT_EQ(e.code(), ErrorCode::InvalidConfig) << n;
        }
    }
}

TEST_F(ClusterTest, RejectsBadScriptedFailures)
{
    {
        ClusterConfig cfg = smallFleet(3);
        cfg.failures.scripted = {{3, 50 * kMs, false}}; // out of range
        EXPECT_THROW(validateClusterConfig(cfg), Error);
    }
    {
        ClusterConfig cfg = smallFleet(3);
        cfg.failures.scripted = {
            {1, cfg.serve.horizon_ns, false}}; // at/after horizon
        EXPECT_THROW(validateClusterConfig(cfg), Error);
    }
    {
        ClusterConfig cfg = smallFleet(3);
        cfg.failures.scripted = {{1, 50 * kMs, false},
                                 {1, 90 * kMs, true}}; // duplicate
        EXPECT_THROW(validateClusterConfig(cfg), Error);
    }
}

TEST_F(ClusterTest, RejectsBadTrainingPlacement)
{
    {
        ClusterConfig cfg = trainingFleet(false);
        cfg.training.replica_chip = cfg.training.home_chip;
        EXPECT_THROW(validateClusterConfig(cfg), Error);
    }
    {
        ClusterConfig cfg = trainingFleet(false);
        cfg.training.replica_chip = cfg.num_chips;
        EXPECT_THROW(validateClusterConfig(cfg), Error);
    }
    {
        ClusterConfig cfg = trainingFleet(false);
        cfg.num_chips = 1;
        EXPECT_THROW(validateClusterConfig(cfg), Error);
    }
    {
        ClusterConfig cfg = trainingFleet(false);
        cfg.training.step_ns = 0;
        EXPECT_THROW(validateClusterConfig(cfg), Error);
    }
}

TEST_F(ClusterTest, RejectsDegradeMaskKillingEveryCore)
{
    // Counts at and past the mask width must fail as config errors
    // too, not as an oversized shift.
    for (unsigned dead : {makeInferenceChip().cores, 64u, UINT_MAX}) {
        ClusterConfig cfg = smallFleet(3);
        cfg.failures.degrade_dead_cores = dead;
        try {
            FleetSim fleet(makeInferenceChip(), cfg);
            ADD_FAILURE() << "degraded chip with " << dead
                   << " dead cores accepted";
        } catch (const Error &e) {
            EXPECT_EQ(e.code(), ErrorCode::InvalidConfig) << dead;
        }
    }
}

} // namespace
