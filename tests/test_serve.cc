/**
 * @file
 * Serving-simulator invariants: deterministic workload generation,
 * virtual-clock monotonicity, thread-count bit-identity, the
 * dynamic-batcher max-wait contract, the SLA router's feasibility
 * bound, closed shed accounting, and the degraded-chip /
 * precision-ladder goodput ordering the bench demonstrates.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>

#include "common/des.hh"
#include "common/error.hh"
#include "common/parallel.hh"
#include "common/random.hh"
#include "serve/metrics.hh"
#include "serve/queue_delay.hh"
#include "serve/serve_domain.hh"
#include "serve/server_sim.hh"
#include "serve/workload.hh"

using namespace rapid;

namespace {

constexpr int64_t kMs = 1'000'000;

ServeConfig
singleTenantConfig(double rps, int64_t deadline_ns = 10 * kMs)
{
    ServeConfig cfg;
    TenantConfig t;
    t.name = "web";
    t.network = "resnet50";
    t.arrival_rps = rps;
    t.deadline_ns = deadline_ns;
    cfg.tenants.push_back(t);
    return cfg;
}

class ServeTest : public ::testing::Test
{
  protected:
    void TearDown() override { ThreadPool::setDefaultThreads(0); }
};

// ---------------------------------------------------------------------
// Reference scheduler: the original serial loop, kept verbatim as the
// executable specification of the overload-off serving semantics.
// ServeSim::run() and runServeBatch() must match it field for field.
// ---------------------------------------------------------------------

constexpr int64_t kNever = std::numeric_limits<int64_t>::max();

/** One dynamic-batching queue: requests of one (network, precision). */
struct Queue
{
    size_t network = 0;
    Precision precision = Precision::INT4;
    std::vector<uint64_t> pending; ///< request ids, FIFO
    size_t head = 0;               ///< index of the oldest pending id

    size_t depth() const { return pending.size() - head; }
    bool empty() const { return head == pending.size(); }
};

ServeResult
runReference(const ServeSim &sim)
{
    // The reference loop is the executable specification of the
    // overload-off semantics; the overload features (calibrated tier,
    // breakers, brownout) exist only in the event-driven engine.
    const ServeConfig &cfg = sim.config();
    const LatencyTable &table = sim.table();
    const std::vector<size_t> &tenant_network = sim.tenantNetwork();
    const size_t num_networks = sim.networkNames().size();
    RAPID_CHECK_ARG(!cfg.overload.anyEnabled(),
                    "runReference models the overload-off scheduler "
                    "only; disable cfg.overload to compare");
    const std::vector<Arrival> arrivals = generateArrivals(cfg);
    const int64_t max_batch = cfg.batcher.max_batch;
    const int64_t max_wait = cfg.batcher.max_wait_ns;

    ServeResult result;
    result.horizon_ns = cfg.horizon_ns;
    result.requests.resize(arrivals.size());

    // Queue per (network, ladder position): created eagerly in a
    // deterministic order so queue ids are stable across runs.
    std::vector<Queue> queues;
    std::vector<std::vector<int>> queue_of(num_networks);
    for (size_t n = 0; n < num_networks; ++n) {
        queue_of[n].assign(cfg.ladder.size(), -1);
        for (size_t li = 0; li < cfg.ladder.size(); ++li) {
            Queue q;
            q.network = n;
            q.precision = cfg.ladder[li];
            queue_of[n][li] = int(queues.size());
            queues.push_back(q);
        }
    }

    int64_t now = 0;
    int64_t busy_until = -1; ///< executor busy while now < busy_until
    size_t next_arrival = 0;
    int64_t total_depth = 0; ///< requests queued across all queues
    int64_t last_event_ns = 0;

    auto noteDepthChange = [&](int64_t t, int64_t delta) {
        result.queue_depth_integral +=
            double(total_depth) * double(t - last_event_ns);
        last_event_ns = t;
        total_depth += delta;
        result.max_queue_depth =
            std::max(result.max_queue_depth, total_depth);
    };

    // Worst-case service time of one queue holding @p extra more
    // requests than it does now: every planned batch charged at the
    // max-batch latency (monotone in size, so an upper bound).
    auto queueServiceNs = [&](const Queue &q, int64_t extra) {
        const int64_t depth = int64_t(q.depth()) + extra;
        if (depth <= 0)
            return int64_t{0};
        const int64_t batches = (depth + max_batch - 1) / max_batch;
        return batches *
               table.latencyNs(q.network, q.precision, max_batch);
    };

    // Conservative chip backlog as seen by a request joining queue
    // @p exclude: remaining executor time plus the worst-case service
    // of every other queue (the joined queue is charged separately,
    // with the request included, so nothing is double-counted).
    auto backlogNs = [&](int64_t t, size_t exclude) {
        int64_t backlog = busy_until > t ? busy_until - t : 0;
        for (size_t qi = 0; qi < queues.size(); ++qi)
            if (qi != exclude)
                backlog += queueServiceNs(queues[qi], 0);
        return backlog;
    };

    auto admit = [&](const Arrival &a) {
        const TenantConfig &tenant = cfg.tenants[a.tenant];
        const size_t net = tenant_network[a.tenant];
        RequestRecord &rec = result.requests[a.id];
        rec.id = a.id;
        rec.tenant = a.tenant;
        rec.arrival_ns = a.time_ns;

        const int floor = servingQuality(tenant.min_precision);
        for (size_t li = 0; li < cfg.ladder.size(); ++li) {
            const Precision p = cfg.ladder[li];
            if (servingQuality(p) < floor)
                continue;
            const size_t qi = size_t(queue_of[net][li]);
            // With a single queue this is a hard upper bound on the
            // request's latency: batches ahead of it run back to back
            // (a full queue is ready immediately), and the executor
            // idles at most once, for at most max_wait past the head's
            // arrival, before the request's own partial batch expires.
            const int64_t predicted =
                backlogNs(a.time_ns, qi) +
                queueServiceNs(queues[qi], +1) + max_wait;
            if (predicted <= tenant.deadline_ns) {
                rec.precision = p;
                rec.predicted_ns = predicted;
                rec.tier = AdmitTier::Bound;
                Queue &q = queues[qi];
                q.pending.push_back(a.id);
                noteDepthChange(a.time_ns, +1);
                return;
            }
        }
        rec.shed = true; // no ladder entry can meet the deadline
        rec.shed_reason = ShedReason::Admission;
    };

    // A queue is ready when full or its head has waited max_wait.
    auto readyQueue = [&](int64_t t) -> int {
        int best = -1;
        int64_t best_head = kNever;
        for (size_t qi = 0; qi < queues.size(); ++qi) {
            const Queue &q = queues[qi];
            if (q.empty())
                continue;
            const int64_t head_arrival =
                result.requests[q.pending[q.head]].arrival_ns;
            const bool full = int64_t(q.depth()) >= max_batch;
            const bool expired = t - head_arrival >= max_wait;
            const bool drained = next_arrival >= arrivals.size();
            if ((full || expired || drained) && head_arrival < best_head) {
                best = int(qi);
                best_head = head_arrival;
            }
        }
        return best;
    };

    auto nextTimeout = [&](int64_t t) {
        int64_t soonest = kNever;
        for (const Queue &q : queues) {
            if (q.empty())
                continue;
            const int64_t head_arrival =
                result.requests[q.pending[q.head]].arrival_ns;
            soonest = std::min(soonest, head_arrival + max_wait);
        }
        return soonest < t ? t : soonest;
    };

    auto launch = [&](int qi, int64_t t) {
        Queue &q = queues[size_t(qi)];
        const int64_t size =
            std::min<int64_t>(int64_t(q.depth()), max_batch);
        BatchRecord batch;
        batch.network = q.network;
        batch.precision = q.precision;
        batch.size = size;
        batch.launch_ns = t;
        batch.completion_ns =
            t + table.latencyNs(q.network, q.precision, size);
        batch.energy_j = table.energyJ(q.network, q.precision, size);
        batch.forced_by_timeout =
            size < max_batch && next_arrival < arrivals.size();
        for (int64_t i = 0; i < size; ++i) {
            RequestRecord &rec =
                result.requests[q.pending[q.head + size_t(i)]];
            rec.launch_ns = t;
            rec.completion_ns = batch.completion_ns;
        }
        q.head += size_t(size);
        if (q.empty()) {
            q.pending.clear();
            q.head = 0;
        }
        noteDepthChange(t, -size);
        busy_until = batch.completion_ns;
        result.batches.push_back(batch);
    };

    while (true) {
        // Admit every arrival at the current instant (merged order).
        while (next_arrival < arrivals.size() &&
               arrivals[next_arrival].time_ns <= now)
            admit(arrivals[next_arrival++]);

        if (now < busy_until) {
            // Executor busy: advance to its completion or the next
            // arrival, whichever the virtual clock reaches first.
            int64_t next = busy_until;
            if (next_arrival < arrivals.size())
                next = std::min(next,
                                arrivals[next_arrival].time_ns);
            now = next;
            continue;
        }

        const int ready = readyQueue(now);
        if (ready >= 0) {
            launch(ready, now);
            continue;
        }

        // Nothing ready: advance to the next arrival or head timeout.
        int64_t next = kNever;
        if (next_arrival < arrivals.size())
            next = arrivals[next_arrival].time_ns;
        next = std::min(next, nextTimeout(now));
        if (next == kNever)
            break; // drained: no arrivals left, all queues empty
        now = next;
    }

    result.end_ns = std::max(busy_until, now);
    noteDepthChange(result.end_ns, 0); // close the depth integral
    return result;
}

// ---------------------------------------------------------------------
// Workload generation
// ---------------------------------------------------------------------

TEST_F(ServeTest, ArrivalsAreDeterministic)
{
    const ServeConfig cfg = singleTenantConfig(2000.0);
    const std::vector<Arrival> a = generateArrivals(cfg);
    const std::vector<Arrival> b = generateArrivals(cfg);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].time_ns, b[i].time_ns);
        EXPECT_EQ(a[i].tenant, b[i].tenant);
        EXPECT_EQ(a[i].id, b[i].id);
    }
}

TEST_F(ServeTest, ArrivalsSortedWithDenseIds)
{
    ServeConfig cfg = singleTenantConfig(1500.0);
    TenantConfig bg = cfg.tenants[0];
    bg.name = "bg";
    bg.pattern = ArrivalPattern::Bursty;
    cfg.tenants.push_back(bg);
    const std::vector<Arrival> trace = generateArrivals(cfg);
    ASSERT_FALSE(trace.empty());
    for (size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(trace[i].id, i); // dense, in merged order
        EXPECT_GE(trace[i].time_ns, 0);
        EXPECT_LT(trace[i].time_ns, cfg.horizon_ns);
        if (i > 0) {
            EXPECT_GE(trace[i].time_ns, trace[i - 1].time_ns);
        }
    }
}

TEST_F(ServeTest, TenantStreamsAreIndependent)
{
    // A tenant's arrival times depend only on its own index and the
    // root seed, not on who else shares the trace.
    const ServeConfig solo = singleTenantConfig(1000.0);
    const std::vector<int64_t> alone = tenantArrivalTimes(
        solo.tenants[0], 0, solo.horizon_ns, solo.seed);

    ServeConfig crowded = singleTenantConfig(1000.0);
    TenantConfig other = crowded.tenants[0];
    other.name = "other";
    other.arrival_rps = 4000.0;
    crowded.tenants.push_back(other);
    const std::vector<int64_t> with_other = tenantArrivalTimes(
        crowded.tenants[0], 0, crowded.horizon_ns, crowded.seed);

    EXPECT_EQ(alone, with_other);
}

TEST_F(ServeTest, OfferedLoadMatchesConfiguredRate)
{
    // Over a 1 s horizon the realized count should be within a few
    // sigma of rate * horizon for both arrival patterns.
    for (ArrivalPattern p :
         {ArrivalPattern::Poisson, ArrivalPattern::Bursty}) {
        ServeConfig cfg = singleTenantConfig(2000.0);
        cfg.tenants[0].pattern = p;
        const double n = double(
            tenantArrivalTimes(cfg.tenants[0], 0, cfg.horizon_ns,
                               cfg.seed).size());
        EXPECT_NEAR(n, 2000.0, 6.0 * std::sqrt(8.0 * 2000.0))
            << int(p);
    }
}

TEST_F(ServeTest, BurstyPatternCoalescesArrivals)
{
    ServeConfig cfg = singleTenantConfig(2000.0);
    cfg.tenants[0].pattern = ArrivalPattern::Bursty;
    cfg.tenants[0].burst_mean = 8.0;
    const std::vector<int64_t> times = tenantArrivalTimes(
        cfg.tenants[0], 0, cfg.horizon_ns, cfg.seed);
    ASSERT_GT(times.size(), 100u);
    size_t coincident = 0;
    for (size_t i = 1; i < times.size(); ++i)
        if (times[i] == times[i - 1])
            ++coincident;
    // Mean burst size 8 => the large majority of arrivals share
    // their epoch timestamp with a neighbour.
    EXPECT_GT(double(coincident), 0.5 * double(times.size()));
}

// ---------------------------------------------------------------------
// Virtual clock and executor
// ---------------------------------------------------------------------

TEST_F(ServeTest, VirtualClockIsMonotonic)
{
    const ServeConfig cfg = singleTenantConfig(2500.0);
    const ServeSim sim(makeInferenceChip(), cfg);
    const ServeResult r = sim.run();
    ASSERT_FALSE(r.batches.empty());
    int64_t prev_launch = 0;
    int64_t prev_completion = 0;
    for (const BatchRecord &b : r.batches) {
        EXPECT_GE(b.launch_ns, prev_launch);
        // One serialized executor: a batch starts only after the
        // previous one completes.
        EXPECT_GE(b.launch_ns, prev_completion);
        EXPECT_GT(b.completion_ns, b.launch_ns);
        EXPECT_GE(b.size, 1);
        EXPECT_LE(b.size, cfg.batcher.max_batch);
        prev_launch = b.launch_ns;
        prev_completion = b.completion_ns;
    }
    for (const RequestRecord &rec : r.requests) {
        if (rec.shed)
            continue;
        EXPECT_GE(rec.launch_ns, rec.arrival_ns);
        EXPECT_GT(rec.completion_ns, rec.launch_ns);
    }
    EXPECT_GE(r.end_ns, r.batches.back().completion_ns);
}

TEST_F(ServeTest, BitIdenticalAcrossThreadCounts)
{
    const ServeConfig cfg = singleTenantConfig(2000.0);

    ThreadPool::setDefaultThreads(1);
    const ServeResult serial = ServeSim(makeInferenceChip(), cfg).run();

    ThreadPool::setDefaultThreads(8);
    const ServeResult wide = ServeSim(makeInferenceChip(), cfg).run();

    ASSERT_EQ(serial.requests.size(), wide.requests.size());
    for (size_t i = 0; i < serial.requests.size(); ++i) {
        EXPECT_EQ(serial.requests[i].launch_ns,
                  wide.requests[i].launch_ns);
        EXPECT_EQ(serial.requests[i].completion_ns,
                  wide.requests[i].completion_ns);
        EXPECT_EQ(serial.requests[i].shed, wide.requests[i].shed);
        EXPECT_EQ(serial.requests[i].precision,
                  wide.requests[i].precision);
    }
    const ServeMetrics ms = computeMetrics(cfg, serial);
    const ServeMetrics mw = computeMetrics(cfg, wide);
    EXPECT_EQ(serveReport(ms), serveReport(mw)); // stable text too
}

TEST_F(ServeTest, TimeoutForcedBatchesRespectMaxWait)
{
    // Low load: batches go out on head timeouts. Every timeout-forced
    // batch must have held its head for exactly >= max_wait, and no
    // head may sit unlaunched longer than max_wait plus one max-batch
    // execution (the executor-busy carryover bound).
    const ServeConfig cfg = singleTenantConfig(200.0);
    const ServeSim sim(makeInferenceChip(), cfg);
    const ServeResult r = sim.run();

    std::map<int64_t, int64_t> head_arrival; // launch -> oldest arrival
    for (const RequestRecord &rec : r.requests) {
        if (rec.shed)
            continue;
        auto [it, fresh] =
            head_arrival.emplace(rec.launch_ns, rec.arrival_ns);
        if (!fresh)
            it->second = std::min(it->second, rec.arrival_ns);
    }
    const int64_t max_exec = sim.table().latencyNs(
        0, cfg.ladder.back(), cfg.batcher.max_batch);
    ASSERT_FALSE(r.batches.empty());
    size_t forced = 0;
    for (const BatchRecord &b : r.batches) {
        const int64_t head = head_arrival.at(b.launch_ns);
        if (b.forced_by_timeout) {
            ++forced;
            EXPECT_GE(b.launch_ns - head, cfg.batcher.max_wait_ns);
        }
        EXPECT_LE(b.launch_ns - head,
                  cfg.batcher.max_wait_ns + max_exec);
    }
    EXPECT_GT(forced, 0u); // 200 req/s cannot fill batches of 8
}

// ---------------------------------------------------------------------
// SLA router
// ---------------------------------------------------------------------

TEST_F(ServeTest, RouterBoundIsHardForSingleQueue)
{
    // Single tenant, single-precision ladder: the admission-time
    // prediction is a hard upper bound, so an admitted request can
    // never miss a deadline the router judged feasible.
    for (double rps : {500.0, 2000.0, 3500.0}) {
        ServeConfig cfg = singleTenantConfig(rps);
        cfg.ladder = {Precision::INT4};
        const ServeResult r =
            ServeSim(makeInferenceChip(), cfg).run();
        for (const RequestRecord &rec : r.requests) {
            if (rec.shed)
                continue;
            ASSERT_GE(rec.predicted_ns, 0);
            EXPECT_LE(rec.latencyNs(), rec.predicted_ns);
            EXPECT_LE(rec.predicted_ns,
                      cfg.tenants[0].deadline_ns);
        }
        const ServeMetrics m = computeMetrics(cfg, r);
        EXPECT_EQ(m.total.violations, 0u) << "rps " << rps;
    }
}

TEST_F(ServeTest, RouterHonorsQualityFloor)
{
    ServeConfig cfg = singleTenantConfig(500.0, 60 * kMs);
    cfg.tenants[0].min_precision = Precision::HFP8;
    const ServeResult r = ServeSim(makeInferenceChip(), cfg).run();
    for (const RequestRecord &rec : r.requests) {
        if (!rec.shed) {
            EXPECT_GE(servingQuality(rec.precision),
                      servingQuality(Precision::HFP8));
        }
    }
    const ServeMetrics m = computeMetrics(cfg, r);
    EXPECT_EQ(m.total.served_int4, 0u);
    EXPECT_GT(m.total.served_hfp8, 0u);
}

TEST_F(ServeTest, ShedAccountingIsClosed)
{
    // Overload on purpose: sheds must happen and must balance.
    ServeConfig cfg = singleTenantConfig(5000.0);
    TenantConfig bg = cfg.tenants[0];
    bg.name = "bg";
    bg.network = "mobilenetv1";
    bg.arrival_rps = 2000.0;
    cfg.tenants.push_back(bg);
    const ServeResult r = ServeSim(makeInferenceChip(), cfg).run();
    const ServeMetrics m = computeMetrics(cfg, r);
    ASSERT_EQ(m.tenants.size(), 2u);
    uint64_t offered = 0;
    for (const TenantMetrics &tm : m.tenants) {
        EXPECT_TRUE(tm.accountingClosed())
            << tm.name << ": " << tm.offered << " != "
            << tm.completed << " + " << tm.shed;
        offered += tm.offered;
    }
    EXPECT_TRUE(m.total.accountingClosed());
    EXPECT_EQ(m.total.offered, offered);
    EXPECT_EQ(m.total.offered, r.requests.size());
    EXPECT_GT(m.total.shed, 0u);
}

TEST_F(ServeTest, LowPrecisionLadderMovesKneeRight)
{
    // At an offered load past the DLFloat16 saturation point, the
    // INT4-first ladder must deliver strictly more goodput.
    const double rps = 2000.0;
    ServeConfig int4 = singleTenantConfig(rps);
    ServeConfig fp16 = singleTenantConfig(rps);
    fp16.ladder = {Precision::FP16};
    const ChipConfig chip = makeInferenceChip();
    const ServeMetrics mi =
        computeMetrics(int4, ServeSim(chip, int4).run());
    const ServeMetrics mf =
        computeMetrics(fp16, ServeSim(chip, fp16).run());
    EXPECT_GT(mi.total.goodput_rps, 1.5 * mf.total.goodput_rps);
    EXPECT_LT(mi.total.shed, mf.total.shed);
}

TEST_F(ServeTest, DeadCoresShiftSlaCliff)
{
    // Half the cores dead: the same scenario keeps closing requests
    // but the goodput knee moves left and sheds appear earlier.
    const double rps = 2500.0;
    const ServeConfig cfg = singleTenantConfig(rps);
    const ServeMetrics healthy = computeMetrics(
        cfg, ServeSim(makeInferenceChip(), cfg).run());
    const ServeMetrics degraded = computeMetrics(
        cfg, ServeSim(makeDegradedInferenceChip(2), cfg).run());
    EXPECT_GT(degraded.total.completed, 0u);
    EXPECT_LT(degraded.total.goodput_rps,
              0.8 * healthy.total.goodput_rps);
    EXPECT_GT(degraded.total.shed, healthy.total.shed);
}

TEST_F(ServeTest, FaultRetriesLengthenLatencyTable)
{
    ServeConfig cfg = singleTenantConfig(1000.0);
    const ChipConfig chip = makeInferenceChip();
    const ServeSim clean(chip, cfg);
    cfg.fault = FaultConfig::withRate(2e-7);
    cfg.fault.protectAll(parityProtection(64.0));
    const ServeSim faulty(chip, cfg);
    for (int64_t b : {1, 8})
        EXPECT_GT(faulty.table().latencyNs(0, Precision::INT4, b),
                  clean.table().latencyNs(0, Precision::INT4, b));
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

TEST_F(ServeTest, NearestRankPercentiles)
{
    std::vector<int64_t> sorted;
    for (int64_t i = 1; i <= 100; ++i)
        sorted.push_back(i * 10);
    EXPECT_EQ(latencyPercentile(sorted, 0.50), 500);
    EXPECT_EQ(latencyPercentile(sorted, 0.95), 950);
    EXPECT_EQ(latencyPercentile(sorted, 0.99), 990);
    EXPECT_EQ(latencyPercentile(sorted, 0.999), 1000);
    EXPECT_EQ(latencyPercentile(sorted, 0.0), 10);
    EXPECT_EQ(latencyPercentile({}, 0.5), 0);
}

TEST_F(ServeTest, EnergyAccountingMatchesBatches)
{
    const ServeConfig cfg = singleTenantConfig(1000.0);
    const ServeResult r = ServeSim(makeInferenceChip(), cfg).run();
    const ServeMetrics m = computeMetrics(cfg, r);
    double energy = 0;
    int64_t sized = 0;
    for (const BatchRecord &b : r.batches) {
        energy += b.energy_j;
        sized += b.size;
    }
    EXPECT_DOUBLE_EQ(m.energy_j, energy);
    EXPECT_EQ(m.batches, r.batches.size());
    EXPECT_DOUBLE_EQ(m.mean_batch_size,
                     double(sized) / double(r.batches.size()));
    EXPECT_GT(m.energy_per_request_mj, 0.0);
}

TEST_F(ServeTest, QueueDelayEstimatorWindowStatsAreExact)
{
    // A repeating 8-value cycle fills the 256-slot window with exactly
    // 32 copies of each value, so the window p95 is computable by
    // hand: nearest rank 244 -> 800.
    QueueDelayEstimator est(256);
    EXPECT_EQ(est.p95Ns(), 0);
    for (int rep = 0; rep < 100; ++rep)
        for (int64_t v = 100; v <= 800; v += 100)
            est.record(v);
    EXPECT_EQ(est.windowFill(), 256u);
    EXPECT_EQ(est.p95Ns(), 800);
    EXPECT_THROW(est.record(-1), Error);
    EXPECT_THROW(QueueDelayEstimator{0}, Error);
    EXPECT_THROW(QueueDelayEstimator{QueueDelayEstimator::kMaxWindow + 1},
                 Error);
    EXPECT_THROW(QueueDelayEstimator{std::numeric_limits<size_t>::max()},
                 Error);
}

TEST_F(ServeTest, QueueDelayEstimatorConvergesOnStationaryWorkload)
{
    // On a stationary stream the window p95 must settle near the
    // distribution's and stay there as the window slides; an old
    // transient must be fully evicted.
    QueueDelayEstimator est(256);
    for (int i = 0; i < 256; ++i)
        est.record(1'000'000); // transient burst before steady state
    Rng rng(77);
    for (int i = 0; i < 4096; ++i)
        est.record(rng.uniformInt(900, 1100));
    EXPECT_GE(est.p95Ns(), 1050);
    EXPECT_LE(est.p95Ns(), 1100);
}

TEST_F(ServeTest, QueueDelayEstimatorSingleSampleAndWrapAround)
{
    // One sample: the window p95 collapses to it (and zero waits are
    // legal observations).
    QueueDelayEstimator one(4);
    one.record(0);
    EXPECT_EQ(one.windowFill(), 1u);
    EXPECT_EQ(one.p95Ns(), 0);
    one.record(500);
    EXPECT_EQ(one.p95Ns(), 500);

    // Ring wrap-around: the fifth record into a window of four must
    // evict exactly the oldest observation, not the newest.
    QueueDelayEstimator est(4);
    for (int64_t v : {10, 20, 30, 40})
        est.record(v);
    EXPECT_EQ(est.windowFill(), 4u);
    EXPECT_EQ(est.p95Ns(), 40);
    est.record(5); // window now {20, 30, 40, 5}
    EXPECT_EQ(est.windowFill(), 4u);
    EXPECT_EQ(est.p95Ns(), 40);
    est.record(6); // window now {30, 40, 5, 6}: evicts 20, not 5
    EXPECT_EQ(est.p95Ns(), 40);
    est.record(7); // window now {40, 5, 6, 7}
    EXPECT_EQ(est.p95Ns(), 40);
    est.record(8); // window now {5, 6, 7, 8}: the 40 is gone
    EXPECT_EQ(est.p95Ns(), 8);
}

TEST_F(ServeTest, QueueDelayEstimatorPercentileIsOrderInvariant)
{
    // The window p95 is a property of the multiset, not of insertion
    // order: ascending, descending, and interleaved feeds of the same
    // 100 values must agree (nearest rank 95 -> 950).
    QueueDelayEstimator asc(128), desc(128), mixed(128);
    for (int64_t v = 1; v <= 100; ++v)
        asc.record(v * 10);
    for (int64_t v = 100; v >= 1; --v)
        desc.record(v * 10);
    for (int64_t v = 1; v <= 50; ++v) {
        mixed.record(v * 10);
        mixed.record((101 - v) * 10);
    }
    EXPECT_EQ(asc.p95Ns(), 950);
    EXPECT_EQ(desc.p95Ns(), asc.p95Ns());
    EXPECT_EQ(mixed.p95Ns(), asc.p95Ns());
}

// The copy-and-sort window p95 the estimator computed before it kept a
// sorted mirror: the oracle for p95Ns().
int64_t
referenceP95(const std::vector<int64_t> &ring, size_t fill)
{
    std::vector<int64_t> sorted(ring.begin(), ring.begin() + long(fill));
    std::sort(sorted.begin(), sorted.end());
    return latencyPercentile(sorted, 0.95);
}

TEST_F(ServeTest, QueueDelayEstimatorMatchesCopyAndSortOracle)
{
    // Seeded record streams over at least 10 wraps of each window,
    // checked after every record against a plain ring buffer. Phases
    // mix zero waits, heavy duplicates and a wide range so that
    // evictions hit runs of equal values from both sides.
    for (size_t w : {1, 2, 3, 255, 256, 512}) {
        QueueDelayEstimator est(w);
        std::vector<int64_t> ring(w, 0);
        size_t next = 0, fill = 0;
        Rng rng(1000 + w);
        const size_t steps = 12 * w + 7;
        for (size_t step = 0; step < steps; ++step) {
            int64_t v = 0;
            switch ((step / (w + 3)) % 4) {
              case 0: v = rng.uniformInt(0, 2) == 0 ? 0 : 500; break;
              case 1: v = 100 * rng.uniformInt(0, 3); break;
              case 2: v = rng.uniformInt(0, 1'000'000); break;
              default: v = rng.uniformInt(0, 1) * rng.uniformInt(0, 40);
            }
            est.record(v);
            ring[next] = v;
            next = (next + 1) % w;
            fill = std::min(fill + 1, w);
            ASSERT_EQ(est.windowFill(), fill) << "w " << w << " step "
                                              << step;
            ASSERT_EQ(est.p95Ns(), referenceP95(ring, fill))
                << "w " << w << " step " << step;
        }
    }
}

// Sort, then summarize: the summary before selection replaced sorting,
// and the oracle for summarizeLatencies().
LatencyStats
referenceSummary(std::vector<int64_t> v)
{
    std::sort(v.begin(), v.end());
    LatencyStats s;
    s.count = v.size();
    if (v.empty())
        return s;
    s.p50 = latencyPercentile(v, 0.50);
    s.p95 = latencyPercentile(v, 0.95);
    s.p99 = latencyPercentile(v, 0.99);
    s.p999 = latencyPercentile(v, 0.999);
    s.max = v.back();
    double sum = 0;
    for (int64_t x : v)
        sum += double(x);
    s.mean = sum / double(v.size());
    return s;
}

uint64_t
doubleBits(double d)
{
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof bits);
    return bits;
}

void
expectSummaryMatchesOracle(const std::vector<int64_t> &v,
                           const std::string &what)
{
    const LatencyStats got = summarizeLatencies(v);
    const LatencyStats want = referenceSummary(v);
    EXPECT_EQ(got.count, want.count) << what;
    EXPECT_EQ(got.p50, want.p50) << what;
    EXPECT_EQ(got.p95, want.p95) << what;
    EXPECT_EQ(got.p99, want.p99) << what;
    EXPECT_EQ(got.p999, want.p999) << what;
    EXPECT_EQ(got.max, want.max) << what;
    EXPECT_EQ(doubleBits(got.mean), doubleBits(want.mean)) << what;
}

TEST_F(ServeTest, SummarizeLatenciesMatchesSortThenSummarize)
{
    const char *const fills[] = {"random", "equal", "ascending",
                                 "descending", "three"};
    const auto make = [](int fill, size_t n, Rng &rng) {
        std::vector<int64_t> v(n);
        for (size_t i = 0; i < n; ++i) {
            switch (fill) {
              case 0: v[i] = rng.uniformInt(0, 50'000'000); break;
              case 1: v[i] = 7'000; break;
              case 2: v[i] = int64_t(i) * 3; break;
              case 3: v[i] = int64_t(n - i) * 3; break;
              default: v[i] = 1000 * rng.uniformInt(1, 3);
            }
        }
        return v;
    };
    Rng rng(2024);
    std::vector<size_t> sizes;
    for (size_t n = 0; n <= 1100; ++n)
        sizes.push_back(n);
    sizes.push_back(2000); // q * n is an integer for every q here
    sizes.push_back(45'000);
    for (size_t n : sizes)
        for (int fill = 0; fill < 5; ++fill)
            expectSummaryMatchesOracle(
                make(fill, n, rng),
                std::string(fills[fill]) + " n=" + std::to_string(n));

    // Sum |v| >= 2^53: partial sums round, so the mean must fall back
    // to the sorted summation order to stay bit-equal.
    std::vector<int64_t> big;
    for (int i = 0; i < 1000; ++i)
        big.push_back(rng.uniformInt(int64_t(1) << 50, int64_t(1) << 52) |
                      1);
    double in_order = 0;
    for (int64_t x : big)
        in_order += double(x);
    ASSERT_NE(doubleBits(in_order / double(big.size())),
              doubleBits(referenceSummary(big).mean))
        << "this fill must make the summation order matter";
    expectSummaryMatchesOracle(big, "sum beyond 2^53");
}

TEST_F(ServeTest, ObservedQueueWaitsSitUnderProvenBound)
{
    // The bound-only router admits a request only when its proven
    // latency bound holds, so every admitted request's queue wait sits
    // under its own admission-time bound.
    const ServeConfig cfg = singleTenantConfig(1500.0);
    const ServeResult r = ServeSim(makeInferenceChip(), cfg).run();
    uint64_t admitted = 0;
    for (const RequestRecord &rec : r.requests) {
        if (rec.shed || rec.failed)
            continue;
        ++admitted;
        EXPECT_GE(rec.queueWaitNs(), 0) << "request " << rec.id;
        EXPECT_LE(rec.queueWaitNs(), rec.predicted_ns)
            << "request " << rec.id;
    }
    EXPECT_GT(admitted, 0u);
    EXPECT_EQ(admitted, computeMetrics(cfg, r).total.completed);
}

// ---------------------------------------------------------------------
// Overload control: calibrated tier, trust fuse, brownout, breaker
// ---------------------------------------------------------------------

/** Mini version of the bench's multi-tenant knee mix: the web load is
 *  split three ways on purpose so the proven bound's whole-chip
 *  backlog charge over-sheds while each queue's actual wait stays
 *  low. */
ServeConfig
overloadMixConfig(double scale, int64_t horizon_ns = 400 * kMs)
{
    ServeConfig cfg;
    for (const char *name : {"web-a", "web-b", "web-c"}) {
        TenantConfig web;
        web.name = name;
        web.network = "resnet50";
        web.arrival_rps = 800.0 * scale / 3.0;
        web.deadline_ns = 20 * kMs;
        web.priority = 2;
        cfg.tenants.push_back(web);
    }
    TenantConfig nlp;
    nlp.name = "nlp-premium";
    nlp.network = "bert";
    nlp.arrival_rps = 40.0 * scale;
    nlp.deadline_ns = 60 * kMs;
    nlp.min_precision = Precision::HFP8;
    nlp.priority = 2;
    cfg.tenants.push_back(nlp);
    TenantConfig bg;
    bg.name = "background";
    bg.network = "mobilenetv1";
    bg.arrival_rps = 1500.0 * scale;
    bg.pattern = ArrivalPattern::Bursty;
    bg.burst_mean = 16.0;
    bg.deadline_ns = 20 * kMs;
    bg.priority = 0;
    cfg.tenants.push_back(bg);
    cfg.batcher.max_batch = 8;
    cfg.batcher.max_wait_ns = 2 * kMs;
    cfg.horizon_ns = horizon_ns;
    return cfg;
}

TEST_F(ServeTest, CalibratedTierRecoversBoundOverShedAtTheKnee)
{
    // Past the knee the proven bound sheds requests whose observed
    // wait would have fit; the calibrated tier must recover at least
    // half of that over-shed without adding a single SLA violation,
    // and the per-tier ledger must close on both runs.
    const ServeConfig bound = overloadMixConfig(1.6);
    ServeConfig cal = overloadMixConfig(1.6);
    cal.overload.admission.enabled = true;
    cal.overload.admission.safety_margin = 1.25;
    cal.overload.admission.window = 512;

    const ChipConfig chip = makeInferenceChip();
    const ServeMetrics mb =
        computeMetrics(bound, ServeSim(chip, bound).run());
    const ServeMetrics mc = computeMetrics(cal, ServeSim(chip, cal).run());

    ASSERT_GT(mb.total.shed, 0u); // the pessimism is real
    EXPECT_LT(2 * mc.total.shed, mb.total.shed); // >= 50% recovered
    EXPECT_LE(mc.total.violations, mb.total.violations);
    EXPECT_GT(mc.total.admitted_calibrated, 0u);
    EXPECT_GT(mc.total.goodput_rps, mb.total.goodput_rps);

    // Bound-only run: every admit is a bound admit, ledger closed.
    EXPECT_EQ(mb.total.admitted_calibrated, 0u);
    for (const ServeMetrics *m : {&mb, &mc}) {
        EXPECT_TRUE(m->total.tierAccountingClosed());
        for (const TenantMetrics &tm : m->tenants)
            EXPECT_TRUE(tm.tierAccountingClosed()) << tm.name;
    }
}

TEST_F(ServeTest, PerQueueAdmitCountsMatchRequestTiers)
{
    // The router's per-queue admit counts are a second tier ledger,
    // kept as it admits; they must agree with the tiers the request
    // records carry. A breaker-only run keeps them too (every admit on
    // the bound); an overload-off run keeps none.
    ServeConfig cal = overloadMixConfig(1.6);
    cal.overload.admission.enabled = true;
    cal.overload.admission.safety_margin = 1.25;
    ServeConfig breaker = overloadMixConfig(1.6);
    breaker.overload.breaker.enabled = true;
    const ChipConfig chip = makeInferenceChip();
    for (const ServeConfig *cfg : {&cal, &breaker}) {
        const ServeResult r = ServeSim(chip, *cfg).run();
        uint64_t calibrated = 0, bound = 0;
        for (const QueueOverloadStats &q : r.queue_overload) {
            calibrated += q.admitted_calibrated;
            bound += q.admitted_bound;
        }
        const ServeMetrics m = computeMetrics(*cfg, r);
        EXPECT_EQ(calibrated, m.total.admitted_calibrated);
        EXPECT_EQ(bound, m.total.admitted_bound);
        EXPECT_GT(bound, 0u);
        EXPECT_EQ(calibrated > 0, cfg == &cal);
    }
    const ServeConfig off = overloadMixConfig(1.6);
    EXPECT_TRUE(ServeSim(chip, off).run().queue_overload.empty());
}

TEST_F(ServeTest, TrustFuseLatchesPollutedQueueBackToBound)
{
    // The fuse trap from the bench: a calm loose-deadline tenant
    // keeps the shared window full of small waits, a strict tenant
    // arrives in rare large bursts that blow through its deadline on
    // the stale p95. Without the fuse the trap re-arms every episode;
    // with it the first calibrated violation latches the queue back
    // to the proven bound.
    auto trap = [](bool fuse_on) {
        ServeConfig cfg;
        TenantConfig calm;
        calm.name = "calm";
        calm.network = "resnet50";
        calm.arrival_rps = 800.0;
        calm.deadline_ns = 100 * kMs;
        cfg.tenants.push_back(calm);
        TenantConfig spiky;
        spiky.name = "spiky";
        spiky.network = "resnet50";
        spiky.arrival_rps = 160.0;
        spiky.pattern = ArrivalPattern::Bursty;
        spiky.burst_mean = 64.0;
        spiky.deadline_ns = 8 * kMs;
        cfg.tenants.push_back(spiky);
        cfg.ladder = {Precision::INT4}; // one queue: one shared fuse
        cfg.batcher.max_batch = 8;
        cfg.batcher.max_wait_ns = 2 * kMs;
        cfg.overload.admission.enabled = true;
        cfg.overload.admission.min_samples = 32;
        cfg.overload.admission.window = 64;
        cfg.overload.admission.safety_margin = 1.2;
        cfg.overload.admission.fuse_enabled = fuse_on;
        return cfg;
    };
    const ServeConfig nofuse = trap(false);
    const ServeConfig fused = trap(true);
    const ChipConfig chip = makeInferenceChip();
    const ServeResult rn = ServeSim(chip, nofuse).run();
    const ServeResult rf = ServeSim(chip, fused).run();
    const ServeMetrics mn = computeMetrics(nofuse, rn);
    const ServeMetrics mf = computeMetrics(fused, rf);

    EXPECT_EQ(mn.fuse_trips, 0u); // disabled fuse never latches
    ASSERT_GE(mf.fuse_trips, 1u);
    EXPECT_LT(mf.total.violations, mn.total.violations);
    EXPECT_TRUE(mn.total.tierAccountingClosed());
    EXPECT_TRUE(mf.total.tierAccountingClosed());

    // The per-queue stats name the tripped queue and stamp the trip.
    bool tripped = false;
    for (const QueueOverloadStats &q : rf.queue_overload)
        if (q.fuse_tripped) {
            tripped = true;
            EXPECT_GE(q.fuse_trip_ns, 0);
        }
    EXPECT_TRUE(tripped);
}

TEST_F(ServeTest, BrownoutDegradesPrecisionBeforeSheddingByPriority)
{
    // Sustained 2x overload: the ladder must walk one level at a
    // time, spend its precision rungs first, and only then shed —
    // lowest priority class first, never the premium class.
    // The full 1 s horizon: sustained pressure needs time to dwell
    // through the escalation rungs.
    ServeConfig cfg = overloadMixConfig(2.0, 1000 * kMs);
    cfg.overload.brownout.enabled = true;
    cfg.overload.brownout.depth_high = 48;
    cfg.overload.brownout.depth_low = 8;
    cfg.overload.brownout.escalate_ns = 10 * kMs;
    cfg.overload.brownout.recover_ns = 40 * kMs;
    const ServeResult r = ServeSim(makeInferenceChip(), cfg).run();
    const ServeMetrics m = computeMetrics(cfg, r);

    EXPECT_GT(m.brownout_transitions, 0u);
    // With a 3-rung ladder, levels 1-2 cap precision and shedding
    // starts at level 3: any brownout shed proves the ladder walked
    // through every precision rung first.
    const int precision_rungs = int(cfg.ladder.size()) - 1;
    ASSERT_GT(m.brownout_max_level, precision_rungs);
    uint64_t background_shed = 0;
    for (const TenantMetrics &tm : m.tenants) {
        if (tm.name == "background") {
            background_shed = tm.shed_brownout;
        } else {
            // priority-2 tenants are never brownout-shed here: the
            // shedding rungs drop the lowest class first and the
            // ladder never reaches the top class.
            EXPECT_EQ(tm.shed_brownout, 0u) << tm.name;
        }
        EXPECT_TRUE(tm.tierAccountingClosed()) << tm.name;
    }
    EXPECT_GT(background_shed, 0u);

    // The transition trace is a walk: one level at a time, stamped in
    // non-decreasing virtual time.
    int prev_level = 0;
    int64_t prev_t = 0;
    for (const BrownoutTransition &tr : r.brownout_transitions) {
        EXPECT_EQ(std::abs(tr.level - prev_level), 1);
        EXPECT_GE(tr.time_ns, prev_t);
        prev_level = tr.level;
        prev_t = tr.time_ns;
    }
    EXPECT_EQ(m.brownout_transitions, r.brownout_transitions.size());
}

TEST_F(ServeTest, CircuitBreakerStateMachine)
{
    BreakerConfig bc;
    bc.enabled = true;
    bc.depth_open = 4;
    bc.violations_open = 2;
    bc.open_ns = 100;
    bc.probe_count = 2;
    CircuitBreaker br(bc);

    // Closed admits; depth at the threshold opens.
    EXPECT_EQ(br.state(), BreakerState::Closed);
    EXPECT_TRUE(br.allowAdmit(0));
    EXPECT_FALSE(br.onAdmit(0)); // not a probe while closed
    br.onDepth(10, 3);
    EXPECT_EQ(br.state(), BreakerState::Closed);
    br.onDepth(10, 4);
    EXPECT_EQ(br.state(), BreakerState::Open);
    EXPECT_EQ(br.opens(), 1u);

    // Open fast-fails until the cooldown elapses, then probes.
    EXPECT_FALSE(br.allowAdmit(50));
    EXPECT_TRUE(br.allowAdmit(110));
    EXPECT_EQ(br.state(), BreakerState::HalfOpen);
    EXPECT_TRUE(br.onAdmit(110)); // first probe
    EXPECT_TRUE(br.allowAdmit(111));
    EXPECT_TRUE(br.onAdmit(111)); // second probe
    EXPECT_FALSE(br.allowAdmit(112)); // probe quota spent
    br.onOutcome(120, false, true);
    EXPECT_EQ(br.state(), BreakerState::HalfOpen);
    br.onOutcome(121, false, true); // both probes in SLA -> re-close
    EXPECT_EQ(br.state(), BreakerState::Closed);
    EXPECT_EQ(br.closes(), 1u);

    // Consecutive closed-state violations open it again...
    br.onOutcome(130, true, false);
    br.onOutcome(131, false, false); // success resets the streak
    br.onOutcome(132, true, false);
    EXPECT_EQ(br.state(), BreakerState::Closed);
    br.onOutcome(133, true, false);
    EXPECT_EQ(br.state(), BreakerState::Open);
    EXPECT_EQ(br.opens(), 2u);

    // ...and a violating probe slams it back open with a fresh
    // cooldown instead of re-closing.
    EXPECT_TRUE(br.allowAdmit(233));
    EXPECT_TRUE(br.onAdmit(233));
    br.onOutcome(240, true, true);
    EXPECT_EQ(br.state(), BreakerState::Open);
    EXPECT_EQ(br.opens(), 3u);
    EXPECT_FALSE(br.allowAdmit(300)); // cooldown restarted at 240

    // Disabled breaker is transparent.
    CircuitBreaker off(BreakerConfig{});
    off.onDepth(0, 1'000'000);
    EXPECT_TRUE(off.allowAdmit(0));
    EXPECT_EQ(off.state(), BreakerState::Closed);
}

TEST_F(ServeTest, BreakerProtectsSteadyNeighborFromFlappingTenant)
{
    // A flapping bursty tenant piles its queue deep; the proven bound
    // charges that backlog to everyone, so the steady neighbor sheds
    // for congestion it did not cause. The breaker must make the
    // flapping tenant pay instead.
    auto scenario = [](bool breaker_on) {
        ServeConfig cfg;
        TenantConfig flap;
        flap.name = "flappy";
        flap.network = "resnet50";
        flap.arrival_rps = 2400.0;
        flap.pattern = ArrivalPattern::Bursty;
        flap.burst_mean = 64.0;
        flap.deadline_ns = 40 * kMs;
        cfg.tenants.push_back(flap);
        TenantConfig steady;
        steady.name = "steady";
        steady.network = "mobilenetv1";
        steady.arrival_rps = 600.0;
        steady.deadline_ns = 10 * kMs;
        cfg.tenants.push_back(steady);
        cfg.ladder = {Precision::INT4};
        cfg.batcher.max_batch = 8;
        cfg.batcher.max_wait_ns = 2 * kMs;
        cfg.overload.breaker.enabled = breaker_on;
        cfg.overload.breaker.depth_open = 32;
        cfg.overload.breaker.violations_open = 4;
        cfg.overload.breaker.open_ns = 30 * kMs;
        cfg.overload.breaker.probe_count = 4;
        return cfg;
    };
    const ServeConfig off = scenario(false);
    const ServeConfig on = scenario(true);
    const ChipConfig chip = makeInferenceChip();
    const ServeMetrics mo = computeMetrics(off, ServeSim(chip, off).run());
    const ServeMetrics mb = computeMetrics(on, ServeSim(chip, on).run());

    EXPECT_EQ(mo.breaker_opens, 0u);
    EXPECT_GT(mb.breaker_opens, 0u);
    EXPECT_GT(mb.breaker_closes, 0u); // probes re-closed it
    ASSERT_EQ(mo.tenants.size(), 2u);
    ASSERT_EQ(mb.tenants.size(), 2u);
    const TenantMetrics &steady_off = mo.tenants[1];
    const TenantMetrics &steady_on = mb.tenants[1];
    ASSERT_EQ(steady_on.name, "steady");
    ASSERT_GT(steady_off.shed, 0u); // the collateral damage is real
    EXPECT_LT(2 * steady_on.shed, steady_off.shed);
    EXPECT_GT(steady_on.goodput_rps, steady_off.goodput_rps);
    EXPECT_TRUE(mb.total.tierAccountingClosed());
}

TEST_F(ServeTest, OverloadRunIsBitIdenticalAcrossThreadCounts)
{
    // Every overload feature on at once must preserve the core
    // determinism contract: bit-identical requests, tiers, and shed
    // reasons at any thread count, including the rendered report.
    ServeConfig cfg = overloadMixConfig(1.8);
    cfg.overload.admission.enabled = true;
    cfg.overload.admission.safety_margin = 1.25;
    cfg.overload.breaker.enabled = true;
    cfg.overload.breaker.depth_open = 32;
    cfg.overload.brownout.enabled = true;
    cfg.overload.brownout.depth_high = 48;
    cfg.overload.brownout.depth_low = 8;
    cfg.overload.brownout.escalate_ns = 10 * kMs;

    ThreadPool::setDefaultThreads(1);
    const ServeResult serial = ServeSim(makeInferenceChip(), cfg).run();
    ThreadPool::setDefaultThreads(8);
    const ServeResult wide = ServeSim(makeInferenceChip(), cfg).run();

    ASSERT_EQ(serial.requests.size(), wide.requests.size());
    for (size_t i = 0; i < serial.requests.size(); ++i) {
        EXPECT_EQ(serial.requests[i].launch_ns,
                  wide.requests[i].launch_ns);
        EXPECT_EQ(serial.requests[i].completion_ns,
                  wide.requests[i].completion_ns);
        EXPECT_EQ(serial.requests[i].shed, wide.requests[i].shed);
        EXPECT_EQ(serial.requests[i].tier, wide.requests[i].tier);
        EXPECT_EQ(serial.requests[i].shed_reason,
                  wide.requests[i].shed_reason);
    }
    ASSERT_EQ(serial.brownout_transitions.size(),
              wide.brownout_transitions.size());
    for (size_t i = 0; i < serial.brownout_transitions.size(); ++i) {
        EXPECT_EQ(serial.brownout_transitions[i].time_ns,
                  wide.brownout_transitions[i].time_ns);
        EXPECT_EQ(serial.brownout_transitions[i].level,
                  wide.brownout_transitions[i].level);
    }
    const ServeMetrics ms = computeMetrics(cfg, serial);
    const ServeMetrics mw = computeMetrics(cfg, wide);
    EXPECT_EQ(serveReport(ms), serveReport(mw));
}

TEST_F(ServeTest, RunReferenceRejectsOverloadScenarios)
{
    // runReference is the executable spec of the *overload-off*
    // scheduler; silently ignoring overload knobs would fake an
    // equivalence the engine does not claim.
    ServeConfig cfg = singleTenantConfig(1000.0);
    cfg.overload.admission.enabled = true;
    const ServeSim sim(makeInferenceChip(), cfg);
    EXPECT_NO_THROW(sim.run());
    EXPECT_THROW(runReference(sim), Error);
}

TEST_F(ServeTest, RejectsBadOverloadKnobs)
{
    const auto reject = [](auto mutate) {
        ServeConfig cfg = singleTenantConfig(1000.0);
        mutate(cfg.overload);
        EXPECT_THROW(validateServeConfig(cfg), Error);
    };
    reject([](OverloadConfig &o) { o.admission.window = 0; });
    reject([](OverloadConfig &o) {
        o.admission.window = QueueDelayEstimator::kMaxWindow + 1;
    });
    reject([](OverloadConfig &o) {
        o.admission.window = std::numeric_limits<size_t>::max();
    });
    reject([](OverloadConfig &o) { o.admission.min_samples = 0; });
    reject([](OverloadConfig &o) {
        o.admission.min_samples = o.admission.window + 1;
    });
    reject([](OverloadConfig &o) { o.admission.safety_margin = 0.5; });
    reject([](OverloadConfig &o) { o.breaker.depth_open = 0; });
    reject([](OverloadConfig &o) { o.breaker.violations_open = 0; });
    reject([](OverloadConfig &o) { o.breaker.open_ns = 0; });
    reject([](OverloadConfig &o) { o.breaker.probe_count = 0; });
    reject([](OverloadConfig &o) { o.brownout.depth_low = -1; });
    reject([](OverloadConfig &o) {
        o.brownout.depth_high = o.brownout.depth_low;
    });
    reject([](OverloadConfig &o) { o.brownout.escalate_ns = 0; });
    reject([](OverloadConfig &o) { o.brownout.recover_ns = 0; });

    // An unbounded window would reach the estimator's allocation and
    // fail there with std::bad_alloc or std::length_error; the
    // simulator's config check must reject it first.
    ServeConfig cfg = singleTenantConfig(1000.0);
    cfg.overload.admission.enabled = true;
    cfg.overload.admission.window = std::numeric_limits<size_t>::max();
    try {
        ServeSim sim(makeInferenceChip(), cfg);
        ADD_FAILURE() << "an absurd window was accepted";
    } catch (const Error &e) {
        EXPECT_EQ(e.code(), ErrorCode::InvalidConfig);
    }
    cfg.overload.admission.window = QueueDelayEstimator::kMaxWindow;
    EXPECT_NO_THROW(validateServeConfig(cfg));
}

// ---------------------------------------------------------------------
// Config validation (negative paths)
// ---------------------------------------------------------------------

TEST_F(ServeTest, RejectsEmptyTenantList)
{
    ServeConfig cfg;
    EXPECT_THROW(validateServeConfig(cfg), Error);
}

TEST_F(ServeTest, RejectsNonPositiveDeadline)
{
    ServeConfig cfg = singleTenantConfig(1000.0);
    cfg.tenants[0].deadline_ns = 0;
    EXPECT_THROW(validateServeConfig(cfg), Error);
    cfg.tenants[0].deadline_ns = -5;
    EXPECT_THROW(validateServeConfig(cfg), Error);
}

TEST_F(ServeTest, RejectsNegativeRateAllowsZero)
{
    // Rate 0 is a sharded-away tenant (the fleet layer keeps every
    // tenant in every chip's table so any chip can adopt its
    // traffic); only negative/non-finite rates are invalid.
    ServeConfig cfg = singleTenantConfig(0.0);
    EXPECT_NO_THROW(validateServeConfig(cfg));
    cfg.tenants[0].arrival_rps = -1.0;
    EXPECT_THROW(validateServeConfig(cfg), Error);
    // An infinite rate would draw 1 ns gaps across the whole horizon.
    cfg.tenants[0].arrival_rps = std::numeric_limits<double>::infinity();
    EXPECT_THROW(validateServeConfig(cfg), Error);
}

TEST_F(ServeTest, RejectsZeroMaxBatch)
{
    ServeConfig cfg = singleTenantConfig(1000.0);
    cfg.batcher.max_batch = 0;
    EXPECT_THROW(validateServeConfig(cfg), Error);
}

TEST_F(ServeTest, RejectsNegativeMaxWait)
{
    ServeConfig cfg = singleTenantConfig(1000.0);
    cfg.batcher.max_wait_ns = -1;
    EXPECT_THROW(validateServeConfig(cfg), Error);
}

TEST_F(ServeTest, RejectsUnservableLadder)
{
    ServeConfig cfg = singleTenantConfig(1000.0);
    cfg.ladder.clear();
    EXPECT_THROW(validateServeConfig(cfg), Error);
    cfg.ladder = {Precision::FP32};
    EXPECT_THROW(validateServeConfig(cfg), Error);
}

TEST_F(ServeTest, RejectsBadBurstMean)
{
    ServeConfig cfg = singleTenantConfig(1000.0);
    cfg.tenants[0].pattern = ArrivalPattern::Bursty;
    cfg.tenants[0].burst_mean = 0.5;
    EXPECT_THROW(validateServeConfig(cfg), Error);
}

TEST_F(ServeTest, RejectsBadFaultScenario)
{
    ServeConfig cfg = singleTenantConfig(1000.0);
    cfg.fault.rate = 1.5;
    EXPECT_THROW(validateServeConfig(cfg), Error);
}

TEST_F(ServeTest, RejectsAllDeadChip)
{
    EXPECT_THROW(makeDegradedInferenceChip(4), Error);
    const ServeConfig cfg = singleTenantConfig(1000.0);
    ChipConfig chip = makeInferenceChip();
    chip.dead_core_mask = 0xf; // all four cores gone
    EXPECT_THROW(ServeSim(chip, cfg), Error);
}

// ---------------------------------------------------------------------
// DES-engine equivalence: the event-driven path must reproduce the
// reference serial scheduler bit for bit.
// ---------------------------------------------------------------------

/** Field-by-field exact equality, doubles compared bitwise-equal. */
void
expectResultsIdentical(const ServeResult &a, const ServeResult &b)
{
    EXPECT_EQ(a.horizon_ns, b.horizon_ns);
    EXPECT_EQ(a.end_ns, b.end_ns);
    EXPECT_EQ(a.queue_depth_integral, b.queue_depth_integral);
    EXPECT_EQ(a.max_queue_depth, b.max_queue_depth);
    ASSERT_EQ(a.requests.size(), b.requests.size());
    for (size_t i = 0; i < a.requests.size(); ++i) {
        const RequestRecord &ra = a.requests[i];
        const RequestRecord &rb = b.requests[i];
        EXPECT_EQ(ra.id, rb.id);
        EXPECT_EQ(ra.tenant, rb.tenant);
        EXPECT_EQ(ra.precision, rb.precision);
        EXPECT_EQ(ra.arrival_ns, rb.arrival_ns);
        EXPECT_EQ(ra.launch_ns, rb.launch_ns) << "request " << i;
        EXPECT_EQ(ra.completion_ns, rb.completion_ns);
        EXPECT_EQ(ra.predicted_ns, rb.predicted_ns);
        EXPECT_EQ(ra.shed, rb.shed);
    }
    ASSERT_EQ(a.batches.size(), b.batches.size());
    for (size_t i = 0; i < a.batches.size(); ++i) {
        const BatchRecord &ba = a.batches[i];
        const BatchRecord &bb = b.batches[i];
        EXPECT_EQ(ba.network, bb.network);
        EXPECT_EQ(ba.precision, bb.precision);
        EXPECT_EQ(ba.size, bb.size);
        EXPECT_EQ(ba.launch_ns, bb.launch_ns) << "batch " << i;
        EXPECT_EQ(ba.completion_ns, bb.completion_ns);
        EXPECT_EQ(ba.energy_j, bb.energy_j);
        EXPECT_EQ(ba.forced_by_timeout, bb.forced_by_timeout);
    }
}

/** The scenario mix the equivalence tests replay: single tenant near
 *  the knee, a multi-tenant bursty mix with a quality floor, and a
 *  fault-retry configuration. */
std::vector<ServeConfig>
equivalenceScenarios()
{
    std::vector<ServeConfig> cfgs;
    cfgs.push_back(singleTenantConfig(2000.0));
    {
        ServeConfig cfg = singleTenantConfig(1200.0, 20 * kMs);
        TenantConfig bg = cfg.tenants[0];
        bg.name = "bg";
        bg.network = "mobilenetv1";
        bg.pattern = ArrivalPattern::Bursty;
        bg.deadline_ns = 8 * kMs;
        cfg.tenants.push_back(bg);
        TenantConfig premium = cfg.tenants[0];
        premium.name = "premium";
        premium.arrival_rps = 100.0;
        premium.min_precision = Precision::HFP8;
        cfg.tenants.push_back(premium);
        cfgs.push_back(cfg);
    }
    {
        ServeConfig cfg = singleTenantConfig(2000.0);
        cfg.fault = FaultConfig::withRate(2e-7);
        cfg.fault.protectAll(parityProtection(64.0));
        cfgs.push_back(cfg);
    }
    return cfgs;
}

TEST_F(ServeTest, EngineMatchesReferenceScheduler)
{
    for (const ServeConfig &cfg : equivalenceScenarios()) {
        const ServeSim sim(makeInferenceChip(), cfg);
        expectResultsIdentical(sim.run(), runReference(sim));
    }
}

TEST_F(ServeTest, BatchedEngineMatchesReferenceAtEveryThreadCount)
{
    const std::vector<ServeConfig> cfgs = equivalenceScenarios();
    std::vector<std::unique_ptr<ServeSim>> sims;
    std::vector<const ServeSim *> ptrs;
    for (const ServeConfig &cfg : cfgs) {
        sims.push_back(
            std::make_unique<ServeSim>(makeInferenceChip(), cfg));
        ptrs.push_back(sims.back().get());
    }
    std::vector<ServeResult> reference;
    for (const auto &sim : sims)
        reference.push_back(runReference(*sim));

    for (size_t threads : {1u, 2u, 4u, 8u}) {
        ThreadPool::setDefaultThreads(threads);
        const std::vector<ServeResult> batched = runServeBatch(ptrs);
        ASSERT_EQ(batched.size(), reference.size());
        for (size_t i = 0; i < batched.size(); ++i)
            expectResultsIdentical(batched[i], reference[i]);
    }
}

// halt() files each injected request once. One whose admission event
// already ran is queued, in flight or done; only the others come back
// as unadmitted orphans, in injection order (not arrival order).
TEST_F(ServeTest, HaltFilesOnlyUnadmittedInjectedArrivals)
{
    const ServeSim sim(makeInferenceChip(), singleTenantConfig(0.0));
    DesEngine engine;
    DesDomain &dom = engine.domain(engine.addDomain("chip"));
    ServeDomainCore core(sim, dom);
    core.start();
    std::vector<uint64_t> ids;
    std::vector<OrphanRequest> orphans;
    dom.schedule(1 * kMs, ServeDomainCore::kPriOverlay, [&] {
        for (int64_t at_ms : {1, 3, 2, 5, 4})
            ids.push_back(core.injectArrival(at_ms * kMs, 0, 10 * kMs));
    });
    dom.schedule(3 * kMs, ServeDomainCore::kPriOverlay,
                 [&] { orphans = core.halt(); });
    engine.run();

    ASSERT_EQ(ids.size(), 5u);
    std::vector<uint64_t> unadmitted;
    std::map<uint64_t, int> filed;
    for (const OrphanRequest &o : orphans) {
        ++filed[o.id];
        if (!o.admitted)
            unadmitted.push_back(o.id);
    }
    for (const auto &[id, n] : filed)
        EXPECT_EQ(n, 1) << "request " << id << " filed twice";
    EXPECT_EQ(unadmitted, (std::vector<uint64_t>{ids[3], ids[4]}));
}

TEST_F(ServeTest, RunServeBatchRejectsNullSimulator)
{
    EXPECT_THROW(runServeBatch({nullptr}), Error);
}

} // namespace
