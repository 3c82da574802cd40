/**
 * @file
 * Overload-control sweep: the robustness counterpart of serve_sweep.
 * Exercises every layer of the overload subsystem past its design
 * point and reports what the steady-state sweeps cannot:
 *
 *  1. knee        — calibrated admission vs the proven hard bound
 *                   across the multi-tenant knee: how much of the
 *                   bound's over-shed the observed-p95 tier recovers,
 *                   and at what violation cost (the headline).
 *  2. fuse        — a warmup-then-burst trap where the calibrated
 *                   tier alone would admit into violations; the trust
 *                   fuse latches the queue back to the proven bound.
 *  3. brownout    — sustained 2x overload against a three-priority
 *                   tenant mix: precision degrades ladder-first, then
 *                   the lowest class sheds; the top class never does.
 *  4. breaker     — a flapping bursty tenant trips its queue's
 *                   circuit breaker open (fast-fail at admission) and
 *                   half-open probes re-close it when the burst ends.
 *  5. retry_budget — a two-chip fleet kill under failover: the
 *                   per-target retry budget converts the storm beyond
 *                   its token rate into accounted sheds.
 *  6. llm_tpot    — the same calibrated-vs-bound tiering on the
 *                   DecodeBatcher's per-output-token admission.
 *
 * Everything is deterministic: arrivals and failure plans derive from
 * fixed seeds, all latencies come from frozen tables, and no wall
 * clock is read anywhere, so stdout is bit-identical across runs and
 * at any --threads N (the golden variants pin this).
 *
 * With RAPID_REPORT_JSON=<path> set, each grid point appends one
 * "overload" record (serve, cluster, and llm record shapes,
 * discriminated by section) for scripts/assemble.py ->
 * BENCH_overload.json; stdout is unaffected.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "cluster/fleet.hh"
#include "cluster/fleet_metrics.hh"
#include "common/sweep.hh"
#include "common/table.hh"
#include "llm/llm_metrics.hh"
#include "llm/llm_sim.hh"
#include "serve/metrics.hh"
#include "serve/server_sim.hh"
#include "workloads/networks.hh"

#include "sim_grid.hh"

using namespace rapid;

namespace {

constexpr int64_t kMs = 1'000'000; ///< ns per millisecond

/** The multi-tenant mix of serve_sweep, scaled by @p scale: three
 *  strict web frontends + premium NLP (HFP8 floor) + bursty
 *  background. The web load is split across three tenants on purpose:
 *  the proven bound charges every candidate the *whole-chip* backlog,
 *  so its pessimism grows with queue count while each queue's actual
 *  wait stays low — exactly the over-shed the calibrated tier is
 *  built to recover. Deadlines carry headroom over the service time
 *  for the same reason. */
ServeConfig
multiTenantScenario(double scale)
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
    return cfg;
}

/** Calibrated-admission settings every serve section shares: a tight
 *  margin over the observed p95 (the bound already supplies the
 *  safety), a window long enough that one background burst cannot
 *  drag the p95 across the deadline. */
void
enableCalibrated(ServeConfig &cfg)
{
    cfg.overload.admission.enabled = true;
    cfg.overload.admission.safety_margin = 1.25;
    cfg.overload.admission.window = 512;
}

/**
 * Section 1: calibrated admission vs the proven bound across the
 * knee. The bound charges the whole-chip backlog plus a full
 * batching wait for every candidate, so at the knee it sheds
 * requests whose actual wait would have fit comfortably; the
 * calibrated tier admits on the p95 wait requests on that queue
 * really saw. The headline pins how much of the over-shed it
 * recovers and that it adds no violations.
 */
void
kneeSection()
{
    std::printf("=== Calibrated admission vs proven bound across the "
                "multi-tenant knee ===\n\n");
    const double scales[] = {0.8, 1.0, 1.2, 1.4, 1.6};
    constexpr double kKneeScale = 1.6;
    std::vector<ServeConfig> cfgs;
    for (double s : scales) {
        cfgs.push_back(multiTenantScenario(s)); // bound-only
        ServeConfig cal = multiTenantScenario(s);
        enableCalibrated(cal);
        cfgs.push_back(cal);
    }
    const std::vector<ServeResult> results =
        runGrid(makeInferenceChip(), cfgs, runServeBatch);

    Table t({"Scale", "bound goodput/s", "shed", "viol",
             "calib goodput/s", "shed", "viol", "calib admits"});
    uint64_t knee_shed_bound = 0, knee_shed_cal = 0;
    uint64_t knee_viol_bound = 0, knee_viol_cal = 0;
    uint64_t knee_offered = 0;
    for (size_t i = 0; i < std::size(scales); ++i) {
        const ServeMetrics mb =
            computeMetrics(cfgs[2 * i], results[2 * i]);
        const ServeMetrics mc =
            computeMetrics(cfgs[2 * i + 1], results[2 * i + 1]);
        t.addRow({Table::fmt(scales[i], 1),
                  Table::fmt(mb.total.goodput_rps, 1),
                  Table::pct(mb.total.shed, mb.total.offered),
                  std::to_string(mb.total.violations),
                  Table::fmt(mc.total.goodput_rps, 1),
                  Table::pct(mc.total.shed, mc.total.offered),
                  std::to_string(mc.total.violations),
                  Table::pct(mc.total.admitted_calibrated,
                      mc.total.completed)});
        sweepRecord("overload", serveJsonRecord("knee", "bound", mb));
        sweepRecord("overload",
                    serveJsonRecord("knee", "calibrated", mc));
        if (scales[i] == kKneeScale) { // the knee point
            knee_shed_bound = mb.total.shed;
            knee_shed_cal = mc.total.shed;
            knee_viol_bound = mb.total.violations;
            knee_viol_cal = mc.total.violations;
            knee_offered = mb.total.offered;
        }
    }
    t.print();

    const uint64_t recovered = knee_shed_bound > knee_shed_cal
                                   ? knee_shed_bound - knee_shed_cal
                                   : 0;
    const double recovery =
        knee_shed_bound > 0
            ? 100.0 * double(recovered) / double(knee_shed_bound)
            : 0.0;
    const long long extra_viol = (long long)knee_viol_cal -
                                 (long long)knee_viol_bound;
    std::printf("\nheadline: knee over-shed %s of offered; calibrated "
                "recovers %.1f%% of it (shed %llu -> %llu), "
                "violations %+lld\n",
                Table::pct(knee_shed_bound, knee_offered).c_str(), recovery,
                (unsigned long long)knee_shed_bound,
                (unsigned long long)knee_shed_cal, extra_viol);
}

/**
 * Section 2: the fuse trap. A calm loose-deadline tenant keeps the
 * shared queue's wait window full of small waits; a strict tenant
 * arrives in large rare bursts. Each burst is admitted wholesale on
 * the stale calm p95 and its tail blows through the strict deadline
 * — then the calm traffic scrubs the window clean before the next
 * burst, so without the fuse the trap re-arms every episode. With
 * the fuse, the first episode's calibrated violation latches the
 * queue back to the proven bound and every later burst is priced
 * honestly (shed cheaply at admission instead of violated).
 */
void
fuseSection()
{
    std::printf("\n=== Trust fuse: calibrated admission into a "
                "deadline trap, with and without the fuse ===\n\n");
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
        cfg.overload.admission.window = 64; // calm scrubs it fast
        cfg.overload.admission.safety_margin = 1.2;
        cfg.overload.admission.fuse_enabled = fuse_on;
        return cfg;
    };
    const std::vector<ServeConfig> cfgs = {trap(false), trap(true)};
    const std::vector<ServeResult> results =
        runGrid(makeInferenceChip(), cfgs, runServeBatch);
    Table t({"Policy", "Goodput/s", "Shed", "Viol", "Calib admits",
             "Fuse trips"});
    uint64_t viol_nofuse = 0, viol_fuse = 0, trips = 0;
    for (size_t i = 0; i < cfgs.size(); ++i) {
        const ServeMetrics m = computeMetrics(cfgs[i], results[i]);
        const char *name = i == 0 ? "calibrated-nofuse"
                                  : "calibrated-fuse";
        t.addRow({name, Table::fmt(m.total.goodput_rps, 1),
                  Table::pct(m.total.shed, m.total.offered),
                  std::to_string(m.total.violations),
                  std::to_string(m.total.admitted_calibrated),
                  std::to_string(m.fuse_trips)});
        sweepRecord("overload", serveJsonRecord("fuse", name, m));
        if (i == 0)
            viol_nofuse = m.total.violations;
        else {
            viol_fuse = m.total.violations;
            trips = m.fuse_trips;
        }
    }
    t.print();
    std::printf("\nfuse: %llu violations without -> %llu with "
                "(%llu trip%s); the shortcut is only trusted while "
                "it keeps its promises.\n",
                (unsigned long long)viol_nofuse,
                (unsigned long long)viol_fuse,
                (unsigned long long)trips, trips == 1 ? "" : "s");
}

/**
 * Section 3: the brownout ladder under sustained 2x overload.
 * Precision rungs engage first (everyone serves cheaper), shed rungs
 * only after them (lowest priority class first); the premium class
 * is never shed by brownout.
 */
void
brownoutSection()
{
    std::printf("\n=== Brownout ladder: sustained 2x overload, "
                "priorities web/nlp=2 background=0 ===\n\n");
    ServeConfig base = multiTenantScenario(2.0);
    ServeConfig brown = base;
    brown.overload.brownout.enabled = true;
    brown.overload.brownout.depth_high = 48;
    brown.overload.brownout.depth_low = 8;
    brown.overload.brownout.escalate_ns = 10 * kMs;
    brown.overload.brownout.recover_ns = 40 * kMs;
    const std::vector<ServeConfig> cfgs = {base, brown};
    const std::vector<ServeResult> results =
        runGrid(makeInferenceChip(), cfgs, runServeBatch);
    Table t({"Policy", "Tenant", "Goodput/s", "Shed", "Viol", "FP16",
             "Brownout shed"});
    for (size_t i = 0; i < cfgs.size(); ++i) {
        const ServeMetrics m = computeMetrics(cfgs[i], results[i]);
        const char *name = i == 0 ? "baseline" : "brownout";
        for (const TenantMetrics &tm : m.tenants)
            t.addRow({name, tm.name, Table::fmt(tm.goodput_rps, 1),
                      Table::pct(tm.shed, tm.offered),
                      std::to_string(tm.violations),
                      Table::pct(tm.served_fp16, tm.completed),
                      std::to_string(tm.shed_brownout)});
        sweepRecord("overload",
                    serveJsonRecord("brownout", name, m));
        if (i == 1)
            std::printf("brownout: max level %d over %llu "
                        "transitions; premium brownout-shed %llu "
                        "(must stay 0)\n",
                        m.brownout_max_level,
                        (unsigned long long)m.brownout_transitions,
                        (unsigned long long)
                            (m.tenants[0].shed_brownout +
                             m.tenants[1].shed_brownout));
    }
    t.print();
}

/**
 * Section 4: the per-queue circuit breaker as *neighbor protection*.
 * A flapping bursty tenant piles its resnet50 queue 60+ deep; the
 * proven bound charges that backlog to every candidate on the chip,
 * so the steady mobilenetv1 tenant sheds heavily for congestion it
 * did not cause. With the breaker on, flappy's queue opens at
 * depth_open and fast-fails its own arrivals while it drains —
 * flappy pays for its bursts, the steady neighbor's admission
 * recovers, and half-open probes re-close the queue between bursts.
 */
void
breakerSection()
{
    std::printf("\n=== Circuit breaker: flapping bursty tenant vs "
                "steady neighbor ===\n\n");
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
    const std::vector<ServeConfig> cfgs = {scenario(false),
                                           scenario(true)};
    const std::vector<ServeResult> results =
        runGrid(makeInferenceChip(), cfgs, runServeBatch);
    Table t({"Policy", "Tenant", "Goodput/s", "Shed", "Viol",
             "Depth max", "Opens", "Closes"});
    for (size_t i = 0; i < cfgs.size(); ++i) {
        const ServeMetrics m = computeMetrics(cfgs[i], results[i]);
        const char *name = i == 0 ? "no-breaker" : "breaker";
        for (const TenantMetrics &tm : m.tenants)
            t.addRow({name, tm.name, Table::fmt(tm.goodput_rps, 1),
                      Table::pct(tm.shed, tm.offered),
                      std::to_string(tm.violations),
                      std::to_string(m.max_queue_depth),
                      std::to_string(m.breaker_opens),
                      std::to_string(m.breaker_closes)});
        sweepRecord("overload",
                    serveJsonRecord("breaker", name, m));
    }
    t.print();
    std::printf("\nOpen = fast-fail at admission while the queue "
                "drains; the flapping tenant pays for its own bursts "
                "and the steady neighbor's shed collapses.\n");
}

/**
 * Section 5: fleet retry budgets. Two of four chips die 30 ms apart
 * under failover-restore: every stranded request retries onto the
 * survivors at once. The per-target token bucket caps that storm;
 * retries beyond it convert to accounted sheds (shed_budget), and
 * the global ledger still closes.
 */
void
retryBudgetSection()
{
    std::printf("\n=== Retry budgets: two-chip kill under "
                "failover-restore, budget off vs on ===\n\n");
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
    Table t({"Policy", "Completed", "Failed-over", "Retries",
             "Denied", "Budget shed", "Failed", "Closed"});
    for (bool budget_on : {false, true}) {
        const ClusterConfig cfg = scenario(budget_on);
        const FleetSim sim(makeInferenceChip(), cfg);
        const FleetResult result = sim.run();
        const FleetLedger ledger = buildFleetLedger(cfg, result);
        const char *name = budget_on ? "budget" : "no-budget";
        t.addRow({name, std::to_string(ledger.completed),
                  std::to_string(ledger.failed_over),
                  std::to_string(ledger.retries),
                  std::to_string(ledger.retries_denied),
                  std::to_string(ledger.shed_budget),
                  std::to_string(ledger.failed),
                  ledger.closed() ? "yes" : "NO"});
        sweepRecord("overload",
                    clusterJsonRecord(budget_on ? "retry_budget"
                                                : "retry_storm",
                                      cfg, result, ledger));
    }
    t.print();
    std::printf("\nDenied retries are deliberate sheds, not losses: "
                "offered == completed + shed + failed + "
                "budget-shed stays closed.\n");
}

/**
 * Section 6: calibrated TPOT admission on the decode batcher. The
 * conservative bound prices every candidate at a full-batch step
 * over its own final context, so long-output requests shed even
 * when the running batch is small; the calibrated tier admits on
 * the TPOT finished sequences actually achieved.
 */
void
llmTpotSection()
{
    std::printf("\n=== LLM: calibrated TPOT admission vs full-batch "
                "step bound ===\n\n");
    auto scenario = [](bool calibrated) {
        LlmServeConfig cfg;
        cfg.model = "llm-small";
        cfg.policy = BatchPolicy::Continuous;
        // A wide decode batch is what makes the bound pessimistic:
        // it prices every candidate's step at max_batch times its
        // *final* context — KV spill included — while the running
        // batch rarely fills and mixes context ages.
        cfg.max_batch = 32;
        cfg.horizon_ns = 500 * kMs;
        LlmTenantConfig chat;
        chat.name = "chat";
        chat.arrival_rps = 180.0;
        chat.mean_prompt_tokens = 256.0;
        chat.mean_output_tokens = 192.0;
        chat.ttft_deadline_ns = 400 * kMs;
        chat.tpot_deadline_ns = 500'000; // 0.5 ms per output token
        cfg.tenants.push_back(chat);
        cfg.admission.enabled = calibrated;
        cfg.admission.min_samples = 8;
        cfg.admission.window = 64;
        cfg.admission.safety_margin = 1.25;
        return cfg;
    };
    Table t({"Policy", "Completed", "Shed", "TPOTv", "Calib admits",
             "Fuse trips", "Tok/s"});
    for (bool calibrated : {false, true}) {
        const LlmServeConfig cfg = scenario(calibrated);
        const LlmSim sim(makeInferenceChip(), cfg);
        const LlmMetrics m = computeLlmMetrics(cfg, sim.run());
        const char *name = calibrated ? "calibrated" : "bound";
        t.addRow({name, std::to_string(m.total.completed),
                  Table::pct(m.total.shed, m.total.offered),
                  std::to_string(m.total.tpot_violations),
                  std::to_string(m.total.admitted_calibrated),
                  std::to_string(m.fuse_trips),
                  Table::fmt(m.total.tokens_per_s, 0)});
        sweepRecord("overload", llmJsonRecord("llm_tpot", name, m));
    }
    t.print();
    std::printf("\nThe same tier discipline as the serve router: "
                "observed-p95 shortcut, proven bound as the "
                "fallback, fuse in between.\n");
}

void
runSweep()
{
    kneeSection();
    fuseSection();
    brownoutSection();
    breakerSection();
    retryBudgetSection();
    llmTpotSection();
}

} // namespace

int
main(int argc, char **argv)
{
    return sweepMain("overload_sweep", argc, argv, runSweep);
}
