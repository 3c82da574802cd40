/**
 * @file
 * Serving sweep: the request-level counterpart of the figure drivers.
 * Simulates a multi-tenant inference front-end over the chip model on
 * a virtual clock and reports what the offline figures cannot: SLA
 * goodput vs offered load, tail latency percentiles, shed fractions,
 * the precision mix the SLA router chooses, and how the knee moves on
 * a degraded chip or under fault-induced retries.
 *
 * Everything is deterministic: arrivals derive from fixed per-tenant
 * seeds, the executor charges frozen PerfModel latencies, and no wall
 * clock is read anywhere (the no-wallclock lint check enforces this),
 * so stdout is bit-identical across runs and at any --threads N.
 *
 * With RAPID_REPORT_JSON=<path> set, each grid point also appends one
 * "serve" record for scripts/assemble.py -> BENCH_serve.json; stdout
 * is unaffected.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/sweep.hh"
#include "common/table.hh"
#include "serve/metrics.hh"
#include "serve/server_sim.hh"
#include "workloads/networks.hh"

#include "sim_grid.hh"

using namespace rapid;

namespace {

constexpr int64_t kMs = 1'000'000; ///< ns per millisecond

struct Policy
{
    const char *name;
    std::vector<Precision> ladder;
};

const Policy kPolicies[] = {
    {"int4-ladder", {Precision::INT4, Precision::HFP8, Precision::FP16}},
    {"hfp8-ladder", {Precision::HFP8, Precision::FP16}},
    {"fp16-only", {Precision::FP16}},
};

ServeConfig
rampScenario(double rps, const Policy &policy)
{
    ServeConfig cfg;
    TenantConfig web;
    web.name = "web";
    web.network = "resnet50";
    web.arrival_rps = rps;
    web.deadline_ns = 10 * kMs;
    cfg.tenants.push_back(web);
    cfg.ladder = policy.ladder;
    cfg.batcher.max_batch = 8;
    cfg.batcher.max_wait_ns = 2 * kMs;
    return cfg;
}

/** Section 1: the frozen latency table the virtual clock charges. */
void
latencyTableSection()
{
    std::printf("=== Frozen batch-latency table: ResNet-50 on the "
                "4-core chip (PerfModel -> virtual ns) ===\n\n");
    ServeConfig cfg = rampScenario(1000.0, kPolicies[0]);
    const ServeSim sim(makeInferenceChip(), cfg);
    Table t({"Precision", "b=1", "b=2", "b=4", "b=8", "mJ/req @8"});
    for (Precision p : cfg.ladder) {
        std::vector<std::string> row = {precisionName(p)};
        for (int64_t b : {1, 2, 4, 8})
            row.push_back(
                Table::fmt(double(sim.table().latencyNs(0, p, b)) *
                               1e-6, 3) + " ms");
        row.push_back(Table::fmt(
            1e3 * sim.table().energyJ(0, p, 8) / 8.0, 2));
        t.addRow(row);
    }
    t.print();
    std::printf("\nBatch latency is the SLA router's currency: INT4 "
                "buys ~2.3x headroom over DLFloat16.\n");
}

/** Sections 2-3: goodput vs offered load per policy, healthy chip
 *  and a 2-dead-core degraded chip. */
void
rampSection(const char *title, const char *section,
            const ChipConfig &chip)
{
    std::printf("\n=== %s: ResNet-50, deadline 10 ms, max batch 8, "
                "max wait 2 ms ===\n\n", title);
    std::vector<std::string> hdr = {"Offered/s"};
    for (const Policy &p : kPolicies) {
        hdr.push_back(std::string(p.name) + " goodput");
        hdr.push_back("shed");
        hdr.push_back("p99 ms");
    }
    Table t(hdr);
    const double loads[] = {250, 500, 1000, 1500, 2000, 2500, 3000,
                            4000};
    // One simulation per (load, policy) grid point; the whole ramp
    // advances in parallel, rows print in the original order.
    std::vector<ServeConfig> cfgs;
    for (double rps : loads)
        for (const Policy &policy : kPolicies)
            cfgs.push_back(rampScenario(rps, policy));
    const std::vector<ServeResult> results =
        runGrid(chip, cfgs, runServeBatch);
    size_t point = 0;
    for (double rps : loads) {
        std::vector<std::string> row = {Table::fmt(rps, 0)};
        for (const Policy &policy : kPolicies) {
            const ServeMetrics m =
                computeMetrics(cfgs[point], results[point]);
            ++point;
            row.push_back(Table::fmt(m.total.goodput_rps, 1));
            row.push_back(Table::pct(m.total.shed, m.total.offered));
            row.push_back(
                Table::fmt(double(m.total.latency.p99) * 1e-6, 2));
            sweepRecord("serve",
                        serveJsonRecord(section, policy.name, m));
        }
        t.addRow(row);
    }
    t.print();
}

/** Section 4: mixed tenants with different SLAs and quality floors. */
void
multiTenantSection()
{
    std::printf("\n=== Multi-tenant mix: strict web + premium NLP "
                "(HFP8 floor) + bursty background ===\n\n");
    ServeConfig cfg;
    {
        TenantConfig web;
        web.name = "web";
        web.network = "resnet50";
        web.arrival_rps = 800.0;
        web.deadline_ns = 10 * kMs;
        cfg.tenants.push_back(web);

        TenantConfig nlp;
        nlp.name = "nlp-premium";
        nlp.network = "bert";
        nlp.arrival_rps = 40.0;
        nlp.deadline_ns = 60 * kMs;
        nlp.min_precision = Precision::HFP8; // quality floor
        cfg.tenants.push_back(nlp);

        TenantConfig bg;
        bg.name = "background";
        bg.network = "mobilenetv1";
        bg.arrival_rps = 1500.0;
        bg.pattern = ArrivalPattern::Bursty;
        bg.burst_mean = 16.0;
        bg.deadline_ns = 8 * kMs;
        cfg.tenants.push_back(bg);
    }
    cfg.batcher.max_batch = 8;
    cfg.batcher.max_wait_ns = 2 * kMs;
    const ServeSim sim(makeInferenceChip(), cfg);
    const ServeMetrics m = computeMetrics(cfg, sim.run());
    std::fputs(serveReport(m).c_str(), stdout);
    sweepRecord("serve",
                serveJsonRecord("multi_tenant", "int4-ladder", m));
    std::printf("\nThe router honors the premium tenant's HFP8 floor "
                "while the rest rides the cheap INT4 path.\n");
}

/** Section 5: dynamic-batcher knobs vs tail latency. */
void
batcherKnobSection()
{
    std::printf("\n=== Batcher knobs: ResNet-50 at 1500 req/s, "
                "deadline 20 ms, int4-ladder ===\n\n");
    Table t({"Max batch", "Max wait ms", "Goodput/s", "Mean batch",
             "p50 ms", "p99 ms"});
    const int64_t batches[] = {1, 4, 8, 16};
    const int64_t waits_ns[] = {kMs / 2, 2 * kMs, 8 * kMs};
    std::vector<ServeConfig> cfgs;
    for (int64_t mb : batches) {
        for (int64_t wait : waits_ns) {
            ServeConfig cfg = rampScenario(1500.0, kPolicies[0]);
            cfg.tenants[0].deadline_ns = 20 * kMs;
            cfg.batcher.max_batch = mb;
            cfg.batcher.max_wait_ns = wait;
            cfgs.push_back(cfg);
        }
    }
    const std::vector<ServeResult> results =
        runGrid(makeInferenceChip(), cfgs, runServeBatch);
    size_t point = 0;
    for (int64_t mb : batches) {
        for (int64_t wait : waits_ns) {
            const ServeMetrics m =
                computeMetrics(cfgs[point], results[point]);
            ++point;
            t.addRow({std::to_string(mb),
                      Table::fmt(double(wait) * 1e-6, 1),
                      Table::fmt(m.total.goodput_rps, 1),
                      Table::fmt(m.mean_batch_size, 2),
                      Table::fmt(double(m.total.latency.p50) * 1e-6, 2),
                      Table::fmt(double(m.total.latency.p99) * 1e-6,
                                 2)});
        }
    }
    t.print();
    std::printf("\nSmall batches waste the array below peak load; "
                "long waits trade p50 for coalescing.\n");
}

/** Section 6: fault-induced retry cycles surfacing in the tails. */
void
faultTailSection()
{
    std::printf("\n=== Fault retries in the serving tails: ResNet-50 "
                "at 2000 req/s, parity protection (retry 64) ===\n\n");
    Table t({"Fault scenario", "Goodput/s", "Shed", "p50 ms", "p99 ms",
             "mJ/req"});
    std::vector<ServeConfig> cfgs;
    for (double rate : {0.0, 5e-8, 2e-7}) {
        ServeConfig cfg = rampScenario(2000.0, kPolicies[0]);
        cfg.fault = FaultConfig::withRate(rate);
        if (rate > 0.0)
            cfg.fault.protectAll(parityProtection(64.0));
        cfgs.push_back(cfg);
    }
    const std::vector<ServeResult> results =
        runGrid(makeInferenceChip(), cfgs, runServeBatch);
    for (size_t point = 0; point < cfgs.size(); ++point) {
        const ServeConfig &cfg = cfgs[point];
        const ServeMetrics m = computeMetrics(cfg, results[point]);
        t.addRow({faultConfigSummary(cfg.fault),
                  Table::fmt(m.total.goodput_rps, 1),
                  Table::pct(m.total.shed, m.total.offered),
                  Table::fmt(double(m.total.latency.p50) * 1e-6, 2),
                  Table::fmt(double(m.total.latency.p99) * 1e-6, 2),
                  Table::fmt(m.energy_per_request_mj, 2)});
        sweepRecord("serve",
                    serveJsonRecord("fault_tails",
                                    faultConfigSummary(cfg.fault), m));
    }
    t.print();
    std::printf("\nDetected-uncorrected faults charge replay cycles "
                "into every batch, so the whole latency "
                "distribution (and the shed rate at the knee) "
                "shifts.\n");
}

void
runSweep()
{
    latencyTableSection();
    rampSection("Goodput vs offered load (healthy chip)",
                "ramp_healthy", makeInferenceChip());
    rampSection("Goodput vs offered load (degraded: 2 of 4 cores "
                "dead)", "ramp_degraded",
                makeDegradedInferenceChip(2));
    multiTenantSection();
    batcherKnobSection();
    faultTailSection();
}

} // namespace

int
main(int argc, char **argv)
{
    return sweepMain("serve_sweep", argc, argv, runSweep);
}
