/**
 * @file
 * Fleet-serving sweep: the datacenter-level counterpart of
 * serve_sweep. Simulates N ServeSim chips behind the global SLA
 * router with heartbeat failure detection, seeded chip kills,
 * drain/failover policies, and a checkpoint-replicated training
 * tenant, and reports what a single chip cannot: goodput through
 * chip deaths, the collapse of the no-failover baseline, failover
 * retry volume, closed global accounting, and bit-exact training
 * restore.
 *
 * Everything is deterministic: the failure plan is drawn from mixSeed
 * streams at config time, all cross-chip effects ride DES channels,
 * and no wall clock is read anywhere, so stdout is bit-identical
 * across runs and at any --threads N (the golden variants pin this).
 *
 * With RAPID_REPORT_JSON=<path> set, each grid point also appends one
 * "cluster" record for scripts/assemble.py -> BENCH_cluster.json;
 * stdout is unaffected.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "cluster/fleet.hh"
#include "cluster/fleet_metrics.hh"
#include "common/sweep.hh"
#include "common/table.hh"
#include "serve/metrics.hh"
#include "workloads/networks.hh"

#include "sim_grid.hh"

using namespace rapid;

namespace {

constexpr int64_t kMs = 1'000'000; ///< ns per millisecond

/** The shared global serving scenario: eight light-network tenants
 *  sharded across the fleet by index mod num_chips. */
ClusterConfig
fleetScenario(size_t num_chips, FleetPolicy policy, double rate)
{
    ClusterConfig cfg;
    cfg.num_chips = num_chips;
    cfg.policy = policy;
    cfg.serve.horizon_ns = 400 * kMs;
    for (int ti = 0; ti < 8; ++ti) {
        TenantConfig t;
        t.name = "tenant" + std::to_string(ti);
        t.network = ti % 2 == 0 ? "resnet50" : "mobilenetv1";
        t.arrival_rps = 400.0;
        t.deadline_ns = 15 * kMs;
        cfg.serve.tenants.push_back(t);
    }
    cfg.serve.batcher.max_batch = 8;
    cfg.serve.batcher.max_wait_ns = 2 * kMs;
    cfg.failures.rate = rate;
    return cfg;
}

/** Section 1: at failure rate 0 the fleet is provably N independent
 *  chips — same goodput, closed ledger, one channel-free check. */
void
equivalenceSection()
{
    std::printf("=== Fleet scaling at failure rate 0: the router is "
                "invisible (fleet == N independent chips) ===\n\n");
    Table t({"Chips", "Offered/s", "Fleet goodput/s",
             "Independent goodput/s", "Match", "Windows"});
    std::vector<ClusterConfig> cfgs;
    for (size_t chips : {size_t(2), size_t(4), size_t(8)})
        cfgs.push_back(fleetScenario(
            chips, FleetPolicy::FailoverRestore, 0.0));
    const std::vector<FleetResult> results =
        runGrid(makeInferenceChip(), cfgs, runFleetBatch);
    for (size_t i = 0; i < cfgs.size(); ++i) {
        const ClusterConfig &cfg = cfgs[i];
        const FleetLedger ledger =
            buildFleetLedger(cfg, results[i]);
        // Re-run every shard as a plain single-chip ServeSim and
        // compare the per-record outcomes field by field.
        const FleetSim fleet(makeInferenceChip(), cfg);
        std::vector<const ServeSim *> shards;
        for (size_t c = 0; c < cfg.num_chips; ++c)
            shards.push_back(&fleet.chipSim(c));
        const std::vector<ServeResult> solo = runServeBatch(shards);
        uint64_t solo_sla = 0;
        bool match = true;
        for (size_t c = 0; c < cfg.num_chips; ++c) {
            const ServeMetrics m =
                computeMetrics(fleet.chipSim(c).config(), solo[c]);
            solo_sla += m.total.sla_met;
            const auto &a = results[i].chips[c].requests;
            const auto &b = solo[c].requests;
            match = match && a.size() == b.size();
            for (size_t r = 0; match && r < a.size(); ++r)
                match = a[r].arrival_ns == b[r].arrival_ns &&
                        a[r].launch_ns == b[r].launch_ns &&
                        a[r].completion_ns == b[r].completion_ns &&
                        a[r].shed == b[r].shed &&
                        a[r].failed == b[r].failed &&
                        a[r].precision == b[r].precision;
        }
        const double horizon_s =
            double(cfg.serve.horizon_ns) * 1e-9;
        t.addRow({std::to_string(cfg.num_chips),
                  Table::fmt(ledger.offered_rps, 1),
                  Table::fmt(ledger.goodput_rps, 1),
                  Table::fmt(double(solo_sla) / horizon_s, 1),
                  match ? "bit-identical" : "DIVERGED",
                  std::to_string(results[i].windows)});
        sweepRecord("cluster", clusterJsonRecord("equivalence", cfg,
                                                   results[i], ledger));
    }
    t.print();
    std::printf("\nWith no failures the control plane only carries "
                "heartbeats: every chip's request trace is "
                "bit-identical to its solo run.\n");
}

/** Section 2: goodput under seeded chip kills, policy by policy. */
void
policyGridSection()
{
    std::printf("\n=== Seeded chip kills on a 6-chip fleet: goodput "
                "by policy (30%% of failures degrade instead of "
                "dying) ===\n\n");
    const FleetPolicy policies[] = {FleetPolicy::NoFailover,
                                    FleetPolicy::DrainOnly,
                                    FleetPolicy::FailoverRestore};
    const double rates[] = {0.25, 0.5, 0.8};
    std::vector<ClusterConfig> cfgs;
    for (double rate : rates)
        for (FleetPolicy policy : policies) {
            ClusterConfig cfg = fleetScenario(6, policy, rate);
            cfg.failures.degraded_fraction = 0.3;
            cfg.failures.degrade_dead_cores = 2;
            cfgs.push_back(cfg);
        }
    const std::vector<FleetResult> results =
        runGrid(makeInferenceChip(), cfgs, runFleetBatch);
    Table t({"Fail rate", "Policy", "Dead", "Degraded", "Live",
             "Goodput/s", "Failed", "Failed-over", "Retries",
             "Closed"});
    size_t point = 0;
    for (double rate : rates) {
        for (FleetPolicy policy : policies) {
            (void)policy;
            const ClusterConfig &cfg = cfgs[point];
            const FleetResult &res = results[point];
            const FleetLedger ledger = buildFleetLedger(cfg, res);
            t.addRow({Table::fmt(rate, 2),
                      fleetPolicyName(cfg.policy),
                      std::to_string(ledger.chips_failed),
                      std::to_string(ledger.chips_degraded),
                      Table::fmt(100.0 * ledger.live_fraction, 1) +
                          "%",
                      Table::fmt(ledger.goodput_rps, 1),
                      std::to_string(ledger.failed),
                      std::to_string(ledger.failed_over),
                      std::to_string(ledger.retries),
                      ledger.closed() ? "yes" : "NO"});
            sweepRecord("cluster", clusterJsonRecord("policy_grid", cfg,
                                                       res, ledger));
            ++point;
        }
    }
    t.print();
    std::printf("\nNo-failover loses a dead chip's whole shard; "
                "failover holds goodput near the live fraction by "
                "re-homing stranded and future traffic.\n");
}

/** Section 3: anatomy of one scripted kill + one degrade. */
void
anatomySection()
{
    std::printf("\n=== Anatomy of a failure: chip 1 dies at 120 ms, "
                "chip 3 loses 2 cores at 80 ms (failover-restore) "
                "===\n\n");
    ClusterConfig cfg =
        fleetScenario(4, FleetPolicy::FailoverRestore, 0.0);
    cfg.failures.degrade_dead_cores = 2;
    cfg.failures.scripted = {{1, 120 * kMs, false},
                             {3, 80 * kMs, true}};
    const FleetSim fleet(makeInferenceChip(), cfg);
    const FleetResult result = fleet.run();
    const FleetLedger ledger = buildFleetLedger(cfg, result);
    std::fputs(fleetReport(cfg, result, ledger).c_str(), stdout);
    sweepRecord("cluster",
                clusterJsonRecord("anatomy", cfg, result, ledger));
    std::printf("\nChip 1's stranded requests fail locally, then "
                "retry on its ring successor once the router's "
                "heartbeat window expires; chip 3 keeps serving on "
                "the degraded latency table.\n");
}

/** Section 4: the training tenant survives its home chip. */
void
trainingSection()
{
    std::printf("\n=== Training failover: home chip killed at 200 ms,"
                " replica restores the latest replicated checkpoint "
                "===\n\n");
    ClusterConfig base =
        fleetScenario(4, FleetPolicy::FailoverRestore, 0.0);
    base.training.enabled = true;
    base.training.home_chip = 0;
    base.training.replica_chip = 2;
    base.training.model.dims = {2, 24, 24, 2};
    base.training.model.precision = TrainPrecision::HFP8;
    base.training.steps = 150;
    base.training.step_ns = 2 * kMs;
    base.training.checkpoint_interval = 25;

    ClusterConfig killed = base;
    killed.failures.scripted = {{0, 200 * kMs, false}};

    std::vector<ClusterConfig> cfgs = {base, killed};
    const std::vector<FleetResult> results =
        runGrid(makeInferenceChip(), cfgs, runFleetBatch);
    for (size_t i = 0; i < cfgs.size(); ++i) {
        const FleetLedger ledger =
            buildFleetLedger(cfgs[i], results[i]);
        std::printf("--- %s ---\n",
                    i == 0 ? "unfailed reference" : "home killed");
        std::fputs(
            fleetReport(cfgs[i], results[i], ledger).c_str(),
            stdout);
        sweepRecord("cluster",
                    clusterJsonRecord(i == 0 ? "training_reference"
                                             : "training_failover",
                                      cfgs[i], results[i], ledger));
    }
    const bool exact = !results[0].training.final_checkpoint.empty() &&
                       results[0].training.final_checkpoint ==
                           results[1].training.final_checkpoint;
    std::printf("\nRestored model vs unfailed reference: %s\n",
                exact ? "bit-exact" : "DIVERGED");
}

void
runSweep()
{
    equivalenceSection();
    policyGridSection();
    anatomySection();
    trainingSection();
}

} // namespace

int
main(int argc, char **argv)
{
    return sweepMain("cluster_sweep", argc, argv, runSweep);
}
