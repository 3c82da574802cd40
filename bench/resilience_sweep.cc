/**
 * @file
 * Resilient-training sweep: exercises the full recovery runtime the
 * library grows around the paper's ultra-low-precision training
 * story. Five sections:
 *
 *  1. Dynamic loss scaling: HFP8 training with the AMP-style
 *     grow/backoff scaler on vs off.
 *  2. Health sentinels: what the finiteness scans and the windowed
 *     loss-spike detector catch under aggressive GEMM fault injection.
 *  3. Checkpoint/rollback determinism: rollback + replay reproduces
 *     an uninterrupted run bit-for-bit, and the serialized checkpoint
 *     round-trips byte-stably.
 *  4. Fault rate x recovery policy grid: final accuracy, the closed
 *     step accounting, and work efficiency as the policy ladder
 *     (retry -> rollback -> precision escalation) switches on.
 *  5. Checkpoint overhead: Young/Daly optimal intervals and the
 *     snapshot cycles charged into the performance model's
 *     checkpoint lane.
 *
 * Everything is deterministic: datasets, initial weights, and fault
 * decisions derive from fixed seeds via per-item streams, so stdout
 * is bit-identical across runs and at any --threads N.
 *
 * With RAPID_REPORT_JSON=<path> set, each policy-grid cell also
 * appends one "resilience" record for scripts/assemble.py ->
 * BENCH_resilience.json; stdout is unaffected.
 */

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "common/parallel.hh"
#include "common/sweep.hh"
#include "common/table.hh"
#include "resilience/overhead.hh"
#include "resilience/resilient_trainer.hh"

using namespace rapid;

namespace {

constexpr int64_t kBatch = 32;
constexpr uint64_t kGridSteps = 240;

MlpConfig
baseModel()
{
    MlpConfig cfg;
    cfg.dims = {2, 32, 32, 2};
    cfg.precision = TrainPrecision::HFP8;
    cfg.seed = 99;
    return cfg;
}

/** Fixed train/test split shared by every section. */
struct Data
{
    Dataset train, test;
};

Data
makeData()
{
    Rng rng(4242);
    const Dataset all = makeSpirals(rng, 256); // 512 rows, shuffled
    return {all.slice(0, 384), all.slice(384, 128)};
}

std::string
count(uint64_t v)
{
    return std::to_string(v);
}

/** One recovery-policy rung combination of the grid. */
struct Policy
{
    const char *name;
    bool sentinels, retry, rollback, escalate;
};

constexpr Policy kPolicies[] = {
    {"blind", false, false, false, false},
    {"sentinel+retry", true, true, false, false},
    {"retry+rollback", true, true, true, false},
    {"full-ladder", true, true, true, true},
};

ResilienceConfig
policyConfig(const Policy &policy, double rate)
{
    ResilienceConfig cfg;
    cfg.fault = FaultConfig::withRate(rate, 0x5eed);
    cfg.enable_sentinels = policy.sentinels;
    cfg.enable_retry = policy.retry;
    cfg.enable_rollback = policy.rollback;
    cfg.enable_escalation = policy.escalate;
    cfg.checkpoint_interval = policy.rollback ? 20 : 0;
    return cfg;
}

/** Work efficiency: useful steps over all gradient computations. */
double
workEfficiency(const RecoveryStats &s)
{
    const double attempts =
        double(s.steps + s.retries + s.replayed);
    return attempts > 0 ? double(s.steps) / attempts : 1.0;
}

/** One policy-grid cell as a JSON record. */
std::string
gridRecord(double rate, const Policy &policy, double accuracy,
           const RecoveryStats &s, const FaultStats &faults,
           TrainPrecision final_precision)
{
    std::ostringstream oss;
    oss << "{\"section\": \"policy_grid\", \"rate\": " << rate
        << ", \"policy\": \"" << policy.name << "\""
        << ", \"accuracy\": " << accuracy
        << ", \"work_efficiency\": " << workEfficiency(s)
        << ", \"steps\": " << s.steps << ", \"clean\": " << s.clean
        << ", \"retried\": " << s.retried
        << ", \"rolled_back\": " << s.rolled_back
        << ", \"escalated\": " << s.escalated
        << ", \"skipped\": " << s.skipped
        << ", \"retries\": " << s.retries
        << ", \"rollbacks\": " << s.rollbacks
        << ", \"escalations\": " << s.escalations
        << ", \"checkpoints\": " << s.checkpoints
        << ", \"replayed\": " << s.replayed
        << ", \"closed\": " << (s.closed() ? "true" : "false")
        << ", \"injected\": " << faults.injected
        << ", \"sdc\": " << faults.sdc << ", \"final_precision\": \""
        << trainPrecisionName(final_precision) << "\"}";
    return oss.str();
}

/** Section 1: the dynamic loss scaler on HFP8 training. */
void
lossScalingSection(const Data &data)
{
    std::printf("=== Dynamic loss scaling: HFP8 spirals, %llu steps "
                "===\n\n",
                (unsigned long long)kGridSteps);
    Table t({"Scaler", "Final scale", "Growths", "Backoffs", "Skips",
             "Final loss", "Test acc"});
    for (const bool enabled : {false, true}) {
        ResilienceConfig cfg;
        cfg.scaler.enabled = enabled;
        cfg.scaler.growth_interval = 50;
        ResilientTrainer trainer(baseModel(), cfg);
        trainer.runSteps(data.train, kBatch, kGridSteps);
        const LossScalerState &s = trainer.scaler().state();
        t.addRow({enabled ? "on (init 256)" : "off",
                  Table::fmt(double(s.scale), 0), count(s.growths),
                  count(s.backoffs), count(s.skips),
                  Table::fmt(double(trainer.lastLoss()), 4),
                  Table::fmt(trainer.evaluate(data.test), 3)});
    }
    t.print();
    std::printf("\nBoth scales are powers of two, so scaling is exact "
                "in the FP32 master weights; the scaled run lifts "
                "HFP8's (1,5,2) error operands away from underflow.\n");
}

/** Section 2: what the sentinels see under heavy GEMM faults. */
void
sentinelSection(const Data &data)
{
    std::printf("\n=== Health sentinels: unprotected HFP8 GEMMs, "
                "recovery off ===\n\n");
    Table t({"Fault rate", "Injected", "SDC", "Events", "Spikes",
             "Outliers", "Non-finite", "Numeric faults", "Test acc"});
    for (const double rate : {0.0, 1e-5, 1e-4}) {
        ResilienceConfig cfg = policyConfig(kPolicies[0], rate);
        cfg.enable_sentinels = true; // observe, never recover
        ResilientTrainer trainer(baseModel(), cfg);
        trainer.runSteps(data.train, kBatch, kGridSteps);
        const HealthSentinel &sent = trainer.sentinel();
        const uint64_t nonfinite =
            sent.count(HealthEventKind::NonFiniteLoss) +
            sent.count(HealthEventKind::NonFiniteGradient) +
            sent.count(HealthEventKind::NonFiniteWeight);
        t.addRow({Table::fmt(rate, 6),
                  count(trainer.faultStats().injected),
                  count(trainer.faultStats().sdc),
                  count(sent.events().size()),
                  count(sent.count(HealthEventKind::LossSpike)),
                  count(sent.count(HealthEventKind::GradientOutlier)),
                  count(nonfinite),
                  count(sent.count(HealthEventKind::NumericFault)),
                  Table::fmt(trainer.evaluate(data.test), 3)});
    }
    t.print();
    std::printf("\nFlipped exponent bits mostly stay finite (spikes); "
                "the checked accumulation surfaces poisoned operands "
                "as structured numeric faults.\n");
}

/** Section 3: rollback + replay is bit-exact; bytes are stable. */
void
checkpointSection(const Data &data)
{
    std::printf("\n=== Checkpoint/rollback determinism (fault-free, "
                "120 steps) ===\n\n");
    ResilienceConfig cfg;
    cfg.checkpoint_interval = 30;

    ResilientTrainer straight(baseModel(), cfg);
    straight.runSteps(data.train, kBatch, 120);

    ResilientTrainer replayed(baseModel(), cfg);
    replayed.runSteps(data.train, kBatch, 60);
    const TrainerCheckpoint ckpt = replayed.checkpointNow();
    replayed.runSteps(data.train, kBatch, 60); // discarded below
    replayed.rollbackTo(ckpt);
    replayed.runSteps(data.train, kBatch, 60);

    const bool identical = straight.model().exportState() ==
                           replayed.model().exportState();
    const std::vector<uint8_t> bytes = serializeCheckpoint(ckpt);
    const TrainerCheckpoint parsed = deserializeCheckpoint(bytes);
    const bool roundtrip = serializeCheckpoint(parsed) == bytes;

    Table t({"Check", "Result"});
    t.addRow({"train 120 == train 60 + rollback + train 60",
              identical ? "bit-identical" : "MISMATCH"});
    t.addRow({"serialize -> parse -> serialize", roundtrip
                                                     ? "byte-stable"
                                                     : "MISMATCH"});
    t.addRow({"checkpoint size (bytes)", count(bytes.size())});
    t.print();
}

/** One cell of the fault-rate x policy grid. */
struct GridCell
{
    double accuracy = 0;
    RecoveryStats stats;
    FaultStats faults;
    TrainPrecision final_precision = TrainPrecision::HFP8;
    bool closed = false;
};

/** Section 4: the recovery-policy ladder vs fault rate. */
void
policyGridSection(const Data &data)
{
    constexpr double kRates[] = {0.0, 3e-5, 3e-4, 1e-3};
    constexpr size_t kNumPolicies =
        sizeof(kPolicies) / sizeof(kPolicies[0]);
    constexpr size_t kNumRates = sizeof(kRates) / sizeof(kRates[0]);

    std::printf("\n=== Recovery-policy ladder vs TrainerGemm fault "
                "rate (%llu steps, HFP8) ===\n\n",
                (unsigned long long)kGridSteps);

    // Cells are independent trainings: parallelMap gathers by index,
    // so the table is bit-identical at any thread count.
    const std::vector<GridCell> cells =
        parallelMap(kNumRates * kNumPolicies, [&](size_t idx) {
            const double rate = kRates[idx / kNumPolicies];
            const Policy &policy = kPolicies[idx % kNumPolicies];
            ResilientTrainer trainer(baseModel(),
                                     policyConfig(policy, rate));
            trainer.runSteps(data.train, kBatch, kGridSteps);
            GridCell cell;
            cell.accuracy = trainer.evaluate(data.test);
            cell.stats = trainer.stats();
            cell.faults = trainer.faultStats();
            cell.final_precision = trainer.model().precision();
            cell.closed = cell.stats.closed();
            return cell;
        });

    Table t({"Rate", "Policy", "Test acc", "Work eff", "Clean",
             "Retried", "Rolled back", "Escalated", "Skipped",
             "Precision", "Accounting"});
    for (size_t i = 0; i < cells.size(); ++i) {
        const GridCell &c = cells[i];
        const Policy &policy = kPolicies[i % kNumPolicies];
        const double rate = kRates[i / kNumPolicies];
        t.addRow({Table::fmt(rate, 6), policy.name,
                  Table::fmt(c.accuracy, 3),
                  Table::fmt(workEfficiency(c.stats), 3),
                  count(c.stats.clean), count(c.stats.retried),
                  count(c.stats.rolled_back), count(c.stats.escalated),
                  count(c.stats.skipped),
                  trainPrecisionName(c.final_precision),
                  c.closed ? "closed" : "LEAK"});
        sweepRecord("resilience",
                    gridRecord(rate, policy, c.accuracy, c.stats,
                               c.faults, c.final_precision));
    }
    t.print();
    std::printf("\nEvery completed step carries exactly one class, so "
                "steps == clean + retried + rolled_back + escalated + "
                "skipped in every cell.\n");
}

/** Section 5: what checkpointing costs the accelerator. */
void
overheadSection(const Data &data)
{
    std::printf("\n=== Checkpoint overhead: Young/Daly intervals on "
                "the default chip (200 GB/s) ===\n\n");
    const ChipConfig chip;

    // The spiral MLP's real checkpoint, plus a ResNet-50-scale
    // training state (25.5M params x {weights + momentum} in FP32).
    ResilienceConfig cfg;
    ResilientTrainer trainer(baseModel(), cfg);
    trainer.runSteps(data.train, kBatch, 1);
    const uint64_t mlp_bytes = checkpointBytes(trainer.checkpointNow());
    const uint64_t resnet_bytes = 25500000ULL * 2 * 4;

    constexpr double kStepSeconds = 2e-3; // HFP8 minibatch, fig15 scale
    Table t({"State", "Bytes", "Ckpt ms", "MTBF s", "Interval steps",
             "Overhead", "Rework"});
    for (const uint64_t bytes : {mlp_bytes, resnet_bytes}) {
        for (const double mtbf : {10.0, 600.0}) {
            const double ckpt_s = checkpointSeconds(bytes, chip);
            const uint64_t steps =
                youngDalyIntervalSteps(ckpt_s, mtbf, kStepSeconds);
            t.addRow({bytes == mlp_bytes ? "spiral MLP" : "ResNet-50",
                      count(bytes), Table::fmt(1e3 * ckpt_s, 4),
                      Table::fmt(mtbf, 0), count(steps),
                      Table::fmt(100.0 * checkpointOverheadFraction(
                                             kStepSeconds, steps,
                                             ckpt_s), 3) + "%",
                      Table::fmt(100.0 * expectedReworkFraction(
                                             kStepSeconds, steps, mtbf),
                                 3) + "%"});
        }
    }
    t.print();

    // The snapshot traffic lands in the breakdown's checkpoint lane.
    CycleBreakdown b;
    b.conv_gemm = 1e9;
    chargeCheckpoint(b, checkpointCycles(resnet_bytes, chip));
    std::printf("\nResNet-50 snapshot charges %.0f cycles into the "
                "checkpoint lane (%.2f%% of a 1e9-cycle interval).\n",
                b.checkpoint, 100.0 * b.checkpoint / b.total());
}

void
runSweep()
{
    const Data data = makeData();
    lossScalingSection(data);
    sentinelSection(data);
    checkpointSection(data);
    policyGridSection(data);
    overheadSection(data);
}

} // namespace

int
main(int argc, char **argv)
{
    return sweepMain("resilience_sweep", argc, argv, runSweep);
}
