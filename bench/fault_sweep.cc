/**
 * @file
 * Fault-injection sweep: the resilience counterpart of the figure
 * drivers. Sweeps fault rate x precision format x protection scheme
 * across the model's injection sites and reports detected / masked /
 * SDC rates plus the performance cost of protection (retry cycles)
 * and of graceful degradation (dead cores / dead MPE rows).
 *
 * Everything is deterministic: operand data and fault decisions
 * derive from fixed seeds via per-item streams, so the output is
 * bit-identical across runs and at any --threads N.
 */

#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common/sweep.hh"
#include "common/table.hh"
#include "common/fault.hh"
#include "fault/storage_sim.hh"
#include "interconnect/ring.hh"
#include "runtime/session.hh"
#include "sim/corelet_sim.hh"
#include "sim/systolic.hh"
#include "workloads/networks.hh"

using namespace rapid;

namespace {

std::string
count(uint64_t v)
{
    return std::to_string(v);
}

const char *kProtNames[] = {"none", "parity", "SECDED"};

SiteProtection
protScheme(int idx, double retry_cost)
{
    if (idx == 1)
        return parityProtection(retry_cost);
    if (idx == 2)
        return secdedProtection(retry_cost);
    return SiteProtection{};
}

/** Section 1: upsets per stored word across the precision formats. */
void
storageByFormat()
{
    constexpr double kRate = 1e-3;
    std::printf("=== Storage upsets by format (unprotected, rate %g "
                "per bit, %d words) ===\n\n",
                kRate, 1 << 14);
    Table t({"Format", "Bits", "Upset words", "Masked", "SDC",
             "Catastrophic", "Mean |err|", "Max |err|"});
    const StorageFormat formats[] = {
        StorageFormat::DLFloat16, StorageFormat::Fp8E4M3,
        StorageFormat::Fp8E5M2, StorageFormat::Int4,
        StorageFormat::Int2};
    for (StorageFormat fmt : formats) {
        StorageExperiment exp;
        exp.format = fmt;
        const FaultInjector inj(FaultConfig::withRate(kRate));
        const StorageResult r = runStorageExperiment(exp, inj);
        t.addRow({storageFormatName(fmt),
                  count(storageFormatBits(fmt)),
                  count(r.stats.injected),
                  Table::pct(r.stats.masked, r.stats.injected, 3),
                  Table::pct(r.stats.sdc, r.stats.injected, 3),
                  count(r.catastrophic), Table::fmt(r.meanAbsError(), 4),
                  Table::fmt(r.max_abs_error, 2)});
    }
    t.print();
    std::printf("\nBounded INT levels keep every upset small; float "
                "exponent bits make rare upsets catastrophic.\n");
}

/** Section 2: protection schemes vs fault rate on DLFloat16 words. */
void
storageProtection()
{
    std::printf("\n=== Protection on DLFloat16 storage (retry cost 64 "
                "cycles/word) ===\n\n");
    Table t({"Rate/bit", "Protection", "Upsets", "Detected",
             "Corrected", "Retries", "SDC", "Retry cycles"});
    for (double rate : {1e-4, 1e-3, 1e-2}) {
        for (int prot = 0; prot < 3; ++prot) {
            FaultConfig cfg = FaultConfig::withRate(rate);
            cfg.protectAll(protScheme(prot, 64.0));
            StorageExperiment exp;
            const StorageResult r =
                runStorageExperiment(exp, FaultInjector(cfg));
            t.addRow({Table::fmt(rate, 4), kProtNames[prot],
                      count(r.stats.injected),
                      Table::pct(r.stats.detected, r.stats.injected, 3),
                      Table::pct(r.stats.corrected, r.stats.injected, 3),
                      count(r.stats.retries), count(r.stats.sdc),
                      Table::fmt(r.stats.retry_cycles, 0)});
        }
    }
    t.print();
}

/** Section 3: MAC-output corruption in the cycle-level systolic sim. */
void
macFaults()
{
    std::printf("\n=== MAC-output faults, 48x48x48 FP16 GEMM on one "
                "corelet (retry = 16-cycle tile re-issue) ===\n\n");
    const int64_t n = 48;
    Tensor a({n, n}), b({n, n});
    Rng rng(0xbeefULL);
    for (int64_t i = 0; i < n; ++i)
        for (int64_t j = 0; j < n; ++j) {
            a.at(i, j) = float(rng.gaussian());
            b.at(i, j) = float(rng.gaussian());
        }
    CoreletConfig corelet;
    SystolicArraySim base_sim(corelet, Precision::FP16);
    const SystolicResult base = base_sim.gemm(a, b);

    Table t({"Rate/output", "Protection", "Injected", "SDC outputs",
             "Cycles", "vs clean", "Max |dC|"});
    t.addRow({"0", "-", "0", "0", count(base.cycles), "1.00", "0"});
    for (double rate : {1e-3, 1e-2}) {
        for (int prot : {0, 2}) {
            FaultConfig cfg = FaultConfig::withRate(rate);
            cfg.protectAll(protScheme(prot, 16.0));
            const FaultInjector inj(cfg);
            SystolicArraySim sim(corelet, Precision::FP16);
            sim.setFaultInjector(&inj);
            const SystolicResult r = sim.gemm(a, b);
            double max_dc = 0;
            for (int64_t i = 0; i < n; ++i)
                for (int64_t j = 0; j < n; ++j) {
                    const double d =
                        std::abs(double(r.c.at(i, j)) -
                                 double(base.c.at(i, j)));
                    if (std::isnan(d))
                        max_dc =
                            std::numeric_limits<double>::infinity();
                    else if (d > max_dc)
                        max_dc = d;
                }
            t.addRow({Table::fmt(rate, 3), kProtNames[prot],
                      count(r.faults.injected), count(r.faults.sdc),
                      count(r.cycles),
                      Table::fmt(double(r.cycles) / double(base.cycles),
                                 2),
                      Table::fmt(max_dc, 3)});
        }
    }
    t.print();
}

/** Section 4: flit corruption and link-level retry on the ring. */
void
ringFaults()
{
    std::printf("\n=== Ring flit faults, 5-node ring, 64 KiB "
                "multicast from the memory node ===\n\n");
    Table t({"Rate/hop", "Protection", "Hops", "Retransmits",
             "Corrupted msgs", "Drain cycles", "vs clean"});
    uint64_t clean_cycles = 0;
    for (int row = 0; row < 5; ++row) {
        const double rate = row == 0 ? 0.0 : (row <= 2 ? 1e-3 : 1e-2);
        const int prot = row == 0 ? 0 : (row % 2 == 1 ? 1 : 0);
        FaultConfig cfg = FaultConfig::withRate(rate);
        cfg.protectAll(protScheme(prot, 1.0));
        const FaultInjector inj(cfg);
        RingNetwork ring{RingConfig{}};
        ring.setFaultInjector(&inj);
        ring.send(0, {1, 2, 3, 4}, 64 * 1024);
        ring.drain();
        if (row == 0)
            clean_cycles = ring.now();
        const uint64_t corrupted = ring.message(0).corrupted ? 1 : 0;
        t.addRow({Table::fmt(rate, 3), kProtNames[prot],
                  count(ring.flitHopsMoved()),
                  count(ring.faultStats().retries), count(corrupted),
                  count(ring.now()),
                  Table::fmt(double(ring.now()) / double(clean_cycles),
                             3)});
    }
    t.print();
    std::printf("\nDetected flit faults squash the hop and retransmit "
                "(cycles grow); undetected ones corrupt the payload.\n");
}

/** Section 5: scratchpad-block faults in the decoupled corelet sim. */
void
scratchpadFaults()
{
    std::printf("\n=== Scratchpad block faults, 32-tile fetch-bound "
                "corelet run (retry = re-stream the block) ===\n\n");
    // Fetch-bound tile walk: 4 KiB blocks at 128 B/cycle, short
    // compute, so re-streamed blocks stretch the makespan directly.
    LayerProgram prog;
    {
        MpeInstruction set_prec;
        set_prec.op = Opcode::SetPrec;
        set_prec.prec = Precision::FP16;
        prog.mpe_program.push_back(set_prec);
        for (int tile = 0; tile < 32; ++tile) {
            PlannedTransfer tr;
            tr.tag = unsigned(tile + 1);
            tr.ready_token = unsigned(tile + 1);
            tr.bytes = 4096;
            prog.transfers.push_back(tr);
            MpeInstruction wait;
            wait.op = Opcode::TokWait;
            wait.imm = uint16_t(tile + 1);
            prog.mpe_program.push_back(wait);
            prog.mpe_program.push_back(makeLrfLoad(0));
            MpeInstruction fmma =
                makeFmma(Precision::FP16, OperandSel::West,
                         OperandSel::Lrf, 1, 0);
            fmma.imm = 8;
            prog.mpe_program.push_back(fmma);
            prog.fmma_slots += 8;
            prog.mpe_program.push_back(makeMovSouth(1));
            ++prog.num_tiles;
        }
        prog.mpe_program.push_back(makeHalt());
    }

    Table t({"Rate/block", "Protection", "Injected", "Re-streams",
             "SDC blocks", "Makespan", "vs clean"});
    SimTime clean = 0;
    for (int row = 0; row < 4; ++row) {
        const double rate = row == 0 ? 0.0 : (row == 3 ? 0.25 : 0.1);
        const int prot = row == 2 || row == 3 ? 1 : 0;
        FaultConfig cfg = FaultConfig::withRate(rate);
        cfg.protectAll(protScheme(prot, 32.0));
        const FaultInjector inj(cfg);
        CoreletSim sim(128.0, 8);
        sim.setFaultInjector(&inj);
        const CoreletRunStats stats = sim.run(prog);
        if (row == 0)
            clean = stats.total_cycles;
        t.addRow({Table::fmt(rate, 2), kProtNames[prot],
                  count(stats.faults.injected),
                  count(stats.faults.retries), count(stats.faults.sdc),
                  count(stats.total_cycles),
                  Table::fmt(double(stats.total_cycles) / double(clean),
                             3)});
    }
    t.print();
}

/** Section 6: graceful degradation under dead units. */
void
gracefulDegradation()
{
    std::printf("\n=== Graceful degradation: ResNet-50 INT4 batch 8, "
                "dead cores / dead MPE rows ===\n\n");
    Table t({"Dead cores", "Dead MPE rows", "Live cores",
             "Live rows", "inf/s", "vs healthy"});
    double healthy = 0;
    const struct
    {
        uint64_t core_mask;
        uint64_t row_mask;
    } cases[] = {{0, 0},     {0x1, 0},  {0x3, 0},
                 {0x7, 0},   {0, 0x1},  {0, 0x3},
                 {0x1, 0x1}};
    const Network resnet = makeResnet50();
    for (const auto &c : cases) {
        ChipConfig chip = makeInferenceChip();
        chip.dead_core_mask = c.core_mask;
        chip.dead_mpe_row_mask = c.row_mask;
        InferenceSession session(chip, resnet);
        InferenceOptions opts;
        opts.target = Precision::INT4;
        opts.batch = 8;
        const double sps = session.run(opts).perf.samplesPerSecond();
        if (c.core_mask == 0 && c.row_mask == 0)
            healthy = sps;
        t.addRow({count(std::popcount(c.core_mask)),
                  count(std::popcount(c.row_mask)),
                  count(chip.activeCores()), count(chip.activeMpeRows()),
                  Table::fmt(sps, 1), Table::fmt(sps / healthy, 3)});
    }
    t.print();
    std::printf("\nThe mapper re-plans around dead units: a 1-of-4-core "
                "chip still runs end to end at derated throughput.\n");
}

/** Section 7: protection retry cost in the end-to-end session. */
void
sessionRetryCost()
{
    std::printf("\n=== End-to-end retry cost: ResNet-50 INT4 batch 8, "
                "parity everywhere (retry 64 cycles) ===\n\n");
    Table t({"Fault rate", "Retry cycles", "inf/s", "vs fault-free"});
    double clean = 0;
    const Network resnet = makeResnet50();
    for (double rate : {0.0, 1e-9, 1e-8, 1e-7}) {
        InferenceOptions opts;
        opts.target = Precision::INT4;
        opts.batch = 8;
        opts.fault = FaultConfig::withRate(rate);
        opts.fault.protectAll(parityProtection(64.0));
        InferenceSession session(makeInferenceChip(), resnet);
        const InferenceResult r = session.run(opts);
        if (rate == 0.0)
            clean = r.perf.samplesPerSecond();
        t.addRow({Table::fmt(rate, 10),
                  Table::fmt(r.perf.breakdown.retry, 0),
                  Table::fmt(r.perf.samplesPerSecond(), 1),
                  Table::fmt(r.perf.samplesPerSecond() / clean, 4)});
    }
    t.print();
}

void
runSweep()
{
    storageByFormat();
    storageProtection();
    macFaults();
    ringFaults();
    scratchpadFaults();
    gracefulDegradation();
    sessionRetryCost();
}

} // namespace

int
main(int argc, char **argv)
{
    return sweepMain("fault_sweep", argc, argv, runSweep);
}
