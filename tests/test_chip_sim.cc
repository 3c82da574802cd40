/**
 * @file
 * Tests for the chip-level integration simulation: compiled programs
 * running on multiple cores with weight tiles streamed over the ring
 * through the MNI, with and without multicast request aggregation.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hh"
#include "perf/perf_model.hh"
#include "sim/chip_sim.hh"
#include "sim/corelet_sim.hh"
#include "workloads/networks.hh"

namespace rapid {
namespace {

LayerProgram
compiledConv(Precision p = Precision::INT4)
{
    Layer l;
    l.type = LayerType::Conv;
    l.name = "conv";
    l.ci = 128;
    l.co = 128;
    l.h = 14;
    l.w = 14;
    l.kh = l.kw = 3;
    l.pad_h = l.pad_w = 1;
    CodeGenerator cg(makeInferenceChip());
    LayerPlan plan;
    plan.precision = p;
    return cg.generate(l, plan, 1);
}

TEST(ChipSim, AllCoresCompleteTheLayer)
{
    LayerProgram prog = compiledConv();
    ChipSim sim(4, /*multicast=*/true);
    ChipRunStats stats = sim.run(prog);
    ASSERT_EQ(stats.cores.size(), 4u);
    for (const auto &c : stats.cores) {
        EXPECT_EQ(c.fmma_issued, prog.fmma_slots);
        EXPECT_EQ(c.tiles_loaded, prog.num_tiles);
        EXPECT_LE(c.finish_cycle, stats.makespan);
    }
    EXPECT_GE(stats.makespan, SimTime(prog.fmma_slots));
}

TEST(ChipSim, MulticastSavesRingTraffic)
{
    LayerProgram prog = compiledConv();
    ChipRunStats mc = ChipSim(4, true).run(prog);
    ChipRunStats uc = ChipSim(4, false).run(prog);
    // One aggregated multicast per tile (4 hops to the furthest
    // consumer) vs four direction-optimized unicasts (1+2+2+1 = 6
    // hops) on the 5-node ring: a 1.5x data-traffic saving, plus it
    // never finishes later.
    EXPECT_LT(double(mc.ring_flit_hops),
              0.75 * double(uc.ring_flit_hops));
    EXPECT_LE(mc.makespan, uc.makespan + 5);
}

TEST(ChipSim, ComputeBoundLayerHidesTheStream)
{
    // Plenty of compute per tile: the stream stays ahead, stalls are
    // limited to the first tile's delivery.
    LayerProgram prog = compiledConv(Precision::FP16);
    ChipRunStats stats = ChipSim(4, true).run(prog);
    for (const auto &c : stats.cores)
        EXPECT_LT(double(c.stall_cycles), 0.05 * stats.makespan);
}

TEST(ChipSim, SingleCoreDegeneratesToCoreletBehaviour)
{
    LayerProgram prog = compiledConv();
    ChipRunStats stats = ChipSim(1, true).run(prog);
    ASSERT_EQ(stats.cores.size(), 1u);
    EXPECT_EQ(stats.cores[0].fmma_issued, prog.fmma_slots);
}

TEST(ChipSim, MoreCoresMoreTrafficSameProgram)
{
    LayerProgram prog = compiledConv();
    ChipRunStats c2 = ChipSim(2, true).run(prog);
    ChipRunStats c4 = ChipSim(4, true).run(prog);
    // Multicast traffic grows with the ring span (2 -> 4 hops to the
    // furthest consumer) but not with the consumer count itself; the
    // small excess over 2x is the doubled request-control traffic.
    EXPECT_GT(c4.ring_flit_hops, c2.ring_flit_hops);
    EXPECT_LT(double(c4.ring_flit_hops),
              2.2 * double(c2.ring_flit_hops));
}

TEST(ChipSim, RejectsZeroCores)
{
    EXPECT_THROW(ChipSim(0), Error);
}

TEST(ChipSim, DeadlockThrowsNamingTheToken)
{
    // A core waits on token 7 and no transfer is planned: nothing can
    // ever post it. The sim must say so once its domain runs dry (at
    // cycle 1), not spin to its 500 M-cycle backstop.
    LayerProgram prog;
    MpeInstruction wait;
    wait.op = Opcode::TokWait;
    wait.imm = 7;
    prog.mpe_program = {wait, makeHalt()};
    try {
        ChipSim(4, true).run(prog);
        FAIL() << "deadlocked program returned a timeline";
    } catch (const Error &e) {
        EXPECT_EQ(e.code(), ErrorCode::InvalidArgument);
        const std::string what = e.what();
        EXPECT_NE(what.find("token 7"), std::string::npos) << what;
        EXPECT_NE(what.find("cycle 1:"), std::string::npos) << what;
    }
}

// Pins the cycle-level numbers of two small SSD300 layers (INT4,
// batch 1, makeInferenceChip()) on both simulators. These values
// carry the stale-clock defect of DESIGN.md section 12: MNI
// completions wake a core at the domain's last executed event, not at
// the current cycle, so in conv10_2 every core finishes at cycle 127
// with 0 stall inside a 297-cycle makespan. Fixing that defect moves
// these pins on purpose (conv10_2's makespan goes to 360).
TEST(ChipSim, PinnedSsd300SmallLayers)
{
    struct Pin
    {
        const char *layer;
        SimTime makespan;
        uint64_t ring_flit_hops;
        SimTime finish, stall, issue;
        uint64_t fmma, tiles;
        SimTime corelet_total, corelet_seq, corelet_stall;
    };
    const Pin pins[] = {
        {"conv9_2", 297, 1164, 271, 0, 271, 234, 2, 423, 288, 152},
        {"conv10_2", 297, 1164, 127, 0, 127, 90, 2, 351, 288, 224},
    };
    const ChipConfig chip = makeInferenceChip();
    const Network net = makeSsd300();
    const CodeGenerator cg(chip);
    for (const Pin &pin : pins) {
        SCOPED_TRACE(pin.layer);
        const Layer *layer = nullptr;
        for (const Layer &l : net.layers)
            if (l.name == pin.layer)
                layer = &l;
        ASSERT_NE(layer, nullptr);
        LayerPlan plan;
        plan.precision = Precision::INT4;
        const LayerProgram prog = cg.generate(*layer, plan, 1);

        const ChipRunStats s = ChipSim(chip.cores, true).run(prog);
        EXPECT_EQ(s.makespan, pin.makespan);
        EXPECT_EQ(s.ring_flit_hops, pin.ring_flit_hops);
        ASSERT_EQ(s.cores.size(), 4u);
        for (const CoreRunStats &c : s.cores) {
            EXPECT_EQ(c.finish_cycle, pin.finish);
            EXPECT_EQ(c.stall_cycles, pin.stall);
            EXPECT_EQ(c.issue_cycles, pin.issue);
            EXPECT_EQ(c.fmma_issued, pin.fmma);
            EXPECT_EQ(c.tiles_loaded, pin.tiles);
        }

        const CoreletRunStats cs = CoreletSim().run(prog);
        EXPECT_EQ(cs.total_cycles, pin.corelet_total);
        EXPECT_EQ(cs.sequencer_cycles, pin.corelet_seq);
        EXPECT_EQ(cs.processor_cycles, pin.issue);
        EXPECT_EQ(cs.stall_cycles, pin.corelet_stall);
        EXPECT_EQ(cs.fmma_issued, pin.fmma);
        EXPECT_EQ(cs.tiles_loaded, pin.tiles);
    }
}

// While a core computes on its first tile, the ring goes idle with a
// sequencer free to request the second (one outstanding load). The
// request must go out the next cycle, not wait for the core's next
// event: the second tile is then banked before the core asks for it
// and the makespan is the compute time. Pinned from stepping every
// cycle.
TEST(ChipSim, IdleRingStillIssuesTheNextRequest)
{
    auto inst = [](Opcode op, uint16_t imm) {
        MpeInstruction i;
        i.op = op;
        i.imm = imm;
        return i;
    };
    LayerProgram prog;
    prog.mpe_program = {inst(Opcode::TokWait, 0), inst(Opcode::Fmma, 1000),
                        inst(Opcode::TokWait, 1), inst(Opcode::Fmma, 10),
                        makeHalt()};
    for (unsigned t : {0u, 1u}) {
        PlannedTransfer tr;
        tr.tag = t;
        tr.bytes = 2048;
        tr.n_consumers = 4;
        tr.ready_token = t;
        prog.transfers.push_back(tr);
    }
    MniConfig mni;
    mni.max_outstanding_loads = 1;
    for (bool multicast : {true, false}) {
        SCOPED_TRACE(multicast ? "multicast" : "unicast");
        const ChipRunStats s = ChipSim(4, multicast, mni).run(prog);
        EXPECT_EQ(s.makespan, 1010);
        for (const CoreRunStats &c : s.cores)
            EXPECT_EQ(c.finish_cycle, 1010);
    }
}

/** FNV-1a over the little-endian bytes of 64-bit words. */
class Fnv1a
{
  public:
    void
    u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ull;
        }
    }

    void
    faults(const FaultStats &f)
    {
        for (uint64_t v : {f.sampled, f.injected, f.detected,
                           f.corrected, f.retries, f.masked, f.sdc})
            u64(v);
        u64(std::bit_cast<uint64_t>(f.retry_cycles));
    }

    void
    chip(const ChipRunStats &s)
    {
        u64(uint64_t(s.makespan));
        u64(s.ring_flit_hops);
        u64(s.cores.size());
        for (const CoreRunStats &c : s.cores) {
            u64(uint64_t(c.finish_cycle));
            u64(uint64_t(c.stall_cycles));
            u64(uint64_t(c.issue_cycles));
            u64(c.fmma_issued);
            u64(c.tiles_loaded);
        }
    }

    void
    corelet(const CoreletRunStats &s)
    {
        u64(uint64_t(s.total_cycles));
        u64(uint64_t(s.sequencer_cycles));
        u64(uint64_t(s.processor_cycles));
        u64(uint64_t(s.stall_cycles));
        u64(s.fmma_issued);
        u64(s.tiles_loaded);
        faults(s.faults);
    }

    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ull;
};

/**
 * Every non-grouped compute layer of the 11 benchmark networks whose
 * analytical array cycles (streaming + overhead + exposed memory
 * stall, batch 1) fit @p max_model_cycles, compiled at INT4, HFP8 or
 * FP16 by layer index.
 */
std::vector<LayerProgram>
budgetedPrograms(double max_model_cycles)
{
    const Precision precisions[] = {Precision::INT4, Precision::HFP8,
                                    Precision::FP16};
    const ChipConfig chip = makeInferenceChip();
    const PerfModel model(chip);
    const CodeGenerator cg(chip);
    std::vector<LayerProgram> progs;
    for (const Network &net : allBenchmarks()) {
        for (size_t li = 0; li < net.layers.size(); ++li) {
            const Layer &l = net.layers[li];
            if (!l.isCompute() || l.groups != 1)
                continue;
            LayerPlan plan;
            plan.precision = precisions[li % 3];
            const LayerPerf p = model.evaluateLayer(l, plan, 1, false);
            if (p.cycles.conv_gemm + p.cycles.overhead +
                    p.cycles.mem_stall <=
                max_model_cycles)
                progs.push_back(cg.generate(l, plan, 1));
        }
    }
    return progs;
}

// Pins every field of every ChipSim and CoreletSim timeline over the
// budgeted layers of all 11 networks, on 1 and 4 cores, with and
// without multicast. The values carry the stale-clock defect of
// DESIGN.md section 12, like PinnedSsd300SmallLayers; a change to the
// simulators' cost must leave them bit for bit.
TEST(ChipSim, PinnedDigestOverAllNetworks)
{
    const std::vector<LayerProgram> progs = budgetedPrograms(20000);
    Fnv1a d;
    for (const LayerProgram &prog : progs) {
        for (unsigned cores : {1u, 4u})
            for (bool multicast : {true, false})
                d.chip(ChipSim(cores, multicast).run(prog));
        d.corelet(CoreletSim().run(prog));
    }
    EXPECT_EQ(progs.size(), 348u);
    EXPECT_EQ(d.value(), 0x156767c4ff60e247ull);
}

// With one outstanding load per core, each core's next request waits
// for the previous tile to land, so the ring idles between transfers
// while the cores compute.
TEST(ChipSim, PinnedDigestWithOneOutstandingLoad)
{
    const std::vector<LayerProgram> progs = budgetedPrograms(20000);
    MniConfig mni;
    mni.max_outstanding_loads = 1;
    Fnv1a d;
    for (const LayerProgram &prog : progs)
        for (bool multicast : {true, false})
            d.chip(ChipSim(4, multicast, mni).run(prog));
    EXPECT_EQ(d.value(), 0x19b8dd694c8bbfbaull);
}

} // namespace
} // namespace rapid
