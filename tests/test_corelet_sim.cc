/**
 * @file
 * Tests for the decoupled access/execute corelet simulator: token
 * ordering, emergent fetch/compute overlap (double buffering), and
 * consistency between compiled programs and simulated timelines.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/error.hh"
#include "compiler/codegen.hh"
#include "sim/corelet_sim.hh"

namespace rapid {
namespace {

/** Hand-built program: N tiles of (wait, load, stream, post). */
LayerProgram
makeTileWalk(int tiles, uint64_t bytes_per_tile, uint16_t stream)
{
    LayerProgram prog;
    MpeInstruction set_prec;
    set_prec.op = Opcode::SetPrec;
    set_prec.prec = Precision::FP16;
    prog.mpe_program.push_back(set_prec);
    for (int t = 0; t < tiles; ++t) {
        PlannedTransfer tr;
        tr.tag = unsigned(t + 1);
        tr.ready_token = unsigned(t + 1);
        tr.bytes = bytes_per_tile;
        prog.transfers.push_back(tr);

        MpeInstruction wait;
        wait.op = Opcode::TokWait;
        wait.imm = uint16_t(t + 1);
        prog.mpe_program.push_back(wait);
        prog.mpe_program.push_back(makeLrfLoad(0));
        MpeInstruction fmma =
            makeFmma(Precision::FP16, OperandSel::West,
                     OperandSel::Lrf, 1, 0);
        fmma.imm = stream;
        prog.mpe_program.push_back(fmma);
        prog.fmma_slots += stream;
        prog.mpe_program.push_back(makeMovSouth(1));
        ++prog.num_tiles;
    }
    prog.mpe_program.push_back(makeHalt());
    return prog;
}

TEST(CoreletSim, SingleTileTimeline)
{
    // One 1280-byte tile at 128 B/cycle = 10 fetch cycles, then the
    // processor loads (8) and streams (100).
    LayerProgram prog = makeTileWalk(1, 1280, 100);
    CoreletSim sim(128.0, 8);
    CoreletRunStats stats = sim.run(prog);
    EXPECT_EQ(stats.tiles_loaded, 1u);
    EXPECT_EQ(stats.fmma_issued, 100u);
    // Makespan: 10 (fetch, processor stalled) + 8 + 100 + ~3 bookkeeping.
    EXPECT_GE(stats.total_cycles, 118u);
    EXPECT_LE(stats.total_cycles, 125u);
    EXPECT_GE(stats.stall_cycles, 9u);
}

TEST(CoreletSim, ComputeBoundRunHidesFetch)
{
    // Fetch = 10 cycles/tile, compute = 500 cycles/tile: after the
    // first tile the sequencer is always ahead -> overlap emerges.
    LayerProgram prog = makeTileWalk(16, 1280, 500);
    CoreletSim sim(128.0, 8);
    CoreletRunStats stats = sim.run(prog);
    // Only the first tile's fetch is exposed.
    EXPECT_LE(stats.stall_cycles, 12u);
    EXPECT_LE(stats.total_cycles,
              stats.processor_cycles + 20);
    EXPECT_GT(stats.overlapEfficiency(), 0.0);
}

TEST(CoreletSim, FetchBoundRunStallsOnTokens)
{
    // Fetch = 800 cycles/tile, compute = 50: the processor spends
    // most of its life parked on TokWait.
    LayerProgram prog = makeTileWalk(8, 102400, 50);
    CoreletSim sim(128.0, 8);
    CoreletRunStats stats = sim.run(prog);
    // Makespan tracks the sequencer, not compute.
    EXPECT_GE(stats.total_cycles, stats.sequencer_cycles);
    EXPECT_LE(stats.total_cycles, stats.sequencer_cycles + 100);
    EXPECT_GT(stats.stall_cycles, 8u * 600u);
}

TEST(CoreletSim, DeadlocksAreDetected)
{
    // A program waiting on a token no transfer posts must throw,
    // naming the token, rather than return a bogus timeline.
    LayerProgram prog = makeTileWalk(1, 128, 10);
    prog.transfers.clear(); // sequencer will never post token 1
    CoreletSim sim;
    try {
        sim.run(prog);
        FAIL() << "deadlocked program returned a timeline";
    } catch (const Error &e) {
        EXPECT_EQ(e.code(), ErrorCode::InvalidArgument);
        const std::string what = e.what();
        EXPECT_NE(what.find("token 1 "), std::string::npos) << what;
    }
}

TEST(CoreletSim, RejectsNonPositiveBandwidth)
{
    EXPECT_THROW(CoreletSim(0.0), Error);
    EXPECT_THROW(CoreletSim(-1.0), Error);
}

TEST(CoreletSim, CompiledConvLayerRunsToCompletion)
{
    // End-to-end: compile a real layer, then simulate its program.
    ChipConfig chip = makeInferenceChip();
    CodeGenerator cg(chip);
    Layer l;
    l.type = LayerType::Conv;
    l.name = "conv";
    l.ci = 64;
    l.co = 128;
    l.h = 14;
    l.w = 14;
    l.kh = l.kw = 3;
    l.pad_h = l.pad_w = 1;
    LayerPlan plan;
    plan.precision = Precision::INT4;
    LayerProgram prog = cg.generate(l, plan, 1);

    CoreletSim sim;
    CoreletRunStats stats = sim.run(prog);
    EXPECT_EQ(stats.tiles_loaded, prog.num_tiles);
    EXPECT_EQ(stats.fmma_issued, prog.fmma_slots);
    // The simulated makespan is at least the compute time and at
    // most compute + all fetch fully exposed.
    EXPECT_GE(stats.total_cycles, SimTime(prog.fmma_slots));
    EXPECT_LE(stats.total_cycles,
              stats.processor_cycles + stats.sequencer_cycles + 10);
}

TEST(CoreletSim, MakespanApproachesMaxOfStreams)
{
    // The headline double-buffering property: with many tiles the
    // makespan approaches max(fetch_total, compute_total), not the
    // sum.
    for (uint16_t stream : {60, 800}) {
        LayerProgram prog = makeTileWalk(32, 25600, stream);
        CoreletSim sim(128.0, 8);
        CoreletRunStats stats = sim.run(prog);
        SimTime lower =
            std::max(stats.sequencer_cycles, stats.processor_cycles);
        EXPECT_GE(stats.total_cycles, lower);
        EXPECT_LE(double(stats.total_cycles), double(lower) * 1.15)
            << "stream=" << stream;
    }
}

} // namespace
} // namespace rapid
