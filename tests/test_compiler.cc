/**
 * @file
 * Tests for the graph-compiler passes: scratchpad tiling /
 * double-buffer planning and MPE/MNI program generation, including
 * the consistency contract between the generated programs and the
 * analytical dataflow mapping.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/error.hh"
#include "compiler/codegen.hh"
#include "compiler/precision_assign.hh"
#include "compiler/tiling.hh"
#include "workloads/networks.hh"

namespace rapid {
namespace {

Layer
bigConv()
{
    Layer l;
    l.name = "conv";
    l.type = LayerType::Conv;
    l.ci = 256;
    l.co = 256;
    l.h = 56;
    l.w = 56;
    l.kh = l.kw = 3;
    l.pad_h = l.pad_w = 1;
    return l;
}

TEST(Tiling, RespectsL1Capacity)
{
    CoreConfig core;
    TilePlanner planner(core, 128.0);
    for (const auto &net : allBenchmarks()) {
        for (const auto &l : net.layers) {
            if (!l.isCompute())
                continue;
            TileSchedule s = planner.plan(l, 1, Precision::INT4);
            const double l1 = core.l1_kib * 1024.0;
            double resident =
                (s.double_buffered ? 2.0 : 1.0) *
                (s.input_tile_bytes + s.output_tile_bytes);
            EXPECT_LE(resident, l1 * 1.001)
                << net.name << "/" << l.name;
            EXPECT_GE(s.positions_per_tile, 1) << l.name;
            EXPECT_GE(s.num_tiles, 1) << l.name;
        }
    }
}

TEST(Tiling, TilesCoverAllPositions)
{
    CoreConfig core;
    TilePlanner planner(core, 128.0);
    Layer l = bigConv();
    for (int64_t batch : {1L, 8L, 64L}) {
        TileSchedule s = planner.plan(l, batch, Precision::FP16);
        int64_t positions = l.outH() * l.outW() * batch;
        EXPECT_GE(s.num_tiles * s.positions_per_tile, positions);
        EXPECT_LT((s.num_tiles - 1) * s.positions_per_tile,
                  positions);
    }
}

TEST(Tiling, LowerPrecisionMeansBiggerTiles)
{
    CoreConfig core;
    TilePlanner planner(core, 128.0);
    Layer l = bigConv();
    TileSchedule fp16 = planner.plan(l, 8, Precision::FP16);
    TileSchedule int4 = planner.plan(l, 8, Precision::INT4);
    // Quarter the bytes per element -> at least 2x the tile.
    EXPECT_GE(int4.positions_per_tile,
              fp16.positions_per_tile * 2);
}

TEST(Tiling, DoubleBufferingHidesFetchWhenComputeBound)
{
    CoreConfig core;
    TilePlanner planner(core, 128.0);
    // 3x3 conv over many channels: heavily compute bound.
    TileSchedule s = planner.plan(bigConv(), 8, Precision::FP16);
    EXPECT_TRUE(s.double_buffered);
    EXPECT_DOUBLE_EQ(s.prefetchCoverage(), 1.0);
    // Total time then equals pure compute.
    EXPECT_NEAR(s.totalCycles(),
                s.num_tiles * s.compute_cycles_per_tile,
                s.compute_cycles_per_tile);
}

TEST(Tiling, BandwidthStarvedLayerExposesFetch)
{
    CoreConfig core;
    // Starve the memory system: 0.5 bytes/cycle.
    TilePlanner planner(core, 0.5);
    Layer fc;
    fc.type = LayerType::Gemm;
    fc.name = "fc";
    fc.gm = 1;
    fc.gk = 4096;
    fc.gn = 4096;
    TileSchedule s = planner.plan(fc, 1, Precision::FP16);
    EXPECT_LT(s.prefetchCoverage(), 1.0);
    EXPECT_GT(s.totalCycles(),
              s.num_tiles * s.compute_cycles_per_tile);
}

TEST(Tiling, WeightHeavyLayerStillGetsActivationBudget)
{
    CoreConfig core;
    TilePlanner planner(core, 128.0);
    Layer fc;
    fc.type = LayerType::Gemm;
    fc.name = "fc6";
    fc.gm = 1;
    fc.gk = 25088;
    fc.gn = 4096; // ~100M weights: far beyond any L1
    double budget = planner.activationBudget(fc, Precision::FP16);
    EXPECT_GE(budget, 0.25 * core.l1_kib * 1024.0);
}

TEST(Codegen, ProgramStructureIsWellFormed)
{
    CodeGenerator cg(makeInferenceChip());
    LayerPlan plan;
    plan.precision = Precision::HFP8;
    LayerProgram prog = cg.generate(bigConv(), plan, 1);

    ASSERT_GE(prog.mpe_program.size(), 4u);
    EXPECT_EQ(prog.mpe_program[0].op, Opcode::SetPrec);
    EXPECT_EQ(prog.mpe_program[0].prec, Precision::HFP8);
    EXPECT_EQ(prog.mpe_program[1].op, Opcode::SetBias);
    EXPECT_EQ(prog.mpe_program.back().op, Opcode::Halt);

    // Every LrfLoad is preceded by a token wait, and each tile posts
    // its completion token.
    size_t loads = 0, waits = 0, posts = 0;
    for (size_t i = 0; i < prog.mpe_program.size(); ++i) {
        const auto &inst = prog.mpe_program[i];
        if (inst.op == Opcode::LrfLoad) {
            ++loads;
            ASSERT_GT(i, 0u);
            EXPECT_EQ(prog.mpe_program[i - 1].op, Opcode::TokWait);
        }
        if (inst.op == Opcode::TokWait)
            ++waits;
        if (inst.op == Opcode::TokPost)
            ++posts;
    }
    EXPECT_EQ(loads, prog.num_tiles);
    EXPECT_EQ(waits, loads);
    EXPECT_EQ(prog.transfers.size(), size_t(prog.num_tiles));
}

TEST(Codegen, FmmaSlotsMatchAnalyticalMapping)
{
    // The contract between codegen and the perf model: the emitted
    // streaming slots equal the mapper's compute cycles per worker.
    ChipConfig chip = makeInferenceChip();
    CodeGenerator cg(chip);
    DataflowMapper mapper(chip);
    for (auto p : {Precision::FP16, Precision::HFP8,
                   Precision::INT4}) {
        LayerPlan plan;
        plan.precision = p;
        Layer l = bigConv();
        LayerProgram prog = cg.generate(l, plan, 1);
        Mapping m = mapper.map(l, 1, p);
        EXPECT_DOUBLE_EQ(double(prog.fmma_slots), m.compute_cycles)
            << precisionName(p);
    }
}

TEST(Codegen, TransfersCoverWeightFootprint)
{
    ChipConfig chip = makeInferenceChip();
    CodeGenerator cg(chip);
    LayerPlan plan;
    plan.precision = Precision::INT4;
    Layer l = bigConv();
    LayerProgram prog = cg.generate(l, plan, 1);
    double staged = 0;
    for (const auto &t : prog.transfers)
        staged += double(t.bytes);
    // The program is per worker: output-channel-split workers stage
    // disjoint weight slices, so each worker's padded tile walk must
    // cover at least its 1/workers share of the footprint.
    DataflowMapper mapper(chip);
    Mapping m = mapper.map(l, 1, Precision::INT4);
    double weights =
        double(l.weightElems()) * operandBytes(Precision::INT4);
    EXPECT_GE(staged, weights / m.workers_co);
    // And no more than a fully padded walk of that share.
    EXPECT_LE(staged, 4.0 * weights / m.workers_co);
}

TEST(Codegen, GemmWithRepeatWalksTilesPerStep)
{
    // LSTM-style GEMM: the tile walk re-runs every timestep.
    ChipConfig chip = makeInferenceChip();
    CodeGenerator cg(chip);
    Layer gates;
    gates.type = LayerType::Gemm;
    gates.name = "gates";
    gates.gm = 1;
    gates.gk = 1300;
    gates.gn = 2600;
    LayerPlan plan;
    plan.precision = Precision::FP16;

    gates.repeat = 1;
    uint64_t tiles_one = cg.generate(gates, plan, 1).num_tiles;
    gates.repeat = 5;
    uint64_t tiles_five = cg.generate(gates, plan, 1).num_tiles;
    EXPECT_EQ(tiles_five, 5 * tiles_one);
}

TEST(Codegen, Int2ProgramsUseFxuPrecision)
{
    CodeGenerator cg(makeInferenceChip());
    LayerPlan plan;
    plan.precision = Precision::INT2;
    LayerProgram prog = cg.generate(bigConv(), plan, 1);
    bool saw_fmma = false;
    for (const auto &inst : prog.mpe_program)
        if (inst.op == Opcode::Fmma) {
            saw_fmma = true;
            EXPECT_EQ(inst.prec, Precision::INT2);
        }
    EXPECT_TRUE(saw_fmma);
}

TEST(Codegen, RejectsAuxLayers)
{
    CodeGenerator cg(makeInferenceChip());
    Layer aux;
    aux.type = LayerType::Aux;
    aux.aux_elems = 100;
    LayerPlan plan;
    EXPECT_DEATH(cg.generate(aux, plan, 1), "non-compute");
}

TEST(Codegen, RejectsTileWalksBeyondTokenIdRange)
{
    // speech "output" at INT2, batch 1 walks 86,400 tiles: one token
    // id each would wrap the 16-bit TokWait/TokPost immediate.
    CodeGenerator cg(makeInferenceChip());
    const Network speech = benchmarkByName("speech");
    const auto it = std::find_if(
        speech.layers.begin(), speech.layers.end(),
        [](const Layer &l) { return l.name == "output"; });
    ASSERT_NE(it, speech.layers.end());
    LayerPlan plan;
    plan.precision = Precision::INT2;
    try {
        cg.generate(*it, plan, 1);
        FAIL() << "expected a token-id range error";
    } catch (const Error &e) {
        EXPECT_EQ(e.code(), ErrorCode::InvalidArgument);
        EXPECT_NE(e.message().find("needs 86400 token ids"),
                  std::string::npos)
            << e.message();
    }
}

TEST(Codegen, TileWalkAtTokenIdLimitGenerates)
{
    // A one-tile GEMM step repeated up to the limit uses every token
    // id exactly once; one more step is rejected.
    CodeGenerator cg(makeInferenceChip());
    Layer step;
    step.type = LayerType::Gemm;
    step.name = "step";
    step.gm = 1;
    step.gk = 16;
    step.gn = 16;
    LayerPlan plan;
    plan.precision = Precision::INT4;
    ASSERT_EQ(cg.generate(step, plan, 1).num_tiles, 1u);

    step.repeat = CodeGenerator::kMaxTokenId;
    const LayerProgram prog = cg.generate(step, plan, 1);
    EXPECT_EQ(prog.num_tiles, uint64_t(CodeGenerator::kMaxTokenId));
    ASSERT_EQ(prog.transfers.size(), size_t(prog.num_tiles));
    EXPECT_EQ(prog.transfers.back().ready_token,
              unsigned(CodeGenerator::kMaxTokenId));
    uint16_t last_wait = 0;
    for (const MpeInstruction &inst : prog.mpe_program)
        if (inst.op == Opcode::TokWait)
            last_wait = inst.imm;
    EXPECT_EQ(last_wait, CodeGenerator::kMaxTokenId);

    step.repeat = CodeGenerator::kMaxTokenId + 1;
    EXPECT_THROW(cg.generate(step, plan, 1), Error);
}

} // namespace
} // namespace rapid
