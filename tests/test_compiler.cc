/**
 * @file
 * Tests for the graph compiler's MPE/MNI program generation, including
 * the consistency contract between the generated programs and the
 * analytical dataflow mapping.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/error.hh"
#include "compiler/codegen.hh"
#include "compiler/precision_assign.hh"
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
