/**
 * @file
 * Tests for the architecture description: peak-throughput algebra
 * against the paper's published numbers, and MPE ISA encode/decode.
 */

#include <gtest/gtest.h>

#include "arch/config.hh"
#include "arch/isa.hh"

namespace rapid {
namespace {

TEST(ChipConfig, PeakThroughputMatchesPaper)
{
    // Section IV / Figure 10: 4-core chip at 1.5 GHz delivers ~12
    // TFLOPS FP16, ~24 TFLOPS HFP8, ~96 TOPS INT4 peak.
    ChipConfig chip = makeInferenceChip(1.5);
    EXPECT_NEAR(chip.peakOpsPerSecond(Precision::FP16) / 1e12, 12.3,
                0.1);
    EXPECT_NEAR(chip.peakOpsPerSecond(Precision::HFP8) / 1e12, 24.6,
                0.1);
    EXPECT_NEAR(chip.peakOpsPerSecond(Precision::INT4) / 1e12, 98.3,
                0.2);
    EXPECT_NEAR(chip.peakOpsPerSecond(Precision::INT2) / 1e12, 196.6,
                0.4);
}

TEST(ChipConfig, FrequencyRangeMatchesFigure10)
{
    // 8-12.8 TFLOPS FP16 / 64-102.4 TOPS INT4 over 1.0-1.6 GHz.
    ChipConfig lo = makeInferenceChip(1.0);
    ChipConfig hi = makeInferenceChip(1.6);
    EXPECT_NEAR(lo.peakOpsPerSecond(Precision::FP16) / 1e12, 8.2, 0.1);
    EXPECT_NEAR(hi.peakOpsPerSecond(Precision::FP16) / 1e12, 13.1,
                0.1);
    EXPECT_NEAR(lo.peakOpsPerSecond(Precision::INT4) / 1e12, 65.5,
                0.2);
    EXPECT_NEAR(hi.peakOpsPerSecond(Precision::INT4) / 1e12, 104.9,
                0.2);
}

TEST(ChipConfig, PrecisionMultipliers)
{
    // HFP8 doubles, INT4 is 8x, INT2 is 16x the FP16 rate.
    ChipConfig chip = makeInferenceChip();
    double fp16 = chip.peakOpsPerSecond(Precision::FP16);
    EXPECT_DOUBLE_EQ(chip.peakOpsPerSecond(Precision::HFP8), 2 * fp16);
    EXPECT_DOUBLE_EQ(chip.peakOpsPerSecond(Precision::INT4), 8 * fp16);
    EXPECT_DOUBLE_EQ(chip.peakOpsPerSecond(Precision::INT2),
                     16 * fp16);
}

TEST(ChipConfig, TrainingSystemPeak)
{
    // Figure 11: 4 chips x 32 cores ~ 768 TFLOPS HFP8.
    SystemConfig sys = makeTrainingSystem(4);
    EXPECT_EQ(sys.chip.cores, 32u);
    EXPECT_NEAR(sys.peakOpsPerSecond(Precision::HFP8) / 1e12, 786.0,
                2.0);
    EXPECT_DOUBLE_EQ(sys.chip.mem_gbps, 400.0);
    EXPECT_DOUBLE_EQ(sys.chip_to_chip_gbps, 128.0);
}

TEST(ChipConfig, CoreletGeometry)
{
    CoreletConfig c;
    EXPECT_EQ(c.numMpes(), 64u);
    EXPECT_DOUBLE_EQ(c.mpeArrayMacsPerCycle(Precision::FP16), 512.0);
    EXPECT_DOUBLE_EQ(c.mpeArrayMacsPerCycle(Precision::INT4), 4096.0);
    EXPECT_DOUBLE_EQ(c.sfuLanes(), 128.0);
    // FP32 runs on the SFU, never the MPE array.
    EXPECT_DOUBLE_EQ(c.mpeArrayMacsPerCycle(Precision::FP32), 0.0);
}

TEST(Precision, OperandWidths)
{
    EXPECT_EQ(operandBits(Precision::FP16), 16u);
    EXPECT_EQ(operandBits(Precision::HFP8), 8u);
    EXPECT_EQ(operandBits(Precision::INT4), 4u);
    EXPECT_EQ(operandBits(Precision::INT2), 2u);
    EXPECT_DOUBLE_EQ(operandBytes(Precision::INT4), 0.5);
    EXPECT_TRUE(usesFxu(Precision::INT2));
    EXPECT_FALSE(usesFxu(Precision::FP16));
}

TEST(Isa, EncodeDecodeRoundTrip)
{
    MpeInstruction inst = makeFmma(Precision::HFP8, OperandSel::West,
                                   OperandSel::Lrf, 3, 7,
                                   Fp8Kind::Backward,
                                   Fp8Kind::Forward);
    inst.imm = 0xBEEF;
    EXPECT_EQ(MpeInstruction::decode(inst.encode()), inst);
}

TEST(Isa, RoundTripAllOpcodesAndPrecisions)
{
    for (auto op : {Opcode::Nop, Opcode::Fmma, Opcode::LrfLoad,
                    Opcode::MovSouth, Opcode::SetBias, Opcode::SetPrec,
                    Opcode::TokWait, Opcode::TokPost, Opcode::Halt}) {
        for (auto p : {Precision::FP32, Precision::FP16,
                       Precision::HFP8, Precision::INT4,
                       Precision::INT2}) {
            MpeInstruction inst;
            inst.op = op;
            inst.prec = p;
            inst.dst_reg = 31;
            inst.src_reg = 17;
            inst.imm = 12345;
            EXPECT_EQ(MpeInstruction::decode(inst.encode()), inst)
                << "op=" << int(op) << " prec=" << precisionName(p);
        }
    }
}

TEST(Isa, Disassembly)
{
    MpeInstruction fmma = makeFmma(Precision::INT4, OperandSel::West,
                                   OperandSel::Lrf, 1, 0);
    EXPECT_EQ(fmma.toString(), "fmma.INT4 r1, W, LRF[r0]");
    EXPECT_EQ(makeHalt().toString(), "halt");
    MpeInstruction bias;
    bias.op = Opcode::SetBias;
    bias.imm = 6;
    EXPECT_EQ(bias.toString(), "set.bias 6");
}

} // namespace
} // namespace rapid
