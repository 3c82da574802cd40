#include "compiler/codegen.hh"

#include "common/bitfield.hh"
#include "common/error.hh"
#include "common/logging.hh"

namespace rapid {

CodeGenerator::CodeGenerator(const ChipConfig &chip)
    : chip_(chip), mapper_(chip)
{
}

LayerProgram
CodeGenerator::generate(const Layer &layer, const LayerPlan &plan,
                        int64_t batch) const
{
    rapid_assert(layer.isCompute(), "codegen for non-compute layer ",
                 layer.name);
    const Precision p = plan.precision;
    rapid_assert(p != Precision::FP32, "FP32 layers run on the SFU");

    const MappedShape shape = mappedShape(layer, batch);
    Mapping m = mapper_.map(layer, batch, p);

    const int64_t red_cap = mapper_.reductionCap(p);
    const int64_t out_cap = mapper_.outputCap();
    const int64_t co_local =
        divCeil(shape.outputs, int64_t(m.workers_co));
    const int64_t pos_local =
        divCeil(shape.positions, int64_t(m.workers_pos));
    const int64_t n_co = divCeil(co_local, out_cap);
    const int64_t n_red = divCeil(shape.reduction, red_cap);
    // Every tile takes a fresh token id, and TokWait/TokPost carry it
    // in a 16-bit immediate: a longer walk would wrap the ids and the
    // program would wait on a token its sequencer posts under another.
    const int64_t tiles = layer.repeat * n_co * n_red;
    RAPID_CHECK_ARG(tiles <= kMaxTokenId, "codegen: layer ", layer.name,
                    " needs ", tiles, " token ids, more than the ",
                    kMaxTokenId, " a 16-bit TokWait/TokPost holds");

    LayerProgram prog;
    std::vector<MpeInstruction> raw;

    // Program prologue: fix the pipeline precision (and FP8 bias) for
    // the whole program, as the ISA requires (Section III-A.2).
    MpeInstruction set_prec;
    set_prec.op = Opcode::SetPrec;
    set_prec.prec = p;
    raw.push_back(set_prec);
    if (p == Precision::HFP8) {
        MpeInstruction set_bias;
        set_bias.op = Opcode::SetBias;
        set_bias.imm = 4;
        raw.push_back(set_bias);
    }

    const double tile_bytes =
        double(red_cap) * out_cap * operandBytes(p);
    unsigned token = 1;
    for (int64_t rep = 0; rep < layer.repeat; ++rep) {
        for (int64_t co = 0; co < n_co; ++co) {
            for (int64_t red = 0; red < n_red; ++red) {
                for (int64_t kk = 0; kk < shape.kernel; ++kk) {
                    // Stage the weight block through the MNI; the
                    // position-split workers share it via multicast.
                    PlannedTransfer tr;
                    tr.tag = token;
                    tr.bytes = uint64_t(tile_bytes * shape.kernel);
                    tr.n_consumers = unsigned(m.workers_pos);
                    tr.ready_token = token;
                    if (kk == 0)
                        prog.transfers.push_back(tr);

                    if (kk == 0) {
                        MpeInstruction wait;
                        wait.op = Opcode::TokWait;
                        wait.imm = uint16_t(token);
                        raw.push_back(wait);
                        raw.push_back(makeLrfLoad(0));
                        ++prog.num_tiles;
                    }
                    // Streaming FMMA over the positions; the encoded
                    // imm is a repeat count, chunked to 16 bits.
                    int64_t remaining = pos_local;
                    while (remaining > 0) {
                        int64_t chunk =
                            std::min<int64_t>(remaining, 0xffff);
                        MpeInstruction fmma = makeFmma(
                            p, OperandSel::West, OperandSel::Lrf, 1,
                            0);
                        fmma.imm = uint16_t(chunk);
                        raw.push_back(fmma);
                        prog.fmma_slots += uint64_t(chunk);
                        remaining -= chunk;
                    }
                    raw.push_back(makeMovSouth(1));
                }
                MpeInstruction post;
                post.op = Opcode::TokPost;
                post.imm = uint16_t(token);
                raw.push_back(post);
                ++token;
            }
        }
    }
    raw.push_back(makeHalt());

    // Round-trip through the binary encoding, like a real toolchain.
    prog.mpe_program.reserve(raw.size());
    for (const auto &inst : raw)
        prog.mpe_program.push_back(
            MpeInstruction::decode(inst.encode()));
    return prog;
}

} // namespace rapid
