#include "sim/systolic.hh"

#include <algorithm>
#include <cmath>

#include "common/bitfield.hh"
#include "common/logging.hh"
#include "precision/mpe_datapath.hh"

namespace rapid {

SystolicArraySim::SystolicArraySim(const CoreletConfig &corelet,
                                   Precision precision, int fwd_bias)
    : corelet_(corelet), precision_(precision), fwdBias_(fwd_bias)
{
    rapid_assert(precision == Precision::FP16 ||
                 precision == Precision::HFP8,
                 "systolic sim models the FPU pipeline (FP16/HFP8)");
}

int64_t
SystolicArraySim::reductionCap() const
{
    const int packing = precision_ == Precision::HFP8 ? 2 : 1;
    return int64_t(corelet_.mpe_rows) * packing;
}

int64_t
SystolicArraySim::outputCap() const
{
    return int64_t(corelet_.mpe_cols) * corelet_.mpe.fpu_simd_lanes;
}

std::vector<MpeInstruction>
SystolicArraySim::buildTileProgram(int64_t stream_len) const
{
    std::vector<MpeInstruction> prog;
    MpeInstruction set_prec;
    set_prec.op = Opcode::SetPrec;
    set_prec.prec = precision_;
    prog.push_back(set_prec);
    if (precision_ == Precision::HFP8) {
        MpeInstruction set_bias;
        set_bias.op = Opcode::SetBias;
        set_bias.imm = uint16_t(fwdBias_);
        prog.push_back(set_bias);
    }
    // Block-load the stationary weights into LRF register 0.
    prog.push_back(makeLrfLoad(0));
    // Streamed FMMA: operand A from the west link, operand B from the
    // LRF, accumulator continues the south chain.
    MpeInstruction fmma =
        makeFmma(precision_, OperandSel::West, OperandSel::Lrf, 1, 0);
    fmma.imm = uint16_t(std::min<int64_t>(stream_len, 0xffff));
    prog.push_back(fmma);
    prog.push_back(makeMovSouth(1));
    prog.push_back(makeHalt());

    // The hardware consumes encoded words; round-trip through the
    // encoder so the simulation exercises the ISA format.
    std::vector<MpeInstruction> decoded;
    decoded.reserve(prog.size());
    for (const auto &inst : prog)
        decoded.push_back(MpeInstruction::decode(inst.encode()));
    return decoded;
}

SystolicResult
SystolicArraySim::gemm(const Tensor &a, const Tensor &b, Fp8Kind a_kind,
                       Fp8Kind b_kind)
{
    rapid_assert(a.rank() == 2 && b.rank() == 2, "gemm needs matrices");
    const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
    rapid_assert(b.dim(0) == k, "gemm inner dimension mismatch");

    const int64_t red_cap = reductionCap();
    const int64_t out_cap = outputCap();
    rapid_dassert(red_cap > 0 && out_cap > 0,
                  "degenerate corelet: reduction cap ", red_cap,
                  ", output cap ", out_cap);
    const int64_t pipe_fill = corelet_.mpe_rows + 3; // skew + adder

    MpeDatapath dp(fwdBias_);
    uint64_t fault_item = 0;
    SystolicResult res;
    res.c = Tensor({m, n});
    res.program = buildTileProgram(m);

    const double wt_bytes_per_elem = operandBytes(precision_);

    // Convert each operand once: through the FP8 input stage to FP9
    // (HFP8) or to DLFloat16 (FP16). The two pipelines merge at the
    // adder, so one FP16 FMA on the converted values serves both.
    auto convert = [&](const Tensor &t, Fp8Kind kind) {
        std::vector<float> out(size_t(t.numel()));
        for (int64_t i = 0; i < t.numel(); ++i)
            out[size_t(i)] = precision_ == Precision::HFP8
                                 ? dp.toFp9(t[i], kind)
                                 : dlfloat16().quantize(t[i]);
        return out;
    };
    const std::vector<float> a_op = convert(a, a_kind);
    const std::vector<float> b_op = convert(b, b_kind);
    const int64_t l1_bw = corelet_.l0_bw_bytes_per_cycle * 2;

    for (int64_t n0 = 0; n0 < n; n0 += out_cap) {
        const int64_t n_hi = std::min(n, n0 + out_cap);
        for (int64_t k0 = 0; k0 < k; k0 += red_cap) {
            const int64_t k_hi = std::min(k, k0 + red_cap);
            rapid_dassert(k_hi - k0 <= reductionCap(),
                          "tile reduction depth ", k_hi - k0,
                          " exceeds the accumulation chain cap");

            // Block-load: the padded tile streams from L1 into the
            // LRFs before compute starts.
            const int64_t tile_elems = red_cap * out_cap;
            const uint64_t load_cycles = uint64_t(
                divCeil(int64_t(tile_elems * wt_bytes_per_elem),
                        l1_bw));
            res.block_load_cycles += load_cycles;
            res.cycles += load_cycles;

            // Streaming phase: one position per cycle plus the skew
            // fill and the column drain.
            res.cycles += uint64_t(m) + pipe_fill;

            // Numerics: each output's accumulation chain continues
            // from the previous tile's value (psums enter north).
            for (int64_t mi = 0; mi < m; ++mi) {
                for (int64_t ni = n0; ni < n_hi; ++ni) {
                    float acc = res.c.at(mi, ni);
                    for (int64_t ki = k0; ki < k_hi; ++ki)
                        acc = dp.fp16Fma(a_op[size_t(mi * k + ki)],
                                         b_op[size_t(ki * n + ni)], acc);
                    // Fault site: the accumulator value leaving the
                    // array south. One injection item per output per
                    // tile pass, indexed by a monotone counter so the
                    // fault pattern only depends on the config seed.
                    if (injector_ &&
                        injector_->active(FaultSite::MacOutput)) {
                        acc = injectMacFault(acc, fault_item++,
                                             res.faults);
                    }
                    res.c.at(mi, ni) = acc;
                }
            }
        }
    }
    // Detected-but-uncorrected faults re-issue their tile pass; the
    // replay cost lands on the cycle count (zero when fault-free).
    res.cycles += uint64_t(std::llround(res.faults.retry_cycles));
    res.fmas = dp.fmaCount();
    res.zero_gated = dp.zeroGatedCount();
    return res;
}

float
SystolicArraySim::injectMacFault(float acc, uint64_t item,
                                 FaultStats &stats) const
{
    ++stats.sampled;
    Rng rng = injector_->stream(FaultSite::MacOutput, item);
    if (!injector_->eventDraw(rng))
        return acc;
    ++stats.injected;
    const FaultOutcome hit = injector_->resolveProtection(
        FaultSite::MacOutput, rng, stats);
    if (hit != FaultOutcome::Silent)
        return acc; // restored: corrected in place or tile re-issued
    const uint32_t word = dlfloat16().encode(acc);
    const float clean = dlfloat16().decode(word);
    const float bad = dlfloat16().decode(
        injector_->flipOneBit(rng, dlfloat16().storageBits(), word));
    if (bad == clean) {
        ++stats.masked; // e.g. a sign flip on zero
        return acc;
    }
    ++stats.sdc;
    return bad;
}

} // namespace rapid
