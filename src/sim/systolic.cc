#include "sim/systolic.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "common/bitfield.hh"
#include "common/lanes.hh"
#include "common/logging.hh"
#include "precision/float_format.hh"

namespace rapid {

namespace {

/** Output columns a rowPass() block carries in registers: two halves
 *  of kHalf lanes, one SSE2 register each. */
constexpr int kHalf = 4;
constexpr int64_t kLanes = 2 * kHalf;
using Floats = FloatLanes<kHalf>;
using Bits = BitLanes<kHalf>;
using Mask = MaskLanes<kHalf>;

/**
 * The MPE's FP16 FMA (hfp8Fma's adder stage) of four lanes on
 * operands that are already DLFloat16 or FP9 values, and a scalar a:
 * acc + a * b rounded to DLFloat16, ties to even, in the lanes where b
 * is nonzero, each counted in @p issued; the other lanes pass acc
 * through (zero-gating).
 * The caller gates a zero a.
 *
 * binary32 gives the FMA's bits: both multiplicands carry at most 10
 * significant bits and lie within [2^-31, 2^33), so the product is
 * exact in binary32, and rounding the sum of two binary32 values to
 * binary64 and then to binary32 equals rounding it to binary32 once.
 * A NaN operand or accumulator makes the sum NaN, which rounds to the
 * merged NaN.
 */
inline void
fmaLanes(Floats &acc, Bits &issued, Floats a, Floats b)
{
    const Mask on = (std::bit_cast<Bits>(b) & 0x7fffffffu) != 0;
    const Bits rounded =
        dlfloat16RoundLanes<Rounding::NearestEven, true>(
            std::bit_cast<Bits>(acc + a * b));
    acc = std::bit_cast<Floats>(
        selectLanes(on, rounded, std::bit_cast<Bits>(acc)));
    issued -= std::bit_cast<Bits>(on);
}

/** fmaLanes() of one lane. */
inline float
fmaScalar(float acc, float a, float b, uint64_t &issued)
{
    if ((std::bit_cast<uint32_t>(b) & 0x7fffffffu) == 0)
        return acc;
    ++issued;
    return std::bit_cast<float>(dlfloat16RoundBits<Rounding::NearestEven>(
        std::bit_cast<uint32_t>(acc + a * b)));
}

/**
 * One tile pass of one output row: @p c[j] continues its accumulation
 * chain over @p depth reduction steps, a[ki] * b[ki * @p ldb + j], for
 * every j in [0, @p width), in ascending ki per output. Whole blocks
 * of kLanes columns hold their accumulators in registers; the tail
 * runs one lane at a time. Returns the FMAs issued (not gated).
 */
uint64_t
rowPass(const float *a, const float *b, int64_t ldb, int64_t depth,
        int64_t width, float *c)
{
    uint64_t issued = 0;
    int64_t j0 = 0;
    for (; j0 + kLanes <= width; j0 += kLanes) {
        Floats lo = loadLanes<kHalf>(c + j0),
               hi = loadLanes<kHalf>(c + j0 + kHalf);
        Bits issued_lo{}, issued_hi{};
        for (int64_t ki = 0; ki < depth; ++ki) {
            if ((std::bit_cast<uint32_t>(a[ki]) & 0x7fffffffu) == 0)
                continue; // gates every lane at this ki
            const Floats av = Floats{} + a[ki];
            const float *b_row = b + ki * ldb + j0;
            fmaLanes(lo, issued_lo, av, loadLanes<kHalf>(b_row));
            fmaLanes(hi, issued_hi, av, loadLanes<kHalf>(b_row + kHalf));
        }
        std::memcpy(c + j0, &lo, sizeof(lo));
        std::memcpy(c + j0 + kHalf, &hi, sizeof(hi));
        const Bits lanes = issued_lo + issued_hi;
        issued += lanes[0] + lanes[1] + lanes[2] + lanes[3];
    }
    for (; j0 < width; ++j0)
        for (int64_t ki = 0; ki < depth; ++ki)
            if ((std::bit_cast<uint32_t>(a[ki]) & 0x7fffffffu) != 0)
                c[j0] = fmaScalar(c[j0], a[ki], b[ki * ldb + j0], issued);
    return issued;
}

} // namespace

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

    uint64_t fault_item = 0;
    SystolicResult res;
    res.c = Tensor({m, n});

    const double wt_bytes_per_elem = operandBytes(precision_);

    // Convert each operand once, on the bits: through the FP8 input
    // stage (HFP8; the FP9 step after it is exact) or to DLFloat16
    // (FP16). The two pipelines merge at the adder, so one FP16 FMA on
    // the converted values serves both.
    auto convert = [&](const Tensor &t, Fp8Kind kind) {
        std::vector<float> out(t.data(), t.data() + t.numel());
        if (precision_ == Precision::HFP8) {
            const Fp8RoundBits fp8(kind == Fp8Kind::Forward
                                       ? fp8e4m3(fwdBias_)
                                       : fp8e5m2());
            forEachBlocked(t.numel(), [v = out.data(), fp8](int64_t i) {
                v[i] = std::bit_cast<float>(fp8.round<Rounding::NearestEven>(
                    std::bit_cast<uint32_t>(v[i])));
            });
        } else {
            forEachBlocked(t.numel(), [v = out.data()](int64_t i) {
                v[i] = std::bit_cast<float>(
                    dlfloat16RoundBits<Rounding::NearestEven>(
                        std::bit_cast<uint32_t>(v[i])));
            });
        }
        return out;
    };
    const std::vector<float> a_op = convert(a, a_kind);
    const std::vector<float> b_op = convert(b, b_kind);
    const int64_t l1_bw = corelet_.l0_bw_bytes_per_cycle * 2;
    float *c = res.c.data();
    uint64_t issued = 0;

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
                float *c_row = c + mi * n;
                issued += rowPass(a_op.data() + mi * k + k0,
                                b_op.data() + k0 * n + n0, n, k_hi - k0,
                                n_hi - n0, c_row + n0);
                // Fault site: the accumulator value leaving the array
                // south. One injection item per output per tile pass,
                // indexed by a monotone counter so the fault pattern
                // only depends on the config seed.
                if (injector_ && injector_->active(FaultSite::MacOutput))
                    for (int64_t ni = n0; ni < n_hi; ++ni)
                        c_row[ni] = injectMacFault(c_row[ni], fault_item++,
                                                   res.faults);
            }
        }
    }
    // Detected-but-uncorrected faults re-issue their tile pass; the
    // replay cost lands on the cycle count (zero when fault-free).
    res.cycles += uint64_t(std::llround(res.faults.retry_cycles));
    res.fmas = uint64_t(m * k * n);
    res.zero_gated = res.fmas - issued;
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
