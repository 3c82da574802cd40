/**
 * @file
 * The lane kernels of the chunked DLFloat16 GEMM and of the FXU's
 * integer GEMM (quantized_ops.cc), each one template over the lane
 * half-width W: 4, 8 or 16 32-bit lanes, in 16-, 32- and 64-byte GCC
 * vectors (common/lanes.hh). The library compiles one entry per width,
 * each for its own target, and picks one per process from the CPU's
 * features; a test compiles its own entries the same way and runs the
 * library's GEMMs on each under a LaneScope.
 *
 * Every width gives the same bits. In the chunked GEMM a lane does
 * exactly one output's arithmetic in ascending k, the scalar
 * chunkedDot()'s: an exact
 * binary32 product, a binary32 add, a DLFloat16 round on the bits, and
 * the zero gate, the count and the chunk fold taken by mask. Outputs
 * never share a sum, so the width only decides how many run side by
 * side. A compiler that contracts acc + a * b into an FMA changes
 * nothing either, because the product is exact.
 */

#ifndef RAPID_FUNC_LANE_GEMM_HH
#define RAPID_FUNC_LANE_GEMM_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>

#include "common/error.hh"
#include "common/lanes.hh"
#include "func/quantized_ops.hh"
#include "precision/float_format.hh"
#include "precision/int_format.hh"

namespace rapid {

/**
 * A chunked GEMM over finite quantized operands at one lane
 * half-width: @p run computes every output of the (M,K) x (K,N) GEMM
 * of row-major @p qa and @p qb, whose row stride @p ldb is a whole
 * number of blocks and whose padding columns are zero. @p round
 * quantizes its operands on the way in: the @p n binary32 values at
 * @p v, in place, to the FP8 format @p fp8 or, when that is null, to
 * DLFloat16, at @p rounding; it returns whether every rounded value
 * is finite.
 */
struct LaneGemm
{
    using Run = void (*)(const float *qa, const float *qb, int64_t m,
                         int64_t k, int64_t n, int64_t ldb,
                         const ExecConfig &cfg, float *out);
    using Round = bool (*)(float *v, int64_t n, const Fp8RoundBits *fp8,
                           Rounding rounding);

    int64_t width; ///< W, the lanes of one vector
    Run run;
    Round round;

    /** Output columns one lane block carries: two vectors. */
    int64_t block() const { return 2 * width; }
};

/** A lane's inter-chunk fold on binary32 patterns: the SFU's FP32 add,
 *  or the same add rounded to DLFloat16. */
template <Rounding Mode, bool Fp32Outer, int W>
[[gnu::always_inline]] inline BitLanes<W>
foldLanes(const FloatLanes<W> &outer, const FloatLanes<W> &chunk)
{
    const BitLanes<W> sum = lanesAs<BitLanes<W>>(outer + chunk);
    if constexpr (Fp32Outer)
        return sum;
    else
        return dlfloat16RoundLanes<Mode>(sum);
}

/** One half of a lane block's state, held in registers across k. */
template <int W>
struct LaneHalf
{
    FloatLanes<W> acc{};   ///< DLFloat16 chunk accumulators
    FloatLanes<W> outer{}; ///< inter-chunk sums
    BitLanes<W> count{};   ///< gated-in terms of the open chunk
};

/**
 * One k step of W lanes: acc += a * b in each lane whose @p b is
 * nonzero, counted, and a lane whose count reaches @p limit folds its
 * chunk into its outer sum and starts the next. The gate, the count and
 * the fold are all taken by mask.
 */
template <Rounding Mode, bool Fp32Outer, int W>
[[gnu::always_inline]] inline void
accumulate(LaneHalf<W> &h, const FloatLanes<W> &a, const FloatLanes<W> &b,
           uint32_t limit)
{
    using Bits = BitLanes<W>;
    const MaskLanes<W> live = (lanesAs<Bits>(b) & 0x7fffffffu) != 0;
    const Bits kept = selectLanes(
        live, dlfloat16RoundLanes<Mode>(lanesAs<Bits>(h.acc + a * b)),
        lanesAs<Bits>(h.acc));
    h.count -= lanesAs<Bits>(live);
    const MaskLanes<W> fold = h.count == limit;
    h.outer = lanesAs<FloatLanes<W>>(selectLanes(
        fold,
        foldLanes<Mode, Fp32Outer, W>(h.outer,
                                      lanesAs<FloatLanes<W>>(kept)),
        lanesAs<Bits>(h.outer)));
    const Bits open = ~lanesAs<Bits>(fold);
    h.acc = lanesAs<FloatLanes<W>>(kept & open);
    h.count &= open;
}

/** A lane's total: its outer sum, with the open chunk folded in by
 *  mask where one is open. */
template <Rounding Mode, bool Fp32Outer, int W>
[[gnu::always_inline]] inline BitLanes<W>
lastFold(const LaneHalf<W> &h)
{
    return selectLanes(h.count != 0,
                       foldLanes<Mode, Fp32Outer, W>(h.outer, h.acc),
                       lanesAs<BitLanes<W>>(h.outer));
}

/**
 * chunkedDot() for every output of a GEMM over finite quantized
 * operands, 2W output columns at a time: each row of @p qa against
 * columns j0..j0+2W of @p qb (row stride @p ldb, zero-padded to whole
 * blocks). Each lane keeps its own DLFloat16 chunk accumulator, outer
 * accumulator and count of gated-in terms, and adds its terms in
 * ascending k exactly as ChunkAccumulator does. The block's state
 * lives in two LaneHalf register sets for the whole k loop, and every
 * step is branch-free over the lanes.
 *
 * binary32 arithmetic gives the scalar path's bits. ChunkAccumulator
 * computes float(double(acc) + double(a) * double(b)); here it is
 * acc + a * b in binary32. (1) The product is exact in binary32: FP8
 * and DLFloat16 values carry at most 10 significant bits, so a product
 * carries at most 20, and every product of two nonzero values of those
 * formats lies within [2^-62, 2^66], inside the binary32 normal range.
 * (2) acc and the product are binary32 values, and for a sum of two
 * such values rounding to binary64 and then to binary32 equals
 * rounding straight to binary32, since 53 >= 2 * 24 + 2. An FMA
 * contraction of acc + a * b changes nothing either, as the product
 * is exact. The folds are binary32 adds in both paths.
 */
template <int W, Rounding Mode, bool Fp32Outer>
[[gnu::always_inline]] inline void
chunkedGemmKernel(const float *qa, const float *qb, int64_t m, int64_t k,
                  int64_t n, int64_t ldb, size_t chunk_size, float *out)
{
    // A lane folds when its gated-in count reaches this; a chunk longer
    // than the reduction never folds before the end.
    const uint32_t limit = uint32_t(std::min(chunk_size, size_t(k) + 1));
    for (int64_t i = 0; i < m; ++i) {
        const float *a_row = qa + i * k;
        for (int64_t j0 = 0; j0 < n; j0 += 2 * W) {
            LaneHalf<W> lo, hi;
            for (int64_t kk = 0; kk < k; ++kk) {
                const float a = a_row[kk];
                if ((std::bit_cast<uint32_t>(a) & 0x7fffffffu) == 0)
                    continue; // gates every lane's FMA at this k
                const FloatLanes<W> av = FloatLanes<W>{} + a;
                const float *b = qb + kk * ldb + j0;
                accumulate<Mode, Fp32Outer>(lo, av, loadLanes<W>(b), limit);
                accumulate<Mode, Fp32Outer>(hi, av, loadLanes<W>(b + W),
                                            limit);
            }
            // The last fold, the finiteness backstop and the output
            // rounding (padding lanes hold +0). A binary32 is NaN or
            // Inf exactly when its exponent field is all ones, and then
            // adding one to the field carries into the sign bit: lane
            // arithmetic and one OR over the lanes, where a lane
            // compare turned into a vector would be built lane by lane.
            const BitLanes<W> total_lo = lastFold<Mode, Fp32Outer>(lo);
            const BitLanes<W> total_hi = lastFold<Mode, Fp32Outer>(hi);
            const BitLanes<W> carries =
                ((total_lo & 0x7f800000u) + 0x00800000u) |
                ((total_hi & 0x7f800000u) + 0x00800000u);
            uint32_t any_carry = 0;
            for (int l = 0; l < W; ++l)
                any_carry |= carries[l];
            RAPID_CHECK_NUMERIC((any_carry & 0x80000000u) == 0,
                                "non-finite chunked dot product over ", k,
                                " elements: a poisoned operand reached "
                                "the training accumulation");
            const BitLanes<W> rounded[] = {dlfloat16RoundLanes<Mode>(total_lo),
                                           dlfloat16RoundLanes<Mode>(total_hi)};
            std::memcpy(out + i * n + j0, rounded,
                        size_t(std::min(2 * int64_t(W), n - j0)) *
                            sizeof(float));
        }
    }
}

/** chunkedGemmKernel() at @p cfg's rounding mode and outer precision;
 *  a lane GEMM entry instantiates this at its width under its target. */
template <int W>
[[gnu::always_inline]] inline void
chunkedGemmLanes(const float *qa, const float *qb, int64_t m, int64_t k,
                 int64_t n, int64_t ldb, const ExecConfig &cfg, float *out)
{
    const size_t chunk = cfg.chunk_size;
    if (cfg.fp32_outer) {
        switch (cfg.rounding) {
          case Rounding::NearestUp:
            return chunkedGemmKernel<W, Rounding::NearestUp, true>(
                qa, qb, m, k, n, ldb, chunk, out);
          case Rounding::Truncate:
            return chunkedGemmKernel<W, Rounding::Truncate, true>(
                qa, qb, m, k, n, ldb, chunk, out);
          case Rounding::NearestEven:
            break;
        }
        return chunkedGemmKernel<W, Rounding::NearestEven, true>(
            qa, qb, m, k, n, ldb, chunk, out);
    }
    switch (cfg.rounding) {
      case Rounding::NearestUp:
        return chunkedGemmKernel<W, Rounding::NearestUp, false>(
            qa, qb, m, k, n, ldb, chunk, out);
      case Rounding::Truncate:
        return chunkedGemmKernel<W, Rounding::Truncate, false>(
            qa, qb, m, k, n, ldb, chunk, out);
      case Rounding::NearestEven:
        break;
    }
    chunkedGemmKernel<W, Rounding::NearestEven, false>(qa, qb, m, k, n, ldb,
                                                       chunk, out);
}

/**
 * @p round of the binary32 pattern of every v[i], i in [0, @p n), in
 * place, in whole blocks of 2W values the compiler vectorises at the
 * caller's target. Returns whether every rounded value is finite. One
 * pointer, not a source and a destination: once this inlines,
 * __restrict on two pointers is lost, and -O2's cost model will not
 * version a loop for aliasing.
 */
template <int W, typename Round>
[[gnu::always_inline]] inline bool
roundInPlace(float *v, int64_t n, Round round)
{
    // A binary32 is NaN or Inf exactly when its exponent field is all
    // ones, and then adding one to the field carries into the sign bit.
    uint32_t carries = 0;
    forEachBlocked<2 * W>(n, [v, round, &carries](int64_t i) {
        const uint32_t r = round(std::bit_cast<uint32_t>(v[i]));
        v[i] = std::bit_cast<float>(r);
        carries |= (r & 0x7f800000u) + 0x00800000u;
    });
    return (carries & 0x80000000u) == 0;
}

/** roundInPlace() by Fp8RoundBits::round<Mode>() of @p fp8, copied
 *  into the loop (through a reference, a store to @p v may alias its
 *  constants), or by dlfloat16RoundBits<Mode>() when @p fp8 is null. */
template <int W, Rounding Mode>
[[gnu::always_inline]] inline bool
roundOperand(float *v, int64_t n, const Fp8RoundBits *fp8)
{
    if (fp8)
        return roundInPlace<W>(v, n, [f = *fp8](uint32_t in) {
            return f.round<Mode>(in);
        });
    return roundInPlace<W>(
        v, n, [](uint32_t in) { return dlfloat16RoundBits<Mode>(in); });
}

/** LaneGemm::round at lane half-width @p W; a lane GEMM entry
 *  instantiates this at its width under its target. */
template <int W>
[[gnu::always_inline]] inline bool
roundOperandLanes(float *v, int64_t n, const Fp8RoundBits *fp8,
                  Rounding rounding)
{
    switch (rounding) {
      case Rounding::NearestUp:
        return roundOperand<W, Rounding::NearestUp>(v, n, fp8);
      case Rounding::Truncate:
        return roundOperand<W, Rounding::Truncate>(v, n, fp8);
      case Rounding::NearestEven:
        break;
    }
    return roundOperand<W, Rounding::NearestEven>(v, n, fp8);
}

/**
 * The FXU's integer GEMM at one lane half-width: @p run computes every
 * output of the (M,K) x (K,N) GEMM of row-major INT levels @p qa and
 * @p qb (row stride @p ldb, a whole number of blocks, zero padding
 * columns) at @p cfg's chunk size and rounding, in int16_t lanes when
 * @p int16_lanes, else in int32_t lanes, times @p scale.
 */
struct LaneIntGemm
{
    using Run = void (*)(const int16_t *qa, const int16_t *qb, int64_t m,
                         int64_t k, int64_t n, int64_t ldb, bool int16_lanes,
                         float scale, const ExecConfig &cfg, float *out);

    int64_t width; ///< W: the 32-bit lanes of one vector
    Run run;

    /** Output columns one lane block carries: one vector of int16_t. */
    int64_t block() const { return 2 * width; }
};

/** Output rows one INT register block carries. */
constexpr int64_t kIntGemmRows = 4;

/** The @p V lanes at @p p, which need no alignment. */
template <typename V, typename T>
[[gnu::always_inline]] inline V
loadVector(const T *p)
{
    V v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

/** A chunk sum saturated to INT16 in every lane: the identity on
 *  int16_t lanes, whose sums the caller proved cannot leave it. */
template <typename AccLanes>
[[gnu::always_inline]] inline AccLanes
saturateLanesToInt16(const AccLanes &acc)
{
    if constexpr (sizeof(acc[0]) == sizeof(int16_t)) {
        return acc;
    } else {
        const AccLanes hi = selectLanes(acc > INT16_MAX,
                                        AccLanes{} + INT16_MAX, acc);
        return selectLanes(hi < INT16_MIN, AccLanes{} + INT16_MIN, hi);
    }
}

/** dlfloat16RoundLanes() of @p bits at @p rounding, NaN select kept. */
template <typename Bits>
[[gnu::always_inline]] inline Bits
dlfloat16RoundLanesAt(Rounding rounding, const Bits &bits)
{
    switch (rounding) {
      case Rounding::NearestUp:
        return dlfloat16RoundLanes<Rounding::NearestUp, true>(bits);
      case Rounding::Truncate:
        return dlfloat16RoundLanes<Rounding::Truncate, true>(bits);
      case Rounding::NearestEven:
        break;
    }
    return dlfloat16RoundLanes<Rounding::NearestEven, true>(bits);
}

/**
 * Rows i0..i0+@p rows of @p qa (row stride @p k, M rows in all; at most
 * kIntGemmRows) against the 2W columns of @p qb at @p b (row stride
 * @p ldb) over the whole reduction. A block of fewer rows repeats its
 * last row in the spare accumulators and stores none of them. Each
 * lane sums the products of one chunk of @p chunk k in @p Acc,
 * saturates the sum to INT16 and adds it to its outer sum, a binary64
 * integer: every partial outer sum is a whole number of magnitude at
 * most 2^15 * ceil(K / chunk) < 2^53, so each add is exact. The outer
 * sum times @p scale, rounded to binary32 and then to DLFloat16 at
 * @p rounding on the bits, gives the first @p cols columns of each
 * row of @p out (row stride @p ldc).
 */
template <int W, typename Acc>
[[gnu::always_inline]] inline void
intGemmBlock(const int16_t *qa, int64_t rows, const int16_t *b, int64_t k,
             int64_t ldb, int64_t chunk, double scale, Rounding rounding,
             int64_t cols, float *out, int64_t ldc)
{
    constexpr int R = kIntGemmRows;
    using AccLanes = LanesOf<Acc, 2 * W>;
    using OuterLanes = LanesOf<double, 2 * W>;
    const int16_t *a[R];
    for (int r = 0; r < R; ++r)
        a[r] = qa + std::min<int64_t>(r, rows - 1) * k;
    OuterLanes outer[R] = {};
    for (int64_t k0 = 0; k0 < k; k0 += chunk) {
        const int64_t k1 = std::min(k, k0 + chunk);
        AccLanes acc[R] = {};
        for (int64_t kk = k0; kk < k1; ++kk) {
            const AccLanes bv = __builtin_convertvector(
                loadVector<LanesOf<int16_t, 2 * W>>(b + kk * ldb), AccLanes);
#pragma GCC unroll 4
            for (int r = 0; r < R; ++r)
                acc[r] += (AccLanes{} + Acc(a[r][kk])) * bv;
        }
#pragma GCC unroll 4
        for (int r = 0; r < R; ++r)
            outer[r] += __builtin_convertvector(
                __builtin_convertvector(saturateLanesToInt16(acc[r]),
                                        LanesOf<int32_t, 2 * W>),
                OuterLanes);
    }
    for (int64_t r = 0; r < rows; ++r) {
        const LanesOf<float, 2 * W> value =
            __builtin_convertvector(outer[r] * scale, LanesOf<float, 2 * W>);
        const LanesOf<uint32_t, 2 * W> rounded = dlfloat16RoundLanesAt(
            rounding, lanesAs<LanesOf<uint32_t, 2 * W>>(value));
        std::memcpy(out + r * ldc, &rounded, size_t(cols) * sizeof(float));
    }
}

/**
 * The INT GEMM of LaneIntGemm::run at lane half-width @p W in @p Acc
 * lanes: one block of 2W output columns at a time, down every row of
 * @p qa, kIntGemmRows rows at a time. Every k step adds into every
 * lane, with no branch on the levels: a zero level adds nothing, and
 * the chunk boundaries stay at multiples of @p chunk in k.
 */
template <int W, typename Acc>
[[gnu::always_inline]] inline void
intGemmKernel(const int16_t *qa, const int16_t *qb, int64_t m, int64_t k,
              int64_t n, int64_t ldb, int64_t chunk, float scale,
              Rounding rounding, float *out)
{
    for (int64_t j0 = 0; j0 < n; j0 += 2 * W) {
        const int64_t cols = std::min(2 * int64_t(W), n - j0);
        for (int64_t i = 0; i < m; i += kIntGemmRows)
            intGemmBlock<W, Acc>(qa + i * k, std::min(kIntGemmRows, m - i),
                                 qb + j0, k, ldb, chunk, double(scale),
                                 rounding, cols, out + i * n + j0, n);
    }
}

/** LaneIntGemm::run at lane half-width @p W; a lane INT GEMM entry
 *  instantiates this at its width under its target. */
template <int W>
[[gnu::always_inline]] inline void
intGemmLanes(const int16_t *qa, const int16_t *qb, int64_t m, int64_t k,
             int64_t n, int64_t ldb, bool int16_lanes, float scale,
             const ExecConfig &cfg, float *out)
{
    const int64_t chunk = int64_t(std::min(cfg.chunk_size, size_t(k)));
    if (int16_lanes)
        return intGemmKernel<W, int16_t>(qa, qb, m, k, n, ldb, chunk, scale,
                                         cfg.rounding, out);
    intGemmKernel<W, int32_t>(qa, qb, m, k, n, ldb, chunk, scale,
                              cfg.rounding, out);
}

} // namespace rapid

#endif // RAPID_FUNC_LANE_GEMM_HH
