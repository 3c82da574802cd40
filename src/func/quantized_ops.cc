// Every lane vector of 32 or 64 bytes here lives inside a function
// compiled for AVX2 or AVX-512 (common/lanes.hh).
#pragma GCC diagnostic ignored "-Wpsabi"

#include "func/quantized_ops.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/error.hh"
#include "common/lanes.hh"
#include "common/logging.hh"
#include "func/lane_gemm.hh"

namespace rapid {

namespace {

/** Exact-zero test on the bits (either sign), without a floating-point
 *  comparison. */
bool
isZero(float v)
{
    return (std::bit_cast<uint32_t>(v) & 0x7fffffffu) == 0;
}

/**
 * Scalar chunked DLFloat16 reduction of the element products of two
 * prepared operand vectors. chunkedGemm() below runs it per output
 * only when an operand is poisoned (NaN or Inf).
 */
float
chunkedDot(const float *a, const float *b, int64_t n,
           const ExecConfig &cfg)
{
    ChunkAccumulator acc(cfg.chunk_size, cfg.fp32_outer, cfg.rounding);
    for (int64_t i = 0; i < n; ++i) {
        if (isZero(a[i]) || isZero(b[i]))
            continue; // zero-gated FMA passes the accumulator through
        const double term = double(a[i]) * double(b[i]);
        // A non-finite product means a poisoned operand (upstream
        // NaN, e.g. an injected fault that landed in a cached
        // activation or master weight). Guard before the accumulator
        // sees it — the accumulator's invariant is that terms are
        // finite — and surface a structured, catchable event in every
        // build type instead of silently propagating NaN through the
        // training step.
        RAPID_CHECK_NUMERIC(std::isfinite(term),
                            "non-finite product at element ", i,
                            " of a ", n, "-element chunked dot: a "
                            "poisoned operand reached the training "
                            "accumulation");
        acc.add(term);
    }
    // DLFloat16 saturates, so the finite term stream above must
    // reduce to a finite total; this backstop is once per dot.
    RAPID_CHECK_NUMERIC(std::isfinite(acc.total()),
                        "non-finite chunked dot product over ", n,
                        " elements: a poisoned operand reached the "
                        "training accumulation");
    return dlfloat16().quantize(acc.total(), cfg.rounding);
}

// The lane GEMMs at each width, compiled for their target: every helper
// over the lane vectors inlines into these, so no wide vector code is
// compiled for a CPU that may lack it.

RAPID_TARGET_AVX512 void
chunkedGemmAvx512(const float *qa, const float *qb, int64_t m, int64_t k,
                  int64_t n, int64_t ldb, const ExecConfig &cfg, float *out)
{
    chunkedGemmLanes<16>(qa, qb, m, k, n, ldb, cfg, out);
}

RAPID_TARGET_AVX512 bool
roundOperandAvx512(float *v, int64_t n, const Fp8RoundBits *fp8,
                   Rounding rounding)
{
    return roundOperandLanes<16>(v, n, fp8, rounding);
}

RAPID_TARGET_AVX2 void
chunkedGemmAvx2(const float *qa, const float *qb, int64_t m, int64_t k,
                int64_t n, int64_t ldb, const ExecConfig &cfg, float *out)
{
    chunkedGemmLanes<8>(qa, qb, m, k, n, ldb, cfg, out);
}

RAPID_TARGET_AVX2 bool
roundOperandAvx2(float *v, int64_t n, const Fp8RoundBits *fp8,
                 Rounding rounding)
{
    return roundOperandLanes<8>(v, n, fp8, rounding);
}

void
chunkedGemmBaseline(const float *qa, const float *qb, int64_t m, int64_t k,
                    int64_t n, int64_t ldb, const ExecConfig &cfg,
                    float *out)
{
    chunkedGemmLanes<4>(qa, qb, m, k, n, ldb, cfg, out);
}

bool
roundOperandBaseline(float *v, int64_t n, const Fp8RoundBits *fp8,
                     Rounding rounding)
{
    return roundOperandLanes<4>(v, n, fp8, rounding);
}

/** The lane GEMM of the calling thread: a LaneScope's, else the
 *  widest this CPU executes, picked on first use. */
const LaneGemm &
activeLaneGemm()
{
    static const LaneGemm kWidths[] = {
        {16, &chunkedGemmAvx512, &roundOperandAvx512},
        {8, &chunkedGemmAvx2, &roundOperandAvx2},
        {4, &chunkedGemmBaseline, &roundOperandBaseline}};
    static const LaneGemm &picked = widestLanes(kWidths);
    return LaneScope<LaneGemm>::activeOr(picked);
}

RAPID_TARGET_AVX512 void
intGemmAvx512(const int16_t *qa, const int16_t *qb, int64_t m, int64_t k,
              int64_t n, int64_t ldb, bool int16_lanes, float scale,
              const ExecConfig &cfg, float *out)
{
    intGemmLanes<16>(qa, qb, m, k, n, ldb, int16_lanes, scale, cfg, out);
}

RAPID_TARGET_AVX2 void
intGemmAvx2(const int16_t *qa, const int16_t *qb, int64_t m, int64_t k,
            int64_t n, int64_t ldb, bool int16_lanes, float scale,
            const ExecConfig &cfg, float *out)
{
    intGemmLanes<8>(qa, qb, m, k, n, ldb, int16_lanes, scale, cfg, out);
}

void
intGemmBaseline(const int16_t *qa, const int16_t *qb, int64_t m, int64_t k,
                int64_t n, int64_t ldb, bool int16_lanes, float scale,
                const ExecConfig &cfg, float *out)
{
    intGemmLanes<4>(qa, qb, m, k, n, ldb, int16_lanes, scale, cfg, out);
}

/** The lane INT GEMM of the calling thread: a LaneScope's, else the
 *  widest this CPU executes, picked on first use. */
const LaneIntGemm &
activeLaneIntGemm()
{
    static const LaneIntGemm kWidths[] = {{16, &intGemmAvx512},
                                          {8, &intGemmAvx2},
                                          {4, &intGemmBaseline}};
    static const LaneIntGemm &picked = widestLanes(kWidths);
    return LaneScope<LaneIntGemm>::activeOr(picked);
}

/** The FP8 round of @p kind's format at @p cfg's forward bias. */
Fp8RoundBits
fp8Round(Fp8Kind kind, const ExecConfig &cfg)
{
    return Fp8RoundBits(kind == Fp8Kind::Forward ? fp8e4m3(cfg.fwd_bias)
                                                 : fp8e5m2());
}

/** @p t rounded element-wise by LaneGemm::round to @p fp8, or to
 *  DLFloat16 when that is null. */
Tensor
roundTensor(const Tensor &t, const Fp8RoundBits *fp8, Rounding rounding)
{
    Tensor out = t;
    activeLaneGemm().round(out.data(), out.numel(), fp8, rounding);
    return out;
}

/** @p n rounded up to whole blocks of @p lanes. */
int64_t
laneStride(int64_t n, int64_t lanes)
{
    return (n + lanes - 1) / lanes * lanes;
}

/** chunkedDot() of row i of @p qa and row j of @p qbt (both (., K))
 *  into out[i][j], row by row: the path for poisoned operands, which
 *  gates a NaN paired with a zero through and names the element of the
 *  first product that faults. */
void
chunkedDots(const float *qa, const float *qbt, int64_t m, int64_t k,
            int64_t n, const ExecConfig &cfg, float *out)
{
    for (int64_t i = 0; i < m; ++i)
        for (int64_t j = 0; j < n; ++j)
            out[i * n + j] = chunkedDot(qa + i * k, qbt + j * k, k, cfg);
}

/**
 * (M,K) x (K,N) GEMM of quantized operands with chunked DLFloat16
 * accumulation on @p lanes: chunkedDot() of row i of @p qa and column
 * j of @p qb for every output. @p qb has row stride @p ldb, a whole
 * number of @p lanes blocks, and zero padding columns; @p finite says
 * whether every operand value is finite.
 */
void
chunkedGemm(const float *qa, const float *qb, int64_t m, int64_t k,
            int64_t n, int64_t ldb, bool finite, const LaneGemm &lanes,
            const ExecConfig &cfg, float *out)
{
    if (!finite) {
        std::vector<float> qbt(size_t(n * k));
        transposeInto(qb, k, n, ldb, qbt.data(), k);
        chunkedDots(qa, qbt.data(), m, k, n, cfg, out);
        return;
    }
    rapid_assert(cfg.chunk_size >= 1, "chunk size must be positive");
    rapid_assert(k < int64_t(UINT32_MAX), "chunked GEMM reduction of ",
                 k, " terms overflows a lane count");
    lanes.run(qa, qb, m, k, n, ldb, cfg, out);
}

/**
 * chunkedGemm() of (M,K) @p a and (K,N) @p b (row stride @p ldb) for a
 * GEMM that swapsRoles(), as C^T = B^T A^T: each operand is rounded
 * straight into its transposed copy, A's padded to whole lane blocks
 * (the zero padding rounds to zero and is gated off), by
 * LaneGemm::round to @p fp8_a and @p fp8_b (DLFloat16 where null). A
 * poisoned operand takes the scalar path in the order of C, so the
 * first product that faults is the same one.
 */
void
swappedGemm(const float *a, const Fp8RoundBits *fp8_a, const float *b,
            int64_t ldb, const Fp8RoundBits *fp8_b, int64_t m, int64_t k,
            int64_t n, const LaneGemm &lanes, const ExecConfig &cfg,
            float *out)
{
    std::vector<float> bt(size_t(n * k));
    transposeInto(b, k, n, ldb, bt.data(), k);
    const bool finite_b = lanes.round(bt.data(), n * k, fp8_b, cfg.rounding);
    const int64_t ldm = laneStride(m, lanes.block());
    std::vector<float> at(size_t(k * ldm), 0.0f);
    transposeInto(a, m, k, k, at.data(), ldm);
    const bool finite_a =
        lanes.round(at.data(), k * ldm, fp8_a, cfg.rounding);
    if (!finite_a || !finite_b) {
        std::vector<float> qa(size_t(m * k));
        transposeInto(at.data(), k, m, ldm, qa.data(), k);
        chunkedDots(qa.data(), bt.data(), m, k, n, cfg, out);
        return;
    }
    std::vector<float> ct(size_t(n * m));
    chunkedGemm(bt.data(), at.data(), n, k, m, ldm, true, lanes, cfg,
                ct.data());
    transposeInto(ct.data(), n, m, m, out, n);
}

/**
 * chunkedGemm() of the rank-2 (M,K) @p a and (K,N) @p b, each rounded
 * once on the way in by LaneGemm::round, to @p fp8_a and @p fp8_b
 * (DLFloat16 where null): A in a dense copy, B after its rows are
 * copied straight into rows padded to whole lane blocks (the zero
 * padding rounds to zero and is gated off); or swappedGemm() when the
 * GEMM swapsRoles().
 */
Tensor
roundedGemm(const Tensor &a, const Fp8RoundBits *fp8_a, const Tensor &b,
            const Fp8RoundBits *fp8_b, const ExecConfig &cfg)
{
    rapid_assert(a.rank() == 2 && b.rank() == 2,
                 "chunked GEMM operands must be rank-2");
    const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
    rapid_assert(b.dim(0) == k, "chunked GEMM inner-dimension mismatch");
    const LaneGemm &lanes = activeLaneGemm();
    Tensor out({m, n});
    if (swapsRoles(lanes.width, m, n)) {
        swappedGemm(a.data(), fp8_a, b.data(), n, fp8_b, m, k, n, lanes, cfg,
                    out.data());
        return out;
    }
    std::vector<float> qa(a.data(), a.data() + m * k);
    const bool finite_a = lanes.round(qa.data(), m * k, fp8_a, cfg.rounding);
    const int64_t ldb = laneStride(n, lanes.block());
    std::vector<float> qb(size_t(k * ldb), 0.0f);
    for (int64_t kk = 0; kk < k; ++kk)
        std::copy_n(b.data() + kk * n, n, qb.data() + kk * ldb);
    const bool finite_b =
        lanes.round(qb.data(), k * ldb, fp8_b, cfg.rounding);
    chunkedGemm(qa.data(), qb.data(), m, k, n, ldb, finite_a && finite_b,
                lanes, cfg, out.data());
    return out;
}

/** Largest |level| in @p v. */
int64_t
maxAbsLevel(const int16_t *v, int64_t n)
{
    int hi = 0;
    forEachBlocked<16>(n, [v, &hi](int64_t i) {
        hi = std::max(hi, std::abs(int(v[i])));
    });
    return hi;
}

/**
 * (M,K) x (K,N) GEMM of integer levels on the FXU: int chunk sums over
 * ascending chunks of k, each saturated to INT16 (the MPE's south-bus
 * width), an exact outer sum of the saturated chunks, and the outer
 * sum times @p scale emitted as DLFloat16, on @p lanes. @p qb has row
 * stride @p ldb, a whole number of @p lanes blocks, and zero padding
 * columns.
 *
 * Integer adds are exact, so the order of the adds inside a chunk
 * cannot change its sum; chunk boundaries stay at multiples of the
 * chunk size in k, whatever the levels. When the operand maxima prove
 * that no partial sum of a chunk exceeds 32767, the lanes run in
 * int16_t: nothing can wrap, and the INT16 saturation is the identity.
 * Otherwise they run in int32_t, which the maxima prove cannot wrap
 * either.
 */
void
intChunkedGemm(const int16_t *qa, const int16_t *qb, int64_t m, int64_t k,
               int64_t n, int64_t ldb, float scale, const LaneIntGemm &lanes,
               const ExecConfig &cfg, float *out)
{
    rapid_assert(cfg.chunk_size >= 1, "chunk size must be positive");
    const int64_t span = int64_t(std::min(cfg.chunk_size, size_t(k)));
    const int64_t max_product =
        maxAbsLevel(qa, m * k) * maxAbsLevel(qb, k * ldb);
    rapid_assert(max_product == 0 || span <= INT32_MAX / max_product,
                 "INT GEMM chunk of ", span, " terms of up to ",
                 max_product, " overflows a 32-bit lane");
    lanes.run(qa, qb, m, k, n, ldb, span * max_product <= INT16_MAX, scale,
              cfg, out);
}

/**
 * Walk one group of one image's im2col matrix: @p fn(r, p, i) for row
 * r = (icg, ky, kx) and column p = (oy, ox), in that order, where i is
 * the offset of the input at channel icg of the group, row
 * oy * stride + ky - pad, column ox * stride + kx - pad, or -1 in the
 * padding.
 */
template <typename Fn>
void
im2col(const ConvShape &s, Fn &&fn)
{
    for (int64_t icg = 0; icg < s.cig; ++icg) {
        for (int64_t ky = 0; ky < s.kh; ++ky) {
            for (int64_t kx = 0; kx < s.kw; ++kx) {
                const int64_t r = (icg * s.kh + ky) * s.kw + kx;
                for (int64_t oy = 0; oy < s.ho; ++oy) {
                    const int64_t iy = oy * s.stride + ky - s.pad;
                    for (int64_t ox = 0; ox < s.wo; ++ox) {
                        const int64_t ix = ox * s.stride + kx - s.pad;
                        const bool inside =
                            iy >= 0 && iy < s.h && ix >= 0 && ix < s.w;
                        fn(r, oy * s.wo + ox,
                           inside ? (icg * s.h + iy) * s.w + ix : -1);
                    }
                }
            }
        }
    }
}

/**
 * A grouped convolution as one GEMM per image and group:
 * W_g (Co/g x Ci/g*Kh*Kw) x im2col (Ci/g*Kh*Kw x Ho*Wo), which is the
 * group's NCHW output block. @p gemm(w, cols, m, k, n, ld, out) runs
 * each GEMM; the k order (icg, ky, kx) is the receptive field's.
 */
template <typename T, typename Gemm>
Tensor
lowerConv(const T *input, const T *weight, const ConvShape &s,
          int64_t lanes, Gemm &&gemm)
{
    const int64_t k = s.reduction(), pixels = s.pixels();
    const int64_t ld = laneStride(pixels, lanes);
    std::vector<T> cols(size_t(k * ld), T(0));
    Tensor out({s.n, s.co, s.ho, s.wo});
    for (int64_t in_n = 0; in_n < s.n; ++in_n) {
        for (int64_t g = 0; g < s.groups; ++g) {
            const T *image = input + (in_n * s.ci + g * s.cig) * s.h * s.w;
            im2col(s, [&](int64_t r, int64_t p, int64_t i) {
                cols[size_t(r * ld + p)] = i < 0 ? T(0) : image[i];
            });
            const int64_t oc0 = g * s.coPerGroup();
            gemm(weight + oc0 * k, cols.data(), s.coPerGroup(), k,
                 pixels, ld,
                 out.data() + (in_n * s.co + oc0) * pixels);
        }
    }
    return out;
}

template <typename Q>
std::vector<int16_t>
levels(const Tensor &t, const Q &q)
{
    std::vector<int16_t> out(size_t(t.numel()));
    q.quantizeLevels(t.data(), t.numel(), out.data());
    return out;
}

void
checkFxuWidth(const PactQuantizer &act_q, const SawbQuantizer &wt_q,
              unsigned width)
{
    rapid_assert(width == 4 || width == 2, "FXU width must be 4 or 2");
    rapid_assert(act_q.bits() == width && wt_q.bits() == width,
                 "quantizer width mismatch");
}

} // namespace

int64_t
chunkedGemmLaneWidth()
{
    return activeLaneGemm().width;
}

ConvShape
convShape(const Tensor &input, const std::vector<int64_t> &kernel,
          const ConvParams &p)
{
    rapid_assert(input.rank() == 4 && kernel.size() == 4,
                 "conv expects rank-4 input and weight");
    rapid_assert(p.groups >= 1 && p.stride >= 1 && p.pad >= 0,
                 "bad conv params: groups ", p.groups, ", stride ",
                 p.stride, ", pad ", p.pad);
    const ConvShape s{
        .n = input.dim(0),
        .ci = input.dim(1),
        .h = input.dim(2),
        .w = input.dim(3),
        .co = kernel[0],
        .cig = kernel[1],
        .kh = kernel[2],
        .kw = kernel[3],
        .ho = convOutDim(input.dim(2), kernel[2], p.stride, p.pad),
        .wo = convOutDim(input.dim(3), kernel[3], p.stride, p.pad),
        .groups = p.groups,
        .stride = p.stride,
        .pad = p.pad};
    rapid_assert(s.co % s.groups == 0, "Co ", s.co,
                 " not divisible by groups ", s.groups);
    rapid_assert(s.ci == s.cig * s.groups, "input Ci ", s.ci,
                 " != weight Ci/groups ", s.cig, " x groups ", s.groups);
    rapid_assert(s.ho > 0 && s.wo > 0, "conv output collapsed to zero");
    return s;
}

Tensor
im2colRows(const Tensor &input, const ConvShape &s)
{
    rapid_assert(s.groups == 1 && input.numel() == s.n * s.ci * s.h * s.w,
                 "im2col rows need an ungrouped conv of this input");
    const int64_t k = s.reduction(), pixels = s.pixels();
    Tensor rows({s.n * pixels, k});
    for (int64_t in_n = 0; in_n < s.n; ++in_n) {
        const float *image = input.data() + in_n * s.ci * s.h * s.w;
        float *dst = rows.data() + in_n * pixels * k;
        im2col(s, [&](int64_t r, int64_t p, int64_t i) {
            dst[p * k + r] = i < 0 ? 0.0f : image[i];
        });
    }
    return rows;
}

Tensor
col2imRows(const Tensor &rows, const ConvShape &s)
{
    const int64_t k = s.reduction(), pixels = s.pixels();
    rapid_assert(s.groups == 1 && rows.rank() == 2 &&
                     rows.dim(0) == s.n * pixels && rows.dim(1) == k,
                 "col2im rows do not match an ungrouped conv");
    Tensor out({s.n, s.ci, s.h, s.w});
    for (int64_t in_n = 0; in_n < s.n; ++in_n) {
        const float *src = rows.data() + in_n * pixels * k;
        float *image = out.data() + in_n * s.ci * s.h * s.w;
        im2col(s, [&](int64_t r, int64_t p, int64_t i) {
            if (i >= 0)
                image[i] += src[p * k + r];
        });
    }
    return out;
}

Tensor
quantizeTensorFp8(const Tensor &t, Fp8Kind kind, const ExecConfig &cfg)
{
    const Fp8RoundBits fp8 = fp8Round(kind, cfg);
    return roundTensor(t, &fp8, cfg.rounding);
}

Tensor
quantizeTensorFp16(const Tensor &t, Rounding rounding)
{
    return roundTensor(t, nullptr, rounding);
}

Tensor
fp16Matmul(const Tensor &a, const Tensor &b, const ExecConfig &cfg)
{
    return roundedGemm(a, nullptr, b, nullptr, cfg);
}

Tensor
hfp8Matmul(const Tensor &a, Fp8Kind a_kind, const Tensor &b,
           Fp8Kind b_kind, const ExecConfig &cfg)
{
    // Each operand is quantized once (the FP8 -> FP9 input stage is
    // exact, so the FP8 value is what the multiplier sees).
    const Fp8RoundBits fp8_a = fp8Round(a_kind, cfg);
    const Fp8RoundBits fp8_b = fp8Round(b_kind, cfg);
    return roundedGemm(a, &fp8_a, b, &fp8_b, cfg);
}

Tensor
fp16Conv2d(const Tensor &input, const Tensor &weight,
           const ConvParams &p, const ExecConfig &cfg)
{
    const ConvShape s = convShape(input, weight.shape(), p);
    const Tensor qi = quantizeTensorFp16(input, cfg.rounding);
    const Tensor qw = quantizeTensorFp16(weight, cfg.rounding);
    // The weights take the A side: products are exact and commute, and
    // each output still adds its terms in the receptive field's order.
    // A swapped GEMM rounds its transposed copies to DLFloat16 again,
    // which leaves a DLFloat16 value (NaN included) as it is.
    const LaneGemm &lanes = activeLaneGemm();
    return lowerConv(qi.data(), qw.data(), s, lanes.block(),
                     [&](const float *w, const float *cols, int64_t m,
                         int64_t k, int64_t n, int64_t ld, float *out) {
                         if (swapsRoles(lanes.width, m, n))
                             return swappedGemm(w, nullptr, cols, ld,
                                                nullptr, m, k, n, lanes, cfg,
                                                out);
                         chunkedGemm(w, cols, m, k, n, ld,
                                     allFinite(w, m * k) &&
                                         allFinite(cols, k * ld),
                                     lanes, cfg, out);
                     });
}

Tensor
intMatmul(const Tensor &a, const PactQuantizer &act_q, const Tensor &b,
          const SawbQuantizer &wt_q, unsigned width,
          const ExecConfig &cfg)
{
    checkFxuWidth(act_q, wt_q, width);
    rapid_assert(a.rank() == 2 && b.rank() == 2,
                 "INT GEMM operands must be rank-2");
    const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
    rapid_assert(b.dim(0) == k, "INT GEMM inner-dimension mismatch: ", k,
                 " vs ", b.dim(0));
    const std::vector<int16_t> qa = levels(a, act_q);
    const LaneIntGemm &lanes = activeLaneIntGemm();
    const int64_t ldb = laneStride(n, lanes.block());
    std::vector<int16_t> qb(size_t(k * ldb), 0);
    for (int64_t kk = 0; kk < k; ++kk)
        wt_q.quantizeLevels(b.data() + kk * n, n, qb.data() + kk * ldb);
    Tensor out({m, n});
    intChunkedGemm(qa.data(), qb.data(), m, k, n, ldb,
                   act_q.scale() * wt_q.scale(), lanes, cfg, out.data());
    return out;
}

Tensor
intConv2d(const Tensor &input, const PactQuantizer &act_q,
          const Tensor &weight, const SawbQuantizer &wt_q,
          unsigned width, const ConvParams &p, const ExecConfig &cfg)
{
    checkFxuWidth(act_q, wt_q, width);
    const ConvShape s = convShape(input, weight.shape(), p);
    const float scale = act_q.scale() * wt_q.scale();
    const std::vector<int16_t> qi = levels(input, act_q);
    const std::vector<int16_t> qw = levels(weight, wt_q);
    const LaneIntGemm &lanes = activeLaneIntGemm();
    return lowerConv(qi.data(), qw.data(), s, lanes.block(),
                     [&](const int16_t *w, const int16_t *cols, int64_t m,
                         int64_t k, int64_t n, int64_t ld, float *out) {
                         intChunkedGemm(w, cols, m, k, n, ld, scale, lanes,
                                        cfg, out);
                     });
}

} // namespace rapid
