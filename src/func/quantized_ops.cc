#include "func/quantized_ops.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/error.hh"
#include "common/logging.hh"

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
 * Core reduction shared by all float-path executors: accumulate the
 * element products of two prepared operand vectors with chunked
 * DLFloat16 accumulation. The convolutions run it per output; the
 * GEMMs run chunkedGemm() below, and this only for poisoned operands.
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

/** Output columns one chunkedGemm pass carries, one lane each. */
constexpr int64_t kLanes = 8;

/** A lane's inter-chunk fold on binary32 patterns: the SFU's FP32 add,
 *  or the same add rounded to DLFloat16. */
template <Rounding Mode, bool Fp32Outer>
uint32_t
foldBits(float outer, float chunk)
{
    const uint32_t sum = std::bit_cast<uint32_t>(outer + chunk);
    if constexpr (Fp32Outer)
        return sum;
    else
        return dlfloat16RoundBits<Mode>(sum);
}

/**
 * chunkedDot() for every output of a GEMM over finite quantized
 * operands, kLanes output columns at a time: each row of @p qa against
 * columns j0..j0+kLanes of @p qb (row stride @p ldb, zero-padded to
 * whole lane blocks). Each lane keeps its own DLFloat16 chunk
 * accumulator, outer accumulator and count of gated-in terms, and adds
 * its terms in ascending k exactly as ChunkAccumulator does; only
 * independent outputs run side by side, so no sum is reordered. A
 * gated lane keeps its state and a chunk fold is taken by mask, so the
 * lane loop has no branch and vectorises over j.
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
template <Rounding Mode, bool Fp32Outer>
void
chunkedGemmKernel(const float *qa, const float *qb, int64_t m, int64_t k,
                  int64_t n, int64_t ldb, size_t chunk_size, float *out)
{
    // A lane folds when its gated-in count reaches this; a chunk longer
    // than the reduction never folds before the end.
    const uint32_t limit =
        uint32_t(std::min(chunk_size, size_t(k) + 1));
    for (int64_t i = 0; i < m; ++i) {
        const float *a_row = qa + i * k;
        for (int64_t j0 = 0; j0 < n; j0 += kLanes) {
            float acc[kLanes] = {};
            float outer[kLanes] = {};
            uint32_t count[kLanes] = {};
            for (int64_t kk = 0; kk < k; ++kk) {
                const float a = a_row[kk];
                if (isZero(a))
                    continue; // gates every lane's FMA at this k
                const float *b = qb + kk * ldb + j0;
                for (int64_t l = 0; l < kLanes; ++l) {
                    const uint32_t live = isZero(b[l]) ? 0u : ~0u;
                    const uint32_t old = std::bit_cast<uint32_t>(acc[l]);
                    const uint32_t sum = dlfloat16RoundBits<Mode>(
                        std::bit_cast<uint32_t>(acc[l] + a * b[l]));
                    const uint32_t kept = (sum & live) | (old & ~live);
                    count[l] += live & 1u;
                    const uint32_t fold = count[l] == limit ? ~0u : 0u;
                    const uint32_t folded = foldBits<Mode, Fp32Outer>(
                        outer[l], std::bit_cast<float>(kept));
                    outer[l] = std::bit_cast<float>(
                        (folded & fold) |
                        (std::bit_cast<uint32_t>(outer[l]) & ~fold));
                    acc[l] = std::bit_cast<float>(kept & ~fold);
                    count[l] &= ~fold;
                }
            }
            for (int64_t l = 0; l < std::min(kLanes, n - j0); ++l) {
                const float total =
                    count[l] == 0
                        ? outer[l]
                        : std::bit_cast<float>(foldBits<Mode, Fp32Outer>(
                              outer[l], acc[l]));
                RAPID_CHECK_NUMERIC(std::isfinite(total),
                                    "non-finite chunked dot product "
                                    "over ", k, " elements: a poisoned "
                                    "operand reached the training "
                                    "accumulation");
                out[i * n + j0 + l] = std::bit_cast<float>(
                    dlfloat16RoundBits<Mode>(
                        std::bit_cast<uint32_t>(total)));
            }
        }
    }
}

template <bool Fp32Outer>
auto
kernelFor(Rounding rounding)
{
    switch (rounding) {
      case Rounding::NearestUp:
        return &chunkedGemmKernel<Rounding::NearestUp, Fp32Outer>;
      case Rounding::Truncate:
        return &chunkedGemmKernel<Rounding::Truncate, Fp32Outer>;
      case Rounding::NearestEven:
        break;
    }
    return &chunkedGemmKernel<Rounding::NearestEven, Fp32Outer>;
}

bool
allFinite(const Tensor &t)
{
    return std::all_of(t.storage().begin(), t.storage().end(),
                       [](float v) { return std::isfinite(v); });
}

/**
 * (M,K) x (K,N) GEMM of quantized operands with chunked DLFloat16
 * accumulation: chunkedDot() of row i of @p qa and column j of @p qb
 * for every output.
 */
Tensor
chunkedGemm(const Tensor &qa, const Tensor &qb, const ExecConfig &cfg)
{
    rapid_assert(qa.rank() == 2 && qb.rank() == 2,
                 "chunked GEMM operands must be rank-2");
    const int64_t m = qa.dim(0), k = qa.dim(1), n = qb.dim(1);
    rapid_assert(qb.dim(0) == k, "chunked GEMM inner-dimension mismatch");
    Tensor out({m, n});
    if (!allFinite(qa) || !allFinite(qb)) {
        // A poisoned operand: the scalar path gates a NaN paired with a
        // zero through, and names the element of the first product
        // that faults.
        const Tensor qbt = transpose(qb);
        for (int64_t i = 0; i < m; ++i)
            for (int64_t j = 0; j < n; ++j)
                out.at(i, j) = chunkedDot(qa.data() + i * k,
                                          qbt.data() + j * k, k, cfg);
        return out;
    }
    rapid_assert(cfg.chunk_size >= 1, "chunk size must be positive");
    rapid_assert(k < int64_t(UINT32_MAX), "chunked GEMM reduction of ",
                 k, " terms overflows a lane count");
    // Whole lane blocks: the zero padding columns are gated off.
    const int64_t ldb = (n + kLanes - 1) / kLanes * kLanes;
    std::vector<float> padded;
    const float *b = qb.data();
    if (ldb != n) {
        padded.assign(size_t(k * ldb), 0.0f);
        for (int64_t kk = 0; kk < k; ++kk)
            std::copy_n(b + kk * n, n, padded.data() + kk * ldb);
        b = padded.data();
    }
    const auto kernel = cfg.fp32_outer ? kernelFor<true>(cfg.rounding)
                                       : kernelFor<false>(cfg.rounding);
    kernel(qa.data(), b, m, k, n, ldb, cfg.chunk_size, out.data());
    return out;
}

/** Gather a conv receptive field into contiguous operand vectors. */
struct Patch
{
    std::vector<float> act;
    std::vector<float> wt;
};

template <typename T>
void
gatherPatch(const Tensor &input, const T &weight_like, int64_t in_n,
            int64_t oc, int64_t oy, int64_t ox, const ConvParams &p,
            int64_t cig, int64_t co_per_g, Patch &patch)
{
    const int64_t h = input.dim(2), w = input.dim(3);
    const int64_t kh = weight_like.dim(2), kw = weight_like.dim(3);
    const int64_t g = oc / co_per_g;
    patch.act.clear();
    patch.wt.clear();
    for (int64_t icg = 0; icg < cig; ++icg) {
        const int64_t ic = g * cig + icg;
        for (int64_t ky = 0; ky < kh; ++ky) {
            const int64_t iy = oy * p.stride + ky - p.pad;
            for (int64_t kx = 0; kx < kw; ++kx) {
                const int64_t ix = ox * p.stride + kx - p.pad;
                const bool inside =
                    iy >= 0 && iy < h && ix >= 0 && ix < w;
                patch.act.push_back(
                    inside ? input.at(in_n, ic, iy, ix) : 0.0f);
                patch.wt.push_back(weight_like.at(oc, icg, ky, kx));
            }
        }
    }
}

Tensor
quantizeWith(const Tensor &t, const FloatFormat &fmt, Rounding rounding)
{
    Tensor out = t;
    out.apply([&](float v) { return fmt.quantize(v, rounding); });
    return out;
}

} // namespace

Tensor
quantizeTensorFp8(const Tensor &t, Fp8Kind kind, const ExecConfig &cfg)
{
    return quantizeWith(t,
                        (kind == Fp8Kind::Forward) ? fp8e4m3(cfg.fwd_bias)
                                                   : fp8e5m2(),
                        cfg.rounding);
}

Tensor
quantizeTensorFp16(const Tensor &t, Rounding rounding)
{
    return quantizeWith(t, dlfloat16(), rounding);
}

Tensor
fp16Matmul(const Tensor &a, const Tensor &b, const ExecConfig &cfg)
{
    return chunkedGemm(quantizeTensorFp16(a, cfg.rounding),
                       quantizeTensorFp16(b, cfg.rounding), cfg);
}

Tensor
hfp8Matmul(const Tensor &a, Fp8Kind a_kind, const Tensor &b,
           Fp8Kind b_kind, const ExecConfig &cfg)
{
    // Quantize each operand tensor once (the FP8 -> FP9 input stage is
    // exact, so the FP8 value is what the multiplier sees).
    return chunkedGemm(quantizeTensorFp8(a, a_kind, cfg),
                       quantizeTensorFp8(b, b_kind, cfg), cfg);
}

Tensor
fp16Conv2d(const Tensor &input, const Tensor &weight,
           const ConvParams &p, const ExecConfig &cfg)
{
    Tensor qi = quantizeTensorFp16(input, cfg.rounding);
    Tensor qw = quantizeTensorFp16(weight, cfg.rounding);
    const int64_t n = qi.dim(0), co = qw.dim(0);
    const int64_t cig = qw.dim(1);
    const int64_t ho = convOutDim(qi.dim(2), qw.dim(2), p.stride, p.pad);
    const int64_t wo = convOutDim(qi.dim(3), qw.dim(3), p.stride, p.pad);
    const int64_t co_per_g = co / p.groups;
    Tensor out({n, co, ho, wo});
    Patch patch;
    for (int64_t in_n = 0; in_n < n; ++in_n)
        for (int64_t oc = 0; oc < co; ++oc)
            for (int64_t oy = 0; oy < ho; ++oy)
                for (int64_t ox = 0; ox < wo; ++ox) {
                    gatherPatch(qi, qw, in_n, oc, oy, ox, p, cig,
                                co_per_g, patch);
                    out.at(in_n, oc, oy, ox) =
                        chunkedDot(patch.act.data(), patch.wt.data(),
                                   int64_t(patch.act.size()), cfg);
                }
    return out;
}

namespace {

/**
 * Integer chunked dot product: int32 intra-chunk accumulation, INT16
 * saturation at chunk boundaries (the MPE's south-bus width), FP32
 * inter-chunk reduction on the SFU.
 */
float
intChunkedDot(const int *a_levels, const int *b_levels, int64_t n,
              float scale, const ExecConfig &cfg)
{
    double outer = 0.0;
    int64_t chunk_acc = 0;
    size_t in_chunk = 0;
    for (int64_t i = 0; i < n; ++i) {
        chunk_acc += int64_t(a_levels[i]) * int64_t(b_levels[i]);
        if (++in_chunk == cfg.chunk_size) {
            outer += double(saturateToInt16(chunk_acc));
            chunk_acc = 0;
            in_chunk = 0;
        }
    }
    if (in_chunk)
        outer += double(saturateToInt16(chunk_acc));
    return dlfloat16().quantize(float(outer * double(scale)),
                                cfg.rounding);
}

std::vector<int>
pactLevels(const Tensor &t, const PactQuantizer &q)
{
    std::vector<int> out(size_t(t.numel()));
    for (int64_t i = 0; i < t.numel(); ++i)
        out[size_t(i)] = q.quantizeLevel(t[i]);
    return out;
}

std::vector<int>
sawbLevels(const Tensor &t, const SawbQuantizer &q)
{
    std::vector<int> out(size_t(t.numel()));
    for (int64_t i = 0; i < t.numel(); ++i)
        out[size_t(i)] = q.quantizeLevel(t[i]);
    return out;
}

} // namespace

Tensor
intMatmul(const Tensor &a, const PactQuantizer &act_q, const Tensor &b,
          const SawbQuantizer &wt_q, unsigned width,
          const ExecConfig &cfg)
{
    rapid_assert(width == 4 || width == 2, "FXU width must be 4 or 2");
    rapid_assert(act_q.bits() == width && wt_q.bits() == width,
                 "quantizer width mismatch");
    const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
    std::vector<int> qa = pactLevels(a, act_q);
    std::vector<int> qb = sawbLevels(transpose(b), wt_q);
    const float scale = act_q.scale() * wt_q.scale();
    Tensor out({m, n});
    for (int64_t i = 0; i < m; ++i)
        for (int64_t j = 0; j < n; ++j)
            out.at(i, j) = intChunkedDot(qa.data() + i * k,
                                         qb.data() + j * k, k, scale,
                                         cfg);
    return out;
}

Tensor
intConv2d(const Tensor &input, const PactQuantizer &act_q,
          const Tensor &weight, const SawbQuantizer &wt_q,
          unsigned width, const ConvParams &p, const ExecConfig &cfg)
{
    rapid_assert(width == 4 || width == 2, "FXU width must be 4 or 2");
    const int64_t n = input.dim(0), co = weight.dim(0);
    const int64_t cig = weight.dim(1);
    const int64_t kh = weight.dim(2), kw = weight.dim(3);
    const int64_t h = input.dim(2), w = input.dim(3);
    const int64_t ho = convOutDim(h, kh, p.stride, p.pad);
    const int64_t wo = convOutDim(w, kw, p.stride, p.pad);
    const int64_t co_per_g = co / p.groups;
    const float scale = act_q.scale() * wt_q.scale();

    std::vector<int> qi = pactLevels(input, act_q);
    std::vector<int> qw = sawbLevels(weight, wt_q);

    auto act_level = [&](int64_t nn, int64_t c, int64_t y,
                         int64_t x) -> int {
        return qi[size_t(((nn * input.dim(1) + c) * h + y) * w + x)];
    };
    auto wt_level = [&](int64_t oc, int64_t icg, int64_t ky,
                        int64_t kx) -> int {
        return qw[size_t(((oc * cig + icg) * kh + ky) * kw + kx)];
    };

    Tensor out({n, co, ho, wo});
    std::vector<int> pa, pw;
    for (int64_t in_n = 0; in_n < n; ++in_n) {
        for (int64_t oc = 0; oc < co; ++oc) {
            const int64_t g = oc / co_per_g;
            for (int64_t oy = 0; oy < ho; ++oy) {
                for (int64_t ox = 0; ox < wo; ++ox) {
                    pa.clear();
                    pw.clear();
                    for (int64_t icg = 0; icg < cig; ++icg) {
                        const int64_t ic = g * cig + icg;
                        for (int64_t ky = 0; ky < kh; ++ky) {
                            const int64_t iy = oy * p.stride + ky - p.pad;
                            for (int64_t kx = 0; kx < kw; ++kx) {
                                const int64_t ix =
                                    ox * p.stride + kx - p.pad;
                                const bool inside = iy >= 0 && iy < h &&
                                                    ix >= 0 && ix < w;
                                pa.push_back(
                                    inside ? act_level(in_n, ic, iy, ix)
                                           : 0);
                                pw.push_back(wt_level(oc, icg, ky, kx));
                            }
                        }
                    }
                    out.at(in_n, oc, oy, ox) = intChunkedDot(
                        pa.data(), pw.data(), int64_t(pa.size()), scale,
                        cfg);
                }
            }
        }
    }
    return out;
}

} // namespace rapid
