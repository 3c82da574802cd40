/**
 * @file
 * The register-blocked kernel of the FP32 GEMM (ops.cc), one template
 * over the lane width W: 4, 8 or 16 floats, one SSE2, AVX2 or AVX-512
 * register, which holds W/2 doubles (common/lanes.hh). The library
 * compiles one entry per width, each for its own target, and picks one
 * per process from the CPU's features; a test compiles its own entries
 * the same way and runs matmul() on each under a LaneScope.
 *
 * Every width gives the bits of the i-j-k triple loop. Each output has
 * its own double accumulator, starts at +0.0, adds double(a) *
 * double(b) in ascending k and is rounded to float once. The product
 * of two floats is exact in double (48 significant bits, exponents
 * within [2^-298, 2^256]), so an FMA contraction of acc + a * b rounds
 * the same sum once, as the separate add does. Outputs never share a
 * sum, so the width only decides how many run side by side. Which
 * NaN a NaN output keeps is left open, as IEEE 754 leaves it: x86
 * keeps the first source operand's, and the compiler picks the order.
 */

#ifndef RAPID_TENSOR_LANE_MATMUL_HH
#define RAPID_TENSOR_LANE_MATMUL_HH

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>

#include "common/lanes.hh"

namespace rapid {

/**
 * The FP32 GEMM at one lane width: @p run computes every output of the
 * (M,K) x (K,N) product of row-major @p a and @p b into @p out.
 */
struct LaneMatmul
{
    using Run = void (*)(const float *a, const float *b, int64_t m,
                         int64_t k, int64_t n, float *out);

    int64_t width; ///< W, the floats of one vector: one block's columns
    Run run;
};

/** Output rows one register block carries. */
constexpr int64_t kMatmulRows = 4;

/**
 * @p R rows of @p a (row stride @p k) against the W columns of the
 * panel @p b (row stride @p ldb) over the whole reduction: R x W double
 * accumulators, two vectors a row, held in registers across k. The
 * first @p cols columns of each row are stored to @p out (row stride
 * @p ldc).
 */
template <int W, int R>
[[gnu::always_inline]] inline void
matmulBlock(const double *a, const double *b, int64_t k, int64_t ldb,
            int64_t cols, float *out, int64_t ldc)
{
    constexpr int H = W / 2;
    DoubleLanes<W> lo[R] = {}, hi[R] = {};
    for (int64_t kk = 0; kk < k; ++kk) {
        const DoubleLanes<W> b_lo = loadLanes<W>(b + kk * ldb);
        const DoubleLanes<W> b_hi = loadLanes<W>(b + kk * ldb + H);
#pragma GCC unroll 4
        for (int r = 0; r < R; ++r) {
            // x - (+0) is x for every x, -0 and NaN included.
            const DoubleLanes<W> a_rk = a[r * k + kk] - DoubleLanes<W>{};
            lo[r] += a_rk * b_lo;
            hi[r] += a_rk * b_hi;
        }
    }
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
        const FloatLanes<H> halves[] = {
            __builtin_convertvector(lo[r], FloatLanes<H>),
            __builtin_convertvector(hi[r], FloatLanes<H>)};
        std::memcpy(out + r * ldc, halves, size_t(cols) * sizeof(float));
    }
}

/** matmulBlock() down every row of @p a, @p R rows at a time while
 *  whole blocks remain, then the last m % R rows as one block. */
template <int W>
[[gnu::always_inline]] inline void
matmulPanel(const double *a, const double *b, int64_t m, int64_t k,
            int64_t ldb, int64_t cols, float *out, int64_t ldc)
{
    int64_t i = 0;
    for (; i + kMatmulRows <= m; i += kMatmulRows)
        matmulBlock<W, kMatmulRows>(a + i * k, b, k, ldb, cols,
                                    out + i * ldc, ldc);
    const double *a_rest = a + i * k;
    float *out_rest = out + i * ldc;
    switch (m - i) {
      case 3:
        return matmulBlock<W, 3>(a_rest, b, k, ldb, cols, out_rest, ldc);
      case 2:
        return matmulBlock<W, 2>(a_rest, b, k, ldb, cols, out_rest, ldc);
      case 1:
        return matmulBlock<W, 1>(a_rest, b, k, ldb, cols, out_rest, ldc);
      default:
        break;
    }
}

/**
 * The (M,K) x (K,N) FP32 GEMM of row-major @p a and @p b at lane width
 * @p W, one panel of W output columns at a time; a lane GEMM entry
 * instantiates this at its width under its target. A is converted to
 * double once and each panel of B just before its rows run (exact
 * conversions), the last one padded with zero columns whose outputs
 * are not stored.
 */
template <int W>
[[gnu::always_inline]] inline void
matmulLanes(const float *a, const float *b, int64_t m, int64_t k, int64_t n,
            float *out)
{
    const auto wide =
        std::make_unique_for_overwrite<double[]>(size_t(m * k + k * W));
    double *wide_a = wide.get(), *panel = wide_a + m * k;
    forEachBlocked(m * k, [=](int64_t i) { wide_a[i] = double(a[i]); });
    for (int64_t j = 0; j < n; j += W) {
        const int64_t cols = std::min(int64_t(W), n - j);
        for (int64_t kk = 0; kk < k; ++kk) {
            const float *src = b + kk * n + j;
            double *row = panel + kk * W;
            if (cols == W) {
                for (int l = 0; l < W; ++l)
                    row[l] = double(src[l]);
                continue;
            }
            for (int l = 0; l < W; ++l)
                row[l] = l < cols ? double(src[l]) : 0.0;
        }
        matmulPanel<W>(wide_a, panel, m, k, W, cols, out + j, n);
    }
}

} // namespace rapid

#endif // RAPID_TENSOR_LANE_MATMUL_HH
