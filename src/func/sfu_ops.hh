/**
 * @file
 * SFU function library (Section III-B): the Special Function Units
 * provide both *accurate* and *fast* versions of the non-linear
 * functions — sqrt, exp, ln, tanh, sigmoid, and reciprocal are
 * "realized using approximations". The fast versions here (exp, ln,
 * reciprocal and sigmoid) use the range-reduction +
 * low-degree-polynomial schemes a hardware SFU implements, evaluated
 * in FP32 and emitted as DLFloat16, and carry accuracy guarantees
 * proven by the test suite.
 */

#ifndef RAPID_FUNC_SFU_OPS_HH
#define RAPID_FUNC_SFU_OPS_HH

#include "tensor/tensor.hh"

namespace rapid {

/** Accuracy tier of an SFU evaluation (Section III-B). */
enum class SfuMode
{
    Accurate, ///< library-accurate FP32 evaluation
    Fast,     ///< hardware polynomial approximation
};

/** Scalar fast approximations (exposed for testing/accuracy audits). */
namespace sfu {

/** Fast exp: 2^x decomposition with a degree-3 fraction polynomial. */
float fastExp(float x);

/** Fast natural log via exponent extraction + mantissa polynomial. */
float fastLog(float x);

/** Fast reciprocal: Newton-Raphson on a bit-trick seed (2 steps). */
float fastReciprocal(float x);

/** Fast sigmoid built on fastExp with symmetric range reduction. */
float fastSigmoid(float x);

} // namespace sfu

/**
 * Elementwise SFU evaluation of a tensor. Results are rounded to
 * DLFloat16 like everything leaving the SFU datapath.
 */
Tensor sfuSigmoid(const Tensor &x, SfuMode mode = SfuMode::Fast);

/**
 * SFU softmax over the rows of a rank-2 tensor: max-subtract, fast
 * exp, reduction, fast reciprocal — the sequence the Figure 17
 * auxiliary category pays for.
 */
Tensor sfuSoftmax(const Tensor &x, SfuMode mode = SfuMode::Fast);

} // namespace rapid

#endif // RAPID_FUNC_SFU_OPS_HH
