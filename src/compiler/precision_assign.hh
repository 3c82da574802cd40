/**
 * @file
 * Precision assignment pass of the graph compiler (Sections I and
 * V-A): most Conv/GEMM layers run at the target ultra-low precision,
 * but the first and last compute layers are kept at FP16 to preserve
 * accuracy, and all auxiliary operations execute on the SFU in
 * FP16/FP32.
 */

#ifndef RAPID_COMPILER_PRECISION_ASSIGN_HH
#define RAPID_COMPILER_PRECISION_ASSIGN_HH

#include "compiler/plan.hh"
#include "workloads/layer.hh"

namespace rapid {

/** Options controlling precision assignment. */
struct PrecisionOptions
{
    Precision target = Precision::INT4;
    /// Keep the first/last compute layers at FP16 (the accuracy-
    /// preserving rule); always true in the paper's evaluations.
    bool protect_edge_layers = true;
};

/**
 * Build an execution plan assigning @p opts.target to eligible
 * compute layers and FP16 elsewhere.
 */
ExecutionPlan assignPrecision(const Network &net,
                              const PrecisionOptions &opts);

} // namespace rapid

#endif // RAPID_COMPILER_PRECISION_ASSIGN_HH
