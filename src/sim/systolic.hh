/**
 * @file
 * Cycle-level simulator of one corelet's systolic MPE array running a
 * GEMM (Figure 4). It computes the GEMM directly on the bit-accurate
 * datapath, with no instruction stream: it validates the analytical
 * dataflow model's cycle counts and shows that the datapath
 * reproduces the functional executors' numerics exactly. The MPE ISA
 * itself runs in MpeThread (sim/mpe_thread.hh).
 *
 * The simulated dataflow is the paper's weight-stationary GEMM
 * mapping: the reduction dimension spans the rows (scaled by the
 * sub-SIMD packing of the precision), outputs span columns x SIMD,
 * weights are block-loaded into the LRFs, inputs stream west-to-east
 * with systolic skew, and partial sums flow south through the
 * column adder chain, entering at the north with the previous tile's
 * partial value so the accumulation chain is continuous.
 */

#ifndef RAPID_SIM_SYSTOLIC_HH
#define RAPID_SIM_SYSTOLIC_HH

#include <cstdint>

#include "arch/config.hh"
#include "common/fault.hh"
#include "precision/mpe_datapath.hh"
#include "tensor/tensor.hh"

namespace rapid {

/** Result of a GEMM the array computed directly (no ISA program). */
struct SystolicResult
{
    Tensor c;              ///< DLFloat16-valued output (M x N)
    uint64_t cycles = 0;   ///< simulated corelet cycles
    uint64_t block_load_cycles = 0;
    uint64_t fmas = 0;     ///< FMA slots issued
    uint64_t zero_gated = 0;
    FaultStats faults;     ///< MacOutput-site injection outcome
};

/** One corelet's MPE array, cycle-level. */
class SystolicArraySim
{
  public:
    /**
     * @param corelet Array geometry (8x8 by default).
     * @param precision FP16 or HFP8 (the FPU pipeline modes).
     * @param fwd_bias Programmable FP8 (1,4,3) exponent bias.
     */
    SystolicArraySim(const CoreletConfig &corelet, Precision precision,
                     int fwd_bias = 4);

    /**
     * Simulate C = A (MxK) x B (KxN). In HFP8 mode @p a_kind /
     * @p b_kind select each operand tensor's FP8 flavour.
     */
    SystolicResult gemm(const Tensor &a, const Tensor &b,
                        Fp8Kind a_kind = Fp8Kind::Forward,
                        Fp8Kind b_kind = Fp8Kind::Forward);

    /** Reduction capacity (rows x sub-SIMD packing). */
    int64_t reductionCap() const;

    /** Output capacity (cols x SIMD lanes). */
    int64_t outputCap() const;

    /**
     * Attach a fault injector (MacOutput site); nullptr detaches.
     * Non-owning. Each accumulator value leaving the array south is
     * one injection item: a detected fault re-issues the value's tile
     * pass (retry cycles added to the result), an undetected one
     * flips a bit of the DLFloat16 output encoding.
     */
    void setFaultInjector(const FaultInjector *injector)
    {
        injector_ = injector;
    }

  private:
    /** Resolve one MacOutput injection item against @p acc. */
    float injectMacFault(float acc, uint64_t item,
                         FaultStats &stats) const;

    CoreletConfig corelet_;
    Precision precision_;
    int fwdBias_;
    const FaultInjector *injector_ = nullptr;
};

} // namespace rapid

#endif // RAPID_SIM_SYSTOLIC_HH
