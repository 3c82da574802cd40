/**
 * @file
 * Sparsity-aware frequency throttling (Section III-C.2, Figures 6
 * and 16). The chip's power control module skips clock edges to keep
 * the chip inside its power envelope. The graph compiler analyzes the
 * per-layer weight sparsity of a pruned model offline, estimates the
 * power saved by zero-gating, and re-invests it by lowering each
 * layer's stall rate (raising its effective frequency) while staying
 * within the envelope.
 */

#ifndef RAPID_POWER_THROTTLE_HH
#define RAPID_POWER_THROTTLE_HH

#include "compiler/plan.hh"
#include "power/power_model.hh"

namespace rapid {

/**
 * Plans per-layer clock-edge-skip rates against a power envelope.
 * All rates are relative to the nominal clock; the throttle value
 * written into the execution plan is f_eff(layer) / f_eff(dense), the
 * speedup factor relative to the sparsity-unaware baseline.
 */
class ThrottlePlanner
{
  public:
    /**
     * @param power Power model at the nominal operating point.
     * @param envelope_w Chip power envelope. Pass <= 0 to use the
     *        default envelope: the power of a dense FP16 run throttled
     *        to the paper-calibrated dense stall rate.
     */
    explicit ThrottlePlanner(const PowerModel &power,
                             double envelope_w = 0.0);

    /// Dense-workload stall rate at nominal V/f implied by the
    /// default envelope (calibrated so the maximum sparsity speedup
    /// approaches the paper's 1.7x).
    static constexpr double kDenseStallRate = 0.42;

    double envelopeWatts() const { return envelope_; }

    /**
     * Stall (clock-edge-skip) rate that keeps a dense-FP16-class
     * layer with @p weight_sparsity inside the envelope (Fig 16(a)).
     */
    double stallRate(double weight_sparsity) const;

    /** Effective frequency multiplier vs the dense baseline. */
    double speedup(double weight_sparsity) const;

    /**
     * Fill in plan.throttle per layer from the network's sparsity
     * profile (the compile-time flow of Figure 6). Aux layers follow
     * their preceding compute layer's throttle level.
     */
    void planThrottle(const Network &net, ExecutionPlan &plan) const;

  private:
    double denseDynamicCoeff() const;

    const PowerModel &power_;
    double envelope_;
    /// 1 - stallRate(0): the dense baseline's run fraction.
    double dense_run_ = 1.0;
};

} // namespace rapid

#endif // RAPID_POWER_THROTTLE_HH
