#include "power/throttle.hh"

#include <algorithm>

#include "common/logging.hh"

namespace rapid {

ThrottlePlanner::ThrottlePlanner(const PowerModel &power,
                                 double envelope_w)
    : power_(power), envelope_(envelope_w)
{
    if (envelope_ <= 0.0) {
        // Default envelope: a dense FP16 workload at nominal V/f must
        // stall at kDenseStallRate to fit (Section III-C.2 derives
        // the stall rate from the measured power limits).
        const auto &si = power_.silicon();
        const double f = power_.frequencyGhz();
        const double v = si.voltageAt(f);
        envelope_ = (1.0 - kDenseStallRate) * denseDynamicCoeff() * v *
                        v * f +
                    si.leakagePower(f);
    }
    dense_run_ = 1.0 - stallRate(0.0);
}

double
ThrottlePlanner::denseDynamicCoeff() const
{
    // Dense FP16 layer at full MPE activity, no zero-gating credit.
    return power_.baseCoeff() + power_.mpeCoeff(Precision::FP16);
}

double
ThrottlePlanner::stallRate(double weight_sparsity) const
{
    rapid_assert(weight_sparsity >= 0.0 && weight_sparsity < 1.0,
                 "sparsity out of range: ", weight_sparsity);
    const auto &si = power_.silicon();
    const double f = power_.frequencyGhz();
    const double v = si.voltageAt(f);
    // Zero-gating scales the MPE component of the dynamic power.
    const double gated =
        power_.baseCoeff() +
        power_.mpeCoeff(Precision::FP16) *
            (1.0 - PowerModel::kZeroGateEffect * weight_sparsity);
    const double budget_dyn = envelope_ - si.leakagePower(f);
    rapid_assert(budget_dyn > 0, "envelope below leakage");
    const double run_fraction = budget_dyn / (gated * v * v * f);
    return std::clamp(1.0 - run_fraction, 0.0, 1.0);
}

double
ThrottlePlanner::speedup(double weight_sparsity) const
{
    return (1.0 - stallRate(weight_sparsity)) / dense_run_;
}

void
ThrottlePlanner::planThrottle(const Network &net,
                              ExecutionPlan &plan) const
{
    rapid_assert(plan.layers.size() == net.layers.size(),
                 "plan/network mismatch in throttle planning");
    double current = 1.0;
    for (size_t i = 0; i < net.layers.size(); ++i) {
        if (net.layers[i].isCompute())
            current = speedup(net.layers[i].weight_sparsity);
        plan.layers[i].throttle = current;
    }
}

} // namespace rapid
