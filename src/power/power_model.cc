#include "power/power_model.hh"

#include <algorithm>

#include "common/logging.hh"

namespace rapid {

PowerModel::PowerModel(const ChipConfig &chip, double f_ghz)
    : chip_(chip), si_(chip),
      freq_ghz_(f_ghz > 0 ? f_ghz : chip.core_freq_ghz)
{
}

double
PowerModel::baseCoeff() const
{
    return kBaseCoeff4Core * chip_.cores / 4.0;
}

double
PowerModel::sfuCoeff() const
{
    return kSfuCoeff4Core * chip_.cores / 4.0;
}

double
PowerModel::mpeCoeff(Precision p) const
{
    return std::max(0.0, si_.dynamicCoeff(p) - baseCoeff());
}

EnergyReport
PowerModel::evaluate(const NetworkPerf &perf, const Network &net) const
{
    rapid_assert(perf.layers.size() == net.layers.size(),
                 "perf/network mismatch in power evaluation");
    EnergyReport report;
    double base_e = 0, mpe_e = 0, sfu_e = 0, leak_e = 0;
    const double v = si_.voltageAt(freq_ghz_);
    const double vvf = v * v * freq_ghz_;

    // Wall time scales with the model frequency relative to the
    // frequency the performance result was computed at.
    const double time_scale = perf.total_seconds > 0
        ? chip_.core_freq_ghz / freq_ghz_ : 1.0;
    const double base_coeff = baseCoeff();
    const double sfu_coeff = sfuCoeff();
    const double leakage_w = si_.leakagePower(freq_ghz_);

    for (size_t i = 0; i < perf.layers.size(); ++i) {
        const LayerPerf &lp = perf.layers[i];
        const double t = lp.seconds * time_scale;
        const double total = lp.cycles.total();
        if (t <= 0)
            continue;
        const double act_mpe = total > 0
            ? (lp.cycles.conv_gemm +
               0.5 * (lp.cycles.overhead + lp.cycles.retry)) / total
            : 0.0;
        const double act_sfu = total > 0
            ? std::min(1.0, (lp.cycles.quantization + lp.cycles.aux) /
                            total)
            : 0.0;
        const double zero_frac =
            1.0 - (1.0 - kActivationSparsity) *
                  (1.0 - net.layers[i].weight_sparsity);
        const double gate = 1.0 - kZeroGateEffect * zero_frac;

        base_e += base_coeff * vvf * t;
        mpe_e += mpeCoeff(lp.precision) * act_mpe * gate * vvf * t;
        sfu_e += sfu_coeff * act_sfu * vvf * t;
        leak_e += leakage_w * t;
    }

    const double wall = perf.total_seconds * time_scale;
    rapid_dassert(base_e >= 0.0 && mpe_e >= 0.0 && sfu_e >= 0.0
                      && leak_e >= 0.0,
                  "negative energy component: base=", base_e, " mpe=",
                  mpe_e, " sfu=", sfu_e, " leak=", leak_e);
    report.energy_j = base_e + mpe_e + sfu_e + leak_e;
    report.avg_power_w = wall > 0 ? report.energy_j / wall : 0.0;
    report.sustained_tops = 2.0 * perf.total_macs / wall / 1e12;
    report.tops_per_w = report.avg_power_w > 0
        ? report.sustained_tops / report.avg_power_w : 0.0;
    report.power.base = wall > 0 ? base_e / wall : 0;
    report.power.mpe = wall > 0 ? mpe_e / wall : 0;
    report.power.sfu = wall > 0 ? sfu_e / wall : 0;
    report.power.leakage = wall > 0 ? leak_e / wall : 0;
    return report;
}

} // namespace rapid
