/**
 * @file
 * Activity-based power/energy model on top of the silicon
 * characterization. Decomposes the chip's dynamic power into a
 * shared base (clock distribution, control, scratchpad idle), the
 * MPE arrays (per precision, credited for zero-gating), and the SFU
 * arrays, then integrates per-layer power over a performance result
 * to produce the sustained TOPS/W of Figure 14.
 */

#ifndef RAPID_POWER_POWER_MODEL_HH
#define RAPID_POWER_POWER_MODEL_HH

#include "perf/perf_model.hh"
#include "power/characterization.hh"

namespace rapid {

/** Average power decomposition over a run. */
struct PowerBreakdown
{
    double base = 0;    ///< clocks, control, scratchpad idle
    double mpe = 0;     ///< MPE array switching
    double sfu = 0;     ///< SFU array switching
    double leakage = 0;

    double
    total() const
    {
        return base + mpe + sfu + leakage;
    }
};

/** Energy/efficiency summary of a network run. */
struct EnergyReport
{
    double avg_power_w = 0;
    double energy_j = 0;
    double sustained_tops = 0;
    double tops_per_w = 0;
    PowerBreakdown power;
};

/**
 * Chip power model.
 *
 * Component decomposition: the characterization's A(p) covers a chip
 * running dense MPE work at peak, i.e. A(p) = a_base + a_mpe(p).
 * The SFU arrays add their own switching on top when active, which is
 * exactly the overshoot scenario the workload-aware throttling of
 * Section III-C exists to contain.
 */
class PowerModel
{
  public:
    /// Fraction of A(p) attributed to the always-on base (clock tree,
    /// sequencers, scratchpad background) for the 4-core chip.
    static constexpr double kBaseCoeff4Core = 2.8;
    /// SFU arrays' switching coefficient at full activity (4-core).
    static constexpr double kSfuCoeff4Core = 4.0;
    /// Fraction of MPE dynamic power saved per gated (zero) operand
    /// pair: the FPU pipeline is skipped but operand distribution and
    /// control keep toggling.
    static constexpr double kZeroGateEffect = 0.55;
    /// Typical zero fraction of post-ReLU activations, credited to
    /// zero-gating during dense inference.
    static constexpr double kActivationSparsity = 0.45;

    /**
     * @param chip Chip configuration.
     * @param f_ghz Operating point; defaults to the chip's frequency.
     */
    explicit PowerModel(const ChipConfig &chip, double f_ghz = 0.0);

    const SiliconCharacterization &silicon() const { return si_; }
    double frequencyGhz() const { return freq_ghz_; }

    double baseCoeff() const;
    double sfuCoeff() const;
    double mpeCoeff(Precision p) const;

    /** Integrate power over a network run. */
    EnergyReport evaluate(const NetworkPerf &perf,
                          const Network &net) const;

  private:
    ChipConfig chip_;
    SiliconCharacterization si_;
    double freq_ghz_;
};

} // namespace rapid

#endif // RAPID_POWER_POWER_MODEL_HH
