/**
 * @file
 * Parameterized description of the RaPiD hardware hierarchy
 * (Sections III and IV): MPE -> corelet -> core -> chip -> system.
 * The default values describe the fabricated 4-core 7nm chip; the
 * scaled 32-core training chip and multi-chip systems are expressed by
 * changing the counts (Section IV-A).
 */

#ifndef RAPID_ARCH_CONFIG_HH
#define RAPID_ARCH_CONFIG_HH

#include <bit>
#include <cstdint>

#include "common/units.hh"
#include "precision/precision.hh"

namespace rapid {

/** One Mixed-Precision Processing Element (Figure 4). */
struct MpeConfig
{
    unsigned fpu_simd_lanes = 8; ///< 8-way SIMD FPU (FP16/HFP8)
    unsigned fxu_simd_lanes = 8; ///< 8-way SIMD FXU (INT4/INT2)
    /// INT4 MAC engines per FXU lane after the power-driven doubling
    /// (Figure 4(c)): 8 INT4 (16 INT2) engines per FXU.
    unsigned int4_macs_per_fxu = 8;

    /** MAC operations per cycle at @p p (1 MAC = 2 ops). */
    double
    macsPerCycle(Precision p) const
    {
        switch (p) {
          case Precision::FP16:
            return fpu_simd_lanes;
          case Precision::HFP8:
            return fpu_simd_lanes * 2.0; // sub-SIMD partition
          case Precision::INT4:
            return double(fxu_simd_lanes) * int4_macs_per_fxu;
          case Precision::INT2:
            return double(fxu_simd_lanes) * int4_macs_per_fxu * 2.0;
          case Precision::FP32:
            return 0.0; // FP32 runs on the SFU only
        }
        return 0.0;
    }
};

/**
 * A corelet: an 8x8 MPE array, doubled SFU arrays, and an L0
 * scratchpad (Section III-D).
 */
struct CoreletConfig
{
    unsigned mpe_rows = 8;
    unsigned mpe_cols = 8;
    MpeConfig mpe;
    /// SFU arrays were doubled to balance ultra-low-precision
    /// Conv/GEMM time against FP16 auxiliary time (Section III-B).
    unsigned sfu_arrays = 2;
    unsigned sfus_per_array = 8;
    unsigned sfu_simd_lanes = 8;
    unsigned l0_kib = 64;
    unsigned l0_bw_bytes_per_cycle = 64;

    unsigned numMpes() const { return mpe_rows * mpe_cols; }

    /** MAC ops/cycle for the whole MPE array at @p p. */
    double
    mpeArrayMacsPerCycle(Precision p) const
    {
        return numMpes() * mpe.macsPerCycle(p);
    }

    /** SFU elementwise lanes (FP16 ops/cycle rate). */
    double
    sfuLanes() const
    {
        return double(sfu_arrays) * sfus_per_array * sfu_simd_lanes;
    }
};

/** An AI core: 2 corelets sharing a 2 MiB L1 (Figure 7). */
struct CoreConfig
{
    unsigned corelets = 2;
    CoreletConfig corelet;
    unsigned l1_kib = 2048;
    /// Independent load/store bandwidth between L1 and each corelet.
    unsigned l1_bw_bytes_per_cycle = 128;

    double
    macsPerCycle(Precision p) const
    {
        return corelets * corelet.mpeArrayMacsPerCycle(p);
    }

    double
    sfuLanes() const
    {
        return corelets * corelet.sfuLanes();
    }
};

/** A RaPiD chip: cores on a bi-directional ring (Figure 9). */
struct ChipConfig
{
    unsigned cores = 4;
    CoreConfig core;
    double core_freq_ghz = 1.5;
    double ring_freq_ghz = 1.5; ///< separate PLL, asynchronous domain
    /// Ring bandwidth per direction (Section III-E).
    unsigned ring_bw_bytes_per_cycle = 128;
    /// External memory bandwidth (DDR for inference, HBM for the
    /// scaled training chip).
    double mem_gbps = 200.0;
    /// Degraded-mode masks: bit i set marks core i (or MPE array row
    /// r, uniformly in every corelet) permanently dead — a hard unit
    /// failure or a binned-out yield defect. The mapper and the
    /// performance model derate capacity instead of refusing to run.
    uint64_t dead_core_mask = 0;
    uint64_t dead_mpe_row_mask = 0;

    /** Cores still alive under dead_core_mask. */
    unsigned
    activeCores() const
    {
        const uint64_t valid =
            cores >= 64 ? ~uint64_t(0) : (uint64_t(1) << cores) - 1;
        return cores - unsigned(std::popcount(dead_core_mask & valid));
    }

    /** MPE array rows still alive under dead_mpe_row_mask. */
    unsigned
    activeMpeRows() const
    {
        const unsigned rows = core.corelet.mpe_rows;
        const uint64_t valid =
            rows >= 64 ? ~uint64_t(0) : (uint64_t(1) << rows) - 1;
        return rows -
               unsigned(std::popcount(dead_mpe_row_mask & valid));
    }

    /** Fraction of MPE rows alive (1.0 on a healthy chip). */
    double
    mpeRowYield() const
    {
        return double(activeMpeRows()) / double(core.corelet.mpe_rows);
    }

    /** Peak MAC ops/second of the chip at @p p (2 ops per MAC). */
    double
    peakOpsPerSecond(Precision p) const
    {
        return 2.0 * activeCores() * core.macsPerCycle(p) *
               ghz(core_freq_ghz) * mpeRowYield();
    }

    /** Total ring bandwidth in bytes/second (both directions). */
    double
    ringBytesPerSecond() const
    {
        return 2.0 * ring_bw_bytes_per_cycle * ghz(ring_freq_ghz);
    }

    double memBytesPerSecond() const { return mem_gbps * kGiga; }

    /**
     * Aggregate corelet L0 scratchpad capacity over live cores, in
     * bytes. This is the on-chip residency budget the LLM serving
     * model sizes the per-layer KV working set against: the 4-core
     * inference chip offers 4 x 2 x 64 KiB = 512 KiB.
     */
    uint64_t
    scratchpadBytes() const
    {
        return uint64_t(activeCores()) * core.corelets *
               uint64_t(core.corelet.l0_kib) * 1024;
    }
};

/** A (possibly multi-chip) RaPiD system (Section IV-A). */
struct SystemConfig
{
    ChipConfig chip;
    unsigned num_chips = 1;
    double chip_to_chip_gbps = 128.0;

    double
    peakOpsPerSecond(Precision p) const
    {
        return num_chips * chip.peakOpsPerSecond(p);
    }

    double c2cBytesPerSecond() const { return chip_to_chip_gbps * kGiga; }
};

/** Largest MPE SIMD width (FPU or FXU lanes, INT4 MACs per FXU lane)
 *  validateChipConfig() accepts. */
constexpr unsigned kMaxSimdWidth = 4096;

/**
 * Throw rapid::Error (InvalidConfig) when @p chip is not runnable:
 * zero counts, zero SFU widths, MPE SIMD widths outside
 * [1, kMaxSimdWidth], non-positive frequencies or
 * bandwidths (L1, ring, memory), or masks that kill every core or
 * every MPE row. A partially-masked chip is valid — that is the
 * graceful-degradation path.
 */
void validateChipConfig(const ChipConfig &chip);

/** validateChipConfig plus the system-level knobs. */
void validateSystemConfig(const SystemConfig &sys);

/** The fabricated 4-core inference chip with 200 GB/s DDR. */
ChipConfig makeInferenceChip(double freq_ghz = 1.5);

/**
 * @p chip with its lowest @p dead_cores cores and lowest
 * @p dead_mpe_rows MPE rows also masked dead. Throws InvalidConfig
 * when a count reaches the unit count or the 64-bit mask width, or
 * when the masks would leave no live unit.
 */
ChipConfig degradeChip(ChipConfig chip, unsigned dead_cores,
                       unsigned dead_mpe_rows = 0);

/**
 * The inference chip degraded by degradeChip — the canonical
 * degraded-mode configuration used by the fault and serving studies.
 */
ChipConfig makeDegradedInferenceChip(unsigned dead_cores,
                                     unsigned dead_mpe_rows = 0,
                                     double freq_ghz = 1.5);

/** The scaled 32-core training chip with 400 GB/s HBM (Fig 11). */
ChipConfig makeTrainingChip(double freq_ghz = 1.5);

/** The 4-chip x 32-core, 128 GB/s chip-to-chip training system. */
SystemConfig makeTrainingSystem(unsigned num_chips = 4);

} // namespace rapid

#endif // RAPID_ARCH_CONFIG_HH
