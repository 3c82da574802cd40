#include "arch/config.hh"

#include <algorithm>
#include <cmath>

#include "common/error.hh"

namespace rapid {

void
validateChipConfig(const ChipConfig &chip)
{
    RAPID_CHECK_CONFIG(chip.cores >= 1, "chip needs at least one core");
    RAPID_CHECK_CONFIG(chip.core.corelets >= 1,
                       "core needs at least one corelet");
    RAPID_CHECK_CONFIG(chip.core.corelet.mpe_rows >= 1 &&
                           chip.core.corelet.mpe_cols >= 1,
                       "corelet needs a non-empty MPE array, got ",
                       chip.core.corelet.mpe_rows, "x",
                       chip.core.corelet.mpe_cols);
    const MpeConfig &mpe = chip.core.corelet.mpe;
    RAPID_CHECK_CONFIG(mpe.fpu_simd_lanes >= 1 &&
                           mpe.fxu_simd_lanes >= 1 &&
                           mpe.int4_macs_per_fxu >= 1,
                       "MPE needs non-zero SIMD widths, got fpu ",
                       mpe.fpu_simd_lanes, ", fxu ", mpe.fxu_simd_lanes,
                       ", int4_macs_per_fxu ", mpe.int4_macs_per_fxu);
    // Bounded widths keep every derived capacity (MPE rows x MACs per
    // lane, MPE columns x lanes) far inside int64.
    RAPID_CHECK_CONFIG(mpe.fpu_simd_lanes <= kMaxSimdWidth &&
                           mpe.fxu_simd_lanes <= kMaxSimdWidth &&
                           mpe.int4_macs_per_fxu <= kMaxSimdWidth,
                       "MPE SIMD widths above ", kMaxSimdWidth,
                       " are out of range, got fpu ", mpe.fpu_simd_lanes,
                       ", fxu ", mpe.fxu_simd_lanes,
                       ", int4_macs_per_fxu ", mpe.int4_macs_per_fxu);
    const CoreletConfig &corelet = chip.core.corelet;
    RAPID_CHECK_CONFIG(corelet.sfu_arrays >= 1 &&
                           corelet.sfus_per_array >= 1 &&
                           corelet.sfu_simd_lanes >= 1,
                       "corelet needs a non-empty SFU, got ",
                       corelet.sfu_arrays, " arrays x ",
                       corelet.sfus_per_array, " SFUs x ",
                       corelet.sfu_simd_lanes, " lanes");
    RAPID_CHECK_CONFIG(chip.core.l1_bw_bytes_per_cycle >= 1,
                       "l1_bw_bytes_per_cycle must be >= 1");
    RAPID_CHECK_CONFIG(std::isfinite(chip.core_freq_ghz) &&
                           chip.core_freq_ghz > 0.0,
                       "core_freq_ghz must be positive, got ",
                       chip.core_freq_ghz);
    RAPID_CHECK_CONFIG(std::isfinite(chip.ring_freq_ghz) &&
                           chip.ring_freq_ghz > 0.0,
                       "ring_freq_ghz must be positive, got ",
                       chip.ring_freq_ghz);
    RAPID_CHECK_CONFIG(chip.ring_bw_bytes_per_cycle >= 1,
                       "ring_bw_bytes_per_cycle must be >= 1");
    RAPID_CHECK_CONFIG(std::isfinite(chip.mem_gbps) &&
                           chip.mem_gbps > 0.0,
                       "mem_gbps must be positive, got ", chip.mem_gbps);
    RAPID_CHECK_CONFIG(chip.activeCores() >= 1,
                       "dead_core_mask ", chip.dead_core_mask,
                       " leaves no live core out of ", chip.cores);
    RAPID_CHECK_CONFIG(chip.activeMpeRows() >= 1,
                       "dead_mpe_row_mask ", chip.dead_mpe_row_mask,
                       " leaves no live MPE row out of ",
                       chip.core.corelet.mpe_rows);
}

void
validateSystemConfig(const SystemConfig &sys)
{
    validateChipConfig(sys.chip);
    RAPID_CHECK_CONFIG(sys.num_chips >= 1,
                       "system needs at least one chip");
    RAPID_CHECK_CONFIG(std::isfinite(sys.chip_to_chip_gbps) &&
                           sys.chip_to_chip_gbps > 0.0,
                       "chip_to_chip_gbps must be positive, got ",
                       sys.chip_to_chip_gbps);
}

ChipConfig
makeInferenceChip(double freq_ghz)
{
    ChipConfig chip;
    chip.cores = 4;
    chip.core_freq_ghz = freq_ghz;
    chip.ring_freq_ghz = freq_ghz;
    chip.mem_gbps = 200.0; // external DDR (Section V-A)
    return chip;
}

ChipConfig
degradeChip(ChipConfig chip, unsigned dead_cores, unsigned dead_mpe_rows)
{
    // Bounded before the shifts: a mask names at most 64 units.
    RAPID_CHECK_CONFIG(dead_cores < std::min(chip.cores, 64u),
                       "cannot kill ", dead_cores, " of ", chip.cores,
                       " cores: one must live, and a mask holds 64");
    RAPID_CHECK_CONFIG(
        dead_mpe_rows < std::min(chip.core.corelet.mpe_rows, 64u),
        "cannot kill ", dead_mpe_rows, " of ",
        chip.core.corelet.mpe_rows,
        " MPE rows: one must live, and a mask holds 64");
    chip.dead_core_mask |= (uint64_t(1) << dead_cores) - 1;
    chip.dead_mpe_row_mask |= (uint64_t(1) << dead_mpe_rows) - 1;
    validateChipConfig(chip);
    return chip;
}

ChipConfig
makeDegradedInferenceChip(unsigned dead_cores, unsigned dead_mpe_rows,
                          double freq_ghz)
{
    return degradeChip(makeInferenceChip(freq_ghz), dead_cores,
                       dead_mpe_rows);
}

ChipConfig
makeTrainingChip(double freq_ghz)
{
    ChipConfig chip;
    chip.cores = 32;
    chip.core_freq_ghz = freq_ghz;
    chip.ring_freq_ghz = freq_ghz;
    chip.mem_gbps = 400.0; // HBM (Section V-A)
    // 64 MB distributed L1 across 32 cores.
    chip.core.l1_kib = 2048;
    return chip;
}

SystemConfig
makeTrainingSystem(unsigned num_chips)
{
    SystemConfig sys;
    sys.chip = makeTrainingChip();
    sys.num_chips = num_chips;
    sys.chip_to_chip_gbps = 128.0;
    return sys;
}

} // namespace rapid
