/**
 * @file
 * The weight-stationary dataflow mapper (Figure 5, Section III-A.4)
 * and per-layer cycle model.
 *
 * Mapping rules derived in the paper:
 *  - Input channels (Ci) map spatially along MPE rows and the LRF;
 *    output channels (Co) along columns and SIMD lanes.
 *  - Inputs stream along rows, outputs along columns; weights are
 *    block-loaded into the LRF and reused over H x W x N positions.
 *  - Loop nest (outer to inner): Co tiles, Ci tiles, Ki x Kj,
 *    N, H x W.
 *
 * The cycle model counts (a) streaming compute cycles with exact
 * ceil() residue effects, (b) LRF block-load stalls, whose relative
 * cost grows at small batch (Section III-A.4: "frequent block-loads
 * for small batch sizes"), and (c) the spatial work split across
 * cores/corelets chosen by the compiler's design-space exploration.
 */

#ifndef RAPID_COMPILER_DATAFLOW_HH
#define RAPID_COMPILER_DATAFLOW_HH

#include <cstdint>
#include <string>
#include <vector>

#include "arch/config.hh"
#include "workloads/layer.hh"

namespace rapid {

/** A Conv/GEMM layer reduced to mapper-relevant dimensions. */
struct MappedShape
{
    int64_t reduction;     ///< Ci (per group), or K for GEMMs
    int64_t outputs;       ///< Co, or N columns for GEMMs
    int64_t kernel;        ///< Kh * Kw (1 for GEMMs)
    int64_t positions;     ///< Ho * Wo * batch, or M * batch
};

/** Extract the mapped shape of a compute layer at @p batch. */
MappedShape mappedShape(const Layer &layer, int64_t batch);

/** Result of mapping one layer onto the chip. */
struct Mapping
{
    /// Workers assigned to output-channel splitting vs position
    /// (spatial/batch) splitting; their product is the worker count.
    int workers_co = 1;
    int workers_pos = 1;

    double compute_cycles = 0;    ///< streaming FMMA cycles
    double block_load_cycles = 0; ///< LRF weight-load stalls
    double utilization = 0;       ///< MACs / (cycles * peak rate)

    double totalCycles() const
    {
        return compute_cycles + block_load_cycles;
    }
};

/**
 * Maps compute layers onto a chip at a given precision, choosing the
 * best split of workers between Co and positions (the compiler's
 * design-space exploration of Section IV-B).
 */
class DataflowMapper
{
  public:
    /**
     * Validates @p chip (rapid::Error, InvalidConfig) and derives its
     * live worker count, capacities and candidate splits once.
     */
    explicit DataflowMapper(const ChipConfig &chip);

    /**
     * Spatial reduction capacity of one corelet at @p p:
     * rows x (MACs the sub-SIMD/FXU packing performs per lane).
     * Zero at FP32, which has no MPE datapath.
     */
    int64_t
    reductionCap(Precision p) const
    {
        return red_cap_[size_t(p)];
    }

    /** Spatial output capacity of one corelet: cols x SIMD lanes. */
    int64_t outputCap() const { return out_cap_; }

    /** Total corelet workers on the chip. */
    int workers() const { return workers_; }

    /**
     * Map @p layer at @p batch and @p precision; returns the best
     * mapping over all worker splits. Throws rapid::Error
     * (InvalidArgument) when @p p has no reduction capacity (FP32).
     */
    Mapping map(const Layer &layer, int64_t batch, Precision p) const;

  private:
    /// What every split of one (shape, precision) pair shares.
    struct Tiling
    {
        MappedShape shape;
        int64_t red_cap;   ///< reduction capacity at the precision
        int64_t n_red;     ///< reduction tiles
        double tile_bytes; ///< one padded red_cap x out_cap weight block
        double macs;       ///< MACs of the whole shape
    };

    Tiling tiling(const MappedShape &shape, Precision p) const;
    Mapping split(const Tiling &t, int workers_co,
                  int workers_pos) const;

    /// Live cores x corelets: masked-dead cores contribute none.
    int workers_ = 0;
    int64_t out_cap_ = 0;
    /// reductionCap per Precision, indexed by its enumerator.
    int64_t red_cap_[size_t(Precision::INT2) + 1] = {};
    double l1_bw_bytes_per_cycle_ = 0; ///< one corelet's L1 port
    /// Every w_co dividing workers(), ascending: the candidate splits
    /// map() scans, fixed by the chip so computed once.
    std::vector<int> splits_;
};

} // namespace rapid

#endif // RAPID_COMPILER_DATAFLOW_HH
