/**
 * @file
 * Analytical performance model of the RaPiD chip and multi-chip
 * systems, the software counterpart of the silicon-calibrated model
 * the paper evaluates with (Section V-A). Produces per-layer cycle
 * breakdowns in the four categories of Figure 17 (Conv/GEMM,
 * Conv/GEMM overheads, quantization, auxiliary) plus memory stalls,
 * and end-to-end latency/throughput for inference and training.
 */

#ifndef RAPID_PERF_PERF_MODEL_HH
#define RAPID_PERF_PERF_MODEL_HH

#include <string>
#include <vector>

#include "arch/config.hh"
#include "compiler/dataflow.hh"
#include "common/fault.hh"
#include "compiler/plan.hh"
#include "workloads/layer.hh"

namespace rapid {

/** Compute-cycle breakdown in Figure 17's categories. */
struct CycleBreakdown
{
    double conv_gemm = 0;  ///< streaming FMMA cycles on the MPE array
    double overhead = 0;   ///< residue underuse, block-loads, imbalance
    double quantization = 0; ///< FP16 <-> INT conversions on the SFU
    double aux = 0;        ///< activation/norm/pool/shuffle on the SFU
    double retry = 0;      ///< replays of detected-uncorrected faults
    double checkpoint = 0; ///< training-state snapshot traffic
    double mem_stall = 0;  ///< cycles exposed by DRAM bandwidth

    double
    busy() const
    {
        return conv_gemm + overhead + quantization + aux + retry +
               checkpoint;
    }

    double total() const { return busy() + mem_stall; }

    CycleBreakdown &operator+=(const CycleBreakdown &o);
};

/** Per-layer performance result. */
struct LayerPerf
{
    std::string name;
    LayerType type;
    Precision precision = Precision::FP16;
    double macs = 0;       ///< total MACs including batch
    CycleBreakdown cycles;
    double mem_bytes = 0;  ///< DRAM traffic
    double utilization = 0;
    double seconds = 0;    ///< wall time including throttle effects
};

/** Whole-network inference performance. */
struct NetworkPerf
{
    std::string network;
    int64_t batch = 1;
    std::vector<LayerPerf> layers;
    CycleBreakdown breakdown;
    double total_seconds = 0;
    double total_macs = 0;
    double mem_bytes = 0;

    double
    samplesPerSecond() const
    {
        return double(batch) / total_seconds;
    }

    /** Sustained tera-ops/s (2 ops per MAC). */
    double
    sustainedTops() const
    {
        return 2.0 * total_macs / total_seconds / 1e12;
    }
};

/** Inference performance model for a single chip. */
class PerfModel
{
  public:
    /**
     * @param chip Hardware description (dead-unit masks derate it).
     * @param fault Optional fault scenario: detected-but-uncorrected
     *        faults charge expected retry cycles into every layer's
     *        breakdown. The default (rate 0) charges nothing.
     */
    explicit PerfModel(const ChipConfig &chip,
                       const FaultConfig &fault = FaultConfig{});

    const ChipConfig &chip() const { return chip_; }

    /**
     * Evaluate inference of @p net under @p plan at @p batch.
     * @p plan must align with net.layers; @p batch must be >= 1.
     */
    NetworkPerf evaluate(const Network &net, const ExecutionPlan &plan,
                         int64_t batch = 1) const;

    /**
     * Per-layer evaluation (exposed for tests and the compiler).
     * @p batch must be >= 1.
     */
    LayerPerf evaluateLayer(const Layer &layer, const LayerPlan &plan,
                            int64_t batch, bool weights_resident) const;

    /** True if the network's weights fit in the aggregate L1. */
    bool weightsFitOnChip(const Network &net,
                          const ExecutionPlan &plan) const;

    /**
     * Cycles to push @p elems elements through the SFU arrays at
     * @p ops_per_elem operations each. SFU work is bounded both by
     * the SIMD lanes and by the L1 bandwidth needed to stream the
     * operand in and the result out (FP16 each way).
     */
    double sfuCycles(double elems, double ops_per_elem) const;

  private:
    friend class TrainingPerfModel;

    /** evaluateLayer without the name, which training never reads. */
    LayerPerf costLayer(const Layer &layer, const LayerPlan &plan,
                        int64_t batch, bool weights_resident) const;

    ChipConfig chip_;
    FaultConfig fault_;
    DataflowMapper mapper_;

    // Chip constants every layer reads, derived once from the live
    // unit counts.
    double freq_ = 0;                ///< core clock in Hz
    double mem_bytes_per_cycle_ = 0; ///< DRAM bytes per core cycle
    double l1_total_ = 0;            ///< aggregate live L1 bytes
    double launch_cycles_ = 0;       ///< fixed per-layer launch cost
    double sfu_lane_rate_ = 0;       ///< SFU elements/cycle, lane bound
    double sfu_bw_rate_ = 0;         ///< SFU elements/cycle, L1 bound
};

/** Training-system performance result. */
struct TrainingPerf
{
    std::string network;
    Precision precision = Precision::FP16;
    int64_t minibatch = 512;
    double compute_seconds = 0; ///< fwd+bwd on the slowest chip
    double comm_seconds = 0;    ///< exposed gradient/weight exchange
    double step_seconds = 0;

    double
    samplesPerSecond() const
    {
        return double(minibatch) / step_seconds;
    }

    double total_macs = 0; ///< fwd+bwd MACs for the whole minibatch

    double
    sustainedTops() const
    {
        return 2.0 * total_macs / step_seconds / 1e12;
    }
};

/**
 * Data-parallel training model for multi-chip RaPiD systems
 * (Section IV-A / Figure 11): per-step forward+backward compute on
 * each chip's share of the minibatch, plus ring-based gradient
 * reduction and (8-bit when HFP8) weight broadcast over the
 * chip-to-chip links, partially overlapped with the backward pass.
 */
class TrainingPerfModel
{
  public:
    /** Validates @p sys (rapid::Error, InvalidConfig). */
    explicit TrainingPerfModel(const SystemConfig &sys);

    /** @p minibatch must be >= 1. */
    TrainingPerf evaluate(const Network &net, Precision precision,
                          int64_t minibatch = 512) const;

    /** Fraction of communication hidden under backward compute. */
    static constexpr double kCommOverlap = 0.5;

  private:
    SystemConfig sys_;
    /// One healthy core of the system's chip (dead MPE rows kept):
    /// every layer is costed on it at the per-core batch.
    PerfModel core_model_;
};

} // namespace rapid

#endif // RAPID_PERF_PERF_MODEL_HH
