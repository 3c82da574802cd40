#include "perf/perf_model.hh"

#include "compiler/precision_assign.hh"

#include <algorithm>
#include <cmath>

#include "common/error.hh"
#include "common/logging.hh"

namespace rapid {

CycleBreakdown &
CycleBreakdown::operator+=(const CycleBreakdown &o)
{
    conv_gemm += o.conv_gemm;
    overhead += o.overhead;
    quantization += o.quantization;
    aux += o.aux;
    retry += o.retry;
    checkpoint += o.checkpoint;
    mem_stall += o.mem_stall;
    return *this;
}

PerfModel::PerfModel(const ChipConfig &chip, const FaultConfig &fault)
    : chip_(chip), fault_(fault), mapper_(chip) // mapper_ validates chip
{
    validateFaultConfig(fault);
    const unsigned cores = chip_.activeCores();
    freq_ = ghz(chip_.core_freq_ghz);
    mem_bytes_per_cycle_ = chip_.memBytesPerSecond() / freq_;
    l1_total_ = double(cores) * chip_.core.l1_kib * 1024.0;
    // Per-layer launch cost: program dispatch, pipeline warm-up, and
    // token-sync barriers whose cost grows with the number of
    // participating corelets. This is what saturates many-core
    // scaling for networks made of many tiny layers (Figure 18(a)).
    launch_cycles_ = 100.0 + 8.0 * cores * chip_.core.corelets;
    // SFU compute bound: SIMD lanes across all SFU arrays.
    sfu_lane_rate_ = cores * chip_.core.sfuLanes();
    // SFU bandwidth bound: each element is read from and written back
    // to the L1 in FP16 over the corelet's 128 B/cycle port, which the
    // SFU shares with the MPE dataflow streams (it gets ~3/4 of it on
    // average across the tile schedule).
    constexpr double kSfuL1Share = 0.75;
    const double bytes_per_elem = 2.0 * operandBytes(Precision::FP16);
    sfu_bw_rate_ = double(cores) * chip_.core.corelets * kSfuL1Share *
                   chip_.core.l1_bw_bytes_per_cycle / bytes_per_elem;
}

double
PerfModel::sfuCycles(double elems, double ops_per_elem) const
{
    const double lane_cycles = elems * ops_per_elem / sfu_lane_rate_;
    const double bw_cycles = elems / sfu_bw_rate_;
    return std::max(lane_cycles, bw_cycles);
}

bool
PerfModel::weightsFitOnChip(const Network &net,
                            const ExecutionPlan &plan) const
{
    rapid_assert(plan.layers.size() == net.layers.size(),
                 "plan/network layer count mismatch");
    double bytes = 0;
    for (size_t i = 0; i < net.layers.size(); ++i)
        bytes += double(net.layers[i].weightElems()) *
                 operandBytes(plan.at(i).precision);
    // Batch-1 activations are small; 10% of L1 suffices for their
    // double buffering, the rest can pin weights.
    return bytes <= 0.9 * l1_total_;
}

LayerPerf
PerfModel::evaluateLayer(const Layer &layer, const LayerPlan &plan,
                         int64_t batch, bool weights_resident) const
{
    RAPID_CHECK_ARG(batch >= 1, "inference batch must be >= 1, got ",
                    batch);
    LayerPerf perf = costLayer(layer, plan, batch, weights_resident);
    perf.name = layer.name;
    return perf;
}

LayerPerf
PerfModel::costLayer(const Layer &layer, const LayerPlan &plan,
                     int64_t batch, bool weights_resident) const
{
    LayerPerf perf;
    perf.type = layer.type;
    perf.precision = plan.precision;

    if (layer.type == LayerType::Aux) {
        const double elems =
            double(layer.outputElemsPerSample()) * batch;
        perf.cycles.aux =
            sfuCycles(elems, auxOpsPerElement(layer.aux_kind)) +
            launch_cycles_;
        // Aux operations are fused into the producer/consumer stream
        // (MPE output -> SFU -> L1), so they add no DRAM traffic of
        // their own; the compute layers account the tensor movement.
        perf.seconds = perf.cycles.total() / (freq_ * plan.throttle);
        return perf;
    }

    // --- Conv / GEMM layer on the MPE array ---
    const Precision p = plan.precision;
    rapid_assert(p != Precision::FP32,
                 "FP32 is not an MPE precision (layer ", layer.name,
                 ")");
    perf.macs = double(layer.macsPerSample()) * batch;

    Mapping m = mapper_.map(layer, batch, p);
    rapid_dassert(m.utilization >= 0.0 && m.utilization <= 1.0 + 1e-9,
                  "mapper utilization ", m.utilization,
                  " outside [0,1] for layer ", layer.name);
    perf.utilization = m.utilization;
    perf.cycles.conv_gemm =
        perf.macs /
        (mapper_.workers() * double(mapper_.reductionCap(p)) *
         mapper_.outputCap());
    // Everything beyond the ideal streaming cycles is overhead:
    // residue underuse, LRF block-load stalls, worker imbalance, and
    // the fixed launch cost.
    perf.cycles.overhead =
        std::max(0.0, m.totalCycles() - perf.cycles.conv_gemm) +
        launch_cycles_;

    // Quantization / scaling ops to convert FP16 <-> INT4/INT2 at the
    // layer boundary run on the SFU (Section V-E, category 3).
    if (usesFxu(p)) {
        const double q_elems =
            (double(layer.inputElemsPerSample()) +
             layer.outputElemsPerSample()) * batch;
        // Dequantize-rescale-requantize sequence per element on the
        // SFU: scale multiply, round, clamp, pack, plus the PACT clip
        // (Fig 17: "non-trivial, especially when activations are
        // large").
        perf.cycles.quantization = sfuCycles(q_elems, 5.0);
    }

    // --- DRAM traffic ---
    const double wt_bytes =
        double(layer.weightElems()) * operandBytes(p);
    const double in_bytes = double(layer.inputElemsPerSample()) *
                            batch * operandBytes(p);
    const double out_bytes = double(layer.outputElemsPerSample()) *
                             batch * operandBytes(p);
    double traffic = 0;
    if (!weights_resident)
        traffic += wt_bytes; // streamed once, reused across the batch
    if (in_bytes + out_bytes > 0.5 * l1_total_)
        traffic += in_bytes + out_bytes;
    perf.mem_bytes = traffic;

    // --- Fault retries (zero when the fault rate is zero) ---
    // Expected replay cycles of detected-but-uncorrected faults,
    // charged per site before memory stalls so retries also hide (or
    // expose) DRAM time like any other busy cycles. Exposure proxies:
    // every stored operand word of the layer (storage), every MAC
    // (mac output), every ring flit and every staged scratchpad block
    // of the layer's DRAM traffic.
    if (fault_.enabled()) {
        const double words =
            double(layer.weightElems()) +
            (double(layer.inputElemsPerSample()) +
             layer.outputElemsPerSample()) * batch;
        const double flits = traffic / chip_.ring_bw_bytes_per_cycle;
        const double blocks =
            traffic / (16.0 * chip_.ring_bw_bytes_per_cycle);
        perf.cycles.retry =
            expectedRetryCycles(fault_, FaultSite::StorageWord, words,
                                double(operandBits(p))) +
            expectedRetryCycles(fault_, FaultSite::MacOutput,
                                perf.macs, 1.0) +
            expectedRetryCycles(fault_, FaultSite::RingFlit, flits,
                                1.0) +
            expectedRetryCycles(fault_, FaultSite::Scratchpad, blocks,
                                1.0);
    }

    const double mem_cycles = traffic / mem_bytes_per_cycle_;
    perf.cycles.mem_stall =
        std::max(0.0, mem_cycles - perf.cycles.busy());

    perf.seconds = perf.cycles.total() / (freq_ * plan.throttle);
    return perf;
}

NetworkPerf
PerfModel::evaluate(const Network &net, const ExecutionPlan &plan,
                    int64_t batch) const
{
    rapid_assert(plan.layers.size() == net.layers.size(),
                 "plan does not match network ", net.name);
    RAPID_CHECK_ARG(batch >= 1, "inference batch must be >= 1, got ",
                    batch);
    NetworkPerf result;
    result.network = net.name;
    result.batch = batch;

    const bool weights_resident = weightsFitOnChip(net, plan);
    result.layers.reserve(net.layers.size());
    for (size_t i = 0; i < net.layers.size(); ++i) {
        const LayerPerf &lp = result.layers.emplace_back(evaluateLayer(
            net.layers[i], plan.at(i), batch, weights_resident));
        result.breakdown += lp.cycles;
        result.total_seconds += lp.seconds;
        result.total_macs += lp.macs;
        result.mem_bytes += lp.mem_bytes;
    }
    return result;
}

namespace {

/** @p chip reduced to one healthy core, its dead MPE rows kept. */
ChipConfig
oneCore(const ChipConfig &chip)
{
    ChipConfig one = chip;
    one.cores = 1;
    one.dead_core_mask = 0;
    return one;
}

} // namespace

TrainingPerfModel::TrainingPerfModel(const SystemConfig &sys)
    : sys_(sys), core_model_(oneCore(sys.chip))
{
    validateSystemConfig(sys);
}

TrainingPerf
TrainingPerfModel::evaluate(const Network &net, Precision precision,
                            int64_t minibatch) const
{
    rapid_assert(precision == Precision::FP16 ||
                 precision == Precision::HFP8,
                 "training supports FP16/HFP8 only");
    RAPID_CHECK_ARG(minibatch >= 1,
                    "training minibatch must be >= 1, got ", minibatch);
    TrainingPerf perf;
    perf.network = net.name;
    perf.precision = precision;
    perf.minibatch = minibatch;

    const int64_t chips = sys_.num_chips;
    const int64_t chip_batch =
        std::max<int64_t>(1, minibatch / chips);
    // Within a chip, training is data-parallel per core: each core
    // trains its own slice of the chip's minibatch share, so layer
    // cycles are those of a single core at the per-core batch. Cores
    // run concurrently; weight tiles are multicast from HBM.
    const int64_t batch_local = std::max<int64_t>(
        1, chip_batch / sys_.chip.activeCores());
    // The core model runs at the chip's clock and memory bandwidth.
    const double freq = core_model_.freq_;
    const double mem_bytes_per_cycle = core_model_.mem_bytes_per_cycle_;
    // Weights are replicated per core, so residency is against one
    // core's L1 (minus the activation double-buffering share).
    const double l1_core = sys_.chip.core.l1_kib * 1024.0;
    double model_weight_bytes = 0;
    for (const auto &l : net.layers)
        model_weight_bytes +=
            double(l.weightElems()) * operandBytes(precision);
    const bool weights_resident =
        model_weight_bytes <= 0.5 * l1_core;

    // The first/last-layer FP16 protection applies in training too.
    PrecisionOptions popts;
    popts.target = precision;
    ExecutionPlan plan = assignPrecision(net, popts);

    bool first_compute_seen = false;
    double total_cycles = 0;
    double act_traffic_bytes = 0;
    for (size_t i = 0; i < net.layers.size(); ++i) {
        const Layer &layer = net.layers[i];
        const LayerPlan &lp = plan.at(i);
        const LayerPerf f = core_model_.costLayer(
            layer, lp, batch_local,
            layer.type == LayerType::Aux || weights_resident);
        if (layer.type == LayerType::Aux) {
            // Forward activation, backward activation-gradient, and
            // the BN-statistics / optimizer elementwise work.
            total_cycles += 3.0 * f.cycles.total();
            continue;
        }
        // Forward, data-gradient, and weight-gradient passes have the
        // same MAC volume; the first layer skips the data gradient.
        double passes = first_compute_seen ? 3.0 : 2.0;
        first_compute_seen = true;
        total_cycles += passes * f.cycles.total();
        perf.total_macs += passes * double(layer.macsPerSample()) *
                           minibatch;
        // Training is memory intensive (Section V-C factor (ii)):
        // forward activations are written and re-read twice during
        // back-propagation (data- and weight-gradient passes), and
        // the error tensors make one write+read round trip of their
        // own. Minibatch activations far exceed the L1, so all of it
        // streams through HBM.
        act_traffic_bytes += 5.0 *
                             double(layer.outputElemsPerSample()) *
                             chip_batch * operandBytes(lp.precision);
    }

    // Activation save/restore traffic exposed beyond what the layer
    // model already charged.
    const double act_cycles = act_traffic_bytes / mem_bytes_per_cycle;
    total_cycles += act_cycles;

    perf.compute_seconds = total_cycles / freq;

    // Gradient reduce-scatter (FP16 gradients) + weight all-gather
    // (8-bit weights under HFP8) over the chip-to-chip links.
    const double weight_elems = double(net.weightElems());
    const double ring_factor = chips > 1 ?
        double(chips - 1) / chips : 0.0;
    const double grad_bytes = weight_elems *
                              operandBytes(Precision::FP16);
    const double wt_bytes = weight_elems * operandBytes(precision);
    const double comm_bytes = (grad_bytes + wt_bytes) * ring_factor;
    const double comm_raw = comm_bytes / sys_.c2cBytesPerSecond();
    perf.comm_seconds =
        std::max(0.0, comm_raw - kCommOverlap * perf.compute_seconds);

    perf.step_seconds = perf.compute_seconds + perf.comm_seconds;
    return perf;
}

} // namespace rapid
