#include "compiler/dataflow.hh"

#include <limits>

#include "common/bitfield.hh"
#include "common/error.hh"
#include "common/logging.hh"

namespace rapid {

MappedShape
mappedShape(const Layer &layer, int64_t batch)
{
    rapid_assert(layer.isCompute(), "mapping a non-compute layer ",
                 layer.name);
    MappedShape s;
    if (layer.type == LayerType::Gemm) {
        s.reduction = layer.gk;
        s.outputs = layer.gn;
        s.kernel = 1;
        s.positions = layer.gm * batch;
        return s;
    }
    const int64_t ci_per_group = layer.ci / layer.groups;
    if (ci_per_group == 1 && layer.groups == layer.ci) {
        // Depthwise convolution: there is no channel reduction, so the
        // compiler maps the kernel window along the rows (reduction)
        // and the channels along columns/SIMD. Utilization suffers at
        // low precision exactly as the paper observes for mobile nets.
        s.reduction = layer.kh * layer.kw;
        s.outputs = layer.co;
        s.kernel = 1;
        s.positions = layer.outH() * layer.outW() * batch;
        return s;
    }
    s.reduction = ci_per_group;
    s.outputs = layer.co;
    s.kernel = layer.kh * layer.kw;
    s.positions = layer.outH() * layer.outW() * batch;
    return s;
}

DataflowMapper::DataflowMapper(const ChipConfig &chip)
{
    // Validate before deriving: a zero lane count would make the
    // packing ratio non-finite and its integer cast undefined.
    validateChipConfig(chip);
    // Degraded mode: masked-dead cores contribute no corelets, so the
    // mapper plans the split across the live cores only.
    workers_ = int(chip.activeCores() * chip.core.corelets);
    out_cap_ = int64_t(chip.core.corelet.mpe_cols) *
               chip.core.corelet.mpe.fpu_simd_lanes;
    const MpeConfig &mpe = chip.core.corelet.mpe;
    const unsigned rows = chip.activeMpeRows();
    for (Precision p : {Precision::FP32, Precision::FP16,
                        Precision::HFP8, Precision::INT4,
                        Precision::INT2}) {
        // MACs per lane per cycle: 1 (FP16), 2 (HFP8 sub-SIMD),
        // 8 (INT4 doubled engines), 16 (INT2), 0 (FP32).
        const double packing = mpe.macsPerCycle(p) / mpe.fpu_simd_lanes;
        // Degraded mode: dead MPE rows shorten the accumulation chain,
        // so tiles shrink accordingly (rows == mpe_rows healthy).
        red_cap_[size_t(p)] = int64_t(rows * packing);
    }
    l1_bw_bytes_per_cycle_ = chip.core.l1_bw_bytes_per_cycle;
    for (int w_co = 1; w_co <= workers_; ++w_co)
        if (workers_ % w_co == 0)
            splits_.push_back(w_co);
}

DataflowMapper::Tiling
DataflowMapper::tiling(const MappedShape &shape, Precision p) const
{
    const int64_t red_cap = reductionCap(p);
    RAPID_CHECK_ARG(red_cap >= 1, precisionName(p),
                    " has no MPE reduction capacity on this chip");
    // LRF block-loads: each (co, reduction) tile loads a padded
    // red_cap x out_cap x kernel weight block from L1 at the corelet's
    // L1 bandwidth.
    return Tiling{
        .shape = shape,
        .red_cap = red_cap,
        .n_red = divCeil(shape.reduction, red_cap),
        .tile_bytes = double(red_cap) * out_cap_ * shape.kernel *
                      operandBytes(p),
        .macs = double(shape.reduction) * shape.outputs * shape.kernel *
                shape.positions,
    };
}

Mapping
DataflowMapper::split(const Tiling &t, int workers_co,
                      int workers_pos) const
{
    const MappedShape &shape = t.shape;
    const int64_t co_local = divCeil(shape.outputs,
                                     int64_t(workers_co));
    const int64_t pos_local = divCeil(shape.positions,
                                      int64_t(workers_pos));
    const int64_t n_co = divCeil(co_local, out_cap_);

    Mapping m;
    m.workers_co = workers_co;
    m.workers_pos = workers_pos;
    m.compute_cycles =
        double(n_co) * t.n_red * shape.kernel * pos_local;

    // Position-split workers replicate the same block-loads.
    m.block_load_cycles =
        double(n_co) * t.n_red * t.tile_bytes / l1_bw_bytes_per_cycle_;

    const double peak =
        m.totalCycles() * double(workers_co) * workers_pos * t.red_cap *
        out_cap_;
    m.utilization = peak > 0 ? t.macs / peak : 0.0;
    return m;
}

Mapping
DataflowMapper::map(const Layer &layer, int64_t batch, Precision p)
    const
{
    const Tiling t = tiling(mappedShape(layer, batch), p);

    // The compiler's design-space exploration: every divisor split of
    // the workers is a candidate; the first strict minimum wins.
    Mapping best;
    double best_cycles = std::numeric_limits<double>::infinity();
    for (int w_co : splits_) {
        const Mapping m = split(t, w_co, workers_ / w_co);
        const double cycles = m.totalCycles() * layer.repeat;
        if (cycles < best_cycles) {
            best_cycles = cycles;
            best = m;
        }
    }
    // Sequentially dependent repeats (LSTM timesteps, per-head GEMMs)
    // re-walk the weight tiles every instance.
    best.compute_cycles *= layer.repeat;
    best.block_load_cycles *= layer.repeat;
    return best;
}

} // namespace rapid
