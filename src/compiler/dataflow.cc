#include "compiler/dataflow.hh"

#include <limits>

#include "common/bitfield.hh"
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
        s.weight_elems = layer.gk * layer.gn;
        return s;
    }
    const int64_t ci_per_group = layer.ci / layer.groups;
    if (ci_per_group == 1 && layer.groups == layer.ci) {
        // Depthwise convolution: there is no channel reduction, so the
        // compiler maps the kernel window along the rows (reduction)
        // and the channels along columns/SIMD. Utilization suffers at
        // low precision exactly as the paper observes for mobile nets.
        s.depthwise = true;
        s.reduction = layer.kh * layer.kw;
        s.outputs = layer.co;
        s.kernel = 1;
        s.positions = layer.outH() * layer.outW() * batch;
        s.weight_elems = layer.co * layer.kh * layer.kw;
        return s;
    }
    s.reduction = ci_per_group;
    s.outputs = layer.co;
    s.kernel = layer.kh * layer.kw;
    s.positions = layer.outH() * layer.outW() * batch;
    s.weight_elems = layer.weightElems();
    return s;
}

DataflowMapper::DataflowMapper(const ChipConfig &chip) : chip_(chip)
{
    const int w = workers();
    for (int w_co = 1; w_co <= w; ++w_co)
        if (w % w_co == 0)
            splits_.push_back(w_co);
}

int64_t
DataflowMapper::reductionCap(Precision p) const
{
    const auto &mpe = chip_.core.corelet.mpe;
    // MACs per lane per cycle: 1 (FP16), 2 (HFP8 sub-SIMD),
    // 8 (INT4 doubled engines), 16 (INT2).
    const double packing = mpe.macsPerCycle(p) / mpe.fpu_simd_lanes;
    // Degraded mode: dead MPE rows shorten the accumulation chain, so
    // tiles shrink accordingly (activeMpeRows == mpe_rows healthy).
    return int64_t(chip_.activeMpeRows() * packing);
}

int64_t
DataflowMapper::outputCap() const
{
    return int64_t(chip_.core.corelet.mpe_cols) *
           chip_.core.corelet.mpe.fpu_simd_lanes;
}

int
DataflowMapper::workers() const
{
    // Degraded mode: masked-dead cores contribute no corelets, so the
    // mapper plans the split across the live cores only.
    return int(chip_.activeCores() * chip_.core.corelets);
}

Mapping
DataflowMapper::evaluateSplit(const MappedShape &shape, Precision p,
                              int workers_co, int workers_pos) const
{
    const int64_t red_cap = reductionCap(p);
    const int64_t out_cap = outputCap();

    const int64_t co_local = divCeil(shape.outputs,
                                     int64_t(workers_co));
    const int64_t pos_local = divCeil(shape.positions,
                                      int64_t(workers_pos));

    const int64_t n_co = divCeil(co_local, out_cap);
    const int64_t n_red = divCeil(shape.reduction, red_cap);

    Mapping m;
    m.workers_co = workers_co;
    m.workers_pos = workers_pos;
    m.compute_cycles =
        double(n_co) * n_red * shape.kernel * pos_local;

    // LRF block-loads: each (co, reduction) tile loads a padded
    // red_cap x out_cap x kernel weight block from L1 at the corelet's
    // L1 bandwidth. Position-split workers replicate the same loads.
    const double tile_bytes = double(red_cap) * out_cap * shape.kernel *
                              operandBytes(p);
    const double load_cycles_per_walk =
        double(n_co) * n_red * tile_bytes /
        chip_.core.l1_bw_bytes_per_cycle;
    m.block_load_cycles = load_cycles_per_walk;

    const double macs = double(shape.reduction) * shape.outputs *
                        shape.kernel * shape.positions;
    const double peak =
        m.totalCycles() * double(workers_co) * workers_pos * red_cap *
        out_cap;
    m.utilization = peak > 0 ? macs / peak : 0.0;
    return m;
}

Mapping
DataflowMapper::map(const Layer &layer, int64_t batch, Precision p)
    const
{
    const MappedShape shape = mappedShape(layer, batch);
    const int w = workers();

    // The compiler's design-space exploration: every divisor split of
    // the workers is a candidate; the first strict minimum wins.
    Mapping best;
    double best_cycles = std::numeric_limits<double>::infinity();
    for (int w_co : splits_) {
        const Mapping m = evaluateSplit(shape, p, w_co, w / w_co);
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
