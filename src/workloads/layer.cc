#include "workloads/layer.hh"


namespace rapid {

int64_t
Layer::outH() const
{
    rapid_assert(type == LayerType::Conv, "outH on non-conv layer ",
                 name);
    return (h + 2 * pad_h - kh) / stride + 1;
}

int64_t
Layer::outW() const
{
    rapid_assert(type == LayerType::Conv, "outW on non-conv layer ",
                 name);
    return (w + 2 * pad_w - kw) / stride + 1;
}

int64_t
Layer::macsPerSample() const
{
    // Builder validation (net_builder.cc) rejects collapsed feature
    // maps with a user-facing error; by the time work is counted the
    // geometry must be sane.
    rapid_dassert(type != LayerType::Conv
                      || (outH() > 0 && outW() > 0 && groups > 0),
                  "invalid conv geometry in layer ", name);
    switch (type) {
      case LayerType::Conv:
        return repeat * outH() * outW() * co * (ci / groups) * kh * kw;
      case LayerType::Gemm:
        return repeat * gm * gk * gn;
      case LayerType::Aux:
        return 0;
    }
    return 0;
}

int64_t
Layer::weightElems() const
{
    switch (type) {
      case LayerType::Conv:
        // Repeated conv layers (unrolled loops) share their weights.
        return co * (ci / groups) * kh * kw;
      case LayerType::Gemm:
        return gk * gn;
      case LayerType::Aux:
        return 0;
    }
    return 0;
}

int64_t
Layer::inputElemsPerSample() const
{
    switch (type) {
      case LayerType::Conv:
        return repeat * ci * h * w;
      case LayerType::Gemm:
        return repeat * gm * gk;
      case LayerType::Aux:
        return repeat * aux_elems;
    }
    return 0;
}

int64_t
Layer::outputElemsPerSample() const
{
    switch (type) {
      case LayerType::Conv:
        return repeat * co * outH() * outW();
      case LayerType::Gemm:
        return repeat * gm * gn;
      case LayerType::Aux:
        return repeat * aux_elems;
    }
    return 0;
}

int64_t
Network::macsPerSample() const
{
    int64_t total = 0;
    for (const auto &l : layers)
        total += l.macsPerSample();
    return total;
}

int64_t
Network::weightElems() const
{
    int64_t total = 0;
    for (const auto &l : layers)
        total += l.weightElems();
    return total;
}

int64_t
Network::numComputeLayers() const
{
    int64_t n = 0;
    for (const auto &l : layers)
        if (l.isCompute())
            n += l.repeat;
    return n;
}

double
auxOpsPerElement(AuxKind kind)
{
    // Effective SFU operations per produced element, reflecting the
    // accurate/fast split of Section III-B (transcendentals use the
    // fast polynomial approximations).
    switch (kind) {
      case AuxKind::ReLU: return 1.0;
      case AuxKind::Sigmoid: return 4.0;
      case AuxKind::Tanh: return 4.0;
      case AuxKind::Gelu: return 6.0;
      case AuxKind::BatchNorm: return 2.0;
      case AuxKind::LayerNorm: return 6.0;
      case AuxKind::Softmax: return 5.0;
      case AuxKind::MaxPool: return 1.0; ///< per window element
      case AuxKind::AvgPool: return 1.0;
      case AuxKind::Eltwise: return 1.0;
      case AuxKind::Embedding: return 1.0;
      case AuxKind::Upsample: return 1.0;
      case AuxKind::DataMove: return 1.0;
    }
    return 1.0;
}

} // namespace rapid
