#include "compiler/precision_assign.hh"

namespace rapid {

ExecutionPlan
assignPrecision(const Network &net, const PrecisionOptions &opts)
{
    ExecutionPlan plan;
    plan.layers.resize(net.layers.size());

    // Locate the first and last compute layers.
    size_t first = net.layers.size(), last = 0;
    for (size_t i = 0; i < net.layers.size(); ++i) {
        if (net.layers[i].isCompute()) {
            if (first == net.layers.size())
                first = i;
            last = i;
        }
    }

    for (size_t i = 0; i < net.layers.size(); ++i) {
        LayerPlan &lp = plan.layers[i];
        if (!net.layers[i].isCompute()) {
            lp.precision = Precision::FP16;
            continue;
        }
        const bool prot = (i == first || i == last ||
                           net.layers[i].accuracy_sensitive);
        lp.precision = (prot && opts.protect_edge_layers &&
                        opts.target != Precision::FP16)
                           ? Precision::FP16
                           : opts.target;
    }
    return plan;
}

} // namespace rapid
