// Lint fixture: must trip the serial-model check (and only it).
// Linted as src/perf/bad_serial_model.cc: a pool region inside one
// model evaluation, where the sweep grid that calls the model already
// owns the parallelism and nested regions only run inline.
#include <vector>

#include "common/parallel.hh"

namespace rapid {

double
fixtureLayerSum(const std::vector<double> &layers)
{
    const std::vector<double> cycles = parallelMap(
        layers.size(), [&](size_t i) { return 2.0 * layers[i]; });
    double total = 0;
    for (double c : cycles)
        total += c;
    return total;
}

} // namespace rapid
