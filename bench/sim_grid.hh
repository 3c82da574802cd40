/**
 * @file
 * The scenario-grid runner the serving benches share: build one
 * simulator per config, then advance the whole grid as independent
 * domains of one DES engine.
 */

#ifndef RAPID_BENCH_SIM_GRID_HH
#define RAPID_BENCH_SIM_GRID_HH

#include <memory>
#include <vector>

#include "arch/config.hh"
#include "common/parallel.hh"

namespace rapid {

/**
 * Construct a Sim(@p chip, cfgs[i]) per config (latency tables
 * compile in parallel) and hand the whole grid to @p runBatch
 * (runServeBatch, runLlmBatch, runFleetBatch); results gather in
 * config order, bit-identical at any --threads N.
 */
template <typename Sim, typename Config, typename Result>
std::vector<Result>
runGrid(const ChipConfig &chip, const std::vector<Config> &cfgs,
        std::vector<Result> (*runBatch)(const std::vector<const Sim *> &))
{
    const auto sims = parallelMap(cfgs.size(), [&](size_t i) {
        return std::make_unique<Sim>(chip, cfgs[i]);
    });
    std::vector<const Sim *> ptrs;
    ptrs.reserve(sims.size());
    for (const auto &s : sims)
        ptrs.push_back(s.get());
    return runBatch(ptrs);
}

} // namespace rapid

#endif // RAPID_BENCH_SIM_GRID_HH
