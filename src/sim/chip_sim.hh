/**
 * @file
 * Chip-level integration simulation: every core runs the same
 * compiled layer program over its position slice (the compiler's
 * position split), while the weight blocks stream from the external
 * memory node over the cycle-level ring through the MNI. Each core's
 * MNI-LU posts a Recv per tile with a shared tag, the memory
 * interface aggregates the requests, and one multicast per tile
 * serves every core (Figure 8) — so the experiment quantifies what
 * request aggregation saves at chip scope, with the processors'
 * token stalls exposing any delivery latency the multicast cannot
 * hide.
 */

#ifndef RAPID_SIM_CHIP_SIM_HH
#define RAPID_SIM_CHIP_SIM_HH

#include <vector>

#include "compiler/codegen.hh"
#include "interconnect/mni.hh"
#include "sim/mpe_thread.hh"

namespace rapid {

/** Whole-chip outcome. */
struct ChipRunStats
{
    Tick makespan = 0;
    uint64_t ring_flit_hops = 0;
    std::vector<CoreRunStats> cores;
};

/** Chip-level simulator: N cores + memory node on the ring. */
class ChipSim
{
  public:
    /**
     * @param num_cores Ring carries num_cores + 1 nodes (memory last).
     * @param multicast When true, cores share per-tile tags so the
     *        memory interface aggregates and multicasts; when false,
     *        every core uses private tags (N unicasts per tile), the
     *        baseline the MNI design improves on.
     */
    explicit ChipSim(unsigned num_cores = 4, bool multicast = true,
                     MniConfig mni_cfg = {});

    /**
     * Run @p prog on every core; weight tiles stream from memory.
     * @p lrf_load_cycles is the per-tile LRF hand-off cost.
     */
    ChipRunStats run(const LayerProgram &prog,
                     Tick lrf_load_cycles = 8);

    /**
     * Run a batch of independent layer programs, one full chip
     * simulation each, in parallel on the shared ThreadPool.
     *
     * Within one simulated cycle the cores all share the MNI fabric
     * and the memory node, so the safe (and deterministic) batch axis
     * is across simulations, not across cores inside one: each batch
     * entry becomes a domain of one rapid::DesEngine (its gem5-style
     * per-chip EventQueue stays the cycle-level micro-engine inside
     * the domain), domains share no mutable state, and results gather
     * by index. Output is bit-identical to calling run() in a loop.
     */
    std::vector<ChipRunStats> runBatch(
        const std::vector<LayerProgram> &progs,
        Tick lrf_load_cycles = 8) const;

  private:
    unsigned numCores_;
    bool multicast_;
    MniConfig mniCfg_;
};

} // namespace rapid

#endif // RAPID_SIM_CHIP_SIM_HH
