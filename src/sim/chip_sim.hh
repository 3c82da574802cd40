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
    SimTime makespan = 0;
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
     * @p lrf_load_cycles is the per-tile LRF hand-off cost. Throws
     * InvalidArgument, naming the token, when a core waits on a
     * token that no planned transfer posts.
     */
    ChipRunStats run(const LayerProgram &prog,
                     SimTime lrf_load_cycles = 8) const;

    /**
     * Run a batch of independent layer programs, one full chip
     * simulation each, in parallel on the shared ThreadPool.
     *
     * Within one simulated cycle the cores all share the MNI fabric
     * and the memory node, so the safe (and deterministic) batch axis
     * is across simulations, not across cores inside one: the entries
     * share no mutable state and results gather by index, so output
     * is bit-identical to calling run() in a loop.
     */
    std::vector<ChipRunStats> runBatch(
        const std::vector<LayerProgram> &progs,
        SimTime lrf_load_cycles = 8) const;

  private:
    unsigned numCores_;
    bool multicast_;
    MniConfig mniCfg_;
};

} // namespace rapid

#endif // RAPID_SIM_CHIP_SIM_HH
