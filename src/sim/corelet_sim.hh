/**
 * @file
 * Discrete-event simulation of one corelet executing a compiled
 * layer, with the architecture's decoupled access/execute split
 * (Section II-A): a *data-sequencing* thread streams the planned MNI
 * transfers into the L0/LRF and posts a token per staged block, while
 * the *data-processing* thread interprets the MPE instruction program,
 * blocking on TokWait until its operands are resident.
 *
 * Because the two threads share nothing but tokens, double buffering
 * emerges rather than being modelled: the sequencer runs ahead of the
 * processor, and the makespan approaches
 * max(total fetch, total compute) instead of their sum — exactly the
 * overlap the compiler's tile planner counts on.
 */

#ifndef RAPID_SIM_CORELET_SIM_HH
#define RAPID_SIM_CORELET_SIM_HH

#include "compiler/codegen.hh"
#include "common/des.hh"
#include "common/fault.hh"

namespace rapid {

/** Outcome of simulating one compiled layer on a corelet. */
struct CoreletRunStats
{
    SimTime total_cycles = 0;     ///< makespan
    SimTime sequencer_cycles = 0; ///< time the sequencer spent streaming
    SimTime processor_cycles = 0; ///< time the MPE program spent issuing
    SimTime stall_cycles = 0;     ///< processor cycles blocked on tokens
    uint64_t fmma_issued = 0;
    uint64_t tiles_loaded = 0;
    FaultStats faults;            ///< Scratchpad-site injection outcome

    /** Fraction of fetch time hidden under compute. */
    double
    overlapEfficiency() const
    {
        const double sum =
            double(sequencer_cycles) + processor_cycles;
        return sum > 0 ? 1.0 - double(total_cycles) / sum : 0.0;
    }
};

/** One corelet's decoupled-execution simulator. */
class CoreletSim
{
  public:
    /**
     * @param l1_bytes_per_cycle Bandwidth of the sequencer's L1 port.
     * @param lrf_load_cycles Cycles the processor spends switching a
     *        staged block into the LRF (the block-load hand-off).
     * Throws InvalidArgument on a non-positive L1 bandwidth.
     */
    explicit CoreletSim(double l1_bytes_per_cycle = 128.0,
                        SimTime lrf_load_cycles = 8);

    /**
     * Simulate @p prog to completion and return the timeline. Throws
     * InvalidArgument, naming the token, when the processor waits on
     * a token that no planned transfer posts.
     */
    CoreletRunStats run(const LayerProgram &prog);

    /**
     * Attach a fault injector (Scratchpad site); nullptr detaches.
     * Non-owning. Each staged transfer is one injection item: a
     * detected fault re-streams the block through the L1 port before
     * its token posts, an undetected one stages a corrupt block (SDC).
     */
    void setFaultInjector(const FaultInjector *injector)
    {
        injector_ = injector;
    }

  private:
    double l1BytesPerCycle_;
    SimTime lrfLoadCycles_;
    const FaultInjector *injector_ = nullptr;
};

} // namespace rapid

#endif // RAPID_SIM_CORELET_SIM_HH
