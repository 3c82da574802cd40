/**
 * @file
 * The data-processing thread of one core (Section II-A): interprets a
 * compiled layer's MPE program one instruction at a time on an
 * EventQueue, parks on its TokenBoard at TokWait until the
 * data-sequencing side has posted the operand block's ready token,
 * and posts to the same board at TokPost. CoreletSim runs one against
 * its local sequencer; ChipSim runs one per core against the MNI
 * completions.
 */

#ifndef RAPID_SIM_MPE_THREAD_HH
#define RAPID_SIM_MPE_THREAD_HH

#include <cstddef>
#include <cstdint>

#include "compiler/codegen.hh"
#include "sim/event_queue.hh"

namespace rapid {

/** Outcome of one core's program run. */
struct CoreRunStats
{
    Tick finish_cycle = 0;
    Tick stall_cycles = 0; ///< cycles blocked on tokens
    Tick issue_cycles = 0; ///< cycles spent issuing instructions
    uint64_t fmma_issued = 0;
    uint64_t tiles_loaded = 0;
};

/** One core's MPE program interpreter. */
class MpeThread
{
  public:
    /** @p lrf_load_cycles is the per-tile LRF hand-off cost. */
    MpeThread(EventQueue &eq, const LayerProgram &prog,
              Tick lrf_load_cycles);

    /** Schedule the first instruction at the current tick. */
    void start();

    /** The board the sequencing side posts ready tokens to. */
    TokenBoard &tokens() { return tokens_; }

    bool done() const { return done_; }
    const CoreRunStats &stats() const { return stats_; }

  private:
    void step();
    void issue(Tick cycles);
    void finish();

    EventQueue &eq_;
    TokenBoard tokens_;
    const LayerProgram &prog_;
    Tick lrfLoadCycles_;
    size_t pc_ = 0;
    bool done_ = false;
    CoreRunStats stats_;
};

} // namespace rapid

#endif // RAPID_SIM_MPE_THREAD_HH
