#include "sim/corelet_sim.hh"

#include <algorithm>

#include "common/error.hh"
#include "sim/mpe_thread.hh"

namespace rapid {

CoreletSim::CoreletSim(double l1_bytes_per_cycle,
                       SimTime lrf_load_cycles)
    : l1BytesPerCycle_(l1_bytes_per_cycle),
      lrfLoadCycles_(lrf_load_cycles)
{
    RAPID_CHECK_ARG(l1_bytes_per_cycle > 0, "non-positive L1 bandwidth ",
                    l1_bytes_per_cycle);
}

CoreletRunStats
CoreletSim::run(const LayerProgram &prog)
{
    DesEngine engine;
    DesDomain &corelet = engine.domain(engine.addDomain("corelet"));
    MpeThread proc(corelet, prog, lrfLoadCycles_);
    CoreletRunStats stats;

    // Data-sequencing thread: stream the staged transfers back to
    // back through the L1 port, posting each block's ready token the
    // cycle its tail lands. It naturally runs ahead of the processor.
    SimTime seq_time = 0;
    uint64_t fault_item = 0;
    for (const auto &tr : prog.transfers) {
        const SimTime cycles = std::max<SimTime>(
            1, SimTime((double(tr.bytes) + l1BytesPerCycle_ - 1) /
                       l1BytesPerCycle_));
        seq_time += cycles;
        if (injector_ && injector_->active(FaultSite::Scratchpad)) {
            // One injection item per staged block. A detected fault
            // re-streams the block before its token posts; an
            // undetected one silently stages corrupt data.
            const FaultOutcome hit = injector_->inject(
                FaultSite::Scratchpad, fault_item++, stats.faults);
            if (hit == FaultOutcome::Detected)
                seq_time += cycles;
            else if (hit == FaultOutcome::Silent)
                ++stats.faults.sdc;
        }
        const unsigned token = tr.ready_token;
        corelet.schedule(seq_time, 0,
                         [&proc, token] { proc.tokens().post(token); });
    }
    stats.sequencer_cycles = seq_time;

    proc.start();
    engine.run();
    RAPID_CHECK_ARG(proc.done(), "corelet program deadlocked: the "
                    "processor waits on token ", proc.blockedToken(),
                    " that no planned transfer posts");
    const CoreRunStats &core = proc.stats();
    stats.total_cycles = core.finish_cycle;
    stats.processor_cycles = core.issue_cycles;
    stats.stall_cycles = core.stall_cycles;
    stats.fmma_issued = core.fmma_issued;
    stats.tiles_loaded = core.tiles_loaded;
    return stats;
}

} // namespace rapid
