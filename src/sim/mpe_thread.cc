#include "sim/mpe_thread.hh"

#include <algorithm>

#include "common/logging.hh"

namespace rapid {

MpeThread::MpeThread(DesDomain &domain, const LayerProgram &prog,
                     SimTime lrf_load_cycles)
    : domain_(domain), tokens_(domain), prog_(prog),
      lrfLoadCycles_(lrf_load_cycles)
{
}

void
MpeThread::start()
{
    domain_.scheduleIn(0, 0, [this] { step(); });
}

void
MpeThread::step()
{
    if (pc_ >= prog_.mpe_program.size()) {
        finish();
        return;
    }
    const MpeInstruction &inst = prog_.mpe_program[pc_++];
    switch (inst.op) {
      case Opcode::SetPrec:
      case Opcode::SetBias:
      case Opcode::Nop:
      case Opcode::MovSouth:
        issue(1);
        return;
      case Opcode::TokWait: {
        const SimTime begin = domain_.now();
        tokens_.wait(inst.imm, [this, begin] {
            stats_.stall_cycles += domain_.now() - begin;
            step();
        });
        return;
      }
      case Opcode::TokPost:
        tokens_.post(inst.imm);
        issue(1);
        return;
      case Opcode::LrfLoad:
        ++stats_.tiles_loaded;
        issue(lrfLoadCycles_);
        return;
      case Opcode::Fmma:
        stats_.fmma_issued += inst.imm;
        issue(std::max<SimTime>(1, inst.imm));
        return;
      case Opcode::Halt:
        finish();
        return;
    }
    rapid_panic("unhandled opcode in MPE program");
}

void
MpeThread::issue(SimTime cycles)
{
    stats_.issue_cycles += cycles;
    domain_.scheduleIn(cycles, 0, [this] { step(); });
}

void
MpeThread::finish()
{
    done_ = true;
    stats_.finish_cycle = domain_.now();
}

} // namespace rapid
