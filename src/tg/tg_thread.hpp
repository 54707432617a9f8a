// The TG instruction interpreter, shared by TgCore and TgMultiCore.
//
// A TgThread is one TG program's architectural state — instruction image,
// register file, pc — and step() executes the instruction at pc. OCP
// instructions are issued on the caller's MasterPort; everything else the
// instruction asks of the core (wait n cycles, wait until cycle t, stop)
// comes back as a TgAction, and each core decides what that means for it:
// TgCore idles its one program, TgMultiCore busy-waits or puts the thread
// to sleep per its scheduling policy.
#pragma once

#include <array>
#include <vector>

#include "ocp/master_port.hpp"
#include "tg/tg_isa.hpp"

namespace tgsim::tg {

/// What an executed instruction asks of the core running it.
struct TgAction {
    enum Kind : u8 {
        Next,      ///< nothing: the next instruction may run next cycle
        Mem,       ///< an OCP transaction was issued on the port
        Idle,      ///< Idle(arg): wait `arg` cycles
        IdleUntil, ///< IdleUntil(arg): wait until absolute cycle `arg`
        Halt,      ///< Halt
        End,       ///< pc ran off the image: halts, retires no instruction
    };
    Kind kind = Next;
    u32 arg = 0;
};

struct TgThread {
    std::vector<u32> image;
    std::array<u32, kTgNumRegs> regs{};
    u32 pc = 0;

    /// Executes the instruction at pc. BurstWrite beats are driven straight
    /// from the image, which must not change while the write is in flight.
    TgAction step(ocp::MasterPort& port) noexcept {
        if (pc >= image.size()) return {TgAction::End};
        const u32* const at = image.data() + pc; // word 0, then operands
        const TgWord0 w = decode_w0(at[0]);
        // Input readers reject a zero beat count; a hand-built image
        // still runs it as one beat.
        const auto burst = static_cast<u16>(w.imm12 == 0 ? 1 : w.imm12);
        switch (w.op) {
            case TgOp::Read:
                port.issue(ocp::Cmd::Read, regs[w.a], 1);
                pc += 1;
                return {TgAction::Mem};
            case TgOp::Write:
                port.issue(ocp::Cmd::Write, regs[w.a], 1, regs[w.b]);
                pc += 1;
                return {TgAction::Mem};
            case TgOp::BurstRead:
                port.issue(ocp::Cmd::BurstRead, regs[w.a], burst);
                pc += 1;
                return {TgAction::Mem};
            case TgOp::BurstWrite:
                port.issue(ocp::Cmd::BurstWrite, regs[w.a], burst, 0, at + 1);
                pc += 1 + w.imm12;
                return {TgAction::Mem};
            case TgOp::If:
                pc = compare(w.cmp, regs[w.a], regs[w.b]) ? at[1] : pc + 2;
                return {TgAction::Next};
            case TgOp::IfImm:
                pc = compare(w.cmp, regs[w.a], at[1]) ? at[2] : pc + 3;
                return {TgAction::Next};
            case TgOp::Jump:
                pc = at[1];
                return {TgAction::Next};
            case TgOp::SetRegister:
                regs[w.a] = at[1];
                pc += 2;
                return {TgAction::Next};
            case TgOp::Idle:
                pc += 2;
                return {TgAction::Idle, at[1]};
            case TgOp::IdleUntil:
                pc += 2;
                return {TgAction::IdleUntil, at[1]};
            case TgOp::Halt:
                return {TgAction::Halt};
        }
        return {TgAction::Next}; // unknown opcode: retires, pc stays
    }

    /// rdreg takes the data of a completed read (last beat).
    void complete(const ocp::MasterPort& port) noexcept {
        if (ocp::is_read(port.cmd())) regs[kRdReg] = port.data();
    }
};

} // namespace tgsim::tg
