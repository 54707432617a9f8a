// The traffic-generator processor (paper Sec. 4).
//
// A multi-cycle processor with an instruction memory (the assembled binary
// image), a 16-entry register file and no data memory. Executes one
// instruction per cycle; OCP instructions occupy the master port until the
// transaction completes (accept for posted writes, last response beat for
// blocking reads); Idle(n) stalls for n cycles. r0 (`rdreg`) receives the
// data of every read.
//
// The deliberate simplicity — no fetch pipeline, no caches, no ALU — is the
// source of the paper's simulation speedup: emulating a core costs a few
// comparisons per cycle instead of a full ISS step. The instructions run
// on the TG interpreter (tg/tg_thread.hpp) and the port handshake,
// including its drive cache, is ocp::MasterPort's.
#pragma once

#include <vector>

#include "ocp/master_port.hpp"
#include "sim/kernel.hpp"
#include "tg/tg_thread.hpp"

namespace tgsim::tg {

struct TgStats {
    u64 instructions = 0;
    u64 ocp_reads = 0;
    u64 ocp_writes = 0;
    u64 idle_cycles = 0;
    u64 mem_wait_cycles = 0;
    u64 bus_errors = 0;
};

class TgCore final : public sim::Clocked {
public:
    explicit TgCore(ocp::ChannelRef channel) : port_(channel) {}

    /// Loads a binary image (see tg/program.hpp) and resets. Throws
    /// std::invalid_argument on an image check_image() rejects.
    void load(std::vector<u32> image);
    /// Preloads the register file (REGISTER directives).
    void preset_reg(u8 reg, u32 value) {
        if (reg < kTgNumRegs) thread_.regs[reg] = value;
    }
    void reset();

    void eval() override { port_.drive(); }
    void update() override;
    [[nodiscard]] Cycle quiet_for() const override;
    void advance(Cycle cycles) override;

    [[nodiscard]] bool done() const noexcept { return state_ == State::Halted; }
    [[nodiscard]] Cycle halt_cycle() const noexcept { return halt_cycle_; }
    [[nodiscard]] const TgStats& stats() const noexcept { return stats_; }
    [[nodiscard]] u32 reg(u8 index) const noexcept { return thread_.regs.at(index); }
    [[nodiscard]] u32 pc() const noexcept { return thread_.pc; }

private:
    enum class State : u8 { Run, Idle, MemWait, Halted };

    void exec_one();

    ocp::MasterPort port_;
    TgThread thread_;
    State state_ = State::Halted;
    u64 idle_left_ = 0;

    Cycle cycle_ = 0;
    Cycle halt_cycle_ = 0;
    TgStats stats_;
};

} // namespace tgsim::tg
