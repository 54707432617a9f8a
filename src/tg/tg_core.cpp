#include "tg/tg_core.hpp"

#include "tg/program.hpp"

namespace tgsim::tg {

void TgCore::load(std::vector<u32> image) {
    check_image(image);
    thread_.image = std::move(image);
    reset();
}

void TgCore::reset() {
    // Registers preset via preset_reg() survive reset-by-load ordering: the
    // platform calls load() first, then preset_reg() for REGISTER directives.
    thread_.pc = 0;
    state_ = thread_.image.empty() ? State::Halted : State::Run;
    idle_left_ = 0;
    cycle_ = 0;
    halt_cycle_ = 0;
    stats_ = TgStats{};
    port_.reset();
}

Cycle TgCore::quiet_for() const {
    if (!port_.settled()) return 0;
    if (state_ == State::Halted) return sim::kQuietForever;
    if (state_ == State::Idle) return idle_left_ - 1;
    return 0;
}

void TgCore::advance(Cycle cycles) {
    cycle_ += cycles;
    if (state_ == State::Idle) {
        idle_left_ -= cycles;
        stats_.idle_cycles += cycles;
    }
}

void TgCore::update() {
    ++cycle_;
    switch (state_) {
        case State::Halted:
            break;
        case State::Idle:
            ++stats_.idle_cycles;
            if (--idle_left_ == 0) state_ = State::Run;
            break;
        case State::MemWait: {
            ++stats_.mem_wait_cycles;
            const ocp::MasterPort::Sample s = port_.sample();
            if (s.err) ++stats_.bus_errors;
            if (s.done) {
                thread_.complete(port_);
                state_ = State::Run;
            }
            break;
        }
        case State::Run:
            exec_one();
            break;
    }
}

void TgCore::exec_one() {
    const TgAction a = thread_.step(port_);
    if (a.kind != TgAction::End) ++stats_.instructions;
    switch (a.kind) {
        case TgAction::Next:
            break;
        case TgAction::Mem:
            ++(ocp::is_read(port_.cmd()) ? stats_.ocp_reads : stats_.ocp_writes);
            state_ = State::MemWait;
            break;
        case TgAction::Idle:
            if (a.arg > 1) {
                idle_left_ = a.arg - 1;
                state_ = State::Idle;
            }
            break;
        case TgAction::IdleUntil: {
            const u64 now = cycle_ - 1; // 0-based tick index of this update
            if (a.arg > now) {
                idle_left_ = a.arg - now;
                state_ = State::Idle;
            }
            break;
        }
        case TgAction::Halt:
        case TgAction::End:
            state_ = State::Halted;
            halt_cycle_ = cycle_;
            break;
    }
}

} // namespace tgsim::tg
