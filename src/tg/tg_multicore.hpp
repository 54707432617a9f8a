// Multi-threaded traffic generator — the paper's future-work extension
// (Sec. 7): "analysis of the behavior of a system in which multiple tasks
// run on a single processor and are dynamically scheduled by an OS, either
// based upon timeslices (preemptive multitasking) or upon transition to a
// sleep state followed by awakening on interrupt receipt. Context
// switching-related issues will need to be modeled."
//
// TgMultiCore executes several TG thread programs over ONE OCP master port:
//
//   * Timeslice policy: round-robin preemption every `quantum` cycles;
//     a thread is never preempted while an OCP transaction is in flight
//     (the port is in-order), only at instruction boundaries.
//   * SleepWake policy: a thread runs until it executes an Idle of at least
//     `yield_threshold` cycles, which is treated as a sleep; the scheduler
//     switches to the next ready thread and the sleeper is woken when its
//     idle time elapses (the "interrupt").
//
// Every context switch costs `switch_penalty` cycles, modelling the OS
// overhead the paper calls out. The component participates in kernel
// quiescence skipping when every thread is asleep or halted. Threads run
// on the same interpreter as TgCore (tg/tg_thread.hpp) and share one
// ocp::MasterPort, which owns the handshake and its drive cache.
#pragma once

#include <array>
#include <vector>

#include "ocp/master_port.hpp"
#include "sim/kernel.hpp"
#include "tg/tg_thread.hpp"

namespace tgsim::tg {

enum class SchedulePolicy : u8 {
    Timeslice, ///< preemptive round-robin
    SleepWake, ///< cooperative: switch on long Idle ("sleep"), wake on expiry
};

struct TgMultiConfig {
    SchedulePolicy policy = SchedulePolicy::Timeslice;
    u32 quantum = 64;         ///< Timeslice: cycles per slice
    u32 switch_penalty = 8;   ///< context-switch cost in cycles
    u32 yield_threshold = 16; ///< SleepWake: Idle(n >= threshold) sleeps
};

struct TgMultiStats {
    u64 instructions = 0;
    u64 context_switches = 0;
    u64 switch_overhead_cycles = 0;
    u64 all_asleep_cycles = 0; ///< no runnable thread
};

class TgMultiCore final : public sim::Clocked {
public:
    TgMultiCore(ocp::ChannelRef channel, TgMultiConfig cfg)
        : port_(channel), cfg_(cfg) {}

    /// Adds a thread program (binary image + initial registers). Threads
    /// are scheduled in the order they were added. Returns the thread id.
    /// Throws std::invalid_argument on an image check_image() rejects.
    std::size_t add_thread(std::vector<u32> image,
                           const std::array<u32, kTgNumRegs>& regs = {});

    void eval() override { port_.drive(); }
    void update() override;
    [[nodiscard]] Cycle quiet_for() const override;
    void advance(Cycle cycles) override;

    [[nodiscard]] bool done() const noexcept;
    [[nodiscard]] Cycle halt_cycle() const noexcept { return halt_cycle_; }
    [[nodiscard]] const TgMultiStats& stats() const noexcept { return stats_; }
    [[nodiscard]] std::size_t thread_count() const noexcept { return threads_.size(); }
    /// Halt time of one thread (0 while running).
    [[nodiscard]] Cycle thread_halt_cycle(std::size_t t) const {
        return threads_.at(t).halt_cycle;
    }
    [[nodiscard]] int current_thread() const noexcept { return current_; }

private:
    enum class ThreadState : u8 { Ready, Sleeping, Halted };

    struct Thread : TgThread {
        ThreadState state = ThreadState::Ready;
        Cycle wake_at = 0; ///< SleepWake: absolute wake cycle
        u64 idle_left = 0; ///< in-slice idle countdown (Timeslice policy)
        Cycle halt_cycle = 0;
    };

    void exec_current();
    /// Idles the current thread: under SleepWake a `wait` of at least
    /// yield_threshold cycles sleeps it until `wake_at`; otherwise it
    /// busy-waits `busy` cycles inside its slice.
    void idle_current(u64 wait, Cycle wake_at, u64 busy);
    /// Picks the next ready thread after `from`; -1 if none.
    [[nodiscard]] int next_ready(int from) const;
    void begin_switch(int to);

    ocp::MasterPort port_;
    TgMultiConfig cfg_;
    std::vector<Thread> threads_;

    int current_ = -1;
    u32 slice_left_ = 0;
    u32 switch_left_ = 0; ///< remaining context-switch penalty cycles
    int switch_to_ = -1;

    Cycle cycle_ = 0;
    Cycle halt_cycle_ = 0;
    TgMultiStats stats_;
};

} // namespace tgsim::tg
