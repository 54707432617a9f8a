// Tests for the multi-threaded TG (paper Sec. 7 future work): timeslice
// preemption, sleep/wake scheduling, context-switch cost, and quiescence.
#include <gtest/gtest.h>

#include "mem/memory.hpp"
#include "ocp/monitor.hpp"
#include "test_util.hpp"
#include "tg/program.hpp"
#include "tg/tg_multicore.hpp"

namespace tgsim::test {
namespace {

using namespace tgsim::tg;

/// A thread that writes `count` words at `base`, `gap` idle cycles apart.
std::vector<u32> writer_image(u32 base, u32 value, u32 count, u32 gap) {
    TgProgram p;
    p.reg_init[1] = base; // applied via regs argument below instead
    for (u32 i = 0; i < count; ++i) {
        TgInstr set_addr;
        set_addr.op = TgOp::SetRegister;
        set_addr.a = 1;
        set_addr.imm = base + 4 * i;
        TgInstr set_data;
        set_data.op = TgOp::SetRegister;
        set_data.a = 2;
        set_data.imm = value + i;
        TgInstr wr;
        wr.op = TgOp::Write;
        wr.a = 1;
        wr.b = 2;
        p.instrs.push_back(set_addr);
        p.instrs.push_back(set_data);
        p.instrs.push_back(wr);
        if (gap > 0) {
            TgInstr idle;
            idle.op = TgOp::Idle;
            idle.imm = gap;
            p.instrs.push_back(idle);
        }
    }
    TgInstr halt;
    halt.op = TgOp::Halt;
    p.instrs.push_back(halt);
    return assemble(p);
}

struct MultiRig {
    sim::Kernel kernel;
    ocp::Channel ch;
    mem::MemorySlave mem{ch, mem::SlaveTiming{1, 1, 1}, 0x1000, 0x2000};
    std::vector<ocp::TransactionRecord> records;
    ocp::ChannelMonitor monitor{
        kernel, ch,
        [this](const ocp::TransactionRecord& r) { records.push_back(r); }};
    std::unique_ptr<TgMultiCore> core;

    explicit MultiRig(TgMultiConfig cfg) {
        core = std::make_unique<TgMultiCore>(ch, cfg);
        kernel.add(*core, sim::kStageMaster);
        kernel.add(mem, sim::kStageSlave);
        kernel.add(monitor, sim::kStageObserver);
    }
    bool run(Cycle max = 200000) {
        return kernel.run_until([&] { return core->done(); }, max);
    }
};

TEST(TgMultiCore, AddThreadRejectsUndecodableImage) {
    ocp::Channel ch;
    TgMultiCore core{ch, TgMultiConfig{}};
    EXPECT_THROW((void)core.add_thread({0x0C000000u, encode_w0(TgOp::Halt)}),
                 std::invalid_argument);
}

TEST(TgMultiCore, SingleThreadRunsToCompletion) {
    MultiRig rig{TgMultiConfig{}};
    rig.core->add_thread(writer_image(0x1000, 100, 5, 2));
    ASSERT_TRUE(rig.run());
    for (u32 i = 0; i < 5; ++i) EXPECT_EQ(rig.mem.peek(0x1000 + 4 * i), 100 + i);
    EXPECT_EQ(rig.core->stats().context_switches, 0u);
}

TEST(TgMultiCore, TimesliceInterleavesThreads) {
    TgMultiConfig cfg;
    cfg.policy = SchedulePolicy::Timeslice;
    cfg.quantum = 12;
    cfg.switch_penalty = 2;
    MultiRig rig{cfg};
    rig.core->add_thread(writer_image(0x1000, 1000, 20, 1));
    rig.core->add_thread(writer_image(0x1800, 2000, 20, 1));
    ASSERT_TRUE(rig.run());
    for (u32 i = 0; i < 20; ++i) {
        EXPECT_EQ(rig.mem.peek(0x1000 + 4 * i), 1000 + i);
        EXPECT_EQ(rig.mem.peek(0x1800 + 4 * i), 2000 + i);
    }
    EXPECT_GT(rig.core->stats().context_switches, 2u);
    // The observed write stream must actually interleave the two regions.
    bool saw_a_after_b = false, saw_b_after_a = false;
    for (std::size_t i = 1; i < rig.records.size(); ++i) {
        const bool prev_a = rig.records[i - 1].addr < 0x1800;
        const bool cur_a = rig.records[i].addr < 0x1800;
        if (prev_a && !cur_a) saw_b_after_a = true;
        if (!prev_a && cur_a) saw_a_after_b = true;
    }
    EXPECT_TRUE(saw_a_after_b);
    EXPECT_TRUE(saw_b_after_a);
}

TEST(TgMultiCore, TransactionsNeverPreemptedMidFlight) {
    // With a slow slave and a 1-cycle quantum, every transaction spans many
    // slices; all data must still land correctly (the port is in-order).
    TgMultiConfig cfg;
    cfg.quantum = 1;
    cfg.switch_penalty = 1;
    MultiRig rig{cfg};
    rig.core->add_thread(writer_image(0x1000, 7000, 8, 0));
    rig.core->add_thread(writer_image(0x1900, 8000, 8, 0));
    ASSERT_TRUE(rig.run());
    for (u32 i = 0; i < 8; ++i) {
        EXPECT_EQ(rig.mem.peek(0x1000 + 4 * i), 7000 + i);
        EXPECT_EQ(rig.mem.peek(0x1900 + 4 * i), 8000 + i);
    }
}

TEST(TgMultiCore, SwitchPenaltyCostsCycles) {
    const auto total_cycles = [](u32 penalty) {
        TgMultiConfig cfg;
        cfg.quantum = 8;
        cfg.switch_penalty = penalty;
        MultiRig rig{cfg};
        rig.core->add_thread(writer_image(0x1000, 1, 10, 3));
        rig.core->add_thread(writer_image(0x1800, 2, 10, 3));
        EXPECT_TRUE(rig.run());
        return rig.core->halt_cycle();
    };
    const Cycle cheap = total_cycles(0);
    const Cycle costly = total_cycles(6);
    EXPECT_GT(costly, cheap);
}

TEST(TgMultiCore, SleepWakeRunsOtherThreadDuringSleep) {
    TgMultiConfig cfg;
    cfg.policy = SchedulePolicy::SleepWake;
    cfg.yield_threshold = 10;
    cfg.switch_penalty = 1;
    MultiRig rig{cfg};
    // Thread 0: write, sleep 200, write again.
    TgProgram p0;
    p0.reg_init[1] = 0x1000;
    p0.reg_init[2] = 1;
    TgInstr wr;
    wr.op = TgOp::Write;
    wr.a = 1;
    wr.b = 2;
    TgInstr sleep;
    sleep.op = TgOp::Idle;
    sleep.imm = 200;
    TgInstr set2;
    set2.op = TgOp::SetRegister;
    set2.a = 1;
    set2.imm = 0x1004;
    TgInstr halt;
    halt.op = TgOp::Halt;
    p0.instrs = {wr, sleep, set2, wr, halt};
    std::array<u32, kTgNumRegs> regs0{};
    regs0[1] = 0x1000;
    regs0[2] = 1;
    rig.core->add_thread(assemble(p0), regs0);
    // Thread 1: burst of writes that fits inside thread 0's sleep.
    rig.core->add_thread(writer_image(0x1800, 500, 10, 0));
    ASSERT_TRUE(rig.run());
    // All of thread 1's writes must complete before thread 0's second write.
    Cycle t0_second = 0, t1_last = 0;
    for (const auto& r : rig.records) {
        if (r.addr == 0x1004) t0_second = r.t_assert;
        if (r.addr >= 0x1800) t1_last = std::max(t1_last, r.t_assert);
    }
    ASSERT_GT(t0_second, 0u);
    EXPECT_LT(t1_last, t0_second);
    EXPECT_GE(rig.core->stats().context_switches, 1u);
}

TEST(TgMultiCore, AllAsleepQuiesces) {
    TgMultiConfig cfg;
    cfg.policy = SchedulePolicy::SleepWake;
    cfg.yield_threshold = 10;
    MultiRig rig{cfg};
    // Two threads that sleep a long time, then write once.
    for (u32 t = 0; t < 2; ++t) {
        TgProgram p;
        TgInstr sleep;
        sleep.op = TgOp::Idle;
        sleep.imm = 5000 + 100 * t;
        TgInstr wr;
        wr.op = TgOp::Write;
        wr.a = 1;
        wr.b = 2;
        TgInstr halt;
        halt.op = TgOp::Halt;
        p.instrs = {sleep, wr, halt};
        std::array<u32, kTgNumRegs> regs{};
        regs[1] = 0x1000 + 0x100 * t;
        regs[2] = t + 1;
        rig.core->add_thread(assemble(p), regs);
    }
    rig.kernel.set_max_skip(1u << 20);
    ASSERT_TRUE(rig.run());
    EXPECT_EQ(rig.mem.peek(0x1000), 1u);
    EXPECT_EQ(rig.mem.peek(0x1100), 2u);
    EXPECT_GT(rig.core->stats().all_asleep_cycles, 4000u);
}

TEST(TgMultiCore, HaltCyclePerThreadAndGlobal) {
    MultiRig rig{TgMultiConfig{}};
    rig.core->add_thread(writer_image(0x1000, 1, 2, 0));
    rig.core->add_thread(writer_image(0x1800, 2, 30, 2));
    ASSERT_TRUE(rig.run());
    EXPECT_GT(rig.core->thread_halt_cycle(0), 0u);
    EXPECT_GT(rig.core->thread_halt_cycle(1), rig.core->thread_halt_cycle(0));
    EXPECT_EQ(rig.core->halt_cycle(),
              std::max(rig.core->thread_halt_cycle(0),
                       rig.core->thread_halt_cycle(1)));
}

TEST(TgMultiCore, NoThreadsIsDoneImmediately) {
    MultiRig rig{TgMultiConfig{}};
    EXPECT_TRUE(rig.core->done());
}

TEST(TgMultiCore, ReadsDeliverDataToOwningThread) {
    MultiRig rig{TgMultiConfig{}};
    rig.mem.poke(0x1040, 0xFACEu);
    TgProgram p;
    TgInstr rd;
    rd.op = TgOp::Read;
    rd.a = 1;
    TgInstr halt;
    halt.op = TgOp::Halt;
    p.instrs = {rd, halt};
    std::array<u32, kTgNumRegs> regs{};
    regs[1] = 0x1040;
    rig.core->add_thread(assemble(p), regs);
    ASSERT_TRUE(rig.run());
    ASSERT_EQ(rig.records.size(), 1u);
    EXPECT_EQ(rig.records[0].data.at(0), 0xFACEu);
}

} // namespace
} // namespace tgsim::test
