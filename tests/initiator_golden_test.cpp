// Absolute goldens for every OCP initiator that is not a CPU: TgCore
// replaying translated and hand-written programs, StochasticTg in closed
// and open-loop mode, and TgMultiCore under both scheduling policies. Each
// case runs under the gated and the fully clocked (tick-all) schedule and
// must reproduce the same recorded observables: completion and per-master
// halt cycles, instruction and statistic counters, interconnect busy and
// contention cycles, the rendered trace text of every master port and the
// shared-memory image. A change to how a master drives or samples its port
// that moves any wire a peer can observe shows up here.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "ic/amba/ahb_bus.hpp"
#include "mem/memory.hpp"
#include "ocp/monitor.hpp"
#include "platform/platform.hpp"
#include "test_util.hpp"
#include "tg/program.hpp"
#include "tg/stochastic.hpp"
#include "tg/tg_multicore.hpp"
#include "tg/trace.hpp"
#include "tg/translator.hpp"

namespace tgsim {
namespace {

using platform::IcKind;
using platform::PlatformConfig;

constexpr u64 kFnvBasis = 0xcbf29ce484222325ull;

u64 fnv(u64 h, u64 v) { return (h ^ v) * 0x100000001b3ull; }

u64 fnv_text(u64 h, const std::string& s) {
    for (const char c : s) h = fnv(h, static_cast<unsigned char>(c));
    return h;
}

/// Everything a golden pins about one run.
struct Obs {
    Cycle cycles = 0;
    u64 halts = kFnvBasis;  ///< FNV over per-master (per-thread) halt cycles
    u64 instructions = 0;
    u64 stats = kFnvBasis;  ///< FNV over every statistic counter
    u64 ic_busy = 0;
    u64 ic_contention = 0;
    u64 trace = kFnvBasis;  ///< FNV over the rendered trace text
    u64 shared = kFnvBasis; ///< FNV over a shared-memory window

    bool operator==(const Obs&) const = default;
};

std::string to_golden(const char* name, const Obs& o) {
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "{\"%s\", %lluu, 0x%016llxull, %lluu, 0x%016llxull, %lluu, "
                  "%lluu, 0x%016llxull, 0x%016llxull},",
                  name, static_cast<unsigned long long>(o.cycles),
                  static_cast<unsigned long long>(o.halts),
                  static_cast<unsigned long long>(o.instructions),
                  static_cast<unsigned long long>(o.stats),
                  static_cast<unsigned long long>(o.ic_busy),
                  static_cast<unsigned long long>(o.ic_contention),
                  static_cast<unsigned long long>(o.trace),
                  static_cast<unsigned long long>(o.shared));
    return buf;
}

struct Golden {
    const char* name;
    Obs obs;
};

/// Checks one case against its golden under both schedules.
template <typename Run>
void expect_golden(const Golden& g, Run&& run) {
    for (const bool gating : {true, false}) {
        const Obs o = run(gating);
        EXPECT_EQ(o, g.obs) << g.name << (gating ? " gated" : " tick-all")
                            << "\n  got " << to_golden(g.name, o);
    }
}

PlatformConfig platform_cfg(u32 cores, IcKind ic, bool gating) {
    PlatformConfig cfg;
    cfg.n_cores = cores;
    cfg.ic = ic;
    cfg.kernel_gating = gating;
    if (!gating) cfg.max_idle_skip = 0; // every component every cycle
    cfg.collect_traces = true;
    return cfg;
}

/// The platform-level observables shared by the TgCore and StochasticTg
/// cases; `stats` is folded by the caller.
Obs observe(platform::Platform& p, const platform::RunResult& r) {
    Obs o;
    EXPECT_TRUE(r.completed);
    o.cycles = r.cycles;
    for (const Cycle h : r.per_core) o.halts = fnv(o.halts, h);
    o.instructions = r.total_instructions;
    o.ic_busy = p.interconnect().busy_cycles();
    o.ic_contention = p.interconnect().contention_cycles();
    for (const tg::Trace& t : p.traces()) o.trace = fnv_text(o.trace, tg::to_text(t));
    for (u32 a = 0; a < 0x2000; a += 4)
        o.shared = fnv(o.shared, p.peek(platform::kSharedBase + a));
    o.stats = fnv(o.stats, p.shared_mem().reads_served());
    o.stats = fnv(o.stats, p.shared_mem().writes_served());
    o.stats = fnv(o.stats, p.semaphores().acquisitions());
    o.stats = fnv(o.stats, p.semaphores().failed_polls());
    if (const auto* net =
            dynamic_cast<const ic::XpipesNetwork*>(&p.interconnect())) {
        const ic::XpipesStats& s = net->stats();
        for (const u64 v : {s.flits_routed, s.packets_sent, s.decode_errors,
                            s.req_packets_delivered, s.resp_packets_delivered,
                            s.resp_err_packets, s.last_delivery})
            o.stats = fnv(o.stats, v);
        for (const u64 w : s.master_wait_cycles) o.stats = fnv(o.stats, w);
        for (const u64 l : s.packet_latency.samples()) o.stats = fnv(o.stats, l);
    }
    return o;
}

void fold_tg_stats(Obs& o, platform::Platform& p) {
    for (u32 i = 0; i < p.n_cores(); ++i) {
        const tg::TgStats& s = p.tg_core(i).stats();
        for (const u64 v : {s.instructions, s.ocp_reads, s.ocp_writes,
                            s.idle_cycles, s.mem_wait_cycles, s.bus_errors})
            o.stats = fnv(o.stats, v);
        for (u8 r = 0; r < tg::kTgNumRegs; ++r)
            o.stats = fnv(o.stats, p.tg_core(i).reg(r));
    }
}

// --- TgCore replaying translated programs -----------------------------------

std::vector<tg::TgProgram> translated(const apps::Workload& w, u32 cores,
                                      IcKind ic, tg::TgMode mode) {
    PlatformConfig cfg = platform_cfg(cores, ic, true);
    platform::Platform ref{cfg};
    ref.load_workload(w);
    EXPECT_TRUE(ref.run(test::kMaxCycles).completed);
    tg::TranslateOptions topt;
    topt.mode = mode;
    topt.polls = w.polls;
    std::vector<tg::TgProgram> out;
    for (const tg::Trace& t : ref.traces())
        out.push_back(tg::translate(t, topt).program);
    return out;
}

Obs run_tg(const std::vector<tg::TgProgram>& programs,
           const apps::Workload& context, IcKind ic, bool gating) {
    platform::Platform p{platform_cfg(static_cast<u32>(programs.size()), ic, gating)};
    p.load_tg_programs(programs, context);
    const platform::RunResult r = p.run(test::kMaxCycles);
    Obs o = observe(p, r);
    fold_tg_stats(o, p);
    return o;
}

TEST(InitiatorGoldens, TgCoreReplaysTranslatedPrograms) {
    const Golden goldens[] = {
        {"mp_matrix/reactive/amba",
         {21809u, 0x222c9308a4a88b24ull, 4685u, 0xf1a3594fda168da3ull,
          4389u, 250u, 0xec11f38a2cc6fe7aull, 0xcc5e73bd8a1f1e76ull}},
        {"mp_matrix/reactive/crossbar",
         {21726u, 0x2859e808a9981c9eull, 4712u, 0x0cae6fe0f22ac9dbull,
          3938u, 7u, 0x5f245f135b00ca33ull, 0xcc5e73bd8a1f1e76ull}},
        {"mp_matrix/reactive/xpipes",
         {23997u, 0x3f208b08bd56035eull, 4646u, 0xb3151f4f2006cccdull,
          9869u, 0u, 0x87d055214b01fa8bull, 0xcc5e73bd8a1f1e76ull}},
        {"des/clone/amba",
         {6381u, 0x238f469132e25bd2ull, 1687u, 0xef635db9ee4c992aull,
          3177u, 1940u, 0xfb33a8da3a490fc3ull, 0x5d20ed9716d6d266ull}},
        {"des/clone/xpipes",
         {6762u, 0xb3c64e858e5f48cdull, 1691u, 0x04a4faf96a0bfd3dull,
          4061u, 0u, 0xf8103e85f8450952ull, 0x5d20ed9716d6d266ull}},
    };
    const apps::Workload mp = apps::make_mp_matrix({2, 12});
    const apps::Workload des = apps::make_des({3, 2});
    const IcKind mp_ics[] = {IcKind::Amba, IcKind::Crossbar, IcKind::Xpipes};
    for (int k = 0; k < 3; ++k) {
        const auto progs = translated(mp, 2, mp_ics[k], tg::TgMode::Reactive);
        expect_golden(goldens[k], [&](bool gating) {
            return run_tg(progs, mp, mp_ics[k], gating);
        });
    }
    const IcKind des_ics[] = {IcKind::Amba, IcKind::Xpipes};
    for (int k = 0; k < 2; ++k) {
        const auto progs = translated(des, 3, des_ics[k], tg::TgMode::Clone);
        expect_golden(goldens[3 + k], [&](bool gating) {
            return run_tg(progs, des, des_ics[k], gating);
        });
    }
}

// --- TgCore on a hand-written program ----------------------------------------

/// Burst writes and reads, a decode-error read (poison into rdreg), IfImm
/// on the poison, Idle and IdleUntil: the ISA paths translated programs
/// never take.
tg::TgProgram handmade(u32 core) {
    const u32 mine = platform::kSharedBase + 0x400 + 0x100 * core;
    char text[1024];
    std::snprintf(text, sizeof text,
                  "MASTER[%u,0]\n"
                  "REGISTER r1 0x%08X\n"
                  "REGISTER r2 0x70000000\n"
                  "REGISTER r5 0x%08X\n"
                  "REGISTER r6 0x%08X\n"
                  "BEGIN\n"
                  "  BurstWrite(r1, 4) {0x11, 0x22, 0x33, 0x%X}\n"
                  "  BurstRead(r1, 4)\n"
                  "  Write(r5, r0)\n"
                  "  Read(r2)\n"
                  "  Write(r6, r0)\n"
                  "  IfImm(r0 == 0xDEADBEEF) then poisoned\n"
                  "  Halt\n"
                  "poisoned:\n"
                  "  Idle(7)\n"
                  "  IdleUntil(%u)\n"
                  "  SetRegister(r7, 0x%08X)\n"
                  "  BurstWrite(r7, 2) {0xA0, 0x%X}\n"
                  "  Read(r7)\n"
                  "  SetRegister(r8, 0x%08X)\n"
                  "  Write(r8, r0)\n"
                  "  Halt\n"
                  "END\n",
                  core, mine, mine + 0x80, mine + 0x84, 0x44 + core,
                  300 + 40 * core, mine + 0x40, 0xB0 + core, mine + 0x88);
    return tg::program_from_text(text);
}

TEST(InitiatorGoldens, TgCoreRunsHandWrittenPrograms) {
    const Golden goldens[] = {
        {"handmade/amba",
         {397u, 0xc241941346dea84eull, 42u, 0x9f4e1f448eadcf56ull,
          96u, 114u, 0x68a7d182e051c8cfull, 0x6ec7ff916f0b9523ull}},
        {"handmade/crossbar",
         {397u, 0xc241941346dea84eull, 42u, 0x65600f9e7798a358ull,
          85u, 76u, 0x6b631d7d70ab0fccull, 0x6ec7ff916f0b9523ull}},
        {"handmade/xpipes",
         {408u, 0x3aa7ba14ad168d8dull, 42u, 0xdaca3824f4622d63ull,
          148u, 9u, 0xacac1a1255542a47ull, 0x6ec7ff916f0b9523ull}},
    };
    apps::Workload context;
    context.cores.resize(3);
    const std::vector<tg::TgProgram> progs = {handmade(0), handmade(1),
                                              handmade(2)};
    const IcKind ics[] = {IcKind::Amba, IcKind::Crossbar, IcKind::Xpipes};
    for (int k = 0; k < 3; ++k)
        expect_golden(goldens[k], [&](bool gating) {
            return run_tg(progs, context, ics[k], gating);
        });
}

// --- StochasticTg, closed and open loop --------------------------------------

std::vector<tg::StochasticConfig> stochastic_cfgs(u32 cores, bool decode_err) {
    std::vector<tg::StochasticConfig> out(cores);
    for (u32 i = 0; i < cores; ++i) {
        tg::StochasticConfig& c = out[i];
        c.seed = 11 + i;
        c.read_fraction = 0.6;
        c.burst_fraction = 0.3;
        c.burst_len = 4;
        c.process = (i % 2 == 0) ? tg::ArrivalProcess::Poisson
                                 : tg::ArrivalProcess::Bursty;
        c.rate = 0.2;
        c.inter_gap = 60;
        c.total_transactions = 150;
        c.targets = {{platform::kSharedBase, 0x1000, 4},
                     {platform::sem_addr(i), 4, 1}};
        if (decode_err) c.targets.push_back({0x70000000u, 0x100, 1});
    }
    return out;
}

Obs run_stochastic(IcKind ic, bool open, bool gating) {
    constexpr u32 kCores = 4;
    PlatformConfig cfg = platform_cfg(kCores, ic, gating);
    cfg.xpipes.collect_latency = true;
    if (open) cfg.xpipes.fifo_depth = 8;
    tg::SourceConfig src;
    if (open) {
        src.mode = tg::SourceMode::Open;
        src.pending_limit = 16;
    }
    apps::Workload context;
    context.cores.resize(kCores);
    platform::Platform p{cfg};
    p.load_stochastic(stochastic_cfgs(kCores, !open), context, src);
    const platform::RunResult r = p.run(test::kMaxCycles);
    return observe(p, r);
}

TEST(InitiatorGoldens, StochasticClosedAndOpenLoop) {
    const Golden goldens[] = {
        {"stochastic/closed/amba",
         {3113u, 0xe87775dbf9bba3c2ull, 600u, 0x624ab86fef79a192ull,
          2641u, 3697u, 0x7b38e701602b83bcull, 0xf238e324541e1e46ull}},
        {"stochastic/closed/xpipes",
         {2821u, 0xeb0bf44eb4a19512ull, 600u, 0xa42743bbaf7f9d94ull,
          2694u, 0u, 0xe1ef99901de0f38dull, 0x3c0c72cf2f1c203cull}},
        {"stochastic/open/xpipes",
         {1973u, 0x125b4ec3c0c09843ull, 600u, 0x12c388f05b8c0c5bull,
          1971u, 1036u, 0xc14806aa16b00cb1ull, 0xf3a1a7c3342bfc3aull}},
    };
    expect_golden(goldens[0], [](bool gating) {
        return run_stochastic(IcKind::Amba, false, gating);
    });
    expect_golden(goldens[1], [](bool gating) {
        return run_stochastic(IcKind::Xpipes, false, gating);
    });
    expect_golden(goldens[2], [](bool gating) {
        return run_stochastic(IcKind::Xpipes, true, gating);
    });
}

// --- TgMultiCore under both policies -----------------------------------------

std::vector<u32> thread_image(u32 t) {
    const u32 mine = platform::kSharedBase + 0x200 * t;
    char text[1024];
    std::snprintf(text, sizeof text,
                  "MASTER[0,%u]\n"
                  "BEGIN\n"
                  "  SetRegister(r1, 0x%08X)\n"
                  "  SetRegister(r2, 0x%08X)\n"
                  "  Write(r1, r2)\n"
                  "  Idle(%u)\n"
                  "  BurstWrite(r1, 3) {0x%X, 0x2, 0x3}\n"
                  "  BurstRead(r1, 3)\n"
                  "  SetRegister(r3, 0x%08X)\n"
                  "  Write(r3, r0)\n"
                  "  IdleUntil(%u)\n"
                  "  Read(r3)\n"
                  "  If(r0 == r2) then done\n"
                  "  Idle(%u)\n"
                  "  Write(r1, r3)\n"
                  "done:\n"
                  "  Idle(%u)\n"
                  "  SetRegister(r4, 0x%08X)\n"
                  "  Write(r4, r0)\n"
                  "  Halt\n"
                  "END\n",
                  t, mine, 0x100 + t, 5 + 20 * t, 0x10 + t, mine + 0x20,
                  150 + 60 * t, 3 + t, 30 - 7 * t, mine + 0x40);
    return tg::assemble(tg::program_from_text(text));
}

Obs run_multicore(tg::SchedulePolicy policy, bool gating) {
    sim::Kernel k;
    k.set_gating(gating);
    if (!gating) k.set_max_skip(0);
    ocp::Channel ch, mem_ch;
    mem::MemorySlave mem{mem_ch, mem::SlaveTiming{2, 1, 1},
                         platform::kSharedBase, 0x4000, "m"};
    ic::AhbBus bus;
    bus.connect_master(ch, -1);
    bus.connect_slave(mem_ch, platform::kSharedBase, 0x4000, -1);
    tg::TgMultiConfig mc;
    mc.policy = policy;
    mc.quantum = 16;
    mc.switch_penalty = 3;
    mc.yield_threshold = 16;
    tg::TgMultiCore core{ch, mc};
    for (u32 t = 0; t < 3; ++t) core.add_thread(thread_image(t));
    tg::Trace trace;
    ocp::ChannelMonitor mon{k, ch, [&](const ocp::TransactionRecord& rec) {
                                trace.events.push_back(tg::from_record(rec));
                            }};
    k.add(core, sim::kStageMaster);
    k.add(mem, sim::kStageSlave);
    k.add(bus, sim::kStageInterconnect);
    k.add(mon, sim::kStageObserver);
    EXPECT_TRUE(k.run_until([&] { return core.done(); }, 1'000'000));

    Obs o;
    o.cycles = core.halt_cycle();
    for (std::size_t t = 0; t < core.thread_count(); ++t)
        o.halts = fnv(o.halts, core.thread_halt_cycle(t));
    const tg::TgMultiStats& s = core.stats();
    o.instructions = s.instructions;
    for (const u64 v : {s.instructions, s.context_switches,
                        s.switch_overhead_cycles, s.all_asleep_cycles,
                        mem.reads_served(), mem.writes_served()})
        o.stats = fnv(o.stats, v);
    o.ic_busy = bus.busy_cycles();
    o.ic_contention = bus.contention_cycles();
    trace.end_cycle = core.halt_cycle();
    o.trace = fnv_text(o.trace, tg::to_text(trace));
    for (u32 a = 0; a < 0x800; a += 4)
        o.shared = fnv(o.shared, mem.peek(platform::kSharedBase + a));
    return o;
}

TEST(InitiatorGoldens, TgMultiCoreBothPolicies) {
    const Golden goldens[] = {
        {"multicore/timeslice",
         {500u, 0xffb25616ce3d7c81ull, 51u, 0x6308f2537d98aa31ull,
          78u, 0u, 0xb519192e8c3622eaull, 0x6df378b078d22b40ull}},
        {"multicore/sleepwake",
         {307u, 0x41acb01c0e183a76ull, 51u, 0x004bebd8acd079ceull,
          78u, 0u, 0xe9f408692cf621bbull, 0x6df378b078d22b40ull}},
    };
    expect_golden(goldens[0], [](bool gating) {
        return run_multicore(tg::SchedulePolicy::Timeslice, gating);
    });
    expect_golden(goldens[1], [](bool gating) {
        return run_multicore(tg::SchedulePolicy::SleepWake, gating);
    });
}

} // namespace
} // namespace tgsim
