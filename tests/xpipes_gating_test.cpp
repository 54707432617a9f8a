// Property tests for the activity-driven ×pipes router phase
// (src/ic/xpipes/): with router gating enabled (the default), only routers
// holding flits or a wormhole binding are visited each cycle — and the
// result must be observationally indistinguishable from the full-scan
// reference (router_gating = false): identical handshake timestamps, read
// data, response codes, memory images and behavioural statistics. Only
// stats().router_visits may differ (that is the point).
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "ic/xpipes/xpipes.hpp"
#include "mem/memory.hpp"
#include "platform/platform.hpp"
#include "test_util.hpp"
#include "tg/stochastic.hpp"

namespace tgsim::test {
namespace {

using mem::SlaveTiming;

/// Deterministic random op list per master: reads and burst writes to the
/// slave windows, with scattered start times so flows overlap, collide and
/// drain (the active set must grow and shrink many times per run).
std::vector<TestMaster::Op> random_ops(u32 seed, u32 n_slaves, u32 n_ops) {
    std::mt19937 rng{seed};
    std::vector<TestMaster::Op> ops;
    for (u32 i = 0; i < n_ops; ++i) {
        TestMaster::Op op;
        const u32 slave = rng() % n_slaves;
        const u32 offset = (rng() % 64) * 4;
        op.addr = 0x100000u * slave + offset;
        op.burst = static_cast<u16>(1 + rng() % 12);
        op.not_before = rng() % 400;
        switch (rng() % 3) {
            case 0:
                op.cmd = op.burst > 1 ? ocp::Cmd::BurstRead : ocp::Cmd::Read;
                break;
            default:
                op.cmd = op.burst > 1 ? ocp::Cmd::BurstWrite : ocp::Cmd::Write;
                for (u16 b = 0; b < op.burst; ++b)
                    op.wdata.push_back(rng());
                break;
        }
        ops.push_back(std::move(op));
    }
    return ops;
}

struct MeshObservation {
    std::vector<TestMaster::Done> results; ///< all masters, concatenated
    std::vector<u32> mem_image;            ///< all slave windows, concatenated
    u64 busy = 0, flits = 0, packets = 0, decode_errors = 0, contention = 0;
    std::vector<u64> wait;
    u64 router_visits = 0;
    u64 router_phase_cycles = 0;
    /// Packet latency samples in recording order: both modes apply moves in
    /// router-index order, so the sequences — not just the multisets — match.
    std::vector<u64> latency;
};

/// Builds a mesh (masters on even nodes, slaves on odd nodes), drives the
/// seeded random traffic, and collects everything externally observable.
MeshObservation run_mesh(u32 width, u32 height, u32 fifo_depth, bool gating,
                         u32 seed, u32 ops_per_master) {
    ic::XpipesConfig cfg = mesh_cfg(width, height, fifo_depth);
    cfg.router_gating = gating;
    cfg.collect_latency = true;
    MeshRig rig{cfg};
    const u32 nodes = width * height;
    std::vector<TestMaster*> ms;
    u32 n_slaves = 0;
    for (u32 n = 0; n < nodes; ++n) {
        if (n % 2 == 0) {
            ms.push_back(&rig.add_master(static_cast<int>(n)));
        } else {
            rig.add_mem(0x100000u * n_slaves, 0x1000,
                        SlaveTiming{1 + n % 3, 1 + n % 2, 1},
                        static_cast<int>(n));
            ++n_slaves;
        }
    }
    for (u32 i = 0; i < ms.size(); ++i)
        for (auto& op : random_ops(seed + i, n_slaves, ops_per_master))
            ms[i]->push(std::move(op));
    EXPECT_TRUE(rig.run_to_idle());

    MeshObservation o;
    for (TestMaster* m : ms)
        for (const auto& d : m->results()) o.results.push_back(d);
    for (auto& mem : rig.mems)
        for (u32 a = 0; a < 0x1000; a += 4)
            o.mem_image.push_back(mem->peek(mem->base() + a));
    const ic::XpipesStats& s = rig.ic.stats();
    o.busy = s.busy_cycles;
    o.flits = s.flits_routed;
    o.packets = s.packets_sent;
    o.decode_errors = s.decode_errors;
    o.contention = rig.ic.contention_cycles();
    o.wait = s.master_wait_cycles;
    o.router_visits = s.router_visits;
    o.router_phase_cycles = s.router_phase_cycles;
    o.latency = s.packet_latency.samples();
    return o;
}

void expect_identical(const MeshObservation& a, const MeshObservation& b) {
    ASSERT_EQ(a.results.size(), b.results.size());
    for (std::size_t i = 0; i < a.results.size(); ++i) {
        const auto& x = a.results[i];
        const auto& y = b.results[i];
        EXPECT_EQ(x.t_assert, y.t_assert) << i;
        EXPECT_EQ(x.t_accept, y.t_accept) << i;
        EXPECT_EQ(x.t_resp_first, y.t_resp_first) << i;
        EXPECT_EQ(x.t_resp_last, y.t_resp_last) << i;
        EXPECT_EQ(x.rdata, y.rdata) << i;
        EXPECT_EQ(x.resps, y.resps) << i;
    }
    EXPECT_EQ(a.mem_image, b.mem_image);
    EXPECT_EQ(a.busy, b.busy);
    EXPECT_EQ(a.flits, b.flits);
    EXPECT_EQ(a.packets, b.packets);
    EXPECT_EQ(a.decode_errors, b.decode_errors);
    EXPECT_EQ(a.contention, b.contention);
    EXPECT_EQ(a.wait, b.wait);
    EXPECT_EQ(a.latency, b.latency);
    // Both schedules run the router phase on the same cycles; only the
    // per-cycle visit set shrinks.
    EXPECT_EQ(a.router_phase_cycles, b.router_phase_cycles);
}

TEST(XpipesRouterGating, RandomTrafficBitIdentical) {
    struct Shape {
        u32 w, h, fifo, ops;
    };
    const Shape shapes[] = {
        {2, 2, 4, 30}, {3, 3, 2, 30}, {4, 4, 4, 25}, {8, 2, 3, 20},
    };
    for (const Shape& sh : shapes) {
        for (const u32 seed : {11u, 42u, 77u}) {
            const auto gated =
                run_mesh(sh.w, sh.h, sh.fifo, true, seed, sh.ops);
            const auto full =
                run_mesh(sh.w, sh.h, sh.fifo, false, seed, sh.ops);
            SCOPED_TRACE(testing::Message()
                         << sh.w << "x" << sh.h << " fifo" << sh.fifo
                         << " seed " << seed);
            expect_identical(gated, full);
            // The active set may only ever shrink the visit set.
            EXPECT_LE(gated.router_visits, full.router_visits);
        }
    }
}

/// One master (corner 0) -> one slave (far corner) on a 16x16 mesh; returns
/// {last response cycle, router visits}.
std::pair<Cycle, u64> run_single_flow_visits(bool gating) {
    ic::XpipesConfig cfg = mesh_cfg(16, 16, 4);
    cfg.router_gating = gating;
    MeshRig rig{cfg};
    auto& m = rig.add_master(0);
    rig.add_mem(0x0, 0x1000, SlaveTiming{1, 1, 1}, 255);
    push_burst_flow(m, 10);
    EXPECT_TRUE(rig.run_to_idle());
    return {m.results().back().t_resp_last, rig.ic.stats().router_visits};
}

TEST(XpipesRouterGating, SingleFlowVisitsScaleWithPathNotMesh) {
    // One flow on a 16x16 mesh: the active set must touch only the XY path
    // between the two corner nodes, not all 256 routers.
    const auto gated = run_single_flow_visits(true);
    const auto full = run_single_flow_visits(false);
    EXPECT_EQ(gated.first, full.first); // identical completion time
    ASSERT_GT(full.second, 0u);
    // Path length is 31 routers; allow slack for bound-but-empty routers,
    // but the bound must be far below the 256-per-cycle full scan.
    EXPECT_LT(gated.second * 4, full.second);
}

TEST(XpipesRouterGating, DecodeErrorsIdenticalAcrossModes) {
    for (const bool gating : {true, false}) {
        ic::XpipesConfig cfg = mesh_cfg(3, 3, 4);
        cfg.router_gating = gating;
        MeshRig rig{cfg};
        auto& m = rig.add_master(0);
        rig.add_mem(0x0, 0x1000, SlaveTiming{1, 1, 1}, 8);
        m.push({ocp::Cmd::Read, 0xEE000000, 1, {}, 0});
        m.push({ocp::Cmd::BurstWrite, 0xEE000000, 4, {1, 2, 3, 4}, 0});
        m.push({ocp::Cmd::Read, 0x0, 1, {}, 0});
        ASSERT_TRUE(rig.run_to_idle());
        EXPECT_EQ(rig.ic.stats().decode_errors, 2u);
        EXPECT_EQ(m.results().size(), 3u);
        EXPECT_EQ(m.results().at(0).resps.at(0), ocp::Resp::Err);
        EXPECT_EQ(m.results().at(2).resps.at(0), ocp::Resp::Dva);
    }
}

// Platform-level: the full CPU flow on the mesh fabric, gated router phase
// against full scan — completion cycles, per-core times and the shared
// memory image must match bit-for-bit.
TEST(XpipesRouterGating, PlatformFlowBitIdentical) {
    const auto run = [](bool gating) {
        platform::PlatformConfig cfg;
        cfg.n_cores = 3;
        cfg.ic = platform::IcKind::Xpipes;
        cfg.xpipes = mesh_cfg(0, 0, 4);
        cfg.xpipes.router_gating = gating;
        platform::Platform p{cfg};
        p.load_workload(apps::make_mp_matrix({3, 10}));
        const auto res = p.run(kMaxCycles);
        EXPECT_TRUE(res.completed);
        std::vector<u32> shared;
        for (u32 a = 0; a < 0x2000; a += 4)
            shared.push_back(p.peek(platform::kSharedBase + a));
        return std::tuple{res.cycles, res.per_core, shared,
                          p.interconnect().busy_cycles(),
                          p.interconnect().contention_cycles()};
    };
    EXPECT_EQ(run(true), run(false));
}

// --- router goldens ----------------------------------------------------------
//
// The full-scan reference (router_gating = false) shares the switch
// allocator with the gated path, so a gated-vs-full comparison cannot catch
// an allocator that changes behaviour. These observables were captured from
// an output-driven allocator that rescanned every input FIFO front for each
// output, and both modes must keep reproducing them: cycles, link
// traversals, router visits, NI waits, packets, the reliability counters
// and an FNV hash over the packet_latency sample sequence (in the
// index-ordered apply order both modes share).

/// One golden fabric: stochastic masters on the even nodes, one memory on
/// every odd node, uniform-random Poisson traffic over all memories.
struct GoldenFabric {
    const char* name;
    ic::XpipesConfig cfg;
    double rate;  ///< Poisson arrivals per cycle and master
    u64 budget;   ///< transactions per master
    bool open;    ///< open-loop sources (pending queue at the master NI)
    /// One more target, as likely as each memory, that no slave maps: the
    /// master NIs answer it with decode errors.
    bool unmapped;
};

struct RouterObservation {
    Cycle cycles = 0; ///< kernel time when every master halted and drained
    u64 nodes = 0, flits = 0, visits = 0, phase_cycles = 0, master_wait = 0;
    u64 packets = 0, lat_count = 0, lat_fnv = 0, decode_errors = 0;
    stats::ReliabilityStats rel;
};

RouterObservation run_golden(const GoldenFabric& f, bool gating) {
    ic::XpipesConfig cfg = f.cfg;
    cfg.router_gating = gating;
    cfg.collect_latency = true;
    ic::XpipesNetwork net{cfg};
    if (f.open) net.configure_open_source(0, 8);
    const u32 pairs = net.node_count() / 2;
    constexpr u32 kWindow = 0x1000, kStride = 0x100000;

    // Master channels first, as the platform builder lays them out.
    ocp::ChannelStore store;
    store.reserve(2 * pairs);
    std::vector<ocp::ChannelRef> mch, sch;
    for (u32 i = 0; i < pairs; ++i) mch.push_back(store.allocate());
    for (u32 i = 0; i < pairs; ++i) sch.push_back(store.allocate());

    sim::Kernel kernel;
    std::vector<std::unique_ptr<mem::MemorySlave>> mems;
    std::vector<std::unique_ptr<tg::StochasticTg>> tgs;
    std::vector<tg::StochasticTarget> targets;
    for (u32 j = 0; j < pairs; ++j) {
        targets.push_back({kStride * j, kWindow, 1});
        net.connect_slave(sch[j], kStride * j, kWindow,
                          static_cast<int>(2 * j + 1));
        mems.push_back(std::make_unique<mem::MemorySlave>(
            sch[j], SlaveTiming{1 + j % 3, 1 + j % 2, 1}, kStride * j,
            kWindow));
    }
    if (f.unmapped) targets.push_back({0xEE000000u, kWindow, 1});
    for (u32 i = 0; i < pairs; ++i) {
        net.connect_master(mch[i], static_cast<int>(2 * i));
        tg::StochasticConfig c;
        c.seed = 0x5EED0000u + i;
        c.read_fraction = 0.5;
        c.burst_fraction = 0.5;
        c.burst_len = 8;
        c.process = tg::ArrivalProcess::Poisson;
        c.rate = f.rate;
        c.targets = targets;
        c.total_transactions = f.budget;
        c.open_loop = f.open;
        tgs.push_back(std::make_unique<tg::StochasticTg>(mch[i], std::move(c)));
    }
    for (auto& t : tgs) kernel.add(*t, sim::kStageMaster);
    for (auto& m : mems) kernel.add(*m, sim::kStageSlave);
    kernel.add(net, sim::kStageInterconnect);
    const bool done = kernel.run_until(
        [&] {
            for (const auto& t : tgs)
                if (!t->done()) return false;
            return net.quiet_for() != 0;
        },
        10'000'000);
    EXPECT_TRUE(done) << f.name;

    RouterObservation o;
    o.cycles = kernel.now();
    o.nodes = net.node_count();
    const ic::XpipesStats& s = net.stats();
    o.flits = s.flits_routed;
    o.visits = s.router_visits;
    o.phase_cycles = s.router_phase_cycles;
    o.master_wait = net.contention_cycles();
    o.packets = s.packets_sent;
    o.decode_errors = s.decode_errors;
    o.rel = s.reliability;
    o.lat_count = s.packet_latency.count();
    u64 h = 0xcbf29ce484222325ull;
    for (const u64 v : s.packet_latency.samples())
        h = (h ^ v) * 0x100000001b3ull;
    o.lat_fnv = h;
    return o;
}

ic::XpipesConfig golden_cfg(ic::TopologyKind topo, u32 w, u32 h) {
    ic::XpipesConfig c;
    c.width = w;
    c.height = h;
    c.fifo_depth = 4;
    c.topology = topo;
    return c;
}

std::shared_ptr<const ic::GraphSpec> ring18() {
    const std::string path =
        std::string{TGSIM_SOURCE_DIR} + "/examples/graphs/ring18.graph";
    std::ifstream in{path};
    std::stringstream text;
    text << in.rdbuf();
    std::string err;
    auto spec = ic::parse_graph(text.str(), path, &err);
    EXPECT_TRUE(spec.has_value()) << err;
    return spec ? std::make_shared<const ic::GraphSpec>(*spec) : nullptr;
}

/// A hub with 70 leaves: 72 router ports, so request and live masks span
/// more than one 64-bit word.
std::shared_ptr<const ic::GraphSpec> star71() {
    auto spec = std::make_shared<ic::GraphSpec>();
    spec->nodes = 71;
    for (u32 leaf = 1; leaf < spec->nodes; ++leaf)
        spec->edges.emplace_back(0, leaf);
    spec->source = "star71";
    return spec;
}

TEST(XpipesRouterGoldens, MatchPreRewriteRouterInBothModes) {
    using ic::TopologyKind;
    ic::XpipesConfig table = golden_cfg(TopologyKind::Table, 0, 0);
    table.graph = ring18();
    ASSERT_NE(table.graph, nullptr);
    ic::XpipesConfig star = golden_cfg(TopologyKind::Table, 0, 0);
    star.graph = star71();
    ic::XpipesConfig faulty = golden_cfg(TopologyKind::Mesh, 4, 4);
    faulty.fault.corrupt_rate = 0.004;
    faulty.fault.drop_rate = 0.004;
    faulty.fault.stall_rate = 0.004;
    faulty.fault.seed = 99;
    faulty.fault.retry_timeout = 256;
    const ic::XpipesConfig mesh4x4 = golden_cfg(TopologyKind::Mesh, 4, 4);
    const GoldenFabric fabrics[] = {
        {"mesh16x16_a2a", golden_cfg(TopologyKind::Mesh, 16, 16), 0.15, 20,
         false, false},
        {"torus8x8_a2a", golden_cfg(TopologyKind::Torus, 8, 8), 0.2, 30,
         false, false},
        {"ring18_table", table, 0.2, 40, false, false},
        {"mesh4x4_fault", faulty, 0.1, 60, false, false},
        {"mesh4x4_open", mesh4x4, 0.3, 60, true, false},
        {"star71_table", star, 0.2, 15, false, false},
        // Decode errors in every source mode: closed, open-loop and
        // fault-injected masters all meet the unmapped target.
        {"mesh4x4_unmapped", mesh4x4, 0.1, 60, false, true},
        {"mesh4x4_unmapped_open", mesh4x4, 0.3, 60, true, true},
        {"mesh4x4_unmapped_fault", faulty, 0.1, 60, false, true},
    };
    struct Golden {
        Cycle cycles;
        u64 flits, visits_gated, phase_cycles, master_wait, packets;
        u64 lat_count, lat_fnv;
        /// injected, delivered, err_delivered, recovered, lost, retries,
        /// flits_corrupted, packets_dropped, stall_events, stall_cycles,
        /// checksum_fails, stale_discarded, dup_requests
        u64 rel[13];
        u64 decode_errors;
    };
    const Golden goldens[] = {
        {964, 226033, 145844, 961, 255, 3855, 3855, 0x94088f89d51640b1ull,
         {}, 0},
        {830, 35849, 27499, 809, 12, 1474, 1474, 0xa2942933b411400full, {},
         0},
        {927, 10512, 8523, 917, 27, 547, 547, 0x3030dbdc1eb8bacull, {}, 0},
        {4200, 16409, 15761, 3560, 0, 992, 992, 0xbbb35497d044bd83ull,
         {480, 480, 0, 45, 0, 53, 32, 23, 77, 332, 30, 0, 32}, 0},
        {572, 13741, 7843, 553, 82, 722, 722, 0x93a20435a8876301ull, {}, 0},
        {384, 11544, 7875, 372, 30, 806, 806, 0xe72552708ae545bdull, {}, 0},
        {1496, 12020, 10089, 1457, 5, 637, 637, 0x88cb1e340cc87745ull, {},
         55},
        {533, 12077, 7087, 521, 20, 645, 645, 0xc892f9c20f164008ull, {}, 54},
        {3278, 14853, 14050, 2997, 0, 867, 867, 0xe9be7edf8a8e946full,
         {425, 425, 0, 39, 0, 40, 31, 11, 65, 280, 29, 0, 17}, 55},
    };
    static_assert(std::size(goldens) == std::size(fabrics));
    for (std::size_t k = 0; k < std::size(fabrics); ++k) {
        const GoldenFabric& f = fabrics[k];
        const Golden& g = goldens[k];
        for (const bool gating : {true, false}) {
            SCOPED_TRACE(testing::Message()
                         << f.name << (gating ? " gated" : " full scan"));
            const RouterObservation o = run_golden(f, gating);
            EXPECT_EQ(o.cycles, g.cycles);
            EXPECT_EQ(o.flits, g.flits);
            EXPECT_EQ(o.phase_cycles, g.phase_cycles);
            // The full scan visits every router on every router-phase cycle.
            EXPECT_EQ(o.visits,
                      gating ? g.visits_gated : o.nodes * g.phase_cycles);
            EXPECT_EQ(o.master_wait, g.master_wait);
            EXPECT_EQ(o.packets, g.packets);
            EXPECT_EQ(o.lat_count, g.lat_count);
            EXPECT_EQ(o.lat_fnv, g.lat_fnv);
            EXPECT_EQ(o.decode_errors, g.decode_errors);
            const u64 rel[13] = {
                o.rel.injected,        o.rel.delivered,
                o.rel.err_delivered,   o.rel.recovered,
                o.rel.lost,            o.rel.retries,
                o.rel.flits_corrupted, o.rel.packets_dropped,
                o.rel.stall_events,    o.rel.stall_cycles,
                o.rel.checksum_fails,  o.rel.stale_discarded,
                o.rel.dup_requests};
            for (int i = 0; i < 13; ++i)
                EXPECT_EQ(rel[i], g.rel[i]) << "reliability counter " << i;
        }
    }
}

} // namespace
} // namespace tgsim::test
