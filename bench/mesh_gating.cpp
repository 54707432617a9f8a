// Activity-gated ×pipes router phase vs the full-scan baseline.
//
// Two workload shapes per grid size (4x4, 8x8, 16x16):
//
//   * single_flow — one master in a corner streaming bursts to the far
//     corner: the worklist touches only the XY path, so the router phase
//     should scale with traffic, not mesh size (the headline claim);
//   * all_to_all  — a master on every even node hammering pseudo-random
//     slaves: the saturated case, where gating must at least break even.
//
// Each shape runs with router_gating on and off; the run must be
// bit-identical (handshake timestamps, read data, response codes, memory
// images, behavioural stats) — any divergence is fatal, so CI fails loudly.
// The 8x8 grid additionally runs as a torus (docs/topology.md): wrap links
// plus the dateline VC planes ride the same gating contract, and the
// torus rows feed the same identity + visit-saving floors in
// ci/bench_floors.json. visit_saving is full_scan_bound over the gated
// run's router visits: both are deterministic counts, so the floors on the
// single-flow rows hold on any host, where the wall-clock speedup (still
// reported) depends on how cheap an idle full-scan visit is. Every row also
// reports flit_hops_per_us, the gated run's link traversals per wall-clock
// microsecond — the router's absolute speed, floored on 16x16_all_to_all.
// Results go to BENCH_mesh_gating.json.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "ic/xpipes/xpipes.hpp"
#include "mem/memory.hpp"
#include "test_util.hpp"

namespace tgsim {
namespace {

using mem::SlaveTiming;
using test::MeshRig; // shared with tests/xpipes_gating_test.cpp
using test::TestMaster;

/// Everything that must be bit-identical across the two router-phase modes.
struct Observation {
    u64 crc = 0; ///< FNV over master results + memory images
    Cycle cycles = 0;
    u64 busy = 0, flits = 0, packets = 0, contention = 0;
    u64 router_visits = 0;
    u64 router_phase_cycles = 0;
    double wall_seconds = 0.0;

    [[nodiscard]] bool same_behaviour(const Observation& o) const {
        return crc == o.crc && cycles == o.cycles && busy == o.busy &&
               flits == o.flits && packets == o.packets &&
               contention == o.contention &&
               router_phase_cycles == o.router_phase_cycles;
    }
};

u64 fnv_step(u64 h, u64 w) { return (h ^ w) * 0x100000001b3ull; }

Observation observe(MeshRig& rig, double wall) {
    Observation o;
    o.wall_seconds = wall;
    u64 h = 0xcbf29ce484222325ull;
    Cycle last = 0;
    for (const auto& m : rig.masters) {
        for (const auto& d : m->results()) {
            h = fnv_step(h, d.t_assert);
            h = fnv_step(h, d.t_accept);
            h = fnv_step(h, d.t_resp_first);
            h = fnv_step(h, d.t_resp_last);
            for (const u32 w : d.rdata) h = fnv_step(h, w);
            for (const auto r : d.resps) h = fnv_step(h, static_cast<u64>(r));
            last = std::max(last, std::max(d.t_accept, d.t_resp_last));
        }
    }
    for (const auto& mem : rig.mems)
        for (u32 a = 0; a < mem->size_bytes(); a += 4)
            h = fnv_step(h, mem->peek(mem->base() + a));
    o.crc = h;
    o.cycles = last;
    const ic::XpipesStats& s = rig.ic.stats();
    o.busy = s.busy_cycles;
    o.flits = s.flits_routed;
    o.packets = s.packets_sent;
    o.contention = rig.ic.contention_cycles();
    o.router_visits = s.router_visits;
    o.router_phase_cycles = s.router_phase_cycles;
    return o;
}

/// One corner-to-corner flow: repeated 8-beat write+read bursts.
void load_single_flow(MeshRig& rig, u32 width, u32 height, u32 reps) {
    auto& m = rig.add_master(0);
    rig.add_mem(0x0, 0x1000, SlaveTiming{1, 1, 1},
                static_cast<int>(width * height - 1));
    test::push_burst_flow(m, reps);
}

/// Masters on even nodes, slaves on odd nodes; each master streams bursts
/// to a deterministic pseudo-random sequence of slaves.
void load_all_to_all(MeshRig& rig, u32 width, u32 height, u32 reps) {
    const u32 nodes = width * height;
    std::vector<TestMaster*> ms;
    u32 n_slaves = 0;
    for (u32 n = 0; n < nodes; ++n) {
        if (n % 2 == 0) {
            ms.push_back(&rig.add_master(static_cast<int>(n)));
        } else {
            rig.add_mem(0x100000u * n_slaves, 0x1000, SlaveTiming{1, 1, 1},
                        static_cast<int>(n));
            ++n_slaves;
        }
    }
    for (u32 i = 0; i < ms.size(); ++i) {
        u32 lcg = 0x9E3779B9u * (i + 1);
        for (u32 r = 0; r < reps; ++r) {
            lcg = lcg * 1664525u + 1013904223u;
            const u32 slave = (lcg >> 8) % n_slaves;
            const u32 addr = 0x100000u * slave + (r % 32) * 0x20;
            std::vector<u32> beats;
            for (u32 b = 0; b < 8; ++b) beats.push_back(lcg + b);
            ms[i]->push({ocp::Cmd::BurstWrite, addr, 8, beats, 0});
            ms[i]->push({ocp::Cmd::BurstRead, addr, 8, {}, 0});
        }
    }
}

template <typename Loader>
Observation run_one(u32 width, u32 height, bool gating,
                    ic::TopologyKind topology, Loader&& load) {
    ic::XpipesConfig cfg = bench::mesh_cfg(width, height, 4);
    cfg.router_gating = gating;
    cfg.topology = topology;
    MeshRig rig{cfg};
    load(rig, width, height);
    const auto t0 = std::chrono::steady_clock::now();
    if (!rig.run_to_idle()) {
        std::fprintf(stderr, "FATAL: mesh run did not complete\n");
        std::exit(1);
    }
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    return observe(rig, wall);
}

} // namespace
} // namespace tgsim

int main() {
    using namespace tgsim;
    const u32 reps = 40 * bench::scale();
    bench::JsonReport report{"mesh_gating"};
    std::printf("×pipes router-phase gating: worklist vs full scan\n");
    std::printf("%-22s %10s %10s %8s %14s %14s\n", "workload", "full s",
                "gated s", "speedup", "visits", "scan bound");

    bool all_identical = true;
    for (const u32 dim : {4u, 8u, 16u}) {
        struct Shape {
            const char* name;
            void (*load)(MeshRig&, u32, u32, u32);
        };
        const Shape shapes[] = {{"single_flow", load_single_flow},
                                {"all_to_all", load_all_to_all}};
        for (const Shape& sh : shapes)
        for (const ic::TopologyKind topo :
             {ic::TopologyKind::Mesh, ic::TopologyKind::Torus}) {
            // Torus rows only at 8x8: one size is enough to gate the wrap
            // links + dateline VCs without doubling the bench budget.
            if (topo == ic::TopologyKind::Torus && dim != 8) continue;
            const auto loader = [&](MeshRig& rig, u32 w, u32 h) {
                sh.load(rig, w, h, reps);
            };
            const auto full = run_one(dim, dim, false, topo, loader);
            const auto gated = run_one(dim, dim, true, topo, loader);
            const bool identical = gated.same_behaviour(full);
            all_identical = all_identical && identical;
            const double speedup = full.wall_seconds / gated.wall_seconds;
            const u64 bound =
                static_cast<u64>(dim) * dim * full.router_phase_cycles;
            char row[64];
            std::snprintf(row, sizeof row, "%ux%u_%s%s", dim, dim,
                          topo == ic::TopologyKind::Torus ? "torus_" : "",
                          sh.name);
            std::printf("%-22s %10.4f %10.4f %7.2fx %14llu %14llu%s\n", row,
                        full.wall_seconds, gated.wall_seconds, speedup,
                        static_cast<unsigned long long>(gated.router_visits),
                        static_cast<unsigned long long>(bound),
                        identical ? "" : "  MISMATCH");
            report.add_row(
                row,
                {{"mesh_dim", dim},
                 {"full_scan_seconds", full.wall_seconds},
                 {"gated_seconds", gated.wall_seconds},
                 {"speedup", speedup},
                 {"cycles", static_cast<double>(full.cycles)},
                 {"router_visits_gated",
                  static_cast<double>(gated.router_visits)},
                 {"router_visits_full",
                  static_cast<double>(full.router_visits)},
                 {"full_scan_bound", static_cast<double>(bound)},
                 {"visit_saving", static_cast<double>(bound) /
                                      static_cast<double>(gated.router_visits)},
                 {"flits_routed", static_cast<double>(full.flits)},
                 {"flit_hops_per_us",
                  static_cast<double>(gated.flits) / (1e6 * gated.wall_seconds)},
                 {"identical", identical ? 1.0 : 0.0}});
        }
    }
    if (!all_identical) {
        std::fprintf(stderr,
                     "FATAL: gated router phase diverged from full scan\n");
        return 1;
    }
    return 0;
}
