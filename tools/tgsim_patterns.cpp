// tgsim-patterns — synthetic traffic-pattern sweeps with load–latency
// instrumentation (docs/traffic.md).
//
//   tgsim-patterns --pattern=transpose --mesh=4x4
//                  [--rates=0.005,0.01,...] [--process=uniform|poisson|bursty]
//                  [--packets=N] [--reads=F] [--burst-frac=F] [--burst-len=N]
//                  [--hotspot=CORE] [--hotspot-frac=F] [--fifo=N]
//                  [--topology=mesh|torus|file:PATH]
//                  [--source=closed|open] [--max-outstanding=N]
//                  [--pending-limit=N]
//                  [--fault-rate=R] [--fault-seed=N]
//                  [--jobs=N] [--json=PATH] [--max-cycles=N]
//
// --source picks the loop mode of every traffic source (docs/traffic.md):
// closed (default) is the paper's one-outstanding-transaction generator;
// open keeps offering at the configured rate regardless of completions, so
// the *network* — not the generator — saturates, and every row carries the
// source-queue / in-network latency split (the hockey-stick curves).
//
// --mesh gives the *logical core grid* (n_cores = W*H); the physical ×pipes
// mesh is laid out row-major with the same width, cores on nodes [0, W*H)
// and the shared memory + semaphore bank on the extra row — so logical grid
// coordinates equal physical mesh coordinates and the classic destination
// functions (transpose, tornado, ...) stress exactly the links they name.
// --topology picks the fabric the grid maps onto (docs/topology.md): the
// default XY mesh, a torus with the same dimensions, or a table-routed
// graph file (whose node count must host the cores plus the two shared
// slaves).
//
// Each --rates point becomes one sweep candidate (sweep::make_rate_sweep)
// evaluated by sweep::SweepDriver --jobs at a time; results are
// bit-identical at any --jobs (bench/pattern_sweep.cpp enforces this in
// CI). The tool prints the load–latency table, reports the saturation
// throughput (sweep::find_saturation), and optionally writes the standard
// sweep JSON report with the latency columns.
//
// --fault-rate=R enables deterministic fault injection (docs/faults.md) at
// every rate point: total per-flit fault probability R split evenly across
// corruption, drop and stall, recovered by the NI retry/checksum protocol.
// A reliability table (delivered ratio, retries, lost transactions) is
// printed and the JSON report grows the fault_* columns.
#include <cstdio>

#include "cli.hpp"
#include "sweep/sweep.hpp"
#include "tg/patterns.hpp"

using namespace tgsim;

namespace {

cli::OptionSet options() {
    cli::OptionSet set{
        "tgsim_patterns",
        "synthetic traffic-pattern sweeps with load-latency instrumentation"};
    cli::add_pattern_option(set, "uniform_random", "traffic pattern")
        .text("mesh", "WxH", "4x4", "logical core grid")
        .text("rates", "R,R,...",
              "0.005,0.01,0.02,0.04,0.08,0.16,0.32,0.64,1.0",
              "offered-rate ladder, strictly ascending")
        .choice<tg::ArrivalProcess>("process", "poisson", "arrival process",
                                    {{"poisson", tg::ArrivalProcess::Poisson},
                                     {"uniform", tg::ArrivalProcess::Uniform},
                                     {"bursty", tg::ArrivalProcess::Bursty}})
        .number("packets", "N", "2000", "transactions per core")
        .text("reads", "F", "0.5", "read fraction in [0, 1]")
        .text("burst-frac", "F", "0", "fraction of transactions that burst")
        .number("burst-len", "N", "4", "beats per burst")
        .number("hotspot", "CORE", "0", "hotspot destination core")
        .text("hotspot-frac", "F", "0.5",
              "share of traffic aimed at the hotspot")
        .number("fifo", "N", "4", "router FIFO depth")
        .text("topology", "KIND", "mesh",
              "fabric topology: mesh|torus|file:PATH")
        .text("fault-rate", "R", "0",
              "total per-flit fault probability in [0, 1]")
        .number("fault-seed", "N", "0", "deterministic fault-stream seed")
        .number("jobs", "N", "0",
                "worker threads (0 = one per hardware thread)")
        .text("json", "PATH", "", "machine-readable report")
        .number("max-cycles", "N", "100000000", "per-candidate cycle budget");
    cli::add_source_options(set);
    return set;
}

/// A fraction flag in [0, 1]; anything else is a usage error.
double get_fraction(const cli::OptionSet& o, const std::string& name) {
    const auto f = cli::parse_rate(o.get(name));
    if (!f || *f > 1.0) cli::die("bad fraction flag (must be in [0, 1])");
    return *f;
}

int run(const cli::OptionSet& o) {
    const ic::XpipesConfig grid = cli::get_grid(o, "mesh");
    const u32 fifo = o.get_u32("fifo");

    tg::PatternConfig pc;
    pc.pattern = o.get_choice<tg::Pattern>("pattern");
    pc.width = grid.width;
    pc.height = grid.height;
    pc.process = o.get_choice<tg::ArrivalProcess>("process");
    pc.packets_per_core = o.get_u64("packets");
    pc.burst_len = static_cast<u16>(o.get_u32("burst-len"));
    pc.hotspot_core = o.get_u32("hotspot");
    pc.read_fraction = get_fraction(o, "reads");
    pc.burst_fraction = get_fraction(o, "burst-frac");
    pc.hotspot_fraction = get_fraction(o, "hotspot-frac");

    const std::vector<double> rates = cli::get_rates(o);
    pc.injection_rate = rates.front();

    const auto fault_rates = cli::get_fault_rates(o);
    if (fault_rates.size() != 1) {
        std::fprintf(stderr,
                     "tgsim_patterns takes a single --fault-rate; use "
                     "tgsim_sweep --pattern for a fault-rate axis\n");
        return 1;
    }
    const double fault_rate = fault_rates.front();
    const u64 fault_seed = o.get_u64("fault-seed");

    const tg::SourceConfig source = cli::get_source(o);
    if (source.open() && fault_rate > 0.0) {
        // The open-loop NI and the fault retry protocol both own the tx
        // queue; the combination is rejected at configure time, so fail at
        // parse time with the reason spelled out.
        std::fprintf(stderr,
                     "--source=open does not compose with --fault-rate yet "
                     "(fault recovery holds one transaction per master NI)\n");
        return 1;
    }

    const u32 n_cores = pc.width * pc.height;
    const std::string& topology_spec = o.get("topology");
    const cli::TopologyChoice topo =
        cli::parse_topology_or_die(topology_spec, "--topology");
    platform::PlatformConfig base;
    base.ic = platform::IcKind::Xpipes;
    base.xpipes.width = pc.width;
    base.xpipes.height = platform::xpipes_height_for(n_cores, pc.width);
    base.xpipes.topology = topo.kind;
    base.xpipes.graph = topo.graph;
    if (topo.kind == ic::TopologyKind::Table)
        base.xpipes.width = base.xpipes.height = 0; // shape comes from the graph
    cli::check_fabric_capacity(base.xpipes, n_cores, "--topology");
    base.xpipes.fifo_depth = fifo;
    base.xpipes.fault = cli::make_fault(fault_rate, fault_seed);
    const bool faults_on = base.xpipes.fault.enabled();

    apps::Workload context; // patterns compute nothing: empty images/checks
    context.name = "pattern_" + std::string{tg::to_string(pc.pattern)};

    sweep::SweepOptions opts;
    opts.jobs = o.get_u32("jobs");
    opts.max_cycles = o.get_u64("max-cycles");

    const sweep::SweepDriver driver{pc, context};
    const auto candidates = sweep::make_rate_sweep(base, rates, source);
    const u32 jobs = sweep::resolve_jobs(opts.jobs, candidates.size());
    std::printf("%s on a %ux%u core grid (%ux%u mesh, fifo %u), "
                "%llu packets/core, %s arrivals, %s sources, %u workers\n\n",
                std::string{tg::to_string(pc.pattern)}.c_str(), pc.width,
                pc.height, base.xpipes.width, base.xpipes.height, fifo,
                static_cast<unsigned long long>(pc.packets_per_core),
                o.get("process").c_str(),
                std::string{tg::to_string(source.mode)}.c_str(), jobs);
    const std::vector<sweep::SweepResult> results =
        driver.run(candidates, opts);

    std::printf("%-12s %10s %10s %9s %8s %8s %8s %10s\n", "candidate",
                "offered", "accepted", "mean lat", "p50", "p99",
                "max", "NI wait");
    bool setup_error = false;
    for (const sweep::SweepResult& r : results) {
        if (r.failure == sweep::FailureKind::SetupError) {
            std::printf("%-12s SETUP ERROR: %s\n", r.name.c_str(),
                        r.error.c_str());
            setup_error = true;
            continue;
        }
        if (!r.ok()) {
            std::printf("%-12s %s\n", r.name.c_str(), r.error.c_str());
            continue;
        }
        std::printf("%-12s %10.4f %10.4f %9.1f %8llu %8llu %8llu %10llu\n",
                    r.name.c_str(), r.offered_rate, r.accepted_rate,
                    r.lat_mean,
                    static_cast<unsigned long long>(r.lat_p50),
                    static_cast<unsigned long long>(r.lat_p99),
                    static_cast<unsigned long long>(r.lat_max),
                    static_cast<unsigned long long>(r.contention_cycles));
    }

    if (faults_on) {
        std::printf("\n%-12s %10s %10s %8s %8s %8s %8s\n", "candidate",
                    "injected", "delivered", "recov", "retries", "lost",
                    "dropped");
        for (const sweep::SweepResult& r : results) {
            if (!r.ok() || !r.has_faults) continue;
            std::printf(
                "%-12s %10llu %9.4f%% %8llu %8llu %8llu %8llu\n",
                r.name.c_str(),
                static_cast<unsigned long long>(r.fault_injected),
                100.0 * r.delivered_ratio,
                static_cast<unsigned long long>(r.fault_recovered),
                static_cast<unsigned long long>(r.fault_retries),
                static_cast<unsigned long long>(r.fault_lost),
                static_cast<unsigned long long>(r.fault_dropped));
        }
    }

    if (source.open()) {
        // The open-loop split: in-network latency is the saturation
        // signal; source-queue latency shows where offered load waits.
        std::printf("\n%-12s %10s %8s %8s %10s %10s %9s\n", "candidate",
                    "net mean", "net p50", "net p99", "srcq mean",
                    "srcq p99", "pend pk");
        for (const sweep::SweepResult& r : results) {
            if (!r.ok() || !r.has_open) continue;
            std::printf(
                "%-12s %10.1f %8llu %8llu %10.1f %10llu %9llu\n",
                r.name.c_str(), r.net_lat_mean,
                static_cast<unsigned long long>(r.net_lat_p50),
                static_cast<unsigned long long>(r.net_lat_p99),
                r.sq_lat_mean,
                static_cast<unsigned long long>(r.sq_lat_p99),
                static_cast<unsigned long long>(r.pending_peak));
        }
    }

    const sweep::SaturationPoint sat = sweep::find_saturation(results);
    if (sat.found)
        std::printf("\nsaturation at offered %.4f: throughput %.4f "
                    "txn/core/cycle (mean latency %.1f cycles)\n",
                    sat.offered, sat.throughput, sat.mean_latency);
    else
        std::printf("\nno saturation in the swept range; max accepted "
                    "%.4f txn/core/cycle at offered %.4f\n",
                    sat.throughput, sat.offered);

    const std::string& json = o.get("json");
    if (!json.empty()) {
        sweep::SweepMeta meta;
        meta.app = context.name + " " + o.get("mesh");
        // Source mode is campaign identity (docs/traffic.md): open and
        // closed shards must never merge or resume into each other.
        // describe() is empty for closed sources, so pre-open reports
        // stay byte-identical.
        meta.app += tg::describe(source);
        if (topo.kind != ic::TopologyKind::Mesh) {
            // Topology is campaign identity (docs/topology.md); mesh
            // runs keep the pre-topology app string byte-identical.
            meta.app += " topo=" + topology_spec;
        }
        if (faults_on) {
            // The fault axis is campaign identity: reports that differ
            // in it must never merge or resume into each other.
            char fb[48];
            std::snprintf(fb, sizeof fb, " fault=%.4g@%llu", fault_rate,
                          static_cast<unsigned long long>(fault_seed));
            meta.app += fb;
        }
        meta.n_cores = n_cores;
        meta.jobs = jobs;
        meta.max_cycles = opts.max_cycles;
        meta.tier = opts.tier;
        meta.seed = opts.seed;
        meta.n_candidates = static_cast<u32>(results.size());
        if (!sweep::write_json_report(results, meta, json)) {
            std::fprintf(stderr, "failed to write %s\n", json.c_str());
            return 1;
        }
        std::printf("wrote %s (%zu rate points)\n", json.c_str(),
                    results.size());
    }
    return setup_error ? 1 : 0;
}

} // namespace

int main(int argc, char** argv) { return cli::run(options(), argc, argv, run); }
