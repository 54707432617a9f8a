// tgsim-run — reference simulation driver.
//
//   tgsim_run --app=mp_matrix --cores=4 --size=24 --ic=amba
//             --trace-dir=traces/ [--no-skip] [--max-cycles=N]
//
// Runs the named benchmark with cycle-true CPU cores on the chosen
// interconnect, verifies the results, prints the performance summary, and
// (with --trace-dir) writes one .trc file per core for later translation.
#include <cstdio>

#include "cli.hpp"

using namespace tgsim;

namespace {

cli::OptionSet options() {
    cli::OptionSet set{"tgsim_run",
                       "reference simulation: cycle-true cores run a "
                       "benchmark, optionally tracing every core"};
    cli::add_workload_options(set, "mp_matrix", "4");
    cli::add_ic_option(set)
        .text("trace-dir", "DIR", "",
              "write one coreN.trc per core into DIR (empty: the working "
              "directory)")
        .flag("no-skip", "fully clocked kernel (paper-faithful costs)")
        .number("max-cycles", "N", "600000000", "cycle budget");
    return set;
}

int run(const cli::OptionSet& o) {
    const apps::Workload workload = cli::get_workload(o, o.get_u32("cores"));
    platform::PlatformConfig cfg;
    cfg.n_cores = static_cast<u32>(workload.cores.size());
    cfg.ic = o.get_choice<platform::IcKind>("ic");
    cfg.collect_traces = o.has("trace-dir");
    if (o.has("no-skip")) { // fully clocked kernel (paper-faithful costs)
        cfg.kernel_gating = false;
        cfg.max_idle_skip = 0;
    }

    platform::Platform p{cfg};
    p.load_workload(workload);
    const auto res = p.run(o.get_u64("max-cycles"));
    if (!res.completed) {
        std::fprintf(stderr, "did not complete within the cycle budget\n");
        return 1;
    }
    std::string msg;
    const bool ok = p.run_checks(workload, &msg);

    std::printf("app=%s cores=%u ic=%s\n", o.get("app").c_str(), cfg.n_cores,
                std::string(platform::to_string(cfg.ic)).c_str());
    std::printf("execution: %llu cycles (%llu ns at %llu ns/cycle)\n",
                static_cast<unsigned long long>(res.cycles),
                static_cast<unsigned long long>(res.cycles * kCyclePeriodNs),
                static_cast<unsigned long long>(kCyclePeriodNs));
    std::printf("simulated: %.3f s wall, %llu instructions\n", res.wall_seconds,
                static_cast<unsigned long long>(res.total_instructions));
    std::printf("checks: %s%s\n", ok ? "PASS" : "FAIL ",
                ok ? "" : msg.c_str());
    std::printf("interconnect: %llu busy cycles, %llu contention cycles\n",
                static_cast<unsigned long long>(p.interconnect().busy_cycles()),
                static_cast<unsigned long long>(
                    p.interconnect().contention_cycles()));

    if (cfg.collect_traces) {
        const std::string& dir = o.get("trace-dir");
        for (const auto& trace : p.traces()) {
            const std::string path = (dir.empty() ? "" : dir + "/") + "core" +
                                     std::to_string(trace.core_id) + ".trc";
            tg::save(trace, path);
            std::printf("wrote %s (%zu events)\n", path.c_str(),
                        trace.events.size());
        }
    }
    return ok ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) { return cli::run(options(), argc, argv, run); }
