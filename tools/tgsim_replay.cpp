// tgsim-replay — TG-platform simulation driver (the exploration half of the
// paper's flow).
//
//   tgsim-replay core0.tgp core1.tgp ... --ic=xpipes
//       [--app=mp_matrix --cores=N --size=S]   (environment + result checks)
//       [--no-skip] [--max-cycles=N] [--json=PATH]
//
// Loads one .tgp program per core onto a TG platform with the chosen
// interconnect. With --app the shared-memory environment of the named
// benchmark is initialised first and its result checks run afterwards —
// a TG replay must leave memory exactly as the reference run did. A replay
// is a one-candidate sweep, so it shares the sweep driver's evaluation and
// --json report format (docs/sweep.md).
#include <cstdio>

#include "cli.hpp"
#include "sweep/sweep.hpp"
#include "tg/program.hpp"

using namespace tgsim;

namespace {

cli::OptionSet options() {
    cli::OptionSet set{"tgsim_replay",
                       "replay .tgp programs on a TG platform (a "
                       "one-candidate sweep)"};
    // No --source axis here: a translated trace replays a closed-loop
    // execution by construction (its gaps encode the recorded
    // dependencies), so open-loop injection is a pattern-mode concept.
    set.positional("FILE.tgp", 1);
    cli::add_ic_option(set);
    cli::add_workload_options(
        set, "", "",
        "benchmark core count [default: one per program file]")
        .flag("no-skip", "fully clocked kernel (paper-faithful costs)")
        .text("json", "PATH", "", "machine-readable report")
        .number("max-cycles", "N", "600000000", "cycle budget");
    return set;
}

int run(const cli::OptionSet& o) {
    std::vector<tg::TgProgram> programs;
    for (const std::string& path : o.positionals()) {
        programs.push_back(cli::load_file(path, [](const auto& p) {
            return tg::program_from_text(cli::read_text_file(p));
        }));
    }

    // With --app the benchmark's environment is loaded and its result
    // checks run afterwards; without it the cores run bare.
    apps::Workload env;
    if (o.has("app")) {
        env = cli::get_workload(o, o.has("cores")
                                       ? o.get_u32("cores")
                                       : static_cast<u32>(programs.size()));
    } else {
        env.cores.resize(programs.size());
    }
    const bool have_checks = !env.checks.empty();

    sweep::Candidate cand;
    cand.cfg.ic = o.get_choice<platform::IcKind>("ic");
    if (o.has("no-skip")) { // fully clocked kernel (paper-faithful costs)
        cand.cfg.kernel_gating = false;
        cand.cfg.max_idle_skip = 0;
    }
    cand.name = sweep::describe_fabric(cand.cfg);

    sweep::SweepDriver driver{programs, env};
    sweep::SweepOptions opts;
    opts.jobs = 1;
    opts.max_cycles = o.get_u64("max-cycles");
    const sweep::SweepResult r = driver.run({cand}, opts).at(0);

    // The report records failures too (ok:false rows, same as tgsim_sweep),
    // so scripted consumers always find the file after a run.
    const std::string& json = o.get("json");
    if (!json.empty()) {
        sweep::SweepMeta meta;
        meta.app = o.get("app");
        meta.n_cores = driver.n_cores();
        meta.jobs = 1;
        meta.max_cycles = opts.max_cycles;
        meta.tier = opts.tier;
        meta.seed = opts.seed;
        meta.n_candidates = 1;
        if (!sweep::write_json_report({r}, meta, json)) {
            std::fprintf(stderr, "failed to write %s\n", json.c_str());
            return 1;
        }
        std::printf("wrote %s\n", json.c_str());
    }

    if (!r.completed) {
        // r.error distinguishes a genuine timeout/livelock from a setup
        // failure (bad environment, impossible fabric) caught in the worker.
        std::fprintf(stderr, "replay failed: %s\n", r.error.c_str());
        return 1;
    }
    std::printf("ic=%s cores=%u\n",
                std::string(platform::to_string(cand.cfg.ic)).c_str(),
                driver.n_cores());
    std::printf("execution: %llu cycles; simulated in %.3f s wall\n",
                static_cast<unsigned long long>(r.cycles), r.wall_seconds);
    for (u32 i = 0; i < driver.n_cores(); ++i)
        std::printf("  core %u halted @%llu\n", i,
                    static_cast<unsigned long long>(r.per_core[i]));
    std::printf("interconnect: %llu busy cycles, %llu contention cycles\n",
                static_cast<unsigned long long>(r.busy_cycles),
                static_cast<unsigned long long>(r.contention_cycles));
    if (have_checks) {
        std::printf("checks: %s%s\n", r.checks_ok ? "PASS" : "FAIL ",
                    r.checks_ok ? "" : r.error.c_str());
        return r.checks_ok ? 0 : 1;
    }
    return 0;
}

} // namespace

int main(int argc, char** argv) { return cli::run(options(), argc, argv, run); }
