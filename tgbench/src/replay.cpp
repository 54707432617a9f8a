// `replay`: the paper's flow on 8 cores (Table 2).
//
// Set-up runs mp_matrix, des and cacheloop on the cycle-true ISS over AMBA
// with trace monitors, translates every trace and assembles the programs
// once. Verification replays each program set under the tick-all kernel
// (kernel_gating = false, max_idle_skip = 0) on AMBA and on the auto-sized
// ×pipes mesh; a timed pass replays all six under the gated kernel, in an
// order drawn from the seed, and each replay must pass the workload's
// memory checks and match its tick-all reference cycle for cycle.
#include "activities.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "apps/apps.hpp"
#include "platform/platform.hpp"
#include "sim/rng.hpp"
#include "tg/program.hpp"
#include "tg/translator.hpp"

namespace tgbench {
namespace {

using namespace tgsim;

constexpr Cycle kMaxCycles = 600'000'000;
constexpr u32 kCores = 8;

struct App {
    apps::Workload workload;
    Cycle iss_cycles = 0;
    bool iss_ok = false; ///< the ISS reference completed and passed its checks
    std::vector<tg::AssembledTg> binaries;
};

enum Fabric { kAmba = 0, kXpipes = 1 };

/// What a replay must reproduce exactly: completion time and per-core halt
/// cycles of the tick-all reference.
struct Expected {
    Cycle cycles = 0;
    std::vector<Cycle> per_core;
};

platform::PlatformConfig replay_config(Fabric f, bool gated) {
    platform::PlatformConfig cfg;
    cfg.n_cores = kCores;
    cfg.ic = f == kAmba ? platform::IcKind::Amba : platform::IcKind::Xpipes;
    cfg.kernel_gating = gated;
    if (!gated) cfg.max_idle_skip = 0;
    return cfg;
}

class Replay final : public Activity {
public:
    explicit Replay(const Options& opt) : opt_(opt) {
        const bool tiny = opt.size == Size::Tiny;
        apps_[0].workload = apps::make_mp_matrix({kCores, tiny ? 8u : 48u});
        apps_[1].workload = apps::make_des({kCores, tiny ? 4u : 96u});
        apps_[2].workload =
            apps::make_cacheloop({kCores, tiny ? 2000u : 1'000'000u});
        // The seed orders the six replays of every pass.
        for (u32 i = 0; i < order_.size(); ++i) order_[i] = i;
        sim::Rng rng{opt.seed};
        for (u32 i = static_cast<u32>(order_.size()) - 1; i > 0; --i)
            std::swap(order_[i], order_[rng.below(i + 1)]);
    }

    double setup() override {
        const double t0 = now_s();
        for (App& app : apps_) {
            platform::PlatformConfig cfg = replay_config(kAmba, true);
            cfg.collect_traces = true;
            platform::Platform p{cfg};
            p.load_workload(app.workload);
            double t = now_s();
            const platform::RunResult r = p.run(kMaxCycles);
            iss_seconds_ += now_s() - t;
            iss_cycles_ += r.cycles;
            app.iss_cycles = r.cycles;
            app.iss_ok = r.completed && p.run_checks(app.workload, nullptr);

            t = now_s();
            tg::TranslateOptions topt;
            topt.polls = app.workload.polls;
            std::vector<tg::TgProgram> programs;
            for (const tg::Trace& trace : p.traces())
                programs.push_back(tg::translate(trace, topt).program);
            translate_seconds_ += now_s() - t;

            t = now_s();
            app.binaries = tg::assemble_all(programs);
            assemble_seconds_ += now_s() - t;
        }
        ++setups_;
        return now_s() - t0;
    }

    void verify(Ledger& ledger) override {
        for (u32 a = 0; a < apps_.size(); ++a) {
            App& app = apps_[a];
            ledger.check(app.iss_ok,
                         app.workload.name + ": ISS reference run failed");
            for (const Fabric f : {kAmba, kXpipes}) {
                platform::Platform p{replay_config(f, false)};
                p.load_tg_binaries(app.binaries, app.workload);
                const platform::RunResult r = p.run(kMaxCycles);
                std::string msg;
                ledger.check(r.completed && p.run_checks(app.workload, &msg),
                             app.workload.name + " tick-all replay: " + msg);
                expected_[a][f] = {r.cycles, r.per_core};
            }
            // The paper's accuracy column: TG vs ISS completion time on AMBA.
            const double err =
                100.0 *
                std::abs(static_cast<double>(expected_[a][kAmba].cycles) -
                         static_cast<double>(app.iss_cycles)) /
                static_cast<double>(std::max<Cycle>(app.iss_cycles, 1));
            err_pct_ = std::max(err_pct_, err);
        }
        if (opt_.inject_mismatch)
            for (auto& per_fabric : expected_)
                for (Expected& e : per_fabric) ++e.cycles;
    }

    double pass(Ledger& ledger, Spans* spans) override {
        double seconds = 0.0;
        for (const u32 k : order_) {
            const u32 a = k / 2;
            const Fabric f = static_cast<Fabric>(k % 2);
            const App& app = apps_[a];
            const bool paced = a != 2; // mp_matrix and des; cacheloop jumps
            const char* fabric = f == kAmba ? "amba" : "xpipes";

            const double t0 = now_s();
            std::size_t span = spans ? spans->begin("platform.load") : 0;
            platform::Platform p{replay_config(f, true)};
            p.load_tg_binaries(app.binaries, app.workload);
            if (spans) spans->end(span);

            if (spans)
                span = spans->begin(std::string(paced ? "run." : "jump.") +
                                    fabric);
            const platform::RunResult r = p.run(kMaxCycles);
            if (spans) spans->end(span);

            if (spans) span = spans->begin("platform.checks");
            std::string msg;
            const bool checks = p.run_checks(app.workload, &msg);
            if (spans) spans->end(span);
            seconds += now_s() - t0;

            const Expected& e = expected_[a][f];
            ledger.check(r.completed && checks && r.cycles == e.cycles &&
                             r.per_core == e.per_core,
                         app.workload.name + " on " + fabric +
                             ": gated replay differs from tick-all (" +
                             std::to_string(r.cycles) + " vs " +
                             std::to_string(e.cycles) + " cycles) " + msg);
            if (!spans) continue;
            sim_cycles_ += r.cycles;
            if (f == kAmba) {
                amba_cycles_ += r.cycles;
                amba_busy_ += p.interconnect().busy_cycles();
                amba_contention_ += p.interconnect().contention_cycles();
            }
            if (paced) (f == kAmba ? amba_paced_ : xpipes_paced_) += r.cycles;
        }
        if (spans) {
            ++traced_passes_;
            tick_all_amba(ledger, *spans);
        }
        return seconds;
    }

    void end_to_end(const std::vector<double>& pass_seconds,
                    Sheet& out) const override {
        out.push_back({"replay_s", mean(pass_seconds), "s"});
        out.push_back({"replay_err_pct", err_pct_, "%"});
    }

    void per_layer(const Spans& spans, Sheet& out) const override {
        const double passes = std::max(traced_passes_, 1u);
        const double setups = std::max(setups_, 1u);
        out.push_back({"cpu.iss_mcps",
                       static_cast<double>(iss_cycles_) / iss_seconds_ / 1e6,
                       "Mcycle/s"});
        out.push_back({"tg.translate_ms", 1e3 * translate_seconds_ / setups,
                       "ms"});
        out.push_back({"tg.assemble_ms", 1e3 * assemble_seconds_ / setups,
                       "ms"});
        out.push_back({"amba.ns_per_cycle",
                       1e9 * spans.total("run.amba") /
                           static_cast<double>(std::max<u64>(amba_paced_, 1)),
                       "ns/cycle"});
        out.push_back({"xpipes.replay_ns_per_cycle",
                       1e9 * spans.total("run.xpipes") /
                           static_cast<double>(std::max<u64>(xpipes_paced_, 1)),
                       "ns/cycle"});
        out.push_back({"sim.gating_speedup",
                       spans.total("tick_all.amba") / spans.total("run.amba"),
                       "x"});
        out.push_back({"sim.jump_ms",
                       1e3 *
                           (spans.total("jump.amba") +
                            spans.total("jump.xpipes")) /
                           passes,
                       "ms"});
        out.push_back({"platform.load_ms",
                       1e3 * spans.total("platform.load") / passes, "ms"});
        out.push_back({"platform.checks_ms",
                       1e3 * spans.total("platform.checks") / passes, "ms"});
        out.push_back({"replay.sim_cycles",
                       static_cast<double>(sim_cycles_) / passes, "cycle"});
        out.push_back({"amba.busy_frac",
                       static_cast<double>(amba_busy_) /
                           static_cast<double>(std::max<u64>(amba_cycles_, 1)),
                       "1"});
        out.push_back({"amba.contention_per_cycle",
                       static_cast<double>(amba_contention_) /
                           static_cast<double>(std::max<u64>(amba_cycles_, 1)),
                       "1"});
    }

private:
    /// Traced passes only: the tick-all reference of the paced AMBA replays,
    /// the denominator of sim.gating_speedup.
    void tick_all_amba(Ledger& ledger, Spans& spans) {
        for (u32 a = 0; a < 2; ++a) {
            const App& app = apps_[a];
            platform::Platform p{replay_config(kAmba, false)};
            p.load_tg_binaries(app.binaries, app.workload);
            const std::size_t span = spans.begin("tick_all.amba");
            const platform::RunResult r = p.run(kMaxCycles);
            spans.end(span);
            ledger.check(r.completed && r.cycles == expected_[a][kAmba].cycles,
                         app.workload.name +
                             ": tick-all replay not repeatable");
        }
    }

    Options opt_;
    std::array<App, 3> apps_;
    std::array<u32, 6> order_{};
    std::array<std::array<Expected, 2>, 3> expected_;
    double err_pct_ = 0.0;
    // Set-up accounting (cumulative over setup() calls).
    u32 setups_ = 0;
    u64 iss_cycles_ = 0;
    double iss_seconds_ = 0.0;
    double translate_seconds_ = 0.0;
    double assemble_seconds_ = 0.0;
    // Traced-pass counters.
    u32 traced_passes_ = 0;
    u64 sim_cycles_ = 0;
    u64 amba_cycles_ = 0;
    u64 amba_busy_ = 0;
    u64 amba_contention_ = 0;
    u64 amba_paced_ = 0;
    u64 xpipes_paced_ = 0;
};

} // namespace

std::unique_ptr<Activity> make_replay(const Options& opt) {
    return std::make_unique<Replay>(opt);
}

} // namespace tgbench
