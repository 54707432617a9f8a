// tgsim-translate — trace-to-TG-program translator (the paper's Sec. 5 tool).
//
//   tgsim_translate core0.trc core1.trc --out-dir=programs/
//       [--mode=reactive|timeshift|clone] [--app=mp_matrix --cores=N]
//       [--poll=base:size:cmp:value:idle[,...]] [--loop-forever]
//
// Pollable-resource knowledge comes either from the named benchmark
// (--app, which publishes its own PollSpecs) or from an explicit --poll
// list; both may be combined.
#include <cstdio>

#include "cli.hpp"
#include "tg/program.hpp"

using namespace tgsim;

namespace {

cli::OptionSet options() {
    cli::OptionSet set{"tgsim_translate",
                       "translate per-core traces into .tgp programs"};
    set.positional("FILE.trc", 1)
        .choice<tg::TgMode>("mode", "reactive", "translation mode",
                            {{"clone", tg::TgMode::Clone},
                             {"timeshift", tg::TgMode::Timeshift},
                             {"reactive", tg::TgMode::Reactive}})
        .flag("loop-forever", "wrap each program in an endless loop")
        .text("poll", "SPEC,...", "",
              "pollable resources as base:size:eq|ne|ltu|geu:value:idle");
    cli::add_workload_options(set, "", "4");
    set.text("out-dir", "DIR", ".", "where coreN.tgp files go");
    return set;
}

int run(const cli::OptionSet& o) {
    tg::TranslateOptions opt;
    opt.mode = o.get_choice<tg::TgMode>("mode");
    opt.loop_forever = o.has("loop-forever");
    if (o.has("app")) // the benchmark's own poll specs
        opt.polls = cli::get_workload(o, o.get_u32("cores")).polls;
    for (const auto& p : cli::parse_polls(o.get("poll"))) opt.polls.push_back(p);

    for (const std::string& path : o.positionals()) {
        const tg::Trace trace = cli::load_file(path, tg::load);
        const auto res = tg::translate(trace, opt);
        const std::string out = o.get("out-dir") + "/core" +
                                std::to_string(trace.core_id) + ".tgp";
        cli::write_text_file(out, tg::to_text(res.program));
        std::printf(
            "%s: %llu events -> %zu instrs (%llu polls -> %llu loops, "
            "%llu clamped) -> %s\n",
            path.c_str(), static_cast<unsigned long long>(res.events_in),
            res.program.instrs.size(),
            static_cast<unsigned long long>(res.polls_collapsed),
            static_cast<unsigned long long>(res.poll_loops),
            static_cast<unsigned long long>(res.clamped_idles), out.c_str());
        if (res.data_warnings != 0)
            std::fprintf(stderr,
                         "warning: %llu poll reads inconsistent with spec\n",
                         static_cast<unsigned long long>(res.data_warnings));
    }
    return 0;
}

} // namespace

int main(int argc, char** argv) { return cli::run(options(), argc, argv, run); }
