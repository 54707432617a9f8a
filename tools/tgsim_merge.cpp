// tgsim-merge — aggregates N shard reports back into the canonical
// single-run sweep report (docs/sweep.md).
//
//   tgsim-merge [--json=OUT] shard0.json shard1.json ... shardN-1.json
//
// Each input is a `tgsim_sweep --shard k/N --json` report. The merge
// hard-checks the cross-shard invariants — identical campaign metadata,
// every shard present exactly once, every candidate owned by its shard and
// present exactly once — and refuses on any violation: a merged report is
// either exactly the unsharded campaign or it does not exist. The stderr
// diagnostic names the specific invariant (and offending shard/candidate
// index or metadata field), and the exit code separates the failure class
// for scripted campaigns:
//
//   exit 2 — an input could not be read or parsed (not a report at all);
//   exit 1 — all inputs parsed but a cross-shard invariant failed, usage
//            errors (an unknown flag such as --jsn included), or the output
//            could not be written.
//
// Output is the canonical deterministic form (jobs = 0, wall clocks
// zeroed), byte-identical to `tgsim_sweep --deterministic` over the same
// grid and options at any --jobs. Without --json the merged report streams
// to stdout.
#include <cstdio>

#include "cli.hpp"
#include "sweep/shard.hpp"
#include "sweep/sweep.hpp"

using namespace tgsim;

namespace {

cli::OptionSet options() {
    cli::OptionSet set{"tgsim_merge",
                       "merge shard reports into the canonical single-run "
                       "report"};
    set.positional("SHARD.json", 1)
        .text("json", "OUT", "", "output report (empty: stdout)");
    return set;
}

int run(const cli::OptionSet& o) {
    std::vector<sweep::ParsedReport> shards;
    shards.reserve(o.positionals().size());
    std::string err;
    for (const std::string& path : o.positionals()) {
        auto report = sweep::parse_report_file(path, &err);
        if (!report) {
            std::fprintf(stderr, "tgsim_merge: %s\n", err.c_str());
            return 2; // parse failure: distinct from invariant violations
        }
        shards.push_back(std::move(*report));
    }

    auto merged = sweep::merge_reports(std::move(shards), &err);
    if (!merged) {
        std::fprintf(stderr, "tgsim_merge: %s\n", err.c_str());
        return 1;
    }

    const std::string& json = o.get("json");
    if (json.empty()) {
        if (!sweep::json_report_to(stdout, merged->rows, merged->meta)) {
            std::fprintf(stderr, "tgsim_merge: short write to stdout\n");
            return 1;
        }
        return 0;
    }
    if (!sweep::write_json_report(merged->rows, merged->meta, json)) {
        std::fprintf(stderr, "tgsim_merge: failed to write %s\n",
                     json.c_str());
        return 1;
    }
    std::fprintf(stderr, "merged %zu shards, %zu candidates -> %s\n",
                 o.positionals().size(), merged->rows.size(), json.c_str());
    return 0;
}

} // namespace

int main(int argc, char** argv) { return cli::run(options(), argc, argv, run); }
