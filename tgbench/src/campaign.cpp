// `campaign`: a design-space campaign as a tgsim user runs one.
//
// A hotspot pattern on a 4x4 core grid is swept over 5 mesh shapes x 4 FIFO
// depths x a 5000-point offered-rate ladder (10^5 candidates) with
// open-loop sources. A pass runs the funnel tier (analytic screen of the
// full grid, top-16 cycle-simulated) on 2 workers as 2 shards, serialises
// each shard report with json_report, parses it back with
// parse_report_text and merges the two with merge_reports — the
// tgsim_sweep --shard / tgsim_merge round trip, minus the file system.
// Verification runs the same campaign unsharded and keeps a hash of its
// canonical report. The merged report must match it byte for byte, as
// tgsim_merge's output matches an unsharded --deterministic run, and every
// cycle-simulated survivor, in memory, must be bit_identical to its
// reference row.
#include "activities.hpp"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <optional>
#include <utility>

#include "analytic/analytic.hpp"
#include "sweep/shard.hpp"
#include "sweep/sweep.hpp"
#include "tg/patterns.hpp"

namespace tgbench {
namespace {

using namespace tgsim;

constexpr u32 kShards = 2;
constexpr u32 kJobs = 2;
constexpr u32 kFunnelTop = 16;

class Campaign final : public Activity {
public:
    explicit Campaign(const Options& opt) : opt_(opt) {
        const bool tiny = opt.size == Size::Tiny;
        rates_ = tiny ? 10 : 5000;
        pattern_.pattern = tg::Pattern::Hotspot;
        pattern_.width = 4;
        pattern_.height = 4;
        pattern_.packets_per_core = tiny ? 20 : 200;
        pattern_.read_fraction = 0.5;
        context_.name = "hotspot";
    }

    double setup() override {
        const double t0 = now_s();
        grid_.clear();
        tg::SourceConfig open;
        open.mode = tg::SourceMode::Open;
        // Mesh shapes with room for the 16 cores plus the shared slaves.
        const std::pair<u32, u32> meshes[] = {
            {5, 4}, {4, 5}, {6, 3}, {3, 6}, {9, 2}};
        for (const auto& [width, height] : meshes)
            for (const u32 fifo : {2u, 4u, 8u, 16u})
                for (u32 i = 0; i < rates_; ++i) {
                    sweep::Candidate c;
                    c.cfg.ic = platform::IcKind::Xpipes;
                    c.cfg.xpipes.width = width;
                    c.cfg.xpipes.height = height;
                    c.cfg.xpipes.fifo_depth = fifo;
                    c.cfg.xpipes.collect_latency = true;
                    c.source = open;
                    c.source.rate = 0.002 + 0.3 * i / rates_;
                    char name[64];
                    std::snprintf(name, sizeof name, "%s r=%.6f",
                                  sweep::describe_fabric(c.cfg).c_str(),
                                  c.source.rate);
                    c.name = name;
                    grid_.push_back(std::move(c));
                }
        driver_ = std::make_unique<sweep::SweepDriver>(pattern_, context_);
        return now_s() - t0;
    }

    void verify(Ledger& ledger) override {
        const sweep::SweepOptions so = options({0, 1});
        std::vector<sweep::SweepResult> rows = driver_->run(grid_, so);
        ledger.check(rows.size() == grid_.size() &&
                         std::all_of(rows.begin(), rows.end(),
                                     [](const sweep::SweepResult& r) {
                                         return r.ok();
                                     }),
                     "campaign reference run lost or failed rows");
        sweep::SweepMeta m = meta(so);
        sweep::canonicalize(m, rows);
        const std::string text = sweep::json_report(rows, m);
        reference_hash_ = std::hash<std::string>{}(text);
        reference_bytes_ = text.size();
        survivors_ref_.clear();
        for (sweep::SweepResult& r : rows)
            if (!r.analytic) survivors_ref_.push_back(std::move(r));
        if (opt_.inject_mismatch)
            for (sweep::SweepResult& r : survivors_ref_) ++r.cycles;
    }

    double pass(Ledger& ledger, Spans* spans) override {
        const auto span = [spans](const char* name) {
            return spans ? spans->begin(name) : 0;
        };
        const auto close = [spans](std::size_t id) {
            if (spans) spans->end(id);
        };

        double seconds = 0.0;
        std::vector<sweep::ParsedReport> reports;
        for (u32 k = 0; k < kShards; ++k) {
            const sweep::SweepOptions so = options({k, kShards});
            const double t0 = now_s();
            std::size_t id = span("sweep.run");
            const std::vector<sweep::SweepResult> rows =
                driver_->run(grid_, so);
            close(id);

            id = span("shard.serialize");
            const std::string text = sweep::json_report(rows, meta(so));
            close(id);

            id = span("shard.parse");
            std::string err;
            std::optional<sweep::ParsedReport> parsed =
                sweep::parse_report_text(text, &err);
            close(id);
            seconds += now_s() - t0;

            ledger.check(parsed.has_value(), "campaign: shard report: " + err);
            if (parsed) reports.push_back(std::move(*parsed));
            for (const sweep::SweepResult& r : rows) {
                if (r.analytic) continue;
                const auto ref = std::find_if(
                    survivors_ref_.begin(), survivors_ref_.end(),
                    [&](const sweep::SweepResult& s) {
                        return s.index == r.index;
                    });
                ledger.check(r.ok() && ref != survivors_ref_.end() &&
                                 sweep::bit_identical(r, *ref),
                             "campaign: survivor " + std::to_string(r.index) +
                                 " (" + r.name +
                                 ") differs from the reference " + r.error);
                if (spans) {
                    ++survivors_;
                    cycle_seconds_ += r.wall_seconds;
                }
            }
            if (spans) bytes_ += text.size();
        }

        const double t0 = now_s();
        const std::size_t id = span("shard.merge");
        std::string err;
        const std::optional<sweep::ParsedReport> merged =
            sweep::merge_reports(std::move(reports), &err);
        close(id);
        seconds += now_s() - t0;

        std::string text;
        if (merged) text = sweep::json_report(merged->rows, merged->meta);
        ledger.check(merged.has_value() && text.size() == reference_bytes_ &&
                         std::hash<std::string>{}(text) == reference_hash_,
                     "campaign: merged report differs from the unsharded "
                     "one " + err);
        if (spans) {
            ++traced_passes_;
            screen(*spans);
        }
        return seconds;
    }

    void end_to_end(const std::vector<double>& pass_seconds,
                    Sheet& out) const override {
        out.push_back({"cand_per_s",
                       static_cast<double>(grid_.size()) / mean(pass_seconds),
                       "1/s"});
    }

    void per_layer(const Spans& spans, Sheet& out) const override {
        const double passes = std::max(traced_passes_, 1u);
        const double rows = passes * static_cast<double>(grid_.size());
        const double survivors = std::max<double>(survivors_, 1);
        // The funnel's own analytic phase is the full-grid analytic tier at
        // the same job count; the rest of a shard run is its cycle phase.
        // One analytic-tier sample is taken per traced pass.
        const double cycle_phase = spans.total("sweep.run") -
                                   kShards * spans.total("sweep.analytic_tier");
        out.push_back({"analytic.us_per_cand",
                       1e6 * spans.total("analytic.evaluate") / rows, "us"});
        out.push_back({"sweep.cycle_ms_per_cand",
                       1e3 * cycle_seconds_ / survivors, "ms"});
        out.push_back({"sweep.worker_util",
                       cycle_seconds_ / (kJobs * std::max(cycle_phase, 1e-9)),
                       "1"});
        out.push_back({"shard.serialize_us_per_row",
                       1e6 * spans.total("shard.serialize") / rows, "us"});
        out.push_back({"shard.parse_us_per_row",
                       1e6 * spans.total("shard.parse") / rows, "us"});
        out.push_back({"shard.merge_us_per_row",
                       1e6 * spans.total("shard.merge") / rows, "us"});
        out.push_back({"shard.bytes_per_row",
                       static_cast<double>(bytes_) / rows, "B"});
        out.push_back({"sweep.survivors", survivors_ / passes, "count"});
    }

private:
    [[nodiscard]] sweep::SweepOptions options(sweep::ShardSpec shard) const {
        sweep::SweepOptions so;
        so.jobs = kJobs;
        so.tier = sweep::Tier::Funnel;
        so.funnel_top = kFunnelTop;
        so.seed = opt_.seed;
        so.shard = shard;
        return so;
    }

    [[nodiscard]] sweep::SweepMeta meta(const sweep::SweepOptions& so) const {
        sweep::SweepMeta m;
        m.app = "hotspot 4x4" + tg::describe(grid_.front().source);
        m.n_cores = driver_->n_cores();
        m.jobs = so.jobs;
        m.max_cycles = so.max_cycles;
        m.tier = so.tier;
        m.seed = so.seed;
        m.n_candidates = static_cast<u32>(grid_.size());
        m.funnel_top = so.funnel_top;
        m.shard = so.shard;
        return m;
    }

    /// Traced passes only: the analytic screen on its own, single-threaded
    /// through analytic::Evaluator and as the sweep driver's analytic tier
    /// at the campaign's job count (the funnel's first phase).
    void screen(Spans& spans) const {
        const analytic::Evaluator evaluator{pattern_};
        analytic::Workspace ws;
        std::size_t id = spans.begin("analytic.evaluate");
        for (u32 i = 0; i < grid_.size(); ++i)
            (void)evaluator.evaluate(grid_[i], i, ws);
        spans.end(id);
        sweep::SweepOptions so = options({0, 1});
        so.tier = sweep::Tier::Analytic;
        id = spans.begin("sweep.analytic_tier");
        (void)driver_->run(grid_, so);
        spans.end(id);
    }

    Options opt_;
    u32 rates_ = 5000;
    tg::PatternConfig pattern_;
    apps::Workload context_;
    std::vector<sweep::Candidate> grid_;
    std::unique_ptr<sweep::SweepDriver> driver_;
    std::size_t reference_hash_ = 0;  ///< of the canonical unsharded report
    std::size_t reference_bytes_ = 0;
    std::vector<sweep::SweepResult> survivors_ref_; ///< cycle rows, exact
    // Traced-pass accumulators.
    u32 traced_passes_ = 0;
    u64 survivors_ = 0;
    double cycle_seconds_ = 0.0;
    u64 bytes_ = 0;
};

} // namespace

std::unique_ptr<Activity> make_campaign(const Options& opt) {
    return std::make_unique<Campaign>(opt);
}

} // namespace tgbench
