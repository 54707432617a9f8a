// Tests for the distributed-sweep sharding layer (src/sweep/shard.*):
// the k/N spec parser, shard-union == unsharded-run byte identity for the
// cycle AND funnel tiers, merge_reports' cross-shard invariant checks, the
// checkpoint journal's durability contract (torn final line tolerated,
// corrupt interior rejected, torn tail sealed on reopen), and resume
// re-evaluating exactly the unjournaled candidates.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "sweep/shard.hpp"
#include "sweep/sweep.hpp"
#include "test_util.hpp"
#include "tg/patterns.hpp"

namespace tgsim::sweep {
namespace {

// --- fixture: a small pattern campaign --------------------------------------

/// transpose on a 4x4 core grid — the cheapest payload that exercises both
/// the cycle simulator and the analytic screen (funnel tier).
tg::PatternConfig small_pattern() {
    tg::PatternConfig pc;
    pc.pattern = tg::Pattern::Transpose;
    pc.width = 4;
    pc.height = 4;
    pc.injection_rate = 0.01;
    pc.packets_per_core = 40;
    pc.read_fraction = 0.5;
    return pc;
}

Candidate mesh_candidate(const ic::XpipesConfig& mesh, double rate) {
    Candidate c;
    c.cfg.ic = platform::IcKind::Xpipes;
    c.cfg.xpipes = mesh;
    c.cfg.xpipes.collect_latency = true;
    c.source.rate = rate;
    c.name = describe_fabric(c.cfg) + " r=" + std::to_string(rate);
    return c;
}

/// 2 meshes x 5 rates = 10 candidates (mesh must host 16 cores + slaves).
std::vector<Candidate> small_shard_grid() {
    std::vector<Candidate> out;
    for (const ic::XpipesConfig& mesh :
         {test::mesh_cfg(5, 4, 2), test::mesh_cfg(6, 3, 2)})
        for (const double rate : {0.01, 0.02, 0.04, 0.08, 0.16})
            out.push_back(mesh_candidate(mesh, rate));
    return out;
}

struct Campaign {
    tg::PatternConfig pc = small_pattern();
    apps::Workload context;
    SweepDriver driver;
    std::vector<Candidate> grid = small_shard_grid();

    Campaign() : context{make_context()}, driver{pc, context} {}

    static apps::Workload make_context() {
        apps::Workload w;
        w.name = "shard_test transpose";
        return w;
    }

    SweepMeta meta(const SweepOptions& opts) const {
        SweepMeta m;
        m.app = context.name;
        m.n_cores = driver.n_cores();
        m.jobs = opts.jobs;
        m.max_cycles = opts.max_cycles;
        m.tier = opts.tier;
        m.seed = opts.seed;
        m.n_candidates = static_cast<u32>(grid.size());
        if (opts.tier == Tier::Funnel) m.funnel_top = opts.funnel_top;
        m.shard = opts.shard;
        return m;
    }

    /// The canonical (--deterministic) report text of one run.
    std::string canonical_text(SweepOptions opts) const {
        SweepMeta m = meta(opts);
        std::vector<SweepResult> rows = driver.run(grid, opts);
        canonicalize(m, rows);
        return json_report(rows, m);
    }

    /// Runs every shard of an N-way split (varying --jobs per shard, which
    /// must not matter) and round-trips each report through text — the
    /// same bytes tgsim_sweep writes and tgsim_merge reads.
    std::vector<ParsedReport> shard_reports(SweepOptions opts, u32 n) const {
        std::vector<ParsedReport> out;
        for (u32 k = 0; k < n; ++k) {
            SweepOptions so = opts;
            so.shard = {k, n};
            so.jobs = k + 1;
            const std::string text = json_report(driver.run(grid, so), meta(so));
            std::string err;
            auto parsed = parse_report_text(text, &err);
            EXPECT_TRUE(parsed.has_value()) << err;
            if (!parsed) std::abort();
            out.push_back(std::move(*parsed));
        }
        return out;
    }
};

std::string temp_path(const std::string& name) {
    return ::testing::TempDir() + "shard_test_" + name;
}

std::string read_file(const std::string& path) {
    std::string out;
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) return out;
    char buf[4096];
    for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, f)) > 0;)
        out.append(buf, n);
    std::fclose(f);
    return out;
}

void write_file(const std::string& path, const std::string& text) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << path;
    ASSERT_EQ(std::fwrite(text.data(), 1, text.size(), f), text.size());
    std::fclose(f);
}

// --- spec parsing and the mapping -------------------------------------------

TEST(ParseShard, AcceptsValidSpecs) {
    const auto s = parse_shard("0/3");
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(s->index, 0u);
    EXPECT_EQ(s->count, 3u);
    EXPECT_EQ(parse_shard("2/3")->index, 2u);
    EXPECT_EQ(parse_shard("0/1")->count, 1u);
    EXPECT_EQ(parse_shard("15/16")->index, 15u);
}

TEST(ParseShard, RejectsMalformedSpecs) {
    for (const char* bad : {"", "3", "3/", "/3", "3/3", "4/3", "1/0", "a/3",
                            "1/b", "-1/3", "1/3x", " 1/3", "1 /3",
                            "1234567890/3", "1/12345678901"})
        EXPECT_FALSE(parse_shard(bad).has_value()) << "'" << bad << "'";
}

TEST(ShardOf, RoundRobinAndDegenerateCounts) {
    EXPECT_EQ(shard_of(0, 3), 0u);
    EXPECT_EQ(shard_of(1, 3), 1u);
    EXPECT_EQ(shard_of(5, 3), 2u);
    EXPECT_EQ(shard_of(7, 1), 0u); // unsharded
    EXPECT_EQ(shard_of(7, 0), 0u); // never divides by zero
}

// --- shard union == unsharded run, byte for byte ----------------------------

TEST(ShardMerge, UnionMatchesUnshardedCycleRun) {
    const Campaign c;
    SweepOptions opts;
    opts.jobs = 2;
    const std::string want = c.canonical_text(opts);
    for (const u32 n : {2u, 3u, 5u}) {
        std::string err;
        auto merged = merge_reports(c.shard_reports(opts, n), &err);
        ASSERT_TRUE(merged.has_value()) << "N=" << n << ": " << err;
        EXPECT_EQ(json_report(merged->rows, merged->meta), want)
            << "merged report diverged at N=" << n;
    }
}

TEST(ShardMerge, UnionMatchesUnshardedFunnelRun) {
    const Campaign c;
    SweepOptions opts;
    opts.jobs = 2;
    opts.tier = Tier::Funnel;
    opts.funnel_top = 4; // < grid size, so the screen actually prunes
    const std::string want = c.canonical_text(opts);
    std::string err;
    auto merged = merge_reports(c.shard_reports(opts, 3), &err);
    ASSERT_TRUE(merged.has_value()) << err;
    EXPECT_EQ(json_report(merged->rows, merged->meta), want);
}

TEST(ShardMerge, ShardRowsAreExactlyOwnSlice) {
    const Campaign c;
    SweepOptions opts;
    opts.jobs = 1;
    for (u32 k = 0; k < 3; ++k) {
        opts.shard = {k, 3};
        const auto rows = c.driver.run(c.grid, opts);
        std::size_t expected = 0;
        for (u32 i = 0; i < c.grid.size(); ++i)
            if (shard_of(i, 3) == k) ++expected;
        ASSERT_EQ(rows.size(), expected) << "shard " << k;
        u32 prev = 0;
        for (const SweepResult& r : rows) {
            EXPECT_EQ(shard_of(r.index, 3), k);
            EXPECT_TRUE(r.index == rows.front().index || r.index > prev)
                << "rows not ascending";
            prev = r.index;
        }
    }
}

TEST(ShardMerge, SingleReportPassesThroughCanonicalized) {
    const Campaign c;
    SweepOptions opts;
    opts.jobs = 3; // non-canonical jobs + nonzero walls in the input
    std::string err;
    auto parsed =
        parse_report_text(json_report(c.driver.run(c.grid, opts), c.meta(opts)),
                          &err);
    ASSERT_TRUE(parsed.has_value()) << err;
    auto merged = merge_reports({std::move(*parsed)}, &err);
    ASSERT_TRUE(merged.has_value()) << err;
    EXPECT_EQ(json_report(merged->rows, merged->meta), c.canonical_text(opts));
}

// --- merge rejections --------------------------------------------------------

class ShardMergeReject : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        campaign_ = new Campaign;
        SweepOptions opts;
        opts.jobs = 2;
        shards_ = new std::vector<ParsedReport>{
            campaign_->shard_reports(opts, 3)};
    }
    static void TearDownTestSuite() {
        delete shards_;
        delete campaign_;
        shards_ = nullptr;
        campaign_ = nullptr;
    }

    /// A fresh copy of the 3 intact shard reports for each test to mangle.
    static std::vector<ParsedReport> shards() { return *shards_; }

    static void expect_reject(std::vector<ParsedReport> shards,
                              const std::string& want_substring) {
        std::string err;
        EXPECT_FALSE(merge_reports(std::move(shards), &err).has_value());
        EXPECT_NE(err.find(want_substring), std::string::npos)
            << "error was: " << err;
    }

    static Campaign* campaign_;
    static std::vector<ParsedReport>* shards_;
};

Campaign* ShardMergeReject::campaign_ = nullptr;
std::vector<ParsedReport>* ShardMergeReject::shards_ = nullptr;

TEST_F(ShardMergeReject, DuplicateShard) {
    auto s = shards();
    s[1] = s[0];
    expect_reject(std::move(s), "duplicate shard");
}

TEST_F(ShardMergeReject, MissingShard) {
    auto s = shards();
    s.pop_back();
    expect_reject(std::move(s), "missing or extra shards");
}

TEST_F(ShardMergeReject, MetadataMismatch) {
    auto s = shards();
    s[2].meta.seed ^= 1;
    expect_reject(std::move(s), "metadata mismatch");
}

TEST_F(ShardMergeReject, ForeignRow) {
    auto s = shards();
    s[0].rows.push_back(s[1].rows.front()); // index % 3 == 1, not 0
    expect_reject(std::move(s), "does not belong to shard");
}

TEST_F(ShardMergeReject, DuplicateCandidate) {
    auto s = shards();
    s[0].rows.push_back(s[0].rows.front());
    expect_reject(std::move(s), "duplicate candidate");
}

TEST_F(ShardMergeReject, MissingCandidate) {
    auto s = shards();
    s[1].rows.pop_back();
    expect_reject(std::move(s), "missing candidate");
}

TEST_F(ShardMergeReject, OutOfRangeIndex) {
    auto s = shards();
    s[0].rows.back().index = 90; // 90 % 3 == 0: passes ownership, not range
    expect_reject(std::move(s), "out of range");
}

// --- checkpoint journal ------------------------------------------------------

TEST(Journal, RoundTripsRowsVerbatim) {
    const Campaign c;
    SweepOptions opts;
    opts.jobs = 2;
    const auto rows = c.driver.run(c.grid, opts);
    const SweepMeta meta = c.meta(opts);

    const std::string path = temp_path("roundtrip.jsonl");
    std::remove(path.c_str());
    JournalWriter w;
    std::string err;
    ASSERT_TRUE(w.open(path, meta, 4, &err)) << err;
    for (const SweepResult& r : rows) w.append(r);
    ASSERT_TRUE(w.close());

    const auto journal = load_journal(path, &err);
    ASSERT_TRUE(journal.has_value()) << err;
    EXPECT_TRUE(meta_compatible(journal->meta, meta));
    ASSERT_EQ(journal->rows.size(), rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        // Serialized-text identity — the property resume actually needs.
        std::string want, got;
        append_result_row(want, rows[i]);
        append_result_row(got, journal->rows[i]);
        EXPECT_EQ(got, want) << "row " << i;
    }
}

TEST(Journal, ToleratesTornFinalLineOnly) {
    const std::string path = temp_path("torn.jsonl");
    const Campaign c;
    SweepOptions opts;
    opts.jobs = 1;
    const auto rows = c.driver.run(c.grid, opts);
    JournalWriter w;
    std::string err;
    std::remove(path.c_str());
    ASSERT_TRUE(w.open(path, c.meta(opts), 1, &err)) << err;
    for (const SweepResult& r : rows) w.append(r);
    ASSERT_TRUE(w.close());

    // Chop the final line in half: a mid-write kill.
    const std::string text = read_file(path);
    const std::size_t last_nl = text.rfind('\n', text.size() - 2);
    ASSERT_NE(last_nl, std::string::npos);
    const std::string torn =
        text.substr(0, last_nl + 1 + (text.size() - last_nl) / 2);
    write_file(path, torn);

    const auto journal = load_journal(path, &err);
    ASSERT_TRUE(journal.has_value()) << err;
    EXPECT_EQ(journal->rows.size(), rows.size() - 1);

    // The same damage on an INTERIOR line is corruption, not a torn tail.
    std::string tail;
    append_result_row(tail, rows.back());
    write_file(path, torn + "\n" + tail + "\n");
    EXPECT_FALSE(load_journal(path, &err).has_value());
    EXPECT_NE(err.find("corrupt journal line"), std::string::npos) << err;
}

TEST(Journal, RejectsNonJournalHeader) {
    const std::string path = temp_path("noheader.jsonl");
    write_file(path, "{\"name\": \"x\"}\n");
    std::string err;
    EXPECT_FALSE(load_journal(path, &err).has_value());
}

TEST(Journal, SealsTornTailOnReopen) {
    const Campaign c;
    SweepOptions opts;
    opts.jobs = 1;
    const auto rows = c.driver.run(c.grid, opts);
    const SweepMeta meta = c.meta(opts);
    const std::string path = temp_path("seal.jsonl");
    std::remove(path.c_str());
    JournalWriter w;
    std::string err;
    ASSERT_TRUE(w.open(path, meta, 1, &err)) << err;
    for (std::size_t i = 0; i + 1 < rows.size(); ++i) w.append(rows[i]);
    ASSERT_TRUE(w.close());

    // Leave a partial row dangling with no trailing newline, then reopen
    // and append: the writer must truncate the torn tail first, or the new
    // row fuses onto the partial bytes and poisons the NEXT resume.
    std::string partial;
    append_result_row(partial, rows.back());
    write_file(path, read_file(path) + partial.substr(0, partial.size() / 2));

    JournalWriter w2;
    ASSERT_TRUE(w2.open(path, meta, 1, &err)) << err;
    w2.append(rows.back());
    ASSERT_TRUE(w2.close());

    const auto journal = load_journal(path, &err);
    ASSERT_TRUE(journal.has_value()) << err;
    ASSERT_EQ(journal->rows.size(), rows.size());
    EXPECT_EQ(journal->rows.back().index, rows.back().index);
}

// --- resume ------------------------------------------------------------------

TEST(Resume, ReEvaluatesOnlyUnjournaledCandidates) {
    const Campaign c;
    SweepOptions opts;
    opts.jobs = 2;
    const std::string want = c.canonical_text(opts);

    // First attempt: journal everything, then keep only the first half —
    // as if the campaign was killed partway through.
    const std::string path = temp_path("resume.jsonl");
    std::remove(path.c_str());
    {
        JournalWriter w;
        std::string err;
        ASSERT_TRUE(w.open(path, c.meta(opts), 1, &err)) << err;
        SweepOptions jopts = opts;
        jopts.journal = &w;
        (void)c.driver.run(c.grid, jopts);
        ASSERT_TRUE(w.close());
    }
    std::string err;
    auto journal = load_journal(path, &err);
    ASSERT_TRUE(journal.has_value()) << err;
    ASSERT_EQ(journal->rows.size(), c.grid.size());
    journal->rows.resize(c.grid.size() / 2);

    // Second attempt resumes: the fresh journal must gain exactly the rows
    // the first attempt lost, and the final report must match byte for
    // byte.
    const std::string path2 = temp_path("resume2.jsonl");
    std::remove(path2.c_str());
    JournalWriter w2;
    ASSERT_TRUE(w2.open(path2, c.meta(opts), 1, &err)) << err;
    SweepOptions ropts = opts;
    ropts.journal = &w2;
    ropts.resume = &journal->rows;
    SweepMeta meta = c.meta(opts);
    std::vector<SweepResult> rows = c.driver.run(c.grid, ropts);
    ASSERT_TRUE(w2.close());
    canonicalize(meta, rows);
    EXPECT_EQ(json_report(rows, meta), want);

    const auto second = load_journal(path2, &err);
    ASSERT_TRUE(second.has_value()) << err;
    EXPECT_EQ(second->rows.size(), c.grid.size() - journal->rows.size());
}

TEST(Resume, FunnelResumeMatchesUninterruptedRun) {
    const Campaign c;
    SweepOptions opts;
    opts.jobs = 2;
    opts.tier = Tier::Funnel;
    opts.funnel_top = 4;
    const std::string want = c.canonical_text(opts);

    // Journal a full funnel run (only cycle-tier survivor rows land in the
    // journal), drop the back half, resume.
    const std::string path = temp_path("funnel_resume.jsonl");
    std::remove(path.c_str());
    {
        JournalWriter w;
        std::string err;
        ASSERT_TRUE(w.open(path, c.meta(opts), 1, &err)) << err;
        SweepOptions jopts = opts;
        jopts.journal = &w;
        (void)c.driver.run(c.grid, jopts);
        ASSERT_TRUE(w.close());
    }
    std::string err;
    auto journal = load_journal(path, &err);
    ASSERT_TRUE(journal.has_value()) << err;
    EXPECT_LT(journal->rows.size(), c.grid.size()) // survivors only
        << "funnel journaled the whole grid";
    ASSERT_GE(journal->rows.size(), 2u);
    journal->rows.resize(journal->rows.size() / 2);

    SweepOptions ropts = opts;
    ropts.resume = &journal->rows;
    SweepMeta meta = c.meta(opts);
    std::vector<SweepResult> rows = c.driver.run(c.grid, ropts);
    canonicalize(meta, rows);
    EXPECT_EQ(json_report(rows, meta), want);
}

// --- row parsing -------------------------------------------------------------

/// A row carrying every block, each value exact at its printed precision
/// and per_core empty, so text -> row -> text and row -> text -> row both
/// round-trip exactly.
SweepResult every_block_row() {
    SweepResult r;
    r.name = "q \"x\" \\ y";
    r.fabric = "xpipes 5x4 fifo2";
    r.index = 7;
    r.completed = true;
    r.checks_ok = true;
    r.failure = FailureKind::None;
    r.cycles = 123456789;
    r.busy_cycles = 345;
    r.contention_cycles = 12;
    r.busy_pct = 27.5;
    r.total_instructions = 999;
    r.wall_seconds = 1.25;
    r.has_cpu_truth = true;
    r.cpu_completed = true;
    r.cpu_cycles = 123456790;
    r.cpu_wall_seconds = 9.5;
    r.err_pct = 0.01;
    r.has_latency = true;
    r.offered_rate = 0.04;
    r.accepted_rate = 0.0399;
    r.packets = 640;
    r.lat_count = 640;
    r.lat_mean = 31.25;
    r.lat_p50 = 29;
    r.lat_p99 = 88;
    r.lat_max = 120;
    r.analytic = true;
    r.predicted_saturation = 0.21;
    r.has_open = true;
    r.pending_limit = 64;
    r.pending_peak = 63;
    r.net_lat_count = 600;
    r.net_lat_mean = 18.5;
    r.net_lat_p50 = 17;
    r.net_lat_p99 = 41;
    r.net_lat_max = 52;
    r.sq_lat_count = 601;
    r.sq_lat_mean = 12.75;
    r.sq_lat_p50 = 11;
    r.sq_lat_p99 = 37;
    r.sq_lat_max = 49;
    r.has_faults = true;
    r.fault_injected = 700;
    r.fault_delivered = 690;
    r.fault_err_delivered = 4;
    r.fault_recovered = 21;
    r.fault_lost = 6;
    r.fault_retries = 33;
    r.fault_corrupted = 15;
    r.fault_dropped = 9;
    r.fault_stalls = 13;
    r.fault_csum_fails = 14;
    r.delivered_ratio = 0.5;
    r.retry_lat_count = 21;
    r.retry_lat_mean = 96.25;
    r.retry_lat_p99 = 180;
    return r;
}

TEST(RowParse, RoundTripsEveryFieldShape) {
    const SweepResult r = every_block_row();

    std::string line;
    append_result_row(line, r);
    SweepResult parsed;
    std::string err;
    ASSERT_TRUE(parse_result_row(line, &parsed, &err)) << err;
    std::string again;
    append_result_row(again, parsed);
    EXPECT_EQ(again, line);
    // Every value above is exact at its printed precision and per_core is
    // empty, so the parse must land each key in its own member: the text
    // comparison alone cannot see two swapped fields.
    EXPECT_TRUE(bit_identical(parsed, r));

    // A failed row round-trips its failure kind and error text.
    SweepResult bad;
    bad.name = "broken";
    bad.fabric = "xpipes 1x1 fifo4";
    bad.index = 3;
    bad.error = "mesh too small";
    bad.failure = FailureKind::SetupError;
    line.clear();
    append_result_row(line, bad);
    ASSERT_TRUE(parse_result_row(line, &parsed, &err)) << err;
    EXPECT_EQ(parsed.failure, FailureKind::SetupError);
    EXPECT_EQ(parsed.error, "mesh too small");
    again.clear();
    append_result_row(again, parsed);
    EXPECT_EQ(again, line);
}

TEST(RowParse, RejectsNonRowInput) {
    SweepResult out;
    std::string err;
    EXPECT_FALSE(parse_result_row("not json", &out, &err));
    EXPECT_FALSE(parse_result_row("[1, 2]", &out, &err));
    EXPECT_FALSE(parse_result_row("{\"name\": \"x\"}", &out, &err)); // fields
}

// --- hostile input -----------------------------------------------------------
//
// Reports and journals arrive from other machines and from killed
// processes. Whatever the bytes, the reader must end in a result or a
// diagnostic — never a crash (these run under ASan/UBSan in CI).

/// A two-row sharded funnel report: one failed row, one with every block.
std::string hostile_report() {
    SweepMeta meta;
    meta.app = "hostile";
    meta.n_cores = 16;
    meta.jobs = 2;
    meta.max_cycles = 5000;
    meta.tier = Tier::Funnel;
    meta.seed = 11;
    meta.n_candidates = 16;
    meta.funnel_top = 4;
    meta.shard = {1, 2};
    SweepResult bad;
    bad.name = "broken";
    bad.fabric = "xpipes 1x1 fifo4";
    bad.index = 1;
    bad.error = "mesh too small";
    bad.failure = FailureKind::SetupError;
    return json_report({bad, every_block_row()}, meta);
}

std::string every_block_line() {
    std::string line;
    append_result_row(line, every_block_row());
    return line;
}

/// `line` with the value of `"key": ` replaced by `value` (the corpus
/// values contain no ',' or '}').
std::string with_value(const std::string& line, const std::string& key,
                       const std::string& value) {
    const std::string tag = "\"" + key + "\": ";
    const std::size_t at = line.find(tag);
    EXPECT_NE(at, std::string::npos) << key;
    const std::size_t from = at + tag.size();
    const std::size_t to = line.find_first_of(",}", from);
    return line.substr(0, from) + value + line.substr(to);
}

/// `line` with the `"key": value` pair removed.
std::string without_key(const std::string& line, const std::string& key) {
    const std::size_t at = line.find(", \"" + key + "\": ");
    EXPECT_NE(at, std::string::npos) << key;
    return line.substr(0, at) + line.substr(line.find_first_of(",}", at + 2));
}

void expect_row_rejected(const std::string& line, const std::string& why) {
    SweepResult out;
    std::string err;
    EXPECT_FALSE(parse_result_row(line, &out, &err)) << why << ": " << line;
    EXPECT_FALSE(err.empty()) << why;
}

TEST(HostileInput, EveryTruncationIsDiagnosed) {
    const std::string report = hostile_report();
    for (std::size_t n = 0; n < report.size(); ++n) {
        std::string err;
        const auto parsed = parse_report_text(report.substr(0, n), &err);
        if (report.find_first_not_of(" \n", n) == std::string::npos) {
            EXPECT_TRUE(parsed.has_value()) << n << ": " << err;
            continue; // only trailing whitespace was cut
        }
        EXPECT_FALSE(parsed.has_value()) << "prefix " << n;
        EXPECT_FALSE(err.empty()) << "prefix " << n;
    }
    const std::string line = every_block_line();
    for (std::size_t n = 0; n < line.size(); ++n)
        expect_row_rejected(line.substr(0, n), "prefix " + std::to_string(n));
}

TEST(HostileInput, JournalTruncationKeepsEveryCompleteRow) {
    const Campaign c;
    SweepOptions opts;
    opts.jobs = 1;
    opts.tier = Tier::Analytic;
    std::vector<SweepResult> rows = c.driver.run(c.grid, opts);
    rows.resize(3);
    std::string text = "{\"sweep_journal\": ";
    append_sweep_meta(text, c.meta(opts));
    text += "}\n";
    const std::size_t header_end = text.size();
    std::vector<std::size_t> row_end;
    for (const SweepResult& r : rows) {
        append_result_row(text, r);
        text += '\n';
        row_end.push_back(text.size());
    }
    const std::string path = temp_path("hostile_cut.jsonl");
    for (std::size_t n = 0; n <= text.size(); ++n) {
        write_file(path, text.substr(0, n));
        std::string err;
        const auto journal = load_journal(path, &err);
        if (n + 1 < header_end) {
            EXPECT_FALSE(journal.has_value()) << "cut " << n;
            EXPECT_FALSE(err.empty()) << "cut " << n;
            continue;
        }
        // A cut past the header is a torn tail: every complete row stays.
        ASSERT_TRUE(journal.has_value()) << "cut " << n << ": " << err;
        std::size_t complete = 0;
        while (complete < row_end.size() && row_end[complete] <= n + 1)
            ++complete;
        ASSERT_EQ(journal->rows.size(), complete) << "cut " << n;
        for (std::size_t i = 0; i < complete; ++i) {
            std::string got;
            append_result_row(got, journal->rows[i]);
            EXPECT_EQ(got, text.substr(i ? row_end[i - 1] : header_end,
                                       got.size()))
                << "cut " << n;
        }
    }
}

TEST(HostileInput, ByteFlipsAreDiagnosedOrReadConsistently) {
    const std::string report = hostile_report();
    u64 state = 0x5EED;
    for (int trial = 0; trial < 600; ++trial) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        std::string text = report;
        const std::size_t at = (state >> 33) % text.size();
        static constexpr char kBytes[] = {'{', '}', '[', ']', '"', '\\',
                                          ',', ':', '-', '9', 'e', '\0'};
        const int bit = static_cast<int>((state >> 8) % 8);
        text[at] = (trial & 1) != 0 ? kBytes[(state >> 20) % sizeof kBytes]
                                    : static_cast<char>(text[at] ^ (1 << bit));
        std::string err;
        const auto parsed = parse_report_text(text, &err);
        if (!parsed) {
            EXPECT_FALSE(err.empty()) << "flip at " << at;
            continue;
        }
        // Accepted bytes must mean one thing: writing the rows back out
        // and reading them again gives the same rows.
        const auto again =
            parse_report_text(json_report(parsed->rows, parsed->meta), &err);
        ASSERT_TRUE(again.has_value()) << "flip at " << at << ": " << err;
        ASSERT_EQ(again->rows.size(), parsed->rows.size());
        for (std::size_t i = 0; i < parsed->rows.size(); ++i)
            EXPECT_TRUE(bit_identical(again->rows[i], parsed->rows[i]))
                << "flip at " << at;
    }
}

TEST(HostileInput, DeepNestingUnderAnUnknownKeyIsDiagnosed) {
    const std::string line = every_block_line();
    const auto nested = [&](int depth) {
        return line.substr(0, line.size() - 1) + ", \"extra\": " +
               std::string(static_cast<std::size_t>(depth), '[') +
               std::string(static_cast<std::size_t>(depth), ']') + "}";
    };
    SweepResult out;
    std::string err;
    ASSERT_TRUE(parse_result_row(nested(10), &out, &err)) << err;
    EXPECT_TRUE(bit_identical(out, every_block_row()));
    expect_row_rejected(nested(100), "100-deep unknown value");
    std::string report = hostile_report();
    report.insert(report.find('{') + 1,
                  "\"extra\": " + std::string(100, '{') + "}}");
    EXPECT_FALSE(parse_report_text(report, &err).has_value());
}

TEST(HostileInput, RepeatedKeyIsAnError) {
    const std::string line = every_block_line();
    const std::string open = line.substr(0, line.size() - 1);
    expect_row_rejected(open + ", \"cycles\": 5}", "repeated base key");
    expect_row_rejected(open + ", \"fault_lost\": 6}", "repeated block key");
    expect_row_rejected(open + ", \"ok\": true}", "repeated ok");
    std::string err;
    std::string report = hostile_report();
    report.insert(report.find("\"cores\""), "\"seed\": 11, ");
    EXPECT_FALSE(parse_report_text(report, &err).has_value());
    EXPECT_FALSE(err.empty());
    report = hostile_report();
    report.insert(report.find('{') + 1, "\"candidates\": [], ");
    EXPECT_FALSE(parse_report_text(report, &err).has_value());
}

TEST(HostileInput, WrongTypedValueOfEachKindIsDiagnosed) {
    const std::string line = every_block_line();
    struct Case {
        const char* key;
        const char* value;
    };
    for (const Case& c : std::vector<Case>{
             {"name", "5"},            {"name", "null"},
             {"index", "\"7\""},       {"index", "-1"},
             {"index", "4294967296"},  {"index", "1.5"},
             {"cycles", "-1"},         {"cycles", "true"},
             {"cycles", "18446744073709551616"},
             {"cycles", "1e3"},        {"completed", "1"},
             {"completed", "\"true\""}, {"busy_pct", "\"x\""},
             {"busy_pct", "1e999"},    {"wall_seconds", "null"},
             {"lat_mean", "[]"},       {"failure", "\"bogus\""},
             {"failure", "3"},         {"ok", "\"yes\""},
             {"ok", "1"},              {"analytic", "0"},
             {"fault_lost", "{}"}})
        expect_row_rejected(with_value(line, c.key, c.value),
                            std::string{c.key} + " = " + c.value);

    // Missing keys: any base key, or any key of a block whose first key is
    // present.
    for (const char* key : {"fabric", "wall_seconds", "cpu_cycles", "lat_max",
                            "sq_lat_mean", "predicted_saturation",
                            "retry_lat_p99"})
        expect_row_rejected(without_key(line, key),
                            std::string{"missing "} + key);
    expect_row_rejected(line + "x", "trailing characters");

    // ok is derived from error, never read back.
    SweepResult out;
    std::string err;
    ASSERT_TRUE(parse_result_row(with_value(line, "ok", "false"), &out, &err))
        << err;
    EXPECT_TRUE(out.ok());
}

} // namespace
} // namespace tgsim::sweep
