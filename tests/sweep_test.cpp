// Tests for the parallel design-space sweep driver (src/sweep/): worker-count
// invariance (the share-nothing contract of docs/sweep.md), per-candidate
// error propagation, deterministic RNG derivation, the pre-assembled binary
// injection path, and the JSON report golden.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "sweep/shard.hpp"
#include "sweep/sweep.hpp"
#include "test_util.hpp"
#include "tg/translator.hpp"

namespace tgsim::sweep {
namespace {

/// Traces a small workload once and translates it — the fixed payload every
/// sweep in this suite replays.
struct Payload {
    apps::Workload w;
    std::vector<tg::TgProgram> programs;
};

Payload make_payload(u32 cores = 2, u32 size = 8) {
    Payload out;
    out.w = apps::make_mp_matrix({cores, size});
    platform::PlatformConfig cfg;
    cfg.n_cores = cores;
    cfg.collect_traces = true;
    platform::Platform ref{cfg};
    ref.load_workload(out.w);
    const auto res = ref.run(test::kMaxCycles);
    EXPECT_TRUE(res.completed);
    tg::TranslateOptions topt;
    topt.polls = out.w.polls;
    for (const auto& t : ref.traces())
        out.programs.push_back(tg::translate(t, topt).program);
    return out;
}

std::vector<Candidate> small_grid() {
    GridSpec grid;
    grid.amba_fixed_priority = false; // livelocks mp_matrix; tested separately
    grid.meshes.push_back(ic::XpipesConfig{0, 0, 4});
    grid.meshes.push_back(ic::XpipesConfig{4, 1, 2});
    return make_grid(grid);
}

TEST(SweepDriver, ResultsKeepCandidateOrderAndPass) {
    const Payload p = make_payload();
    SweepDriver driver{p.programs, p.w};
    const std::vector<Candidate> grid = small_grid();
    const auto results = driver.run(grid, {});
    ASSERT_EQ(results.size(), grid.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].index, i);
        EXPECT_EQ(results[i].name, grid[i].name);
        EXPECT_TRUE(results[i].ok()) << results[i].error;
        EXPECT_TRUE(results[i].completed);
        EXPECT_TRUE(results[i].checks_ok);
        EXPECT_GT(results[i].cycles, 0u);
        EXPECT_EQ(results[i].per_core.size(), driver.n_cores());
    }
}

TEST(SweepDriver, ThreadCountInvariance) {
    const Payload p = make_payload();
    SweepDriver driver{p.programs, p.w};
    const std::vector<Candidate> grid = small_grid();

    SweepOptions opts;
    opts.jobs = 1;
    const auto base = driver.run(grid, opts);
    for (const u32 jobs : {2u, 8u}) {
        opts.jobs = jobs;
        const auto got = driver.run(grid, opts);
        ASSERT_EQ(got.size(), base.size());
        for (std::size_t i = 0; i < base.size(); ++i)
            EXPECT_TRUE(bit_identical(got[i], base[i]))
                << grid[i].name << " diverged at jobs=" << jobs;
    }
}

TEST(SweepDriver, CpuTruthColumnMatchesDirectRun) {
    const Payload p = make_payload();
    SweepDriver driver{p.programs, p.w};
    std::vector<Candidate> grid = small_grid();
    SweepOptions opts;
    opts.jobs = 2;
    opts.with_cpu_truth = true;
    const auto results = driver.run(grid, opts);
    for (const auto& r : results) {
        ASSERT_TRUE(r.has_cpu_truth);
        EXPECT_TRUE(r.cpu_completed);
        EXPECT_GT(r.cpu_cycles, 0u);
    }
    // The AMBA round-robin candidate is the reference shape: the CPU truth
    // must equal the traced reference run exactly.
    platform::PlatformConfig ref_cfg;
    ref_cfg.n_cores = driver.n_cores();
    platform::Platform ref{ref_cfg};
    ref.load_workload(p.w);
    EXPECT_EQ(results[0].cpu_cycles, ref.run(test::kMaxCycles).cycles);
}

TEST(SweepDriver, ErrorCandidateDoesNotAbortSweep) {
    const Payload p = make_payload();
    SweepDriver driver{p.programs, p.w};

    std::vector<Candidate> grid = small_grid();
    // An impossible fabric: a 1x1 mesh cannot host n_cores + 2 nodes, so
    // Platform construction throws inside the worker. The sweep must record
    // the failure on that candidate and still evaluate every other one.
    Candidate broken;
    broken.name = "broken mesh";
    broken.cfg.ic = platform::IcKind::Xpipes;
    broken.cfg.xpipes = ic::XpipesConfig{1, 1, 4};
    grid.insert(grid.begin() + 1, broken);

    SweepOptions opts;
    opts.jobs = 2;
    const auto results = driver.run(grid, opts);
    ASSERT_EQ(results.size(), grid.size());
    EXPECT_FALSE(results[1].ok());
    EXPECT_FALSE(results[1].error.empty());
    EXPECT_EQ(results[1].failure, FailureKind::SetupError);
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (i == 1) continue;
        EXPECT_TRUE(results[i].ok()) << results[i].error;
    }

    // Failures are deterministic too: same error, any worker count.
    opts.jobs = 1;
    const auto serial = driver.run(grid, opts);
    for (std::size_t i = 0; i < results.size(); ++i)
        EXPECT_TRUE(bit_identical(serial[i], results[i])) << grid[i].name;
}

TEST(SweepDriver, TimeoutIsReportedPerCandidate) {
    const Payload p = make_payload();
    SweepDriver driver{p.programs, p.w};
    SweepOptions opts;
    opts.max_cycles = 64; // far below any candidate's completion time
    const auto results = driver.run(small_grid(), opts);
    for (const auto& r : results) {
        EXPECT_FALSE(r.ok());
        EXPECT_FALSE(r.completed);
        EXPECT_EQ(r.failure, FailureKind::Timeout);
        EXPECT_NE(r.error.find("timeout"), std::string::npos) << r.error;
    }
}

TEST(SweepDriver, StochasticPayloadIsJobsInvariant) {
    // Stochastic candidates draw every gap and address from their RNG; the
    // per-candidate seeds are derived from the candidate INDEX, so results
    // cannot depend on which worker ran them, in which order.
    const u32 cores = 2;
    apps::Workload env;
    env.cores.resize(cores);
    std::vector<tg::StochasticConfig> configs(cores);
    for (auto& c : configs) {
        c.total_transactions = 300;
        c.targets = {{platform::kSharedBase, 0x1000, 1}};
    }
    SweepDriver driver{configs, env};
    const std::vector<Candidate> grid = small_grid();

    SweepOptions opts;
    opts.jobs = 1;
    const auto base = driver.run(grid, opts);
    opts.jobs = 4;
    const auto par = driver.run(grid, opts);
    ASSERT_EQ(base.size(), par.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
        EXPECT_TRUE(base[i].ok()) << base[i].error;
        EXPECT_TRUE(bit_identical(par[i], base[i])) << grid[i].name;
    }
    // Different candidates got different traffic (distinct derived seeds):
    // identical per-core halt cycles across fabrics would be suspicious.
    EXPECT_NE(base[0].per_core, base[1].per_core);
}

TEST(SweepDriver, BinaryPayloadMatchesProgramPayload) {
    const Payload p = make_payload();
    SweepDriver from_programs{p.programs, p.w};
    SweepDriver from_binaries{tg::assemble_all(p.programs), p.w};
    const std::vector<Candidate> grid = small_grid();
    const auto a = from_programs.run(grid, {});
    const auto b = from_binaries.run(grid, {});
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_TRUE(bit_identical(a[i], b[i])) << grid[i].name;
}

TEST(Seeds, DeriveSeedIsStableAndCollisionFree) {
    // Pinned values: changing derive_seed silently changes every stochastic
    // sweep, so a change here must be deliberate.
    EXPECT_EQ(derive_seed(0x5EEDBA5Eu, 0, 0), derive_seed(0x5EEDBA5Eu, 0, 0));
    EXPECT_NE(derive_seed(1, 0, 0), derive_seed(2, 0, 0));
    std::set<u64> seen;
    for (u32 cand = 0; cand < 64; ++cand)
        for (u32 core = 0; core < 16; ++core)
            seen.insert(derive_seed(0x5EEDBA5Eu, cand, core));
    EXPECT_EQ(seen.size(), 64u * 16u);
}

TEST(Grid, MakeGridCoversRequestedAxes) {
    GridSpec spec;
    spec.meshes.push_back(ic::XpipesConfig{2, 2, 4});
    spec.meshes.push_back(ic::XpipesConfig{0, 0, 8});
    const auto grid = make_grid(spec);
    ASSERT_EQ(grid.size(), 5u); // amba rr + amba fp + crossbar + 2 meshes
    EXPECT_EQ(grid[0].name, "amba rr");
    EXPECT_EQ(grid[1].name, "amba fixed-prio");
    EXPECT_EQ(grid[2].name, "crossbar");
    EXPECT_EQ(grid[3].name, "xpipes 2x2 fifo4");
    EXPECT_EQ(grid[4].name, "xpipes auto fifo8");
}

namespace {

/// A latency-instrumented rate point, as a rate sweep would produce it.
SweepResult rate_point(double offered, double accepted, double lat_mean) {
    SweepResult r;
    r.completed = true;
    r.checks_ok = true;
    r.has_latency = true;
    r.offered_rate = offered;
    r.accepted_rate = accepted;
    r.lat_count = 100;
    r.lat_mean = lat_mean;
    return r;
}

} // namespace

TEST(Saturation, EmptySweepReportsNothing) {
    const SaturationPoint sat = find_saturation({});
    EXPECT_FALSE(sat.found);
    EXPECT_EQ(sat.index, 0u);
    EXPECT_EQ(sat.offered, 0.0);
    EXPECT_EQ(sat.throughput, 0.0);
}

TEST(Saturation, SweepWithoutLatencyRowsReportsNothing) {
    // Failed / non-instrumented rows must be skipped, not treated as
    // zero-latency points (which would poison the zero-load baseline).
    SweepResult failed;
    failed.error = "setup";
    SweepResult no_lat;
    no_lat.completed = true;
    const SaturationPoint sat = find_saturation({failed, no_lat});
    EXPECT_FALSE(sat.found);
    EXPECT_EQ(sat.throughput, 0.0);
}

TEST(Saturation, SinglePointNeverSaturates) {
    // One point has no curve to leave: it IS the zero-load baseline, so the
    // result must describe it as the best observed, not a saturation knee.
    const SaturationPoint sat =
        find_saturation({rate_point(0.01, 0.0099, 12.0)});
    EXPECT_FALSE(sat.found);
    EXPECT_EQ(sat.index, 0u);
    EXPECT_DOUBLE_EQ(sat.offered, 0.01);
    EXPECT_DOUBLE_EQ(sat.throughput, 0.0099);
}

TEST(Saturation, NonMonotoneAcceptedRateIsHandled) {
    // Accepted throughput that dips then recovers (noisy measurements are
    // legal input) must not crash or report a bogus early knee; the
    // reported throughput is the best accepted rate seen.
    const std::vector<SweepResult> rows = {
        rate_point(0.01, 0.0099, 10.0),
        rate_point(0.012, 0.0090, 10.5), // dip, but not a >=25% load step
        rate_point(0.02, 0.0198, 11.0),
        rate_point(0.04, 0.0390, 12.0),
    };
    const SaturationPoint sat = find_saturation(rows);
    EXPECT_FALSE(sat.found);
    EXPECT_DOUBLE_EQ(sat.throughput, 0.0390);
    EXPECT_EQ(sat.index, 3u);
}

TEST(Saturation, PlateauOnNonMonotoneInputFindsKnee) {
    const std::vector<SweepResult> rows = {
        rate_point(0.01, 0.0099, 10.0),
        rate_point(0.02, 0.0198, 11.0),
        rate_point(0.08, 0.0200, 12.0), // 4x the load, no more throughput
    };
    const SaturationPoint sat = find_saturation(rows);
    EXPECT_TRUE(sat.found);
    EXPECT_EQ(sat.index, 2u);
    EXPECT_DOUBLE_EQ(sat.offered, 0.08);
    EXPECT_DOUBLE_EQ(sat.throughput, 0.0200);
}

TEST(JsonReport, GoldenFormat) {
    SweepResult ok;
    ok.name = "amba rr";
    ok.fabric = "amba rr";
    ok.index = 0;
    ok.completed = true;
    ok.checks_ok = true;
    ok.cycles = 15036;
    ok.busy_cycles = 8151;
    ok.contention_cycles = 7067;
    ok.busy_pct = 54.25;
    ok.total_instructions = 7907;
    ok.wall_seconds = 0.25;
    ok.has_cpu_truth = true;
    ok.cpu_completed = true;
    ok.cpu_cycles = 15000;
    ok.cpu_wall_seconds = 1.5;
    ok.err_pct = 0.24;

    SweepResult bad;
    bad.name = "broken \"mesh\"";
    bad.fabric = "xpipes 1x1 fifo4";
    bad.index = 1;
    bad.error = "XpipesNetwork: slave node out of range";
    bad.failure = FailureKind::SetupError;

    SweepMeta meta;
    meta.app = "mp_matrix";
    meta.n_cores = 2;
    meta.jobs = 4;
    meta.max_cycles = 1000;
    meta.seed = 42;
    meta.n_candidates = 2;

    const std::string expected =
        "{\n"
        "  \"sweep\": {\"app\": \"mp_matrix\", \"cores\": 2, \"jobs\": 4, "
        "\"max_cycles\": 1000, \"tier\": \"cycle\", \"seed\": 42, "
        "\"n_candidates\": 2},\n"
        "  \"candidates\": [\n"
        "    {\"name\": \"amba rr\", \"fabric\": \"amba rr\", \"index\": 0, "
        "\"ok\": true, \"error\": \"\", \"failure\": \"none\", "
        "\"completed\": true, \"checks_ok\": "
        "true, \"cycles\": 15036, \"busy_cycles\": 8151, "
        "\"contention_cycles\": 7067, \"busy_pct\": 54.2500, "
        "\"total_instructions\": 7907, \"wall_seconds\": 0.250000, "
        "\"cpu_completed\": true, \"cpu_cycles\": 15000, "
        "\"cpu_wall_seconds\": 1.500000, \"err_pct\": 0.2400},\n"
        "    {\"name\": \"broken \\\"mesh\\\"\", \"fabric\": \"xpipes 1x1 "
        "fifo4\", \"index\": 1, \"ok\": false, \"error\": \"XpipesNetwork: "
        "slave node out of range\", \"failure\": \"setup_error\", "
        "\"completed\": false, \"checks_ok\": "
        "false, \"cycles\": 0, \"busy_cycles\": 0, \"contention_cycles\": 0, "
        "\"busy_pct\": 0.0000, \"total_instructions\": 0, \"wall_seconds\": "
        "0.000000}\n"
        "  ]\n"
        "}\n";
    EXPECT_EQ(json_report({ok, bad}, meta), expected);

    // Sharded funnel header: funnel_top and shard ride along.
    meta.tier = Tier::Funnel;
    meta.funnel_top = 8;
    meta.shard = {1, 3};
    std::string hdr;
    append_sweep_meta(hdr, meta);
    EXPECT_EQ(hdr,
              "{\"app\": \"mp_matrix\", \"cores\": 2, \"jobs\": 4, "
              "\"max_cycles\": 1000, \"tier\": \"funnel\", \"seed\": 42, "
              "\"n_candidates\": 2, \"funnel_top\": 8, "
              "\"shard\": {\"index\": 1, \"count\": 3}}");

    // One row carrying the latency, open, analytic and fault blocks, each
    // field with a distinct value: a reorder or a swapped key inside any
    // block changes this text.
    SweepResult all;
    all.name = "uniform_random rate=0.0625";
    all.fabric = "xpipes 4x4 fifo8 fault c0.01 d0 s0 seed7";
    all.index = 2;
    all.completed = true;
    all.checks_ok = true;
    all.cycles = 20001;
    all.busy_cycles = 20002;
    all.contention_cycles = 20003;
    all.busy_pct = 12.5;
    all.total_instructions = 20004;
    all.wall_seconds = 0.125;
    all.has_latency = true;
    all.offered_rate = 0.0625;
    all.accepted_rate = 0.05;
    all.packets = 301;
    all.error_packets = 302;
    all.lat_count = 303;
    all.lat_mean = 40.5;
    all.lat_p50 = 304;
    all.lat_p99 = 305;
    all.lat_max = 306;
    all.has_open = true;
    all.pending_limit = 401;
    all.pending_peak = 402;
    all.net_lat_count = 403;
    all.net_lat_mean = 20.25;
    all.net_lat_p50 = 404;
    all.net_lat_p99 = 405;
    all.net_lat_max = 406;
    all.sq_lat_count = 407;
    all.sq_lat_mean = 8.75;
    all.sq_lat_p50 = 408;
    all.sq_lat_p99 = 409;
    all.sq_lat_max = 410;
    all.analytic = true;
    all.predicted_saturation = 0.3125;
    all.has_faults = true;
    all.fault_injected = 501;
    all.fault_delivered = 502;
    all.fault_err_delivered = 503;
    all.fault_recovered = 504;
    all.fault_lost = 505;
    all.fault_retries = 506;
    all.fault_corrupted = 507;
    all.fault_dropped = 508;
    all.fault_stalls = 509;
    all.fault_csum_fails = 510;
    all.delivered_ratio = 0.984375;
    all.retry_lat_count = 511;
    all.retry_lat_mean = 17.5;
    all.retry_lat_p99 = 512;
    std::string row;
    append_result_row(row, all);
    EXPECT_EQ(row,
              "{\"name\": \"uniform_random rate=0.0625\", \"fabric\": "
              "\"xpipes 4x4 fifo8 fault c0.01 d0 s0 seed7\", \"index\": 2, "
              "\"ok\": true, \"error\": \"\", \"failure\": \"none\", "
              "\"completed\": true, \"checks_ok\": true, \"cycles\": 20001, "
              "\"busy_cycles\": 20002, \"contention_cycles\": 20003, "
              "\"busy_pct\": 12.5000, \"total_instructions\": 20004, "
              "\"wall_seconds\": 0.125000, \"offered_rate\": 0.062500, "
              "\"accepted_rate\": 0.050000, \"packets\": 301, "
              "\"error_packets\": 302, \"lat_count\": 303, "
              "\"lat_mean\": 40.5000, \"lat_p50\": 304, \"lat_p99\": 305, "
              "\"lat_max\": 306, \"pending_limit\": 401, "
              "\"pending_peak\": 402, \"net_lat_count\": 403, "
              "\"net_lat_mean\": 20.2500, \"net_lat_p50\": 404, "
              "\"net_lat_p99\": 405, \"net_lat_max\": 406, "
              "\"sq_lat_count\": 407, \"sq_lat_mean\": 8.7500, "
              "\"sq_lat_p50\": 408, \"sq_lat_p99\": 409, "
              "\"sq_lat_max\": 410, \"analytic\": true, "
              "\"predicted_saturation\": 0.312500, \"fault_injected\": 501, "
              "\"fault_delivered\": 502, \"fault_err_delivered\": 503, "
              "\"fault_recovered\": 504, \"fault_lost\": 505, "
              "\"fault_retries\": 506, \"fault_corrupted\": 507, "
              "\"fault_dropped\": 508, \"fault_stalls\": 509, "
              "\"fault_csum_fails\": 510, \"delivered_ratio\": 0.984375, "
              "\"retry_lat_count\": 511, \"retry_lat_mean\": 17.5000, "
              "\"retry_lat_p99\": 512}");
}

TEST(JsonReport, HugeValuesRoundTripUntruncated) {
    // A %.6f of 1e300 is over 300 characters: far past the formatter's
    // stack buffer. The row must still serialise whole and parse back.
    SweepResult r;
    r.name = "huge";
    r.fabric = "xpipes 4x4 fifo4";
    r.completed = true;
    r.checks_ok = true;
    r.cycles = 10;
    r.wall_seconds = 1e300;
    r.has_latency = true;
    r.offered_rate = 1e300;
    r.accepted_rate = 0.25;
    r.lat_mean = 1e300;
    SweepMeta meta;
    meta.app = "huge";
    meta.n_candidates = 1;
    const std::string text = json_report({r}, meta);
    std::string err;
    const auto parsed = parse_report_text(text, &err);
    ASSERT_TRUE(parsed.has_value()) << err;
    ASSERT_EQ(parsed->rows.size(), 1u);
    EXPECT_EQ(parsed->rows[0].wall_seconds, 1e300);
    EXPECT_EQ(parsed->rows[0].offered_rate, 1e300);
    EXPECT_EQ(parsed->rows[0].lat_mean, 1e300);
    EXPECT_EQ(parsed->rows[0].accepted_rate, 0.25);
    EXPECT_EQ(json_report(parsed->rows, parsed->meta), text);
}

} // namespace
} // namespace tgsim::sweep
