// Parallel design-space exploration driver — the paper's headline use case
// made to scale with cores.
//
// The methodology is: trace once, translate once, then evaluate many
// candidate fabrics with the cheap TG platform. Every candidate evaluation
// is an independent simulation, and since the SoA ChannelStore a Platform
// owns ALL of its wire state, candidates can run concurrently with no
// sharing at all. SweepDriver holds the shared read-only inputs (the
// pre-assembled TG binaries or stochastic base configs, plus the workload
// context), fans the candidate list out across a fixed-size worker pool,
// and aggregates per-candidate results in deterministic candidate order.
//
// Share-nothing contract (docs/sweep.md): a worker constructs, loads, runs
// and destroys its Platform entirely inside the worker thread; the only
// cross-thread data are the driver's immutable inputs and the worker's
// SweepResult slot (disjoint per candidate). Results are bit-identical for
// any worker count — see bit_identical().
#pragma once

#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "apps/workload.hpp"
#include "platform/platform.hpp"
#include "tg/patterns.hpp"
#include "tg/program.hpp"
#include "tg/stochastic.hpp"

namespace tgsim::sweep {

/// One point in the design space: a named platform configuration. Core
/// count and trace collection are owned by the driver; the candidate
/// varies the fabric and timing knobs.
struct Candidate {
    std::string name;
    platform::PlatformConfig cfg;
    /// Traffic-source construction surface (docs/traffic.md). The default
    /// (closed) takes exactly the legacy path, so existing grids and their
    /// reports are untouched; SourceMode::Open switches the candidate's
    /// stochastic masters to open-loop injection and adds the
    /// source-queueing / in-network latency decomposition to the result.
    /// source.rate is the candidate's offered-rate override for pattern
    /// payloads (transactions per core per cycle; 0 keeps the pattern's
    /// own rate; TG and plain stochastic payloads ignore it). This is what
    /// lets a load–latency sweep ride the driver: same fabric, one
    /// candidate per offered rate (make_rate_sweep()).
    tg::SourceConfig source;
};

/// Which evaluator run() applies to the candidate grid (docs/analytic.md).
/// Cycle is the flit-accurate simulator; Analytic is the closed-form
/// screening model (microseconds per candidate, pattern payloads only);
/// Funnel is the two-phase composition: analytically score the full grid,
/// then cycle-simulate only the top-K survivors.
enum class Tier : u8 {
    Cycle,
    Analytic,
    Funnel,
};

[[nodiscard]] std::string_view to_string(Tier t) noexcept;
/// Accepts "cycle", "analytic", "funnel"; nullopt for anything else.
[[nodiscard]] std::optional<Tier> parse_tier(const std::string& name);

/// One slice of a sharded sweep campaign (docs/sweep.md): candidate i
/// belongs to shard `i % count`. The mapping is deterministic and
/// index-preserving, so every candidate keeps the seed and result it would
/// have in an unsharded run, and shard reports can be merged back into the
/// canonical single-run report (see sweep/shard.hpp). {0, 1} = everything.
struct ShardSpec {
    u32 index = 0; ///< k in "k/N"
    u32 count = 1; ///< N in "k/N"; must be nonzero and > index
};

class JournalWriter; // sweep/shard.hpp: append-only checkpoint journal
struct SweepResult;  // declared below (SweepOptions::resume points at rows)

struct SweepOptions {
    /// Worker threads; 0 = std::thread::hardware_concurrency(). Clamped to
    /// the candidate count. jobs == 1 runs inline on the calling thread.
    u32 jobs = 0;
    Cycle max_cycles = 100'000'000;
    /// Also run a cycle-true CPU platform per candidate (ground truth
    /// column); requires the context workload to carry per-core code.
    bool with_cpu_truth = false;
    /// Verify the workload's memory checks after each TG replay (skipped
    /// for stochastic payloads, which do not compute the workload).
    bool run_checks = true;
    /// Base for per-candidate stochastic reseeding (see derive_seed()).
    u64 seed = 0x5EEDBA5Eu;
    /// Evaluator tier. Analytic and Funnel require a pattern payload
    /// (run() throws std::invalid_argument otherwise — the analytical
    /// model is defined over a pattern's destination matrix, not over
    /// arbitrary TG traces).
    Tier tier = Tier::Cycle;
    /// Funnel survivor budget: how many analytically top-ranked candidates
    /// the cycle tier re-evaluates (plus any candidate outside the
    /// analytic model's envelope, which always passes through to the cycle
    /// tier rather than being mis-screened). Must be nonzero for Funnel.
    u32 funnel_top = 16;
    /// Which slice of the candidate grid this run evaluates. run() returns
    /// only the shard's rows (ascending original index). The funnel tier
    /// still screens the FULL grid analytically in every shard, so all
    /// shards derive the same global top-K and merged output is identical
    /// to an unsharded funnel run (docs/sweep.md).
    ShardSpec shard;
    /// Checkpoint sink: every cycle-evaluated row is appended to this
    /// journal as it completes (thread-safe; see sweep/shard.hpp). Null =
    /// no checkpointing. Analytic rows are never journaled — recomputing
    /// them is cheaper than reading them back.
    JournalWriter* journal = nullptr;
    /// Rows journaled by a previous attempt of the same campaign: their
    /// indices are skipped and the journaled rows reused verbatim, so a
    /// resumed run re-evaluates only unjournaled candidates. Rows whose
    /// index falls outside this run's work set (wrong shard / not a funnel
    /// survivor) are ignored.
    const std::vector<SweepResult>* resume = nullptr;
    /// Periodic progress line on stderr (done/total, cand/s, ETA) driven
    /// from the worker pool's completion counter. Off by default so CI
    /// logs stay clean.
    bool progress = false;
};

/// How a candidate failed. The three kinds mean very different things to a
/// consumer: a Timeout is usually a *finding* (the fabric livelocks the
/// workload), a ChecksFailed is always a replay-correctness *bug*, and a
/// SetupError is a bad candidate config. Surfaces branch on this instead of
/// re-deriving the kind from cycles/error text.
enum class FailureKind : u8 {
    None,         ///< candidate evaluated cleanly
    SetupError,   ///< construction/load threw before or during the run
    Timeout,      ///< ran but did not complete within the cycle budget
    ChecksFailed, ///< completed but left workload memory wrong
};

/// "none", "setup_error", "timeout", "checks_failed" — the JSON encoding.
[[nodiscard]] std::string_view to_string(FailureKind k) noexcept;
[[nodiscard]] std::optional<FailureKind> parse_failure(const std::string& s);

/// Everything measured on one candidate. All fields except the wall times
/// are pure functions of (payload, candidate config, options) — never of
/// worker count or scheduling — which is what bit_identical() checks.
struct SweepResult {
    std::string name;
    std::string fabric; ///< describe_fabric() of the evaluated config
    u32 index = 0;      ///< candidate index (results keep submission order)
    /// Non-empty when the candidate failed (failure != None): construction
    /// threw, the run timed out / livelocked, or the post-run checks
    /// mismatched. A failed candidate never aborts the sweep; it is
    /// reported like any other.
    std::string error;
    FailureKind failure = FailureKind::None;
    bool completed = false;
    bool checks_ok = false;
    Cycle cycles = 0; ///< completion time (paper's metric), from halt cycles
    std::vector<Cycle> per_core;
    u64 total_instructions = 0;
    u64 busy_cycles = 0;
    u64 contention_cycles = 0;
    double busy_pct = 0.0;
    double wall_seconds = 0.0;

    /// CPU ground truth (valid when SweepOptions::with_cpu_truth).
    bool has_cpu_truth = false;
    bool cpu_completed = false;
    Cycle cpu_cycles = 0;
    double cpu_wall_seconds = 0.0;
    double err_pct = 0.0; ///< TG vs CPU completion-time error, percent

    /// Load–latency instrumentation (valid when has_latency: a ×pipes
    /// candidate with XpipesConfig::collect_latency). All deterministic —
    /// included in bit_identical(). Rates are transactions per core per
    /// cycle; offered is the configured injection rate, accepted is what
    /// the mesh actually took (request packets delivered / cycles / cores).
    bool has_latency = false;
    double offered_rate = 0.0;
    double accepted_rate = 0.0;
    u64 packets = 0;        ///< request packets delivered to slave NIs
    /// Responses that carried a slave Resp::Err: counted here, excluded
    /// from the latency fields and from accepted_rate (an error turnaround
    /// is not service), so error/fault runs do not skew p50/p99.
    u64 error_packets = 0;
    u64 lat_count = 0;      ///< latency samples (both planes)
    double lat_mean = 0.0;  ///< cycles, head creation -> tail delivery
    u64 lat_p50 = 0;
    u64 lat_p99 = 0;
    u64 lat_max = 0;
    // NI reject accounting (command asserted, master NI busy) is the
    // existing contention_cycles field — the mesh reports exactly its
    // master_wait_cycles sum there.

    /// Open-loop source decomposition (valid when has_open: the candidate
    /// ran with tg::SourceMode::Open — docs/traffic.md). The end-to-end
    /// lat_* fields above still cover creation -> delivery; these split
    /// each packet's life into the in-network part (pending-queue exit ->
    /// delivery) and the source-queueing part (creation -> pending-queue
    /// exit). All deterministic — included in bit_identical().
    bool has_open = false;
    u64 pending_limit = 0; ///< configured per-NI pending-queue bound
    u64 pending_peak = 0;  ///< pending-queue high-water mark across NIs
    u64 net_lat_count = 0;
    double net_lat_mean = 0.0;
    u64 net_lat_p50 = 0;
    u64 net_lat_p99 = 0;
    u64 net_lat_max = 0;
    u64 sq_lat_count = 0;
    double sq_lat_mean = 0.0;
    u64 sq_lat_p50 = 0;
    u64 sq_lat_p99 = 0;
    u64 sq_lat_max = 0;

    /// True when this row came from the analytic screening tier rather
    /// than the cycle simulator: cycles/latency fields are *predictions*
    /// (closed-form, deterministic — included in bit_identical()), per_core
    /// is empty, and predicted_saturation carries the max-loaded-link
    /// saturation bound in transactions per core per cycle.
    bool analytic = false;
    double predicted_saturation = 0.0;

    /// Fault-injection / recovery accounting (valid when has_faults: a
    /// ×pipes candidate with an enabled FaultConfig — docs/faults.md).
    /// Pure functions of (payload, config, seed): included in
    /// bit_identical(), so fault sweeps carry the same any-jobs/any-shard
    /// determinism contract as everything else.
    bool has_faults = false;
    u64 fault_injected = 0;      ///< transactions entering the fault domain
    u64 fault_delivered = 0;     ///< completed correctly (incl. retried)
    u64 fault_err_delivered = 0; ///< completed carrying a slave Resp::Err
    u64 fault_recovered = 0;     ///< delivered needing >= 1 retry
    u64 fault_lost = 0;          ///< abandoned after retry exhaustion
    u64 fault_retries = 0;       ///< replays issued
    u64 fault_corrupted = 0;     ///< payload flits XOR-faulted
    u64 fault_dropped = 0;       ///< packets dropped at router inputs
    u64 fault_stalls = 0;        ///< stall faults drawn
    u64 fault_csum_fails = 0;    ///< packets rejected by the tail checksum
    double delivered_ratio = 1.0; ///< (delivered + err_delivered) / injected
    u64 retry_lat_count = 0;     ///< recovered-transaction latency samples
    double retry_lat_mean = 0.0; ///< cycles, first injection -> delivery
    u64 retry_lat_p99 = 0;

    [[nodiscard]] bool ok() const noexcept { return error.empty(); }
};

/// The worker count run() will actually use: `jobs` (0 = hardware
/// concurrency, minimum 1) clamped to the candidate count.
[[nodiscard]] u32 resolve_jobs(u32 jobs, std::size_t n_candidates);

/// True when the simulated outcomes match exactly (everything except the
/// wall-clock fields, which legitimately vary run to run). The sweep
/// invariant: results at --jobs 1 and --jobs N are bit_identical.
[[nodiscard]] bool bit_identical(const SweepResult& a, const SweepResult& b);

/// Deterministic per-candidate, per-core RNG seed: a splitmix64-style mix
/// of (base, candidate_index, core). Derived from the candidate's position
/// in the sweep — never from global state or evaluation order — so
/// stochastic sweeps are bit-identical at any worker count.
[[nodiscard]] u64 derive_seed(u64 base, u32 candidate_index, u32 core);

/// Human-readable fabric description, e.g. "amba rr", "crossbar",
/// "xpipes 3x3 fifo4".
[[nodiscard]] std::string describe_fabric(const platform::PlatformConfig& cfg);

/// Candidate grid over the fabric axes the paper explores: AMBA under both
/// arbitration policies, the crossbar, and one candidate per ×pipes mesh
/// shape. `base` supplies every non-fabric knob (timings, caches, ...).
struct GridSpec {
    platform::PlatformConfig base;
    bool amba_round_robin = true;
    bool amba_fixed_priority = true;
    bool crossbar = true;
    std::vector<ic::XpipesConfig> meshes;
};

[[nodiscard]] std::vector<Candidate> make_grid(const GridSpec& spec);

/// One candidate per offered injection rate over a fixed fabric — the
/// load–latency curve grid. Latency collection is switched on in each
/// candidate's ×pipes config; rates should be passed in ascending order
/// (find_saturation() reads the results positionally). Each candidate
/// carries `source` with its rate set to the ladder point, so open-loop
/// ladders offer the rate regardless of completion.
[[nodiscard]] std::vector<Candidate> make_rate_sweep(
    const platform::PlatformConfig& base, const std::vector<double>& rates,
    const tg::SourceConfig& source = {});

/// Saturation analysis over rate-ordered results (docs/traffic.md).
///
/// Closed-loop rows: the saturation point is the first rate where mean
/// end-to-end latency exceeds 3x the zero-load latency (the curve's
/// lowest-rate point), or where >= 25% more offered load buys <= 8% more
/// accepted throughput (the plateau).
///
/// Open-loop rows (has_open): the plateau trigger is retired — an open
/// source cannot load-shed, so a flattening accepted rate IS network
/// saturation and is caught by the real signals instead: in-network mean
/// latency >= 3x its zero-load value (the hockey-stick knee), or a pending
/// queue that reached its configured bound (the source itself was
/// backpressured).
///
/// The saturation throughput is the highest accepted rate at or before the
/// saturation point. When the swept range never saturates, `found` is
/// false and the fields describe the highest accepted rate observed.
struct SaturationPoint {
    bool found = false;
    u32 index = 0; ///< index into the rate-ordered results
    double offered = 0.0;
    double throughput = 0.0; ///< accepted transactions per core per cycle
    double mean_latency = 0.0;
};

[[nodiscard]] SaturationPoint find_saturation(
    const std::vector<SweepResult>& rate_ordered);

/// Report header recorded alongside the per-candidate rows. Everything a
/// merge or resume needs to check that two reports describe the same
/// campaign (sweep/shard.hpp) lives here; `jobs` and the per-row wall
/// clocks are the only run-to-run-varying values.
struct SweepMeta {
    std::string app;
    u32 n_cores = 0;
    u32 jobs = 0;
    Cycle max_cycles = 0;
    Tier tier = Tier::Cycle;
    u64 seed = 0;         ///< SweepOptions::seed the rows were derived from
    u32 n_candidates = 0; ///< TOTAL grid size, across all shards
    u32 funnel_top = 0;   ///< emitted when tier == Funnel
    ShardSpec shard;      ///< emitted when count > 1
};

/// Appends the header's meta object ({"app": ..., ...}) — also the
/// checkpoint journal's header payload.
void append_sweep_meta(std::string& out, const SweepMeta& meta);

/// Appends one candidate row as a single-line JSON object — exactly the
/// row format json_report emits (and the journal's line format), without
/// surrounding indentation or commas.
void append_result_row(std::string& out, const SweepResult& r);

/// Machine-readable JSON report (deterministic field order; `jobs` and the
/// wall-clock fields are the only nondeterministic values).
[[nodiscard]] std::string json_report(const std::vector<SweepResult>& results,
                                      const SweepMeta& meta);
/// Incremental writer: streams the same report row by row through a small
/// reused buffer, so million-row shard/merge reports never materialize one
/// giant string. json_report and write_json_report ride the same emitter.
/// Returns false when any write comes up short.
[[nodiscard]] bool json_report_to(std::FILE* f,
                                  const std::vector<SweepResult>& results,
                                  const SweepMeta& meta);
/// Returns false (after a stderr WARN) when the file cannot be written —
/// callers surface that as a nonzero exit so scripted consumers never key
/// off a report that does not exist.
[[nodiscard]] bool write_json_report(const std::vector<SweepResult>& results,
                                     const SweepMeta& meta,
                                     const std::string& path);

/// Evaluates candidate fabrics against one fixed payload.
///
/// The payload — TG programs (assembled once at construction) or
/// stochastic base configs — and the workload context are immutable for
/// the driver's lifetime; run() is const and thread-safe.
class SweepDriver {
public:
    /// TG payload: pre-translated programs, assembled once here. Workers
    /// inject the shared binaries (no re-translation, no re-assembly).
    SweepDriver(const std::vector<tg::TgProgram>& programs,
                apps::Workload context);

    /// Pre-assembled TG payload (e.g. loaded from .bin files).
    SweepDriver(std::vector<tg::AssembledTg> binaries, apps::Workload context);

    /// Stochastic payload (related-work baseline sweeps). The per-config
    /// `seed` fields are ignored; workers reseed each candidate from
    /// derive_seed(options.seed, candidate_index, core).
    SweepDriver(std::vector<tg::StochasticConfig> configs,
                apps::Workload context);

    /// Synthetic traffic-pattern payload (src/tg/patterns.hpp): per-core
    /// stochastic configs are derived from the pattern inside each worker,
    /// honouring the candidate's source.rate override and reseeding from
    /// derive_seed — so a rate sweep is bit-identical at any worker count.
    SweepDriver(tg::PatternConfig pattern, apps::Workload context);

    /// Evaluates every candidate in `opts.shard`, `opts.jobs` at a time,
    /// one Platform constructed/run/destroyed per worker iteration.
    /// Returns one result per shard candidate, in ascending original
    /// candidate index order, regardless of completion order — with the
    /// default shard {0, 1} that is every candidate in submission order.
    ///
    /// opts.tier selects the evaluator: Cycle simulates everything,
    /// Analytic scores everything with the closed-form model, Funnel
    /// analytically scores the full grid and then cycle-simulates only the
    /// opts.funnel_top best-predicted candidates (by predicted completion
    /// time, ties broken by candidate index) plus every candidate outside
    /// the analytic envelope. Funnel survivors keep their ORIGINAL
    /// candidate index for seeding, so their results are bit-identical to
    /// an all-cycle run of the same grid — at any worker count.
    [[nodiscard]] std::vector<SweepResult> run(
        const std::vector<Candidate>& candidates,
        const SweepOptions& opts = {}) const;

    [[nodiscard]] u32 n_cores() const noexcept { return n_cores_; }

private:
    /// Per-worker scratch reused across candidate evaluations (the seeded
    /// config vector used to be copied afresh per candidate).
    struct EvalScratch;

    [[nodiscard]] SweepResult evaluate(const Candidate& cand, u32 index,
                                       const SweepOptions& opts,
                                       EvalScratch& scratch) const;
    [[nodiscard]] std::vector<SweepResult> run_cycle(
        const std::vector<Candidate>& candidates, const SweepOptions& opts,
        const std::vector<u32>* subset, std::vector<SweepResult> seed) const;
    [[nodiscard]] std::vector<SweepResult> run_analytic(
        const std::vector<Candidate>& candidates, const SweepOptions& opts,
        const std::vector<u32>* subset) const;

    u32 n_cores_ = 0;
    std::vector<tg::AssembledTg> binaries_;       ///< TG payload (if any)
    std::vector<tg::StochasticConfig> stochastic_; ///< stochastic payload
    std::optional<tg::PatternConfig> pattern_;    ///< pattern payload
    apps::Workload context_;
};

} // namespace tgsim::sweep
