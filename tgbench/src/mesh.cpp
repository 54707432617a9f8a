// `mesh_a2a`: a 16x16 ×pipes mesh built directly from ic::XpipesNetwork,
// tg::StochasticTg and mem::MemorySlave on one sim::Kernel.
//
// Masters sit on the even nodes and memories on the odd ones. Every master
// draws uniform-random destinations over all memories with Poisson arrivals;
// half of its transactions are 8-beat bursts, and latency collection is on.
// Masters are closed-loop and seeded from the workload seed. Verification
// runs the same traffic with the full-scan router phase (router_gating =
// false); every timed run must finish each master's budget and match that
// reference in cycles, flits routed, master wait cycles and the latency
// samples.
//
// A traced run registers every component through a forwarding sim::Clocked
// that times eval()/update() and passes quiet_for()/advance()/
// watch_inputs() straight through, so the kernel's schedule is unchanged
// and kernel time separates from component self time.
#include "activities.hpp"

#include <algorithm>
#include <chrono>

#include "ic/xpipes/xpipes.hpp"
#include "mem/memory.hpp"
#include "sim/kernel.hpp"
#include "sweep/sweep.hpp"
#include "tg/stochastic.hpp"

namespace tgbench {
namespace {

using namespace tgsim;
using Clock = std::chrono::steady_clock;

constexpr Cycle kMaxCycles = 100'000'000;
constexpr Cycle kDoneCheckInterval = 1024;
constexpr u32 kWindow = 0x1000;      ///< bytes decoded per memory
constexpr u32 kStride = 0x100000;    ///< address stride between memories
/// Rigs built per set-up sample: one build takes under a millisecond, too
/// short to time alone.
constexpr int kSetupBatch = 32;

/// Poisson arrivals per cycle and master: about 10 idle cycles between
/// transactions against a round trip of about 35.
constexpr double kRate = 0.1;
/// So sparse that packets practically never meet: the zero-load baseline.
constexpr double kZeroLoadRate = 0.0005;

/// Offered traffic of every master.
struct Traffic {
    double rate = 0.0; ///< Poisson arrivals per cycle
    u64 budget = 0;    ///< transactions per master
};

/// Self time and call count of one component class in a traced run.
struct SelfTime {
    Clock::duration time{};
    u64 evals = 0;

    SelfTime& operator+=(const SelfTime& o) {
        time += o.time;
        evals += o.evals;
        return *this;
    }
};

/// Forwarding wrapper: times the wrapped component's eval()/update() and
/// leaves every scheduling decision to it.
class Timed final : public sim::Clocked {
public:
    Timed(sim::Clocked& inner, SelfTime& self) : inner_(inner), self_(self) {}

    void eval() override {
        const Clock::time_point t0 = Clock::now();
        inner_.eval();
        self_.time += Clock::now() - t0;
        ++self_.evals;
    }
    void update() override {
        const Clock::time_point t0 = Clock::now();
        inner_.update();
        self_.time += Clock::now() - t0;
    }
    [[nodiscard]] Cycle quiet_for() const override {
        return inner_.quiet_for();
    }
    void advance(Cycle cycles) override { inner_.advance(cycles); }
    void watch_inputs(std::vector<sim::WatchRange>& out) const override {
        inner_.watch_inputs(out);
    }

private:
    sim::Clocked& inner_;
    SelfTime& self_;
};

struct Classes {
    SelfTime tg, mem, xpipes;
};

/// One simulation instance: wires, components and the kernel that clocks
/// them. Masters' channels are allocated first so the fabric watches them
/// as one contiguous range, as the platform builder does.
struct Rig {
    ocp::ChannelStore store;
    std::unique_ptr<ic::XpipesNetwork> net;
    std::vector<std::unique_ptr<tg::StochasticTg>> tgs;
    std::vector<std::unique_ptr<mem::MemorySlave>> mems;
    std::vector<std::unique_ptr<Timed>> timed;
    sim::Kernel kernel;
};

/// What every run must reproduce exactly.
struct Outcome {
    bool finished = false; ///< every master issued its whole budget
    Cycle cycles = 0;      ///< latest master halt cycle
    u64 flits = 0;
    u64 visits = 0;
    u64 master_wait = 0;
    std::vector<u64> latency; ///< packet latency samples, sorted
};

stats::LatencyStats::Summary summary(const Outcome& o) {
    stats::LatencyStats lat;
    for (const u64 s : o.latency) lat.record(s);
    return lat.summary();
}

class Mesh final : public Activity {
public:
    explicit Mesh(const Options& opt) : opt_(opt) {
        const bool tiny = opt.size == Size::Tiny;
        dim_ = tiny ? 4 : 16;
        load_ = {kRate, tiny ? 10u : 100u};
    }

    double setup() override {
        const double t0 = now_s();
        for (int i = 0; i < kSetupBatch; ++i) (void)build(load_, true, nullptr);
        return (now_s() - t0) / kSetupBatch;
    }

    void verify(Ledger& ledger) override {
        const std::unique_ptr<Rig> rig = build(load_, false, nullptr);
        double seconds = 0.0;
        reference_ = run(*rig, load_, &seconds);
        ledger.check(reference_.finished && reference_.flits > 0,
                     "mesh_a2a full-scan reference did not finish");
        if (opt_.inject_mismatch) ++reference_.cycles;
    }

    double pass(Ledger& ledger, Spans* spans) override {
        Classes classes;
        const std::unique_ptr<Rig> rig =
            build(load_, true, spans ? &classes : nullptr);
        double seconds = 0.0;
        const Outcome got = run(*rig, load_, &seconds);
        ledger.check(got.finished && got.cycles == reference_.cycles &&
                         got.flits == reference_.flits &&
                         got.master_wait == reference_.master_wait &&
                         got.latency == reference_.latency,
                     "mesh_a2a: gated run differs from full scan (" +
                         std::to_string(got.cycles) + " vs " +
                         std::to_string(reference_.cycles) + " cycles, " +
                         std::to_string(got.flits) + " vs " +
                         std::to_string(reference_.flits) + " flits)");
        if (spans) {
            traced_seconds_ += seconds;
            ticks_ += rig->kernel.now();
            tg_ += classes.tg;
            mem_ += classes.mem;
            xpipes_ += classes.xpipes;
            visits_ += got.visits;
            flits_ += got.flits;
            last_ = got;
            if (zero_load_.latency.empty()) zero_load_ = unloaded(ledger);
        }
        return seconds;
    }

    void end_to_end(const std::vector<double>& pass_seconds,
                    Sheet& out) const override {
        out.push_back({"ns_per_flit_hop",
                       1e9 * mean(pass_seconds) /
                           static_cast<double>(reference_.flits),
                       "ns"});
    }

    void per_layer(const Spans&, Sheet& out) const override {
        const auto ns = [](const SelfTime& s) {
            return static_cast<double>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(s.time)
                    .count());
        };
        const double ticks = static_cast<double>(std::max<u64>(ticks_, 1));
        const double flits = static_cast<double>(std::max<u64>(flits_, 1));
        const double components = ns(tg_) + ns(mem_) + ns(xpipes_);
        const double visits = static_cast<double>(std::max<u64>(visits_, 1));
        out.push_back({"xpipes.self_ns_per_flit_hop", ns(xpipes_) / flits,
                       "ns"});
        out.push_back({"xpipes.ns_per_router_visit", ns(xpipes_) / visits,
                       "ns"});
        out.push_back({"xpipes.visits_per_flit_hop",
                       static_cast<double>(visits_) / flits, "1"});
        out.push_back({"sim.self_ns_per_cycle",
                       (1e9 * traced_seconds_ - components) / ticks,
                       "ns/cycle"});
        out.push_back({"sim.evals_per_cycle",
                       static_cast<double>(tg_.evals + mem_.evals +
                                           xpipes_.evals) /
                           ticks,
                       "1/cycle"});
        out.push_back({"tg.self_ns_per_cycle", ns(tg_) / ticks, "ns/cycle"});
        out.push_back({"mem.self_ns_per_cycle", ns(mem_) / ticks, "ns/cycle"});
        out.push_back({"xpipes.flits_routed", static_cast<double>(last_.flits),
                       "count"});
        out.push_back({"xpipes.sim_cycles", static_cast<double>(last_.cycles),
                       "cycle"});
        const stats::LatencyStats::Summary sum = summary(last_);
        out.push_back({"xpipes.lat_p50_cycles", static_cast<double>(sum.p50),
                       "cycle"});
        out.push_back({"xpipes.lat_p99_cycles", static_cast<double>(sum.p99),
                       "cycle"});
        out.push_back({"xpipes.master_wait_cycles",
                       static_cast<double>(last_.master_wait), "cycle"});
        out.push_back({"xpipes.zero_load_p50_cycles",
                       static_cast<double>(summary(zero_load_).p50), "cycle"});
    }

private:
    std::unique_ptr<Rig> build(const Traffic& load, bool router_gating,
                               Classes* classes) const {
        auto rig = std::make_unique<Rig>();
        const u32 nodes = dim_ * dim_;
        const u32 pairs = nodes / 2;
        ic::XpipesConfig xc;
        xc.width = dim_;
        xc.height = dim_;
        xc.fifo_depth = 4;
        xc.router_gating = router_gating;
        xc.collect_latency = true;
        rig->net = std::make_unique<ic::XpipesNetwork>(xc);

        rig->store.reserve(nodes);
        std::vector<ocp::ChannelRef> masters, slaves;
        for (u32 i = 0; i < pairs; ++i)
            masters.push_back(rig->store.allocate());
        for (u32 i = 0; i < pairs; ++i)
            slaves.push_back(rig->store.allocate());

        std::vector<tg::StochasticTarget> targets;
        for (u32 j = 0; j < pairs; ++j) {
            targets.push_back({kStride * j, kWindow, 1});
            rig->net->connect_slave(slaves[j], kStride * j, kWindow,
                                    static_cast<int>(2 * j + 1));
            rig->mems.push_back(std::make_unique<mem::MemorySlave>(
                slaves[j], mem::SlaveTiming{1, 1, 1}, kStride * j, kWindow));
        }
        for (u32 i = 0; i < pairs; ++i) {
            rig->net->connect_master(masters[i], static_cast<int>(2 * i));
            tg::StochasticConfig c;
            c.seed = sweep::derive_seed(opt_.seed, i, 0);
            c.read_fraction = 0.5;
            c.burst_fraction = 0.5;
            c.burst_len = 8;
            c.process = tg::ArrivalProcess::Poisson;
            c.rate = load.rate;
            c.targets = targets;
            c.total_transactions = load.budget;
            rig->tgs.push_back(
                std::make_unique<tg::StochasticTg>(masters[i], std::move(c)));
        }
        // Request and response packet per transaction at most.
        rig->net->reserve_latency(2 * load.budget * pairs);

        const auto add = [&](sim::Clocked& c, int stage, SelfTime* self) {
            if (self == nullptr) {
                rig->kernel.add(c, stage);
                return;
            }
            rig->timed.push_back(std::make_unique<Timed>(c, *self));
            rig->kernel.add(*rig->timed.back(), stage);
        };
        for (auto& t : rig->tgs)
            add(*t, sim::kStageMaster, classes ? &classes->tg : nullptr);
        for (auto& m : rig->mems)
            add(*m, sim::kStageSlave, classes ? &classes->mem : nullptr);
        add(*rig->net, sim::kStageInterconnect,
            classes ? &classes->xpipes : nullptr);
        return rig;
    }

    /// Runs until every master halted and the network drained.
    Outcome run(Rig& rig, const Traffic& load, double* seconds) const {
        const auto done = [&rig] {
            for (const auto& t : rig.tgs)
                if (!t->done()) return false;
            return rig.net->quiet_for() != 0;
        };
        const double t0 = now_s();
        const bool completed =
            rig.kernel.run_until(done, kMaxCycles, kDoneCheckInterval);
        *seconds = now_s() - t0;

        Outcome o;
        o.finished = completed;
        for (const auto& t : rig.tgs) {
            o.finished = o.finished && t->done() && t->issued() == load.budget;
            o.cycles = std::max(o.cycles, t->halt_cycle());
        }
        const ic::XpipesStats& s = rig.net->stats();
        o.flits = s.flits_routed;
        o.visits = s.router_visits;
        o.master_wait = rig.net->contention_cycles();
        // Samples are recorded in the router phase's apply order, which
        // follows the worklist, so only the multiset is schedule-independent.
        o.latency = s.packet_latency.samples();
        std::sort(o.latency.begin(), o.latency.end());
        return o;
    }

    /// Traced runs only: the same traffic pattern at kZeroLoadRate, the
    /// baseline for the loaded run's latency.
    Outcome unloaded(Ledger& ledger) const {
        const Traffic sparse{kZeroLoadRate, 10};
        const std::unique_ptr<Rig> rig = build(sparse, true, nullptr);
        double seconds = 0.0;
        Outcome o = run(*rig, sparse, &seconds);
        ledger.check(o.finished && !o.latency.empty(),
                     "mesh_a2a zero-load run did not finish");
        return o;
    }

    Options opt_;
    u32 dim_ = 16;
    Traffic load_;
    Outcome reference_;
    Outcome zero_load_;
    // Traced-run accumulators.
    double traced_seconds_ = 0.0;
    u64 ticks_ = 0;
    u64 visits_ = 0;
    u64 flits_ = 0;
    SelfTime tg_, mem_, xpipes_;
    Outcome last_;
};

} // namespace

std::unique_ptr<Activity> make_mesh(const Options& opt) {
    return std::make_unique<Mesh>(opt);
}

} // namespace tgbench
