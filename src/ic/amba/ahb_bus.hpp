// AMBA AHB-like shared bus.
//
// Behavioural cycle-true model of a single-channel multi-master bus: one
// transaction owns the bus from grant to completion; waiting masters stall
// at their interface. Arbitration is round-robin or fixed-priority
// (lowest-index wins). This is the reference interconnect of the paper's
// Table 2 experiments.
//
// Deliberate simplifications versus real AHB:
// address/data phases of different masters are not overlapped, and burst
// writes insert one wait state per beat. Both runs of an experiment (IP-core
// and TG) see the identical timing model, which is what the methodology
// requires.
#pragma once

#include <string>
#include <vector>

#include "ic/address_map.hpp"
#include "ic/bridge.hpp"
#include "ic/interconnect.hpp"

namespace tgsim::ic {

enum class Arbitration : u8 {
    RoundRobin,
    FixedPriority, ///< lowest master index wins
};

struct AhbStats {
    u64 busy_cycles = 0;
    u64 idle_cycles = 0;
    u64 decode_errors = 0;
    std::vector<u64> grants;      ///< per master
    std::vector<u64> wait_cycles; ///< per master: requesting but not owner
    std::vector<u64> slave_transactions;
};

class AhbBus final : public Interconnect {
public:
    explicit AhbBus(Arbitration policy = Arbitration::RoundRobin)
        : policy_(policy) {}

    std::size_t connect_master(ocp::ChannelRef ch, int node = -1) override;
    std::size_t connect_slave(ocp::ChannelRef ch, u32 base, u32 size,
                              int node = -1) override;

    void eval() override;
    void update() override {}
    [[nodiscard]] Cycle quiet_for() const override {
        return (!bridge_.active() && !wires_dirty_) ? sim::kQuietForever : 0;
    }
    void advance(Cycle cycles) override { stats_.idle_cycles += cycles; }
    // Activity subscription: Interconnect::watch_inputs (all master gens).

    [[nodiscard]] const AhbStats& stats() const noexcept { return stats_; }
    [[nodiscard]] u64 busy_cycles() const override { return stats_.busy_cycles; }
    [[nodiscard]] u64 contention_cycles() const override;
    [[nodiscard]] std::size_t master_count() const noexcept {
        return master_ports().size();
    }
    [[nodiscard]] std::size_t slave_count() const noexcept { return slaves_.size(); }

private:
    /// Returns the granted master index or -1.
    [[nodiscard]] int arbitrate() const noexcept;

    Arbitration policy_;
    std::vector<ocp::ChannelRef> slaves_;
    AddressMap map_;

    Bridge bridge_;
    int owner_ = -1;
    int target_slave_ = -1;
    int rr_last_ = -1;
    bool wires_dirty_ = true; ///< wires need a default-drive pass
    AhbStats stats_;
};

} // namespace tgsim::ic
