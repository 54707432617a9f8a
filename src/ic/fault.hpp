// Deterministic per-router fault injection for the ×pipes mesh.
//
// FaultModel draws one fault decision per (router, flit serial) pair from a
// counter-based hash of the configured seed — no RNG state, no draw order.
// The same seed therefore fires the exact same faults at any --jobs level,
// under any shard split, and in gated or full-scan router mode: a fault
// site is a pure function of (seed, router, serial), and serials are
// assigned in NI evaluation order, which is identical across all schedules.
//
// Three fault kinds model the classic NoC link failure modes (cf. garnet's
// FaultModel: variation-induced data corruption and flit loss keyed on
// router configuration):
//
//   * Corrupt — a payload flit's data word is XORed with a nonzero mask on
//     a link traversal (detected by the per-packet tail checksum);
//   * Drop — a head flit is discarded at a router input, and the port then
//     swallows the rest of the packet (detected by the master-NI timeout);
//   * Stall — a link withholds a flit for 1..stall_max cycles (transient
//     congestion; recovered by wormhole back-pressure alone).
//
// The recovery layer riding on these faults (retry, checksum, ack) lives in
// the ×pipes NIs; docs/faults.md documents the full state machine and the
// determinism contract.
#pragma once

#include "sim/types.hpp"

namespace tgsim::ic {

/// Fault-injection knobs, embedded in XpipesConfig. All rates are per flit
/// per link traversal (every router input an individual flit passes makes
/// an independent draw). Zero rates (the default) disable injection *and*
/// the recovery protocol entirely: the mesh is bit-identical to a build
/// without this subsystem.
struct FaultConfig {
    double corrupt_rate = 0.0; ///< payload-word corruption (payload flits)
    double drop_rate = 0.0;    ///< whole-packet drop (head flits)
    double stall_rate = 0.0;   ///< transient link stall (any flit)
    u32 stall_max = 8;         ///< stall length drawn uniformly in [1, stall_max]
    u64 seed = 0;              ///< fault-site seed (sweepable axis)
    /// Master-NI recovery: base response/ack timeout in cycles; retry k
    /// waits retry_timeout << min(k, 6) (bounded exponential backoff).
    Cycle retry_timeout = 1024;
    u32 max_retries = 4; ///< replays before the transaction is counted lost

    [[nodiscard]] bool enabled() const noexcept {
        return corrupt_rate > 0.0 || drop_rate > 0.0 || stall_rate > 0.0;
    }
};

enum class FaultKind : u8 { None, Corrupt, Drop, Stall };

class FaultModel {
public:
    /// Validates rates (each in [0,1], sum <= 1) and bounds; throws
    /// std::invalid_argument on a malformed config.
    explicit FaultModel(const FaultConfig& cfg);

    struct Draw {
        FaultKind kind = FaultKind::None;
        u32 mask = 0;  ///< Corrupt: nonzero XOR mask for the payload word
        u32 stall = 0; ///< Stall: cycles to withhold the flit
    };

    /// The fault decision for flit `serial` at router `router` — a pure
    /// function of (seed, router, serial). The drawn kind only takes effect
    /// on flit kinds it applies to (the router filters applicability).
    [[nodiscard]] Draw draw(u32 router, u64 serial) const noexcept;

private:
    FaultConfig cfg_;
};

/// Per-packet payload checksum carried in the tail flit when faults are
/// enabled (request direction: write data; response direction: read data).
/// An order-sensitive djb2-style fold: any single corrupted word is always
/// detected (the XOR mask is nonzero), multi-word cancellation is
/// negligible and — like everything here — deterministic under the seed.
[[nodiscard]] constexpr u32 csum_init() noexcept { return 0x1505u; }
[[nodiscard]] constexpr u32 csum_step(u32 csum, u32 word) noexcept {
    return (csum * 33u) ^ word;
}

} // namespace tgsim::ic
