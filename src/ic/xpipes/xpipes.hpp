// ×pipes-like packet-switched NoC over a pluggable topology.
//
// Behavioural cycle-true model of a wormhole-switched fabric:
//
//   * network interfaces (NIs) packetize OCP transactions into flit streams
//     (Head, one Payload flit per data beat, Tail) and reassemble them at
//     the far end; Head and Tail reference the packet's header {cmd, addr,
//     burst, source, destination} and stamps in a packet table, so a flit
//     is 16 bytes;
//   * routers are input-buffered (fixed-capacity ring FIFOs) with
//     per-output round-robin wormhole allocation and one flit per link per
//     cycle; the routing decision and the link adjacency come from an
//     ic::Topology (docs/topology.md) — the default 2D mesh routes XY
//     exactly as before the abstraction, and a torus or table-routed graph
//     drops in without touching router code;
//   * requests and responses travel on two separate buffer planes (virtual
//     networks), which removes request/response protocol deadlock; on
//     topologies that ask for virtual channels (the torus's dateline VCs)
//     each protocol plane is replicated per VC, which removes the routing
//     deadlock its wrap links would otherwise introduce;
//   * posted writes complete at the master NI once all beats are buffered —
//     network delivery is decoupled, unlike the shared-bus model.
//
// Each node hosts at most one master NI and one slave NI (the two local
// router ports after the topology's neighbour ports). The platform
// co-locates a core with its private memory and places shared slaves on
// their own nodes.
//
// The router phase is activity-driven: only routers holding flits (or a
// wormhole binding) are visited each cycle, in router-index order, so
// per-cycle cost scales with traffic instead of mesh size and gated and
// full-scan runs apply their moves — and record latency samples — in the
// same order. Each Head is routed once, when it reaches the front of its
// input FIFO, into a per-input request register; each output channel
// keeps a bitmask of the inputs requesting it and grants round-robin over
// that mask in the order a rescan of the inputs would visit them.
// docs/xpipes.md documents the mesh microarchitecture and the activity
// contract; bit-identity against the full-scan reference (router_gating =
// false) and against router goldens on six fabrics is pinned by
// tests/xpipes_gating_test.cpp.
//
// Compared to the AHB model this fabric has higher zero-load latency but
// concurrent transfers — the architectural contrast used by the paper's
// cross-interconnect validation (identical .tgp programs, different cycle
// counts).
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "ic/address_map.hpp"
#include "ic/fault.hpp"
#include "ic/interconnect.hpp"
#include "ic/topo/topo.hpp"
#include "stats/latency.hpp"
#include "stats/reliability.hpp"

namespace tgsim::ic {

struct XpipesConfig {
    u32 width = 3;
    u32 height = 3;
    u32 fifo_depth = 4; ///< flits per router input FIFO
    /// Activity-driven router phase (the default): eval only routers in the
    /// active set. false = full scan over every router, kept as the
    /// bit-identical reference for tests and benches.
    bool router_gating = true;
    /// Collect per-packet latency samples into XpipesStats::packet_latency
    /// (docs/traffic.md). Off by default: the stamps are always carried, but
    /// sample storage is only paid for by the pattern/latency experiments.
    /// Purely observational — wire behaviour is identical either way.
    bool collect_latency = false;
    /// Deterministic fault injection + the end-to-end recovery protocol
    /// (docs/faults.md). All-zero rates (the default) keep the mesh
    /// bit-identical to the pre-fault model: no serials, no checksums, no
    /// acks, posted writes stay posted.
    FaultConfig fault;
    /// Fabric topology (docs/topology.md). Mesh (the default) preserves the
    /// original XY-routed behaviour bit-for-bit; Torus adds wrap links with
    /// minimal dimension-ordered routing; Table routes the graph below.
    /// New members sit after `fault` so existing aggregate initializers
    /// keep their meaning.
    TopologyKind topology = TopologyKind::Mesh;
    /// Adjacency for TopologyKind::Table (width/height are ignored there:
    /// the node count comes from the graph). Shared and immutable, so sweep
    /// workers reuse one parsed graph across the whole candidate grid.
    std::shared_ptr<const GraphSpec> graph;
};

struct XpipesStats {
    u64 busy_cycles = 0;
    u64 flits_routed = 0;   ///< link traversals
    u64 packets_sent = 0;
    u64 decode_errors = 0;
    /// Routers processed by the router phase (per router per cycle). The
    /// full-scan bound is node_count() × router_phase_cycles; the gap between
    /// the two is what activity gating saves.
    u64 router_visits = 0;
    u64 router_phase_cycles = 0; ///< cycles in which the router phase ran
    std::vector<u64> master_wait_cycles; ///< command asserted, NI busy
    /// Offered vs accepted accounting (docs/traffic.md): request packets
    /// whose Tail reached the destination slave NI, and response packets
    /// whose Tail reached the requesting master NI. The offered side is the
    /// generator's configured injection rate plus master_wait_cycles (cycles
    /// a master held a command the NI could not yet take).
    u64 req_packets_delivered = 0;
    u64 resp_packets_delivered = 0;
    /// Per-packet latency in cycles, packet creation at the source NI to
    /// Tail delivery at the destination NI; both planes sampled, in
    /// router-index apply order (the same sequence in both router_gating
    /// modes). Populated only when XpipesConfig::collect_latency.
    stats::LatencyStats packet_latency;
    /// Response packets delivered whose Tail carried a slave Resp::Err.
    /// These are counted here and *excluded* from packet_latency (an Err
    /// turnaround is not a service time), so fault/error runs do not skew
    /// p50/p99 (docs/traffic.md).
    u64 resp_err_packets = 0;
    /// Fault-injection and recovery accounting; only advances when
    /// XpipesConfig::fault is enabled (docs/faults.md).
    stats::ReliabilityStats reliability;

    // --- open-loop source instrumentation (docs/traffic.md); only
    // populated after configure_open_source() ---
    /// In-network latency: tx injection (pending-queue exit) to Tail
    /// delivery. Recorded back-to-back with packet_latency for the same
    /// packet, so sample i satisfies
    /// source_q_latency[i] + net_latency[i] == packet_latency[i] exactly.
    stats::LatencyStats net_latency;
    /// Source-queueing latency: packet creation at the NI to tx injection.
    stats::LatencyStats source_q_latency;
    /// High-water mark of any single master NI's pending-packet queue
    /// (complete packets). Reaching the configured pending_limit means the
    /// open-loop source itself was backpressured — a saturation signal.
    u64 pending_peak = 0;
    /// Cycle the last Tail was delivered (either NI side). The open-loop
    /// drain runs past the generators' halt cycles, so this — not the
    /// masters' halt — is the honest end-of-run time base.
    Cycle last_delivery = 0;
};

class XpipesNetwork final : public Interconnect {
public:
    explicit XpipesNetwork(XpipesConfig cfg);

    /// `node` is required (0 <= node < width*height); one master NI per node.
    std::size_t connect_master(ocp::ChannelRef ch, int node) override;
    /// One slave NI per node.
    std::size_t connect_slave(ocp::ChannelRef ch, u32 base, u32 size,
                              int node) override;

    void eval() override;
    void update() override { ++now_; }
    [[nodiscard]] Cycle quiet_for() const override {
        // Fault mode: a dropped packet leaves no flits in flight, so the
        // retry timers in the master NIs are the only recovery signal —
        // the network must stay clocked while any transaction is pending.
        if (fault_on_ && pending_txns_ > 0) return 0;
        // Open-loop mode: packets parked in NI pending queues are outside
        // flits_active_ (router FIFOs + tx), but the NIs must keep draining
        // them even after every generator has halted.
        if (open_backlog_ > 0) return 0;
        return (!any_activity_ && flits_active_ == 0) ? sim::kQuietForever : 0;
    }
    /// Keeps the local cycle counter (latency stamps) aligned with kernel
    /// time across gated jumps. Packets only exist while the network is
    /// clocked every cycle (quiet_for() is 0 whenever flits are in flight),
    /// so stamp arithmetic is exact in all scheduling modes.
    void advance(Cycle cycles) override { now_ += cycles; }
    // Activity subscription: Interconnect::watch_inputs (all master gens) —
    // a drained network (no flits, idle NIs) only reacts to a master
    // asserting a command at one of the master NIs.

    [[nodiscard]] const XpipesStats& stats() const noexcept { return stats_; }
    /// Switches the master NIs into open-loop source mode (docs/traffic.md):
    /// accepted commands are packetized into a bounded per-NI pending queue
    /// and injected as the fabric drains, read responses are absorbed at the
    /// NI, and packet latency is decomposed into source-queueing vs
    /// in-network series. Called once by the platform loader (the
    /// tg::SourceConfig surface) before the first eval(). `max_outstanding`
    /// bounds in-flight reads per NI (0 = unbounded); `pending_limit` >= 1
    /// bounds the pending queue. Mutually exclusive with fault injection.
    void configure_open_source(u32 max_outstanding, u32 pending_limit);
    /// Pre-sizes the latency sample stores (no-op unless collect_latency).
    /// Loaders that know the run's transaction budget call this once so the
    /// per-packet record() path never reallocates mid-simulation.
    void reserve_latency(u64 n_samples) {
        if (!cfg_.collect_latency) return;
        stats_.packet_latency.reserve(n_samples);
        if (open_) {
            stats_.net_latency.reserve(n_samples);
            stats_.source_q_latency.reserve(n_samples);
        }
    }
    [[nodiscard]] u64 busy_cycles() const override { return stats_.busy_cycles; }
    [[nodiscard]] u64 contention_cycles() const override;
    [[nodiscard]] u32 node_count() const noexcept { return topo_->node_count(); }
    [[nodiscard]] const Topology& topology() const noexcept { return *topo_; }

private:
    // Router ports: [0, n_ports_ - 2) are the topology's neighbour links
    // (N=0, S=1, E=2, W=3 on mesh/torus), then the two local NI ports
    // lm_port_ (master side) and ls_port_ (slave side). For the mesh this
    // is exactly the original fixed numbering (LM=4, LS=5, 6 ports), so
    // allocation and round-robin order are bit-identical.
    /// Protocol planes (virtual networks): requests and responses. The
    /// buffer-plane count is n_planes_ = kNumPlanes * vc_count_ — each
    /// protocol plane is replicated per topology virtual channel
    /// (Topology::vcs(); 1 on mesh/table, 2 dateline VCs on the torus).
    /// Plane index = protocol * vc_count_ + vc, so with one VC the plane
    /// indices — and all behaviour — are bit-identical to pre-VC code.
    static constexpr int kNumPlanes = 2; ///< 0 = requests, 1 = responses

    /// Packet header, kept once per packet in the packet table (pkts_).
    struct PacketHeader {
        ocp::Cmd cmd = ocp::Cmd::Idle;
        u32 addr = 0;
        u16 burst = 1;
        u16 src_node = 0;  ///< requester's node (response routing)
        u16 dest_node = 0; ///< routing target
        bool is_resp = false;
        /// Per-master-NI transaction sequence number (fault mode only):
        /// stable across retries, echoed by the response/ack so master NIs
        /// can filter stale responses and slave NIs can dedupe replays.
        u16 seq = 0;
    };

    /// A packet on its way through the fabric: header, stamps and (fault
    /// mode) the serials of its Head and Tail flits. Allocated when the NI
    /// builds the packet, referenced by handle from its Head and Tail, and
    /// released when its Tail is consumed (delivered, dropped, rejected).
    /// Each replay of a packet gets its own entry.
    struct Packet {
        PacketHeader hdr;
        /// Cycle the packet was created at the source NI (the OCP command
        /// was accepted). In closed-loop mode creation and injection
        /// coincide; in open-loop mode the difference is the
        /// source-queueing latency (docs/traffic.md).
        Cycle created = 0;
        /// Cycle the packet entered the network proper (left the NI
        /// pending queue for the tx queue).
        Cycle inject = 0;
        u64 head_serial = 0; ///< fault mode: the Head flit's serial
        u64 tail_serial = 0; ///< fault mode: the Tail flit's serial
    };

    /// One flit: 16 bytes, so a 4-deep FIFO fills one cache line.
    struct Flit {
        enum class Kind : u8 { Head, Payload, Tail };
        Kind kind = Kind::Head;
        /// Response payload beat failed at the slave (Resp::Err). Carried
        /// per beat so a mid-burst error survives the mesh crossing and is
        /// replayed as Resp::Err at the requesting master NI. On a Tail:
        /// the response carried at least one Err beat.
        bool err = false;
        /// Payload: the data beat. Tail, fault mode: the packet checksum.
        u32 payload = 0;
        /// Head and Tail: the packet-table handle. Payload: the flit's
        /// fault serial (fault mode only, 0 otherwise) — fault draws are a
        /// pure function of (seed, router, serial), so fault sites are
        /// schedule-independent; replays get fresh serials. Head and Tail
        /// serials live in the Packet. See serial_of().
        u64 tag = 0;
    };
    static_assert(sizeof(Flit) <= 16);

    /// Per-input-port fault state (fault mode only). `serial` guards the
    /// draw: exactly one fault decision per (router, flit), re-evaluated
    /// when a new flit reaches the FIFO head. `blocked` is recomputed by
    /// the fault pre-pass each cycle the router is visited.
    struct PortFault {
        u64 serial = ~u64{0};            ///< flit the current draw applies to
        FaultKind kind = FaultKind::None;
        u32 mask = 0;                    ///< Corrupt: payload XOR mask
        u32 stall_left = 0;              ///< Stall: cycles still withheld
        bool swallowing = false;         ///< Drop: consuming the packet tail
        bool blocked = false;            ///< port excluded from moves this cycle
    };

    /// One router input FIFO: a ring of fifo_depth slots in buf_, plus the
    /// request register of the Head at its front.
    struct InPort {
        u32 head = 0; ///< ring index of the front flit
        u32 size = 0;
        /// Output channel pidx(dst_plane, out) the front Head requests, or
        /// -1 when the front is not a Head (or the FIFO is empty). Set once
        /// per router when a Head reaches the front, cleared when it leaves.
        i32 req = -1;
    };

    /// Per-router activity bookkeeping: the router is active — and its bit
    /// set in active_ — iff either count is nonzero.
    struct RouterLoad {
        u32 occupancy = 0;   ///< flits across the input FIFOs
        u32 bound_count = 0; ///< held wormhole bindings
    };

    /// An output channel (destination plane, port). Requests only ever
    /// name the channels allocation serves: LS on the request plane, LM on
    /// the response plane (VC0 only), and neighbour links on every plane.
    struct OutChan {
        int out = 0;
        int dst_plane = 0;
        int proto = 0;    ///< protocol plane of the inputs it serves
        bool eject = false;
    };

    static constexpr u32 kNoLink = ~u32{0};
    /// Link leaving a router port: the neighbour router and the global
    /// index of its arrival FIFO on plane 0 (add plane * n_ports_).
    struct Hop {
        u32 node = kNoLink;
        u32 slot = 0;
    };

    /// One response beat buffered at the master NI, with its error flag.
    struct RxBeat {
        u32 data = 0;
        bool err = false;
    };

    struct MasterNi {
        ocp::ChannelRef ch;
        u16 node = 0;
        /// AwaitAck exists only in fault mode: writes are no longer posted
        /// (the NI holds the transaction until the slave's ack or retry
        /// exhaustion) — the documented degradation cost of reliability.
        enum class St : u8 { Idle, CollectWrite, AwaitResp, AwaitAck } st = St::Idle;
        ocp::Cmd cmd = ocp::Cmd::Idle;
        u16 burst = 1;
        u16 beats = 0;     ///< accepted write beats
        u16 resp_sent = 0; ///< response beats forwarded to the master
        bool err = false;  ///< decode failure: synthesize ERR beats
        u32 pkt = 0;       ///< packet-table handle of the packet being built
        std::deque<Flit> tx;   ///< flits awaiting injection (plane 0)
        std::deque<RxBeat> rx; ///< response beats received

        // --- open-loop source state (docs/traffic.md); untouched in
        // closed-loop mode ---
        /// Complete packets (Head..Tail back-to-back) built at the offered
        /// rate and awaiting their turn in tx. Bounded by the configured
        /// pending_limit; a full queue stalls the source (the stall shows
        /// up in master_wait_cycles).
        std::deque<Flit> pending;
        u16 pending_tails = 0; ///< complete packets in `pending`
        /// Read packets in flight (injected, response Tail not yet back).
        /// Posted writes never count. Bounds tx hand-off when the
        /// configured max_outstanding is nonzero.
        u32 outstanding = 0;

        // --- fault-mode recovery state (docs/faults.md) ---
        std::vector<Flit> pkt_copy; ///< retained request for replay; empty
                                    ///< once the transaction resolved
        Packet retained;      ///< header and stamps of the retained request
        u16 seq = 0;          ///< current transaction's sequence number
        u32 attempts = 0;     ///< replays issued for this transaction
        u32 tx_csum = 0;      ///< emitter's running request checksum
        Cycle deadline = 0;   ///< retry timer (checked once tx drained)
        Cycle first_inject = 0; ///< first-attempt stamp (retry latency)
        bool cur_err = false;   ///< accepted response carried an Err beat
        bool synth_err = false; ///< beats synthesized after retry exhaustion
        bool ack_ok = false;    ///< write ack received
        bool resp_taken = false; ///< a valid response already committed
        // Response reassembly: beats are staged and only released to rx
        // once the tail checksum validates (store-and-forward at the NI).
        bool rx_discard = false;    ///< swallowing a stale/unwanted response
        u32 rx_csum = 0;            ///< staged-packet checksum accumulator
        std::vector<RxBeat> rx_stage;
    };

    struct SlaveNi {
        ocp::ChannelRef ch;
        u16 node = 0;
        std::deque<Flit> rx; ///< incoming request flits (bounded)
        u16 tails_in_rx = 0; ///< complete packets buffered (Tail count)
        enum class St : u8 { Idle, DriveReq, AwaitResp } st = St::Idle;
        PacketHeader hdr; ///< request being served
        std::vector<u32> wdata;
        u16 beats_driven = 0;
        u16 beats_resp = 0;
        bool pending = false;
        bool resp_err = false; ///< response packet carries >= 1 Err beat
        u32 resp_pkt = 0;      ///< packet-table handle of the response
        std::deque<Flit> tx; ///< response flits awaiting injection (plane 1)

        // --- fault-mode state (docs/faults.md) ---
        u32 rx_csum = 0;      ///< checksum of the request packet arriving
        u32 rx_pkt_start = 0; ///< rx index where that packet's head sits
        u32 resp_csum = 0;    ///< emitter's running response checksum
        /// Last sequence number served per requester node (replay dedupe);
        /// 0xFFFFFFFF = none yet.
        std::vector<u32> last_seq;
    };

    /// A committed flit transfer, collected against pre-move FIFO sizes and
    /// applied after all active routers were examined (two-phase, so a
    /// router's moves never see another router's moves of the same cycle).
    struct Move {
        enum class To : u8 {
            Router, ///< neighbour FIFO `dst` of router `dst_router`
            Master, ///< master NI `dst`
            Slave,  ///< slave NI `dst`
            /// Fault mode: discard the source flit instead of forwarding it
            /// (drop faults / packet swallowing). Emitted as a Move so
            /// FIFOs are still only mutated in the apply phase.
            Drop,
        };
        u32 router = 0; ///< source router
        u32 src = 0;    ///< global index of the source input FIFO
        u32 dst = 0;    ///< global FIFO index or NI index, per `to`
        u32 dst_router = 0;
        /// Fault mode: XOR the payload word with this mask on traversal.
        u32 corrupt_mask = 0;
        To to = To::Router;
    };

    /// Index of (plane, port) within one router's input FIFOs — and of
    /// the output channel (dst_plane, out) among its outputs.
    [[nodiscard]] std::size_t pidx(int plane, int port) const noexcept {
        return static_cast<std::size_t>(plane) *
                   static_cast<std::size_t>(n_ports_) +
               static_cast<std::size_t>(port);
    }

    // --- packet table ---
    [[nodiscard]] u32 new_packet(const Packet& p);
    void free_packet(u32 handle) { free_pkts_.push_back(handle); }
    [[nodiscard]] static Flit make_flit(Flit::Kind kind, u64 tag) noexcept {
        Flit f;
        f.kind = kind;
        f.tag = tag;
        return f;
    }
    /// Fault serial of `f` (fault mode only).
    [[nodiscard]] u64 serial_of(const Flit& f) const noexcept {
        switch (f.kind) {
            case Flit::Kind::Head: return pkts_[f.tag].head_serial;
            case Flit::Kind::Tail: return pkts_[f.tag].tail_serial;
            case Flit::Kind::Payload: break;
        }
        return f.tag;
    }

    // --- router input FIFOs (global index g = router * n_slots_ + pidx) ---
    [[nodiscard]] const Flit& front(std::size_t g) const noexcept {
        return buf_[g * cfg_.fifo_depth + in_[g].head];
    }
    /// Appends `f` to FIFO `g` of router `r`; a Head landing at the front
    /// raises its request.
    void push_flit(u32 r, std::size_t g, const Flit& f);
    /// Removes the front flit of FIFO `g` of router `r`, moving the request
    /// register to the next Head when one surfaces.
    Flit pop_flit(u32 r, std::size_t g);
    /// Routes the Head at the front of FIFO `g` and sets its bit in the
    /// requested output channel's mask.
    void raise_request(u32 r, std::size_t g);
    /// Grants output channel `oc` of router `r`: the first requesting input
    /// slot round-robin from rr, skipping fault-blocked ports; -1 if none.
    [[nodiscard]] int grant(u32 r, std::size_t oi) const noexcept;
    /// True while any input requests output channel `ob` (global index).
    [[nodiscard]] bool requested(std::size_t ob) const noexcept {
        const u64* mask = &req_mask_[ob * mask_words_];
        for (u32 w = 0; w < mask_words_; ++w)
            if (mask[w] != 0) return true;
        return false;
    }
    void set_live(u32 r, std::size_t oi) {
        live_[std::size_t{r} * live_words_ + (oi >> 6)] |= u64{1} << (oi & 63);
    }
    void clear_live(u32 r, std::size_t oi) {
        live_[std::size_t{r} * live_words_ + (oi >> 6)] &=
            ~(u64{1} << (oi & 63));
    }
    void mark_active(u32 r) { active_[r >> 6] |= u64{1} << (r & 63); }

    /// The one NI packet emitter: appends `f` to the NI queue `q` and
    /// returns the flit as queued. In fault mode it draws the flit's serial
    /// (the only place serials are drawn, so they follow emission order),
    /// restarts the running checksum `csum` on a Head, folds each payload
    /// into it and writes it into the Tail. Flits count toward
    /// flits_active_ unless `staged` (an open-loop pending queue, counted
    /// when it drains into tx).
    Flit emit(std::deque<Flit>& q, u32& csum, Flit f, bool staged = false);
    /// Emits one flit of the request packet the master NI is building: into
    /// tx (closed loop) or the pending queue (open loop, where its Tail
    /// seals the packet), retained for replay in fault mode.
    void emit_request(MasterNi& ni, Flit f);
    void eval_master_ni(MasterNi& ni);
    /// Takes the OCP command at an idle master NI: packetizes it (Head,
    /// first write beat) or answers a decode error, in every source mode.
    void accept(MasterNi& ni);
    /// Takes one write beat (the first comes from accept()): its Payload
    /// flit, and the Tail after the burst's last beat. A decode-error
    /// write has its beats collected and discarded.
    void write_beat(MasterNi& ni);
    void eval_slave_ni(SlaveNi& ni);
    /// Response-plane packet answering the request `ni` serves, created
    /// now (responses never queue at a source: created == inject).
    [[nodiscard]] Packet response_packet(const SlaveNi& ni) const;
    /// Open-loop source mode (only called when open_): hands the oldest
    /// complete pending packet to tx (restamping inject to now) when tx is
    /// empty and the outstanding bound allows.
    void open_drain_pending(MasterNi& ni);
    /// Tail-delivery latency sampling shared by both NI sides: end-to-end
    /// always; plus the source-queueing / in-network decomposition in
    /// open-loop mode.
    void record_delivery(const Flit& tail);
    void eval_routers();
    void collect_router_moves(u32 r);
    /// Allocates (if unbound) and tries to move one flit through output
    /// channel `oi` of router `r`.
    void collect_output(u32 r, std::size_t oi);
    void inject(std::deque<Flit>& tx, u16 node, int port, int plane);
    /// Apply-phase delivery of a response flit to a master NI, in every
    /// mode: replayed beat by beat over OCP (closed loop), absorbed (open
    /// loop), or staged, stale-filtered and checksum-validated (fault mode).
    void deliver_to_master(MasterNi& ni, const Flit& flit);
    /// Apply-phase delivery of a request flit to a slave NI, in every mode;
    /// fault mode rejects a packet whose checksum fails.
    void deliver_to_slave(SlaveNi& ni, const Flit& flit);

    // --- fault-mode helpers (no-ops / never called when fault_on_ is
    // false; docs/faults.md documents the protocol) ---
    /// Per-port fault pre-pass: draws fault decisions for FIFO-head flits,
    /// emits drop moves, counts down stalls, and marks blocked ports.
    void collect_port_faults(u32 r);
    /// Replays the retained packet with fresh serials and doubled timeout,
    /// or — attempts exhausted — resolves the transaction as lost.
    void retry_or_give_up(MasterNi& ni);
    /// Transaction resolved at the master NI: delivered / err_delivered /
    /// recovered accounting, releases the retained copy.
    void complete_txn(MasterNi& ni);
    /// Queues the slave NI's write acknowledgement packet (Head + Tail).
    void push_ack(SlaveNi& ni);

    XpipesConfig cfg_;
    /// Routing + adjacency provider (docs/topology.md); fixed per network.
    std::unique_ptr<Topology> topo_;
    int n_ports_ = 6;  ///< neighbour ports + the two local NI ports
    int lm_port_ = 4;  ///< local master-NI port (responses eject here)
    int ls_port_ = 5;  ///< local slave-NI port (requests eject here)
    int vc_count_ = 1; ///< topology VCs per protocol plane (Topology::vcs)
    int n_planes_ = kNumPlanes; ///< buffer planes: kNumPlanes * vc_count_
    /// Bubble allocation rule for irregular (table) topologies: a Head
    /// flit only claims an inter-router link whose downstream FIFO keeps
    /// >= 1 slot free after the move (docs/topology.md) — a documented
    /// heuristic, not a deadlock-freedom proof. False on the mesh (whose
    /// allocation thus stays bit-identical) and on the torus (which is
    /// deadlock-free by dateline VCs instead).
    bool bubble_ = false;
    FaultModel fault_model_;
    /// cfg_.fault.enabled(), cached: every fault hook is guarded on it so
    /// the zero-fault configuration takes none of the new paths.
    bool fault_on_ = false;
    /// Next flit serial (fault mode), drawn only by emit(); NI-evaluation
    /// order is fixed, so the assignment — and with it every fault site —
    /// is schedule-independent.
    u64 next_serial_ = 1;
    /// Master-NI transactions inside the fault domain not yet resolved
    /// (delivered / Err-reported / lost). Keeps quiet_for() at 0 so retry
    /// timers fire even when a drop left no flits in flight.
    u32 pending_txns_ = 0;
    // --- open-loop source mode (configure_open_source, docs/traffic.md) ---
    bool open_ = false;
    u32 open_max_out_ = 0;       ///< per-NI in-flight read bound, 0 = none
    u32 open_pending_limit_ = 64; ///< per-NI pending-packet queue bound
    /// Complete packets parked across all NI pending queues; keeps
    /// quiet_for() at 0 until the backlog drains. Always 0 in closed mode.
    u32 open_backlog_ = 0;
    AddressMap map_;
    // --- packet table ---
    std::vector<Packet> pkts_;
    std::vector<u32> free_pkts_; ///< released handles, reused first
    std::vector<MasterNi> masters_;
    std::vector<SlaveNi> slaves_;
    std::vector<int> master_at_node_; ///< node -> master index or -1
    std::vector<int> slave_at_node_;  ///< node -> slave index or -1
    std::vector<u16> slave_node_;     ///< slave index -> node
    XpipesStats stats_;
    bool any_activity_ = false;
    /// Local cycle counter, bit-aligned with sim::Kernel::now() (update()
    /// increments, advance() jumps); the time base for latency stamps.
    Cycle now_ = 0;
    /// Flits currently inside the network (router FIFOs + NI tx queues);
    /// the router phase is skipped when zero.
    u32 flits_active_ = 0;

    // --- router state: flat arrays over (router, plane, port) ---
    /// Input FIFOs (and output channels) per router: n_planes_ * n_ports_.
    u32 n_slots_ = 0;
    std::vector<Flit> buf_;   ///< ring storage, fifo_depth flits per FIFO
    std::vector<InPort> in_;  ///< per input FIFO
    /// Wormhole binding per output channel: the input slot pidx(plane,
    /// port) whose packet owns the channel from Head to Tail, -1 when free.
    /// Keyed by the destination plane — not the input's — so with dateline
    /// VCs a packet bound for downstream VC0 never holds the switch against
    /// one bound for VC1 of the same link (that coupling would re-create
    /// the ring dependency cycle the datelines break), and each downstream
    /// FIFO has a single writer per cycle by construction.
    std::vector<i32> bound_;
    std::vector<u32> rr_; ///< round-robin port pointer per output channel
    /// Request bitmask per output channel, mask_words_ words each: bit
    /// port * vc_count_ + vc is set while that input's front Head requests
    /// the channel — the order round-robin arbitration walks.
    std::vector<u64> req_mask_;
    u32 mask_words_ = 1;
    std::vector<u32> slot_bit_;  ///< input slot -> request bit
    std::vector<u32> bit_slot_;  ///< (protocol plane, request bit) -> slot
    /// Per output channel index; only channels allocation serves go live.
    std::vector<OutChan> chans_;
    /// Live output channels per router, live_words_ words each: bit oi set
    /// iff channel oi is bound or requested. The router visit walks these
    /// bits in ascending (plane, port) order — the switch's order.
    std::vector<u64> live_;
    u32 live_words_ = 1;
    std::vector<Hop> hops_;      ///< per (router, port), built at construction
    std::vector<RouterLoad> load_;
    std::vector<PortFault> fault_; ///< per input FIFO, fault mode only
    /// Active set: bit r set iff router r holds flits or a binding. The
    /// gated router phase walks it in index order — the full scan's order.
    std::vector<u64> active_;
    std::vector<Move> moves_; ///< reused per cycle (allocation-free steady state)
};

} // namespace tgsim::ic
