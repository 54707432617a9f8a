#include "ic/xpipes/xpipes.hpp"

#include <bit>
#include <stdexcept>

#include "ocp/master_port.hpp"

namespace tgsim::ic {

XpipesNetwork::XpipesNetwork(XpipesConfig cfg)
    : cfg_(cfg), fault_model_(cfg_.fault) {
    if (cfg_.topology != TopologyKind::Table &&
        (cfg_.width == 0 || cfg_.height == 0))
        throw std::invalid_argument{"XpipesNetwork: empty mesh"};
    if (cfg_.fifo_depth < 2)
        throw std::invalid_argument{"XpipesNetwork: fifo_depth must be >= 2"};
    topo_ = make_topology(cfg_.topology, cfg_.width, cfg_.height, cfg_.graph);
    const int nbr_ports = static_cast<int>(topo_->neighbor_ports());
    lm_port_ = nbr_ports;
    ls_port_ = nbr_ports + 1;
    n_ports_ = nbr_ports + 2;
    vc_count_ = static_cast<int>(topo_->vcs());
    n_planes_ = kNumPlanes * vc_count_;
    bubble_ = topo_->needs_bubble();
    fault_on_ = cfg_.fault.enabled();
    const u32 nodes = node_count();
    n_slots_ = static_cast<u32>(n_planes_ * n_ports_);
    const std::size_t fifos = std::size_t{nodes} * n_slots_;
    // Moves address FIFOs by 32-bit global index.
    if (fifos > ~u32{0})
        throw std::invalid_argument{"XpipesNetwork: fabric too large"};
    buf_.resize(fifos * cfg_.fifo_depth);
    in_.resize(fifos);
    bound_.assign(fifos, -1);
    rr_.assign(fifos, 0);
    const u32 req_bits = static_cast<u32>(n_ports_ * vc_count_);
    mask_words_ = (req_bits + 63) / 64;
    req_mask_.assign(fifos * mask_words_, 0);
    load_.resize(nodes);
    if (fault_on_) fault_.resize(fifos);
    active_.assign((nodes + 63) / 64, 0);

    // Request bits follow the allocator's scan order: port-major, VC0
    // before VC1 within a port, so round-robin from bit rr * vc_count_
    // visits inputs exactly as a (port, vc) rescan would.
    slot_bit_.resize(n_slots_);
    bit_slot_.resize(static_cast<std::size_t>(kNumPlanes) * req_bits);
    for (int plane = 0; plane < n_planes_; ++plane) {
        for (int port = 0; port < n_ports_; ++port) {
            const u32 bit = static_cast<u32>(port * vc_count_ + plane % vc_count_);
            slot_bit_[pidx(plane, port)] = bit;
            bit_slot_[static_cast<std::size_t>(plane / vc_count_) * req_bits +
                      bit] = static_cast<u32>(pidx(plane, port));
        }
    }
    // Output channels. Responses leave through LM, requests through LS;
    // neighbour links carry both planes. An NI rx is one resource, not one
    // per VC, so requests to eject name the VC0 channel, which drains every
    // input VC of its protocol plane.
    chans_.resize(n_slots_);
    for (int dp = 0; dp < n_planes_; ++dp)
        for (int out = 0; out < n_ports_; ++out)
            chans_[pidx(dp, out)] = OutChan{
                out, dp, dp / vc_count_, out == lm_port_ || out == ls_port_};
    live_words_ = (n_slots_ + 63) / 64;
    live_.assign(std::size_t{nodes} * live_words_, 0);
    hops_.resize(std::size_t{nodes} * static_cast<std::size_t>(n_ports_));
    for (u32 r = 0; r < nodes; ++r) {
        for (int out = 0; out < lm_port_; ++out) {
            const auto nbr = topo_->link(r, out);
            if (!nbr) continue; // dead port: routing never selects one
            hops_[std::size_t{r} * static_cast<std::size_t>(n_ports_) +
                  static_cast<std::size_t>(out)] =
                Hop{nbr->node, static_cast<u32>(nbr->node * n_slots_ +
                                                pidx(0, nbr->port))};
        }
    }
    master_at_node_.assign(nodes, -1);
    slave_at_node_.assign(nodes, -1);
    moves_.reserve(16);
}

void XpipesNetwork::configure_open_source(u32 max_outstanding,
                                          u32 pending_limit) {
    if (pending_limit == 0)
        throw std::invalid_argument{
            "XpipesNetwork: open-loop pending_limit must be >= 1"};
    if (fault_on_)
        throw std::invalid_argument{
            "XpipesNetwork: open-loop sources cannot combine with fault "
            "injection"};
    open_ = true;
    open_max_out_ = max_outstanding;
    open_pending_limit_ = pending_limit;
}

std::size_t XpipesNetwork::connect_master(ocp::ChannelRef ch, int node) {
    if (node < 0 || static_cast<u32>(node) >= node_count())
        throw std::invalid_argument{"XpipesNetwork: master node out of range"};
    if (master_at_node_[static_cast<std::size_t>(node)] >= 0)
        throw std::invalid_argument{"XpipesNetwork: node already has a master NI"};
    MasterNi ni;
    ni.ch = ch;
    ni.node = static_cast<u16>(node);
    masters_.push_back(std::move(ni));
    master_at_node_[static_cast<std::size_t>(node)] =
        static_cast<int>(masters_.size() - 1);
    stats_.master_wait_cycles.push_back(0);
    return track_master(ch);
}

std::size_t XpipesNetwork::connect_slave(ocp::ChannelRef ch, u32 base, u32 size,
                                         int node) {
    if (node < 0 || static_cast<u32>(node) >= node_count())
        throw std::invalid_argument{"XpipesNetwork: slave node out of range"};
    if (slave_at_node_[static_cast<std::size_t>(node)] >= 0)
        throw std::invalid_argument{"XpipesNetwork: node already has a slave NI"};
    const std::size_t idx = map_.add_range(base, size);
    SlaveNi ni;
    ni.ch = ch;
    ni.node = static_cast<u16>(node);
    if (fault_on_) ni.last_seq.assign(node_count(), 0xFFFFFFFFu);
    slaves_.push_back(std::move(ni));
    slave_at_node_[static_cast<std::size_t>(node)] =
        static_cast<int>(slaves_.size() - 1);
    slave_node_.push_back(static_cast<u16>(node));
    return idx;
}

u32 XpipesNetwork::new_packet(const Packet& p) {
    if (free_pkts_.empty()) {
        pkts_.push_back(p);
        return static_cast<u32>(pkts_.size() - 1);
    }
    const u32 h = free_pkts_.back();
    free_pkts_.pop_back();
    pkts_[h] = p;
    return h;
}

XpipesNetwork::Flit XpipesNetwork::emit(std::deque<Flit>& q, u32& csum,
                                        Flit f, bool staged) {
    if (fault_on_) {
        // The only place serials are drawn: in emission order, and NI
        // evaluation order is fixed, so every fault site is
        // schedule-independent (docs/faults.md).
        const u64 serial = next_serial_++;
        switch (f.kind) {
            case Flit::Kind::Head:
                pkts_[f.tag].head_serial = serial;
                csum = csum_init();
                break;
            case Flit::Kind::Payload:
                f.tag = serial;
                csum = csum_step(csum, f.payload);
                break;
            case Flit::Kind::Tail:
                pkts_[f.tag].tail_serial = serial;
                f.payload = csum;
                break;
        }
    }
    q.push_back(f);
    if (!staged) ++flits_active_;
    return f;
}

void XpipesNetwork::emit_request(MasterNi& ni, Flit f) {
    f = emit(open_ ? ni.pending : ni.tx, ni.tx_csum, f, open_);
    if (fault_on_) ni.pkt_copy.push_back(f);
    if (open_ && f.kind == Flit::Kind::Tail) {
        // The packet is complete: it may now drain into tx.
        ++ni.pending_tails;
        ++open_backlog_;
        if (ni.pending_tails > stats_.pending_peak)
            stats_.pending_peak = ni.pending_tails;
    }
}

void XpipesNetwork::eval_master_ni(MasterNi& ni) {
    const ocp::ChannelRef ch = ni.ch;
    ch.tidy_response();
    switch (ni.st) {
        case MasterNi::St::Idle:
            if (ch.m_cmd() != ocp::Cmd::Idle) accept(ni);
            break;
        case MasterNi::St::CollectWrite:
            if (!ocp::is_write(ch.m_cmd())) break; // master must hold the burst
            ch.s_cmd_accept() = true;
            ch.touch_s();
            write_beat(ni);
            any_activity_ = true;
            break;
        case MasterNi::St::AwaitResp: {
            // Fault mode: no response and nothing left to inject — check
            // the retry timer (pkt_copy is empty once the transaction
            // resolved or for decode-error turnarounds, disarming it).
            if (fault_on_ && !ni.pkt_copy.empty() && ni.rx.empty() &&
                ni.tx.empty() && now_ >= ni.deadline) {
                retry_or_give_up(ni);
                break;
            }
            if (ni.rx.empty() || !ch.m_resp_accept()) break;
            const RxBeat beat = ni.rx.front();
            ch.s_resp() = beat.err ? ocp::Resp::Err : ocp::Resp::Dva;
            ch.s_data() = beat.data;
            ch.s_resp_last() = (ni.resp_sent + 1 == ni.burst);
            ch.touch_s();
            ni.rx.pop_front();
            ++ni.resp_sent;
            if (ni.resp_sent == ni.burst) {
                if (fault_on_ && !ni.err) complete_txn(ni);
                ni.st = MasterNi::St::Idle;
            }
            any_activity_ = true;
            break;
        }
        case MasterNi::St::AwaitAck: {
            if (ni.ack_ok) {
                complete_txn(ni);
                ni.ack_ok = false;
                ni.st = MasterNi::St::Idle;
                any_activity_ = true;
                break;
            }
            if (!ni.pkt_copy.empty() && ni.tx.empty() && now_ >= ni.deadline)
                retry_or_give_up(ni);
            break;
        }
    }
    // Open-loop drain runs after acceptance, so a packet sealed this cycle
    // with an idle tx enters the network this cycle (zero source-queueing
    // latency at zero load, matching closed-loop timing).
    if (open_) open_drain_pending(ni);
}

void XpipesNetwork::accept(MasterNi& ni) {
    const ocp::ChannelRef ch = ni.ch;
    // A closed-loop NI holds one packet in tx at a time; an open-loop
    // source is only ever stalled by a full pending queue (docs/traffic.md).
    if (open_ ? ni.pending_tails >= open_pending_limit_ : !ni.tx.empty()) {
        stats_.master_wait_cycles[static_cast<std::size_t>(
            &ni - masters_.data())] += 1;
        return;
    }
    ni.cmd = ch.m_cmd();
    ni.burst = ocp::is_burst(ni.cmd)
                   ? std::max<u16>(1, std::min<u16>(ch.m_burst(), ocp::kMaxBurstLen))
                   : u16{1};
    ni.beats = 0;
    ni.resp_sent = 0;
    ni.rx.clear();
    const auto slave_idx = map_.decode(ch.m_addr());
    ni.err = !slave_idx;
    any_activity_ = true;
    ch.s_cmd_accept() = true; // consume the first (or only) beat
    ch.touch_s();
    if (ni.err) {
        ++stats_.decode_errors;
    } else {
        Packet pk;
        pk.hdr.cmd = ni.cmd;
        pk.hdr.addr = ch.m_addr();
        pk.hdr.burst = ni.burst;
        pk.hdr.src_node = ni.node;
        pk.hdr.dest_node = slave_node_[*slave_idx];
        pk.hdr.is_resp = false;
        pk.created = now_;
        pk.inject = now_; // open loop: restamped when the packet drains
        if (fault_on_) {
            // The transaction enters the fault domain: retain the packet
            // for replay, arm the retry timer, open the accountability
            // window (docs/faults.md).
            pk.hdr.seq = ++ni.seq;
            ni.retained = pk;
            ni.pkt_copy.clear();
            ni.attempts = 0;
            ni.first_inject = now_;
            ni.deadline = now_ + cfg_.fault.retry_timeout;
            ni.cur_err = false;
            ni.synth_err = false;
            ni.resp_taken = false;
            ni.ack_ok = false;
            ++pending_txns_;
            ++stats_.reliability.injected;
        }
        ni.pkt = new_packet(pk);
        ++stats_.packets_sent;
        emit_request(ni, make_flit(Flit::Kind::Head, ni.pkt));
    }
    if (ocp::is_write(ni.cmd)) {
        write_beat(ni);
    } else if (!ni.err) {
        emit_request(ni, make_flit(Flit::Kind::Tail, ni.pkt));
        // Open-loop reads stay Idle: the response is absorbed at delivery,
        // never replayed over OCP.
        if (!open_) ni.st = MasterNi::St::AwaitResp;
    } else if (!open_) {
        // A closed-loop master waits for its read: answer with Err beats.
        // Open-loop masters never wait for read data.
        ni.rx.assign(ni.burst, RxBeat{ocp::kPoison, true});
        ni.st = MasterNi::St::AwaitResp;
    }
}

void XpipesNetwork::write_beat(MasterNi& ni) {
    // A decode-error write has its beats collected and discarded.
    if (!ni.err) {
        Flit beat = make_flit(Flit::Kind::Payload, 0);
        beat.payload = ni.ch.m_data();
        emit_request(ni, beat);
    }
    if (++ni.beats < ni.burst) {
        ni.st = MasterNi::St::CollectWrite;
        return;
    }
    if (!ni.err) emit_request(ni, make_flit(Flit::Kind::Tail, ni.pkt));
    // Fault mode: the write is held until the slave's ack (docs/faults.md).
    ni.st = (fault_on_ && !ni.err) ? MasterNi::St::AwaitAck
                                   : MasterNi::St::Idle;
}

void XpipesNetwork::open_drain_pending(MasterNi& ni) {
    if (ni.pending_tails == 0 || !ni.tx.empty()) return;
    if (open_max_out_ > 0 && ni.outstanding >= open_max_out_) return;
    // Hand the oldest complete packet to tx; its in-network life starts
    // now, so restamp its inject time.
    Packet& pk = pkts_[ni.pending.front().tag];
    pk.inject = now_;
    const bool read = ocp::is_read(pk.hdr.cmd);
    for (;;) {
        const Flit f = ni.pending.front();
        ni.pending.pop_front();
        const bool was_tail = f.kind == Flit::Kind::Tail;
        ni.tx.push_back(f);
        ++flits_active_;
        if (was_tail) break;
    }
    --ni.pending_tails;
    --open_backlog_;
    if (read) ++ni.outstanding;
    any_activity_ = true;
}

void XpipesNetwork::record_delivery(const Flit& tail) {
    const Packet& pk = pkts_[tail.tag];
    stats_.packet_latency.record(now_ - pk.created);
    if (open_) {
        // Per-packet decomposition, recorded back-to-back so sample i in
        // each series refers to the same packet and
        // source_q + net == end-to-end holds exactly in integer cycles.
        stats_.net_latency.record(now_ - pk.inject);
        stats_.source_q_latency.record(pk.inject - pk.created);
    }
}

void XpipesNetwork::complete_txn(MasterNi& ni) {
    if (ni.synth_err) return; // already resolved as lost at retry exhaustion
    auto& rel = stats_.reliability;
    if (ni.cur_err) {
        ++rel.err_delivered;
    } else {
        ++rel.delivered;
        if (ni.attempts > 0) {
            ++rel.recovered;
            rel.retry_latency.record(now_ - ni.first_inject);
        }
    }
    --pending_txns_;
    ni.pkt_copy.clear();
}

void XpipesNetwork::retry_or_give_up(MasterNi& ni) {
    auto& rel = stats_.reliability;
    any_activity_ = true;
    if (ni.attempts >= cfg_.fault.max_retries) {
        ++rel.lost;
        --pending_txns_;
        ni.pkt_copy.clear();
        if (ocp::is_write(ni.cmd)) {
            ni.st = MasterNi::St::Idle; // abandoned write, counted lost
        } else {
            // Reads block the master: synthesize Resp::Err beats so the
            // transaction terminates visibly instead of hanging.
            ni.synth_err = true;
            ni.rx.assign(ni.burst, RxBeat{ocp::kPoison, true});
        }
        return;
    }
    ++ni.attempts;
    ++rel.retries;
    // The replay is a packet of its own (the original's entry is released
    // when its Tail is consumed); the emitter gives it fresh serials, in
    // flit order as on the first attempt, and the same checksum.
    const u32 h = new_packet(ni.retained);
    for (Flit f : ni.pkt_copy) {
        if (f.kind != Flit::Kind::Payload) f.tag = h;
        emit(ni.tx, ni.tx_csum, f);
    }
    // Bounded exponential backoff: replayed traffic must not amplify the
    // congestion that delayed the original response.
    const u32 shift = std::min(ni.attempts, 6u);
    ni.deadline = now_ + (cfg_.fault.retry_timeout << shift);
    ni.resp_taken = false;
    ni.ack_ok = false;
}

void XpipesNetwork::eval_slave_ni(SlaveNi& ni) {
    const ocp::ChannelRef ch = ni.ch;
    ch.tidy_request();
    switch (ni.st) {
        case SlaveNi::St::Idle: {
            if (ni.tails_in_rx == 0) break;
            // Pop one whole packet (Head .. Tail).
            ni.hdr = pkts_[ni.rx.front().tag].hdr;
            ni.rx.pop_front();
            ni.wdata.clear();
            while (!ni.rx.empty() && ni.rx.front().kind == Flit::Kind::Payload) {
                ni.wdata.push_back(ni.rx.front().payload);
                ni.rx.pop_front();
            }
            // Tail
            free_packet(static_cast<u32>(ni.rx.front().tag));
            ni.rx.pop_front();
            --ni.tails_in_rx;
            ni.beats_driven = 0;
            ni.beats_resp = 0;
            ni.pending = false;
            if (fault_on_) {
                // Replay dedupe: a duplicate write (its first copy was
                // applied but the ack got lost) must not be re-applied to
                // the slave — just re-acknowledge. Duplicate reads are
                // idempotent and simply re-served.
                const auto src = static_cast<std::size_t>(ni.hdr.src_node);
                if (ni.last_seq[src] == ni.hdr.seq) {
                    ++stats_.reliability.dup_requests;
                    if (ocp::is_write(ni.hdr.cmd)) {
                        push_ack(ni);
                        any_activity_ = true;
                        break;
                    }
                } else {
                    ni.last_seq[src] = ni.hdr.seq;
                }
            }
            ni.st = SlaveNi::St::DriveReq;
            [[fallthrough]];
        }
        case SlaveNi::St::DriveReq: {
            any_activity_ = true;
            const bool accepted = ni.pending && ch.s_cmd_accept();
            if (accepted) {
                ni.pending = false;
                ++ni.beats_driven;
                if (ocp::is_read(ni.hdr.cmd)) {
                    ni.st = SlaveNi::St::AwaitResp;
                    break;
                }
                if (ni.beats_driven == ni.hdr.burst) {
                    if (fault_on_) push_ack(ni); // write delivered: ack it
                    ni.st = SlaveNi::St::Idle;
                    break;
                }
            }
            // Drive the current beat (write data comes from the packet
            // buffer, so there is no bubble between beats).
            ch.m_cmd() = ni.hdr.cmd;
            ch.m_addr() = ni.hdr.addr;
            ch.m_burst() = ni.hdr.burst;
            ch.m_data() = ocp::is_write(ni.hdr.cmd) && ni.beats_driven < ni.wdata.size()
                            ? ni.wdata[ni.beats_driven]
                            : 0;
            ch.touch_m();
            ni.pending = true;
            break;
        }
        case SlaveNi::St::AwaitResp: {
            any_activity_ = true;
            if (ch.s_resp() == ocp::Resp::None) break;
            ch.m_resp_accept() = true;
            ch.touch_m();
            if (ni.beats_resp == 0) {
                // Response packets are measured per packet, from their own
                // creation cycle (the request's delivery sample was already
                // taken when its Tail reached this NI).
                ni.resp_err = false;
                ni.resp_pkt = new_packet(response_packet(ni));
                ++stats_.packets_sent;
                emit(ni.tx, ni.resp_csum,
                     make_flit(Flit::Kind::Head, ni.resp_pkt));
            }
            // An Err beat travels as a poisoned payload with the error flag
            // set, so the far NI can replay it as Resp::Err instead of
            // laundering it into ordinary data.
            Flit beat = make_flit(Flit::Kind::Payload, 0);
            beat.err = (ch.s_resp() == ocp::Resp::Err);
            beat.payload = beat.err ? ocp::kPoison : ch.s_data();
            if (beat.err) ni.resp_err = true;
            emit(ni.tx, ni.resp_csum, beat);
            if (++ni.beats_resp == ni.hdr.burst) {
                // The tail summarises the packet: err marks an Err-carrying
                // response (kept out of the latency percentiles at the far
                // NI).
                Flit tail = make_flit(Flit::Kind::Tail, ni.resp_pkt);
                tail.err = ni.resp_err;
                emit(ni.tx, ni.resp_csum, tail);
                ni.st = SlaveNi::St::Idle;
            }
            break;
        }
    }
}

XpipesNetwork::Packet XpipesNetwork::response_packet(const SlaveNi& ni) const {
    Packet pk;
    pk.hdr = ni.hdr;
    pk.hdr.is_resp = true;
    pk.hdr.dest_node = ni.hdr.src_node;
    pk.hdr.src_node = ni.node;
    pk.created = now_;
    pk.inject = now_;
    return pk;
}

void XpipesNetwork::push_ack(SlaveNi& ni) {
    // Write acknowledgement: a Head + Tail response-plane packet echoing
    // the request's seq, its Tail carrying the checksum of zero beats.
    // Only exists in fault mode (writes stop being posted end-to-end — the
    // documented cost of reliable delivery).
    const u32 h = new_packet(response_packet(ni));
    ++stats_.packets_sent;
    u32 csum = 0;
    emit(ni.tx, csum, make_flit(Flit::Kind::Head, h));
    emit(ni.tx, csum, make_flit(Flit::Kind::Tail, h));
}

void XpipesNetwork::raise_request(u32 r, std::size_t g) {
    const std::size_t s = g - std::size_t{r} * n_slots_;
    const int plane = static_cast<int>(s) / n_ports_;
    const int port = static_cast<int>(s) % n_ports_;
    const int proto = plane / vc_count_;
    const PacketHeader& hdr = pkts_[front(g).tag].hdr;
    // The topology's next hop, or the local ejection port (LM for
    // responses, LS for requests) on arrival; ejects use the VC0 channel.
    const int out = topo_->route(r, hdr.dest_node);
    std::size_t oi = 0;
    if (out < 0) {
        oi = pidx(proto * vc_count_, hdr.is_resp ? lm_port_ : ls_port_);
    } else {
        // A Head claims exactly the VC its topology transition assigns
        // (pure in the inputs, so the packet's body lands on the same
        // plane).
        const int vc = plane % vc_count_;
        const int dvc = vc_count_ > 1 ? topo_->next_vc(r, port, out, vc) : vc;
        oi = pidx(proto * vc_count_ + dvc, out);
    }
    in_[g].req = static_cast<i32>(oi);
    const u32 bit = slot_bit_[s];
    req_mask_[(std::size_t{r} * n_slots_ + oi) * mask_words_ + (bit >> 6)] |=
        u64{1} << (bit & 63);
    set_live(r, oi);
}

void XpipesNetwork::push_flit(u32 r, std::size_t g, const Flit& f) {
    InPort& in = in_[g];
    u32 at = in.head + in.size;
    if (at >= cfg_.fifo_depth) at -= cfg_.fifo_depth;
    buf_[g * cfg_.fifo_depth + at] = f;
    if (in.size++ == 0 && f.kind == Flit::Kind::Head) raise_request(r, g);
    if (load_[r].occupancy++ == 0) mark_active(r);
}

XpipesNetwork::Flit XpipesNetwork::pop_flit(u32 r, std::size_t g) {
    InPort& in = in_[g];
    const Flit f = buf_[g * cfg_.fifo_depth + in.head];
    if (++in.head == cfg_.fifo_depth) in.head = 0;
    --in.size;
    if (f.kind == Flit::Kind::Head) {
        const auto oi = static_cast<std::size_t>(in.req);
        const std::size_t ob = std::size_t{r} * n_slots_ + oi;
        const u32 bit = slot_bit_[g - std::size_t{r} * n_slots_];
        req_mask_[ob * mask_words_ + (bit >> 6)] &= ~(u64{1} << (bit & 63));
        in.req = -1;
        if (bound_[ob] < 0 && !requested(ob)) clear_live(r, oi);
    }
    if (in.size > 0 && front(g).kind == Flit::Kind::Head) raise_request(r, g);
    RouterLoad& ld = load_[r];
    if (--ld.occupancy == 0 && ld.bound_count == 0)
        active_[r >> 6] &= ~(u64{1} << (r & 63));
    return f;
}

void XpipesNetwork::inject(std::deque<Flit>& tx, u16 node, int port, int plane) {
    if (tx.empty()) return;
    const std::size_t g = std::size_t{node} * n_slots_ + pidx(plane, port);
    if (in_[g].size >= cfg_.fifo_depth) return;
    push_flit(node, g, tx.front());
    tx.pop_front();
    any_activity_ = true;
}

void XpipesNetwork::collect_port_faults(u32 r) {
    const std::size_t base = std::size_t{r} * n_slots_;
    for (std::size_t g = base; g < base + n_slots_; ++g) {
        if (in_[g].size == 0) continue;
        PortFault& pf = fault_[g];
        pf.blocked = false;
        Move drop;
        drop.router = r;
        drop.src = static_cast<u32>(g);
        drop.to = Move::To::Drop;
        if (pf.swallowing) {
            // A drop fault consumed this packet's head; swallow the
            // remaining flits one per cycle (link rate) until the Tail.
            moves_.push_back(drop);
            pf.blocked = true;
            continue;
        }
        const Flit& f = front(g);
        const u64 serial = serial_of(f);
        if (pf.serial != serial) {
            // Exactly one fault decision per (router, flit), drawn when the
            // flit reaches the FIFO head.
            pf.serial = serial;
            const FaultModel::Draw d = fault_model_.draw(r, serial);
            pf.kind = d.kind;
            pf.mask = d.mask;
            pf.stall_left = d.stall;
            if (d.kind == FaultKind::Stall) ++stats_.reliability.stall_events;
        }
        if (pf.stall_left > 0) {
            --pf.stall_left;
            ++stats_.reliability.stall_cycles;
            pf.blocked = true;
            continue;
        }
        if (pf.kind == FaultKind::Drop && f.kind == Flit::Kind::Head) {
            moves_.push_back(drop);
            pf.blocked = true;
        }
    }
}

int XpipesNetwork::grant(u32 r, std::size_t oi) const noexcept {
    const std::size_t ob = std::size_t{r} * n_slots_ + oi;
    const u64* mask = &req_mask_[ob * mask_words_];
    const u32 n_bits = static_cast<u32>(n_ports_ * vc_count_);
    const u32* slots =
        &bit_slot_[static_cast<std::size_t>(chans_[oi].proto) * n_bits];
    // First requesting, unblocked input among bits [lo, hi), or -1.
    const auto scan = [&](u32 lo, u32 hi) {
        for (u32 w = lo >> 6; (w << 6) < hi; ++w) {
            u64 bits = mask[w];
            if ((w << 6) < lo) bits &= ~u64{0} << (lo & 63);
            for (; bits != 0; bits &= bits - 1) {
                const u32 bit = (w << 6) + static_cast<u32>(std::countr_zero(bits));
                if (bit >= hi) break;
                const u32 s = slots[bit];
                if (fault_on_ && fault_[std::size_t{r} * n_slots_ + s].blocked)
                    continue; // stalled or being dropped
                return static_cast<int>(s);
            }
        }
        return -1;
    };
    const u32 start = rr_[ob] * static_cast<u32>(vc_count_);
    const int s = scan(start, n_bits);
    return s >= 0 ? s : scan(0, start);
}

void XpipesNetwork::collect_router_moves(u32 r) {
    ++stats_.router_visits;
    if (fault_on_) collect_port_faults(r);
    // Only live output channels (bound or requested) can move a flit; their
    // bits ascend in (plane, port) order, the order the switch serves them.
    const u64* live = &live_[std::size_t{r} * live_words_];
    for (u32 w = 0; w < live_words_; ++w)
        for (u64 bits = live[w]; bits != 0; bits &= bits - 1)
            collect_output(r, (std::size_t{w} << 6) +
                                  static_cast<std::size_t>(std::countr_zero(bits)));
}

void XpipesNetwork::collect_output(u32 r, std::size_t oi) {
    const u32 ni_rx_cap = ocp::kMaxBurstLen + 4;
    const std::size_t base = std::size_t{r} * n_slots_;
    const OutChan& oc = chans_[oi];
    const std::size_t ob = base + oi;
    // The switch is allocated per *output channel* — (destination buffer
    // plane, out port) — not per input plane. With dateline VCs the
    // distinction is load-bearing: a packet bound for downstream VC0 must
    // never hold the switch against a packet bound for VC1 of the same
    // link, or the coupling re-creates the ring dependency cycle the
    // datelines break (docs/topology.md). One binding slot per output
    // channel also makes each downstream FIFO single-writer-per-cycle by
    // construction, so the live capacity reads below stay exact.
    //
    // Input slot wormhole-bound to this output channel, held from Head to
    // Tail; otherwise allocate round-robin among the requesters.
    int src = bound_[ob];
    if (src < 0) {
        src = grant(r, oi);
        if (src < 0) return;
        bound_[ob] = src;
        ++load_[r].bound_count;
        rr_[ob] = static_cast<u32>((src % n_ports_ + 1) % n_ports_);
    }
    const std::size_t g = base + static_cast<std::size_t>(src);
    if (in_[g].size == 0) return;
    if (fault_on_ && fault_[g].blocked)
        return; // fault pre-pass withheld this flit this cycle
    const Flit& f = front(g);

    // Destination capacities are read live: nothing pops or pushes a FIFO
    // until the apply phase, so these reads see exactly the start-of-phase
    // sizes (each input FIFO also has a single writer per cycle, so
    // committed moves cannot overfill one).
    Move mv;
    mv.router = r;
    mv.src = static_cast<u32>(g);
    if (fault_on_ && f.kind == Flit::Kind::Payload) {
        const PortFault& pf = fault_[g];
        if (pf.kind == FaultKind::Corrupt && pf.serial == f.tag)
            mv.corrupt_mask = pf.mask;
    }
    if (oc.eject) {
        const bool master = oc.out == lm_port_;
        const int ni = master ? master_at_node_[r] : slave_at_node_[r];
        if (ni < 0) return; // routed to a node without an NI: stuck
        mv.to = master ? Move::To::Master : Move::To::Slave;
        mv.dst = static_cast<u32>(ni);
        const std::size_t rx_size =
            master ? masters_[static_cast<std::size_t>(ni)].rx.size()
                   : slaves_[static_cast<std::size_t>(ni)].rx.size();
        if (rx_size >= ni_rx_cap) return;
    } else {
        const Hop& hop =
            hops_[std::size_t{r} * static_cast<std::size_t>(n_ports_) +
                  static_cast<std::size_t>(oc.out)];
        if (hop.node == kNoLink) return;
        mv.to = Move::To::Router;
        mv.dst_router = hop.node;
        mv.dst = hop.slot + static_cast<u32>(oc.dst_plane * n_ports_);
        const u32 dst_size = in_[mv.dst].size;
        if (dst_size >= cfg_.fifo_depth) return;
        // Bubble rule (irregular topologies only): a Head may only claim a
        // link whose downstream FIFO keeps a free slot after the move, so a
        // dependency cycle never fills completely (docs/topology.md — a
        // heuristic, not a proof). Mesh and torus allocation are untouched
        // — bubble_ is false there.
        if (bubble_ && f.kind == Flit::Kind::Head &&
            dst_size + 2 > cfg_.fifo_depth)
            return;
    }
    moves_.push_back(mv);
    // Advance / release the wormhole binding bookkeeping now: the move is
    // committed.
    if (f.kind == Flit::Kind::Tail) {
        bound_[ob] = -1;
        --load_[r].bound_count;
        if (!requested(ob)) clear_live(r, oi);
    }
}

void XpipesNetwork::deliver_to_master(MasterNi& ni, const Flit& flit) {
    switch (flit.kind) {
        case Flit::Kind::Head: {
            if (!fault_on_) break;
            // Accept only the response the NI is actually waiting for:
            // right state, matching seq, transaction not yet satisfied.
            // Everything else (duplicate acks, replays overtaken by their
            // original) is swallowed whole.
            const bool awaiting = (ni.st == MasterNi::St::AwaitResp ||
                                   ni.st == MasterNi::St::AwaitAck) &&
                                  !ni.err && !ni.synth_err && !ni.resp_taken;
            ni.rx_discard = !awaiting || pkts_[flit.tag].hdr.seq != ni.seq;
            if (ni.rx_discard) ++stats_.reliability.stale_discarded;
            ni.rx_stage.clear();
            ni.rx_csum = csum_init();
            break;
        }
        case Flit::Kind::Payload:
            if (fault_on_) {
                // Staged until the Tail's checksum validates.
                if (ni.rx_discard) break;
                ni.rx_stage.push_back(RxBeat{flit.payload, flit.err});
                ni.rx_csum = csum_step(ni.rx_csum, flit.payload);
            } else if (!open_) {
                // Open-loop NIs absorb response data: the transaction
                // completed at the source when the fabric accepted it, so
                // rx stays empty and ejection never backpressures.
                ni.rx.push_back(RxBeat{flit.payload, flit.err});
            }
            break;
        case Flit::Kind::Tail:
            if (ni.rx_discard) { // fault mode only
                ni.rx_discard = false;
            } else if (fault_on_ && ni.rx_csum != flit.payload) {
                // Read data corrupted in flight: reject the packet and
                // pull the retry deadline in — the replay starts on the
                // next NI evaluation instead of waiting out the timeout.
                ++stats_.reliability.checksum_fails;
                ni.rx_stage.clear();
                ni.deadline = now_;
            } else {
                if (fault_on_) {
                    ni.resp_taken = true;
                    ni.cur_err = flit.err;
                    if (ocp::is_write(ni.cmd))
                        ni.ack_ok = true; // Head+Tail ack packet
                    else
                        ni.rx.insert(ni.rx.end(), ni.rx_stage.begin(),
                                     ni.rx_stage.end());
                    ni.rx_stage.clear();
                }
                if (open_) {
                    if (ni.outstanding > 0) --ni.outstanding;
                    stats_.last_delivery = now_;
                }
                ++stats_.resp_packets_delivered;
                // Err-carrying responses are counted, not sampled: an error
                // turnaround is not a service time and would skew p50/p99
                // (docs/traffic.md).
                if (flit.err) ++stats_.resp_err_packets;
                else if (cfg_.collect_latency)
                    record_delivery(flit);
            }
            free_packet(static_cast<u32>(flit.tag));
            break;
    }
}

void XpipesNetwork::deliver_to_slave(SlaveNi& ni, const Flit& flit) {
    if (fault_on_) {
        switch (flit.kind) {
            case Flit::Kind::Head:
                ni.rx_pkt_start = static_cast<u32>(ni.rx.size());
                ni.rx_csum = csum_init();
                break;
            case Flit::Kind::Payload:
                ni.rx_csum = csum_step(ni.rx_csum, flit.payload);
                break;
            case Flit::Kind::Tail:
                if (ni.rx_csum == flit.payload) break;
                // Write data corrupted in flight: reject the whole packet
                // before it touches the slave; the master's timeout
                // replays it.
                ++stats_.reliability.checksum_fails;
                ni.rx.resize(ni.rx_pkt_start);
                free_packet(static_cast<u32>(flit.tag));
                return;
        }
    }
    ni.rx.push_back(flit);
    if (flit.kind != Flit::Kind::Tail) return;
    ++ni.tails_in_rx;
    ++stats_.req_packets_delivered;
    if (open_) stats_.last_delivery = now_;
    if (cfg_.collect_latency) record_delivery(flit);
}

void XpipesNetwork::eval_routers() {
    ++stats_.router_phase_cycles;
    moves_.clear();

    // Collect phase: examine routers in index order (the active set or a
    // full scan), committing moves against the untouched FIFO state. Both
    // modes visit the routers holding flits or bindings in the same order,
    // so they apply the same moves in the same order.
    if (cfg_.router_gating) {
        for (std::size_t w = 0; w < active_.size(); ++w) {
            for (u64 bits = active_[w]; bits != 0; bits &= bits - 1)
                collect_router_moves(static_cast<u32>(
                    (w << 6) + static_cast<std::size_t>(std::countr_zero(bits))));
        }
    } else {
        for (u32 r = 0; r < node_count(); ++r) collect_router_moves(r);
    }

    // Apply all moves. A router leaves the active set when its last flit
    // leaves and it holds no binding; a flit arriving puts it back.
    for (const Move& mv : moves_) {
        Flit flit = pop_flit(mv.router, mv.src);
        any_activity_ = true;
        if (mv.to == Move::To::Drop) {
            // Fault: the flit vanishes. Head opens swallow mode on the
            // port (the rest of the packet follows it into the void),
            // Tail closes it.
            --flits_active_;
            PortFault& pf = fault_[mv.src];
            pf.swallowing = (flit.kind != Flit::Kind::Tail);
            if (flit.kind == Flit::Kind::Head)
                ++stats_.reliability.packets_dropped;
            if (flit.kind == Flit::Kind::Tail)
                free_packet(static_cast<u32>(flit.tag));
            continue;
        }
        ++stats_.flits_routed;
        if (mv.corrupt_mask != 0) {
            flit.payload ^= mv.corrupt_mask;
            ++stats_.reliability.flits_corrupted;
        }
        if (mv.to == Move::To::Router) {
            push_flit(mv.dst_router, mv.dst, flit);
            continue;
        }
        --flits_active_;
        if (mv.to == Move::To::Master)
            deliver_to_master(masters_[mv.dst], flit);
        else
            deliver_to_slave(slaves_[mv.dst], flit);
    }
}

void XpipesNetwork::eval() {
    any_activity_ = false;
    for (MasterNi& ni : masters_) eval_master_ni(ni);
    for (SlaveNi& ni : slaves_) eval_slave_ni(ni);
    if (flits_active_ > 0) eval_routers();
    // Injection starts on VC0 of the protocol plane (request plane index
    // 0, response plane index vc_count_); with one VC these are the
    // original planes 0 and 1.
    for (MasterNi& ni : masters_) inject(ni.tx, ni.node, lm_port_, 0);
    for (SlaveNi& ni : slaves_) inject(ni.tx, ni.node, ls_port_, vc_count_);
    if (any_activity_) ++stats_.busy_cycles;
}

u64 XpipesNetwork::contention_cycles() const {
    u64 total = 0;
    for (const u64 w : stats_.master_wait_cycles) total += w;
    return total;
}

} // namespace tgsim::ic
