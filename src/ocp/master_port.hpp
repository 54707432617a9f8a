// OCP initiator port: the master-side counterpart of mem::SlaveDevice.
//
// Every master (CpuCore, TgCore, TgMultiCore, StochasticTg) drives its
// channel through one MasterPort, which owns the single in-flight
// transaction and the whole request-side handshake (docs/ocp.md):
//
//   * drive(), from the master's eval(): the command while request beats
//     remain to be accepted, the response-wait pattern (MCmd Idle,
//     MRespAccept high) while a read awaits its data, the idle pattern
//     otherwise. Wires are written, and m_gen bumped, only when that
//     picture changes — a master waiting on a response costs nothing.
//   * sample(), from the master's update(): one command accept per write
//     beat (a write completes at its last accepted beat, i.e. it is
//     posted), the read command accept, then response beats until the
//     last one; an Err beat reads as kPoison.
//   * settled(): the wires hold the idle pattern — the precondition of
//     every master's quiet_for().
//
// What a master issues next, and what a finished transaction means to it,
// stays in the master.
#pragma once

#include "ocp/channel.hpp"

namespace tgsim::ocp {

/// Data a master reads from a response beat that came back as Resp::Err.
inline constexpr u32 kPoison = 0xDEADBEEFu;

class MasterPort {
public:
    /// What one sample() saw.
    struct Sample {
        bool beat = false; ///< a response beat arrived; its word is data()
        bool err = false;  ///< that beat was Resp::Err
        bool done = false; ///< the transaction completed; the port is free
    };

    explicit MasterPort(ChannelRef channel) noexcept : ch_(channel) {}

    /// Drops any transaction and idles the wires now.
    void reset() noexcept {
        active_ = false;
        dirty_ = false;
        ch_.clear_request();
        ch_.touch_m();
    }

    /// Starts a `burst`-beat transaction. Write beat k carries `beats[k]`,
    /// or `word + k` without a beat array (`beats` must outlive the
    /// write); a read drives `word` on MData.
    void issue(Cmd cmd, u32 addr, u16 burst, u32 word = 0,
               const u32* beats = nullptr) noexcept {
        cmd_ = cmd;
        addr_ = addr;
        burst_ = burst;
        word_ = word;
        beats_ = beats;
        done_ = 0;
        accepted_ = false;
        active_ = true;
        dirty_ = true;
    }

    /// Completes the transaction without waiting for the rest of it (an
    /// open-loop read whose response the fabric absorbs).
    void retire() noexcept {
        active_ = false;
        dirty_ = true;
    }

    /// eval(): re-drives the request group if its picture changed.
    void drive() noexcept {
        if (!dirty_) return;
        dirty_ = false;
        if (!active_) {
            ch_.clear_request();
        } else if (accepted_) {
            ch_.m_cmd() = Cmd::Idle;
            ch_.m_addr() = 0;
            ch_.m_data() = 0;
            ch_.m_burst() = 1;
            ch_.m_resp_accept() = true;
        } else {
            ch_.m_cmd() = cmd_;
            ch_.m_addr() = addr_;
            ch_.m_data() = beats_ != nullptr ? beats_[done_] : word_ + done_;
            ch_.m_burst() = burst_;
            ch_.m_resp_accept() = is_read(cmd_);
        }
        ch_.touch_m();
    }

    /// update(): consumes this cycle's accept and response beat. Call only
    /// while busy().
    Sample sample() noexcept {
        Sample s;
        if (is_write(cmd_)) {
            if (ch_.s_cmd_accept()) {
                dirty_ = true;
                s.done = ++done_ == burst_;
                active_ = !s.done;
            }
            return s;
        }
        if (!accepted_ && ch_.s_cmd_accept()) {
            accepted_ = true;
            dirty_ = true;
        }
        if (ch_.s_resp() != Resp::None) {
            s.beat = true;
            s.err = ch_.s_resp() == Resp::Err;
            data_ = s.err ? kPoison : ch_.s_data();
            ++done_;
            s.done = ch_.s_resp_last() || done_ == burst_;
            if (s.done) retire();
        }
        return s;
    }

    [[nodiscard]] bool busy() const noexcept { return active_; }
    /// A read whose command was accepted and that now waits for data.
    [[nodiscard]] bool awaiting_response() const noexcept {
        return active_ && accepted_;
    }
    [[nodiscard]] bool settled() const noexcept { return !active_ && !dirty_; }
    [[nodiscard]] Cmd cmd() const noexcept { return cmd_; }
    [[nodiscard]] u32 addr() const noexcept { return addr_; }
    [[nodiscard]] u16 burst() const noexcept { return burst_; }
    /// Write beats accepted, or read beats received, so far.
    [[nodiscard]] u16 beats() const noexcept { return done_; }
    /// Word of the latest response beat (kPoison for an Err beat).
    [[nodiscard]] u32 data() const noexcept { return data_; }

private:
    ChannelRef ch_;
    Cmd cmd_ = Cmd::Idle;
    u32 addr_ = 0;
    u16 burst_ = 1;
    u16 done_ = 0;
    u32 word_ = 0;
    const u32* beats_ = nullptr;
    u32 data_ = 0;
    bool active_ = false;
    bool accepted_ = false;
    bool dirty_ = false; ///< the wires no longer show the current picture
};

} // namespace tgsim::ocp
