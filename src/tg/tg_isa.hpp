// Traffic-generator instruction set (paper Table 1).
//
// The TG is a very simple multi-cycle instruction-set processor with an
// instruction memory and a 16-entry register file but no data memory.
// Register r0 is `rdreg`, the special register that receives the data of
// every read response (last beat for bursts).
//
// Paper instructions: Read, Write, BurstRead, BurstWrite, If, Jump,
// SetRegister, Idle. tgsim adds Halt (ends the program so execution-time
// metrics exist; the paper's examples rewind with Jump(start) instead),
// IdleUntil (waits until an absolute cycle: the translator's "cloning"
// mode of the Sec. 3 ablation) and IfImm (If against an imm32), and
// BurstWrite carries its data beats inline in instruction memory.
//
// Every instruction executes in exactly one TG cycle (the instruction store
// is wide enough to deliver multi-word instructions in one fetch); Idle(n)
// occupies n cycles; OCP instructions block until their transaction
// completes (accept for writes, last response beat for reads).
//
// The instruction format — each op's operands, its .tgp text and its word
// layout — is the one table kTgOps below; docs/tg.md describes it and the
// rules by which the readers reject an image or text.
#pragma once

#include <algorithm>
#include <array>
#include <string_view>
#include <utility>

#include "sim/types.hpp"

namespace tgsim::tg {

enum class TgOp : u8 {
    Read = 0x01,        ///< Read(areg) -> rdreg
    Write = 0x02,       ///< Write(areg, dreg)
    BurstRead = 0x03,   ///< BurstRead(areg, count) -> rdreg (last beat)
    BurstWrite = 0x04,  ///< BurstWrite(areg, count) + inline beat words
    If = 0x05,          ///< If(lhs_reg CMP rhs_reg) then <target>
    IfImm = 0x06,       ///< If(lhs_reg CMP imm32) then <target>
    Jump = 0x07,        ///< Jump(<target>)
    SetRegister = 0x08, ///< SetRegister(reg, imm32)
    Idle = 0x09,        ///< Idle(cycles)
    IdleUntil = 0x0A,   ///< wait until absolute TG cycle (clone mode)
    Halt = 0x0B,        ///< terminate
};

enum class TgCmp : u8 {
    Eq = 0,
    Ne = 1,
    Ltu = 2, ///< unsigned <
    Geu = 3, ///< unsigned >=
    Lts = 4, ///< signed <
    Ges = 5, ///< signed >=
};

inline constexpr int kTgNumRegs = 16;
inline constexpr u8 kRdReg = 0; ///< r0 receives read response data

[[nodiscard]] constexpr bool compare(TgCmp cmp, u32 lhs, u32 rhs) noexcept {
    switch (cmp) {
        case TgCmp::Eq: return lhs == rhs;
        case TgCmp::Ne: return lhs != rhs;
        case TgCmp::Ltu: return lhs < rhs;
        case TgCmp::Geu: return lhs >= rhs;
        case TgCmp::Lts: return static_cast<i32>(lhs) < static_cast<i32>(rhs);
        case TgCmp::Ges: return static_cast<i32>(lhs) >= static_cast<i32>(rhs);
    }
    return false;
}

/// The .tgp token of every comparison.
inline constexpr std::array<std::pair<std::string_view, TgCmp>, 6> kTgCmpTokens{{
    {"==", TgCmp::Eq}, {"!=", TgCmp::Ne}, {"<u", TgCmp::Ltu},
    {">=u", TgCmp::Geu}, {"<s", TgCmp::Lts}, {">=s", TgCmp::Ges},
}};

[[nodiscard]] constexpr std::string_view to_string(TgCmp cmp) noexcept {
    for (const auto& [token, value] : kTgCmpTokens)
        if (value == cmp) return token;
    return "?";
}

// Binary word-0 encoding: [31:24] op  [23:20] a  [19:16] b  [15:12] cmp
// [11:0] imm12 (burst beat count). The operand words follow word 0 in a
// fixed order: imm32, then branch target (a word address), then the
// BurstWrite beats.
[[nodiscard]] constexpr u32 encode_w0(TgOp op, u8 a = 0, u8 b = 0,
                                      TgCmp cmp = TgCmp::Eq,
                                      u32 imm12 = 0) noexcept {
    return (u32(op) << 24) | ((a & 0xFu) << 20) | ((b & 0xFu) << 16) |
           (u32(cmp) << 12) | (imm12 & 0xFFFu);
}

struct TgWord0 {
    TgOp op;
    u8 a;
    u8 b;
    TgCmp cmp;
    u32 imm12;
};

[[nodiscard]] constexpr TgWord0 decode_w0(u32 w) noexcept {
    return TgWord0{static_cast<TgOp>((w >> 24) & 0xFFu),
                   static_cast<u8>((w >> 20) & 0xFu),
                   static_cast<u8>((w >> 16) & 0xFu),
                   static_cast<TgCmp>((w >> 12) & 0xFu), w & 0xFFFu};
}

/// Operand fields, in .tgp argument order. A word-0 field an op does not
/// carry is zero in its image.
enum TgField : u8 {
    kRegA = 1 << 0,   ///< register, word 0 [23:20]
    kRegB = 1 << 1,   ///< register, word 0 [19:16]
    kCmp = 1 << 2,    ///< comparison, word 0 [15:12]; text "(a CMP rhs) then L"
    kCount = 1 << 3,  ///< burst beat count 1..64, word 0 imm12; decimal
    kImm = 1 << 4,    ///< imm32 operand word; decimal
    kHex = 1 << 5,    ///< with kImm: printed 0x%08X
    kTarget = 1 << 6, ///< branch target operand word; a label in text
    kBeats = 1 << 7,  ///< kCount inline beat words; text " {0x.., 0x..}"
};

struct TgOpFormat {
    TgOp op;
    std::string_view name; ///< .tgp mnemonic
    u8 fields;             ///< TgField set

    [[nodiscard]] constexpr bool has(u8 f) const noexcept { return (fields & f) != 0; }
};

/// The instruction format: one row per opcode, row i holding opcode i + 1.
inline constexpr std::array<TgOpFormat, 11> kTgOps{{
    {TgOp::Read, "Read", kRegA},
    {TgOp::Write, "Write", kRegA | kRegB},
    {TgOp::BurstRead, "BurstRead", kRegA | kCount},
    {TgOp::BurstWrite, "BurstWrite", kRegA | kCount | kBeats},
    {TgOp::If, "If", kRegA | kCmp | kRegB | kTarget},
    {TgOp::IfImm, "IfImm", kRegA | kCmp | kImm | kHex | kTarget},
    {TgOp::Jump, "Jump", kTarget},
    {TgOp::SetRegister, "SetRegister", kRegA | kImm | kHex},
    {TgOp::Idle, "Idle", kImm},
    {TgOp::IdleUntil, "IdleUntil", kImm},
    {TgOp::Halt, "Halt", 0},
}};

/// The row of opcode `op`, or nullptr for an undefined opcode.
[[nodiscard]] constexpr const TgOpFormat* format_of(TgOp op) noexcept {
    const u32 row = u32(op) - 1;
    return row < kTgOps.size() ? &kTgOps[row] : nullptr;
}
static_assert(std::all_of(kTgOps.begin(), kTgOps.end(),
                          [](const TgOpFormat& f) { return format_of(f.op) == &f; }));

[[nodiscard]] constexpr std::string_view to_string(TgOp op) noexcept {
    return format_of(op) ? format_of(op)->name : "?";
}

/// Total encoded words of the instruction starting with `w0`.
[[nodiscard]] constexpr u32 encoded_words(const TgWord0& w0) noexcept {
    const TgOpFormat* f = format_of(w0.op);
    return f ? 1 + f->has(kImm) + f->has(kTarget) + (f->has(kBeats) ? w0.imm12 : 0) : 1;
}

} // namespace tgsim::tg
