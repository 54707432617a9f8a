// Symbolic TG program (.tgp) and its binary image (.bin).
//
// The translator produces a TgProgram; the assembler lowers it to the word
// image executed by TgCore (or, in the paper's vision, loaded into a silicon
// TG's instruction memory). The canonical text form mirrors the paper's
// Fig. 3(b):
//
//   ; tgsim TG program
//   MASTER[0,0]
//   REGISTER r1 0x00000104
//   BEGIN
//     Idle(11)
//     Read(r1)
//   poll0:
//     Read(r1)
//     If(r0 == r3) then poll0
//     Halt
//   END
//
// Canonical text is byte-comparable: the paper's cross-interconnect
// validation ("the .tgp programs showed no difference at all") is reproduced
// by comparing these strings.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "tg/tg_isa.hpp"

namespace tgsim::tg {

struct TgInstr {
    TgOp op = TgOp::Halt;
    u8 a = 0;                    ///< first register operand
    u8 b = 0;                    ///< second register operand
    TgCmp cmp = TgCmp::Eq;
    u32 imm = 0;                 ///< imm32 (SetRegister/Idle/IfImm) or beat count
    u32 target = 0;              ///< branch target: instruction INDEX
    std::vector<u32> burst_data; ///< BurstWrite beats

    [[nodiscard]] bool operator==(const TgInstr&) const = default;
};

struct TgProgram {
    u32 core_id = 0;
    u32 thread_id = 0;
    std::vector<TgInstr> instrs;
    /// Initial register file contents (index -> value), omitting zeros.
    std::map<u8, u32> reg_init;
    /// Pretty labels for branch targets (instruction index -> name).
    std::map<u32, std::string> labels;

    [[nodiscard]] bool operator==(const TgProgram& o) const {
        return core_id == o.core_id && thread_id == o.thread_id &&
               instrs == o.instrs && reg_init == o.reg_init;
        // labels are cosmetic
    }
};

/// Canonical .tgp text (deterministic; suitable for byte comparison).
[[nodiscard]] std::string to_text(const TgProgram& prog);

/// Parses canonical .tgp text; throws std::invalid_argument on errors.
[[nodiscard]] TgProgram program_from_text(const std::string& text);

/// Lowers to the binary word image executed by TgCore. Branch targets are
/// resolved from instruction indices to word addresses.
[[nodiscard]] std::vector<u32> assemble(const TgProgram& prog);

/// A program lowered once to everything a TgCore needs at load time: the
/// binary image plus the register presets (which are not part of the image).
/// Design-space sweeps assemble each program once and inject the same
/// read-only AssembledTg set into every candidate platform — no
/// per-candidate re-translation or re-assembly. Core assignment is purely
/// positional (element i loads onto core i), same as the TgProgram path.
struct AssembledTg {
    std::vector<u32> image;
    std::vector<std::pair<u8, u32>> reg_init;
};

[[nodiscard]] AssembledTg assemble_tg(const TgProgram& prog);
[[nodiscard]] std::vector<AssembledTg> assemble_all(
    const std::vector<TgProgram>& progs);

/// Recovers a TgProgram from a binary image (labels regenerated as L<n>).
/// Register initialisation is not part of the image and comes back empty.
/// Throws std::invalid_argument on any image assemble() cannot produce
/// (docs/tg.md), so every image it accepts re-assembles to itself.
[[nodiscard]] TgProgram disassemble(const std::vector<u32>& image);

/// The decoder's checks alone, run by the TG loaders: throws
/// std::invalid_argument where disassemble() would, building no program.
void check_image(const std::vector<u32>& image);

/// Instruction count and word size diagnostics.
[[nodiscard]] std::size_t encoded_word_count(const TgProgram& prog);

} // namespace tgsim::tg
