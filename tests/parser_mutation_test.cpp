// Seeded mutation tests for the three user-file parsers the tools feed:
// tg::program_from_text (.tgp), tg::trace_from_text (.trc) and
// tg::disassemble (.bin images). The corpus is a translated des run;
// every case truncates, bit-flips or splices it, and the parser must
// either accept the result or reject it with std::invalid_argument —
// never crash, hang or throw anything else. What the TG readers accept
// must also round-trip: an accepted image re-assembles to the same
// words, and an accepted .tgp text reprints to an equal program. Run
// under ASan/UBSan, this is the parser-robustness gate.
#include <gtest/gtest.h>

#include <stdexcept>
#include <type_traits>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "platform/platform.hpp"
#include "sim/rng.hpp"
#include "tg/program.hpp"
#include "tg/trace.hpp"
#include "tg/translator.hpp"

namespace tgsim {
namespace {

constexpr int kCasesPerKind = 400;

struct Corpus {
    std::vector<std::string> programs; ///< .tgp text, one per core
    std::vector<std::string> traces;   ///< .trc text, one per core
    std::vector<std::vector<u32>> images;
};

const Corpus& corpus() {
    static const Corpus c = [] {
        const apps::Workload w = apps::make_des({3, 2});
        platform::PlatformConfig cfg;
        cfg.n_cores = 3;
        cfg.collect_traces = true;
        platform::Platform p{cfg};
        p.load_workload(w);
        EXPECT_TRUE(p.run(80'000'000).completed);
        tg::TranslateOptions topt;
        topt.polls = w.polls;
        Corpus out;
        for (const tg::Trace& t : p.traces()) {
            const tg::TgProgram prog = tg::translate(t, topt).program;
            out.programs.push_back(tg::to_text(prog));
            out.traces.push_back(tg::to_text(t));
            out.images.push_back(tg::assemble(prog));
        }
        return out;
    }();
    return c;
}

/// The three mutation kinds over any sequence (text or image words).
template <typename Seq>
Seq mutate(const std::vector<Seq>& docs, int kind, sim::Rng& rng) {
    const Seq& a = docs[rng.below(docs.size())];
    switch (kind) {
        case 0: // truncate
            return Seq(a.begin(), a.begin() + rng.below(a.size() + 1));
        case 1: { // flip 1-4 bits
            Seq out = a;
            const u64 flips = rng.range(1, 4);
            constexpr u64 kBits = 8 * sizeof(out[0]);
            for (u64 i = 0; i < flips; ++i) {
                auto& unit = out[rng.below(out.size())];
                unit ^= static_cast<std::decay_t<decltype(unit)>>(
                    u64{1} << rng.below(kBits));
            }
            return out;
        }
        default: { // splice: a prefix of one document, a suffix of another
            const Seq& b = docs[rng.below(docs.size())];
            Seq out(a.begin(), a.begin() + rng.below(a.size() + 1));
            out.insert(out.end(), b.begin() + rng.below(b.size() + 1),
                       b.end());
            return out;
        }
    }
}

/// Feeds kCasesPerKind mutants of each kind to `parse`, and every mutant
/// it accepts, with its parse, to `round_trip`.
template <typename Seq, typename Parse, typename RoundTrip>
void fuzz(const std::vector<Seq>& docs, u64 seed, Parse&& parse,
          RoundTrip&& round_trip) {
    ASSERT_FALSE(docs.empty());
    sim::Rng rng{seed};
    int rejected = 0;
    int accepted = 0;
    for (int kind = 0; kind < 3; ++kind) {
        for (int i = 0; i < kCasesPerKind; ++i) {
            const Seq input = mutate(docs, kind, rng);
            SCOPED_TRACE(::testing::Message() << "mutation kind " << kind
                                              << " case " << i);
            try {
                round_trip(input, parse(input));
                ++accepted;
            } catch (const std::invalid_argument&) {
                ++rejected;
            } catch (const std::exception& e) {
                ADD_FAILURE() << "mutation kind " << kind << " case " << i
                              << " threw a non-invalid_argument: "
                              << e.what();
            }
        }
    }
    // The mutants must actually exercise the error paths and the round trip.
    EXPECT_GT(rejected, 0);
    EXPECT_GT(accepted, 0);
}

TEST(ParserMutation, ProgramTextParsesOrRejects) {
    fuzz(
        corpus().programs, 0x7470ull,
        [](const std::string& text) { return tg::program_from_text(text); },
        [](const std::string&, const tg::TgProgram& prog) {
            EXPECT_EQ(tg::program_from_text(tg::to_text(prog)), prog);
        });
}

TEST(ParserMutation, TraceTextParsesOrRejects) {
    fuzz(
        corpus().traces, 0x747263ull,
        [](const std::string& text) { return tg::trace_from_text(text); },
        [](const std::string&, const tg::Trace&) {});
}

TEST(ParserMutation, ImageDisassemblesOrRejects) {
    fuzz(
        corpus().images, 0x62696eull,
        [](const std::vector<u32>& image) { return tg::disassemble(image); },
        [](const std::vector<u32>& image, const tg::TgProgram& prog) {
            EXPECT_EQ(tg::assemble(prog), image);
        });
}

/// Images the assembler cannot produce: each must be rejected with
/// std::invalid_argument, by the disassembler and the image check alike.
TEST(ParserMutation, ImageRejectsWhatAssemblerCannotProduce) {
    using tg::encode_w0;
    using tg::TgOp;
    const u32 halt = encode_w0(TgOp::Halt);
    const std::vector<std::vector<u32>> bad = {
        {0x0C000000u, halt},                                  // undefined op
        {encode_w0(TgOp::If, 1, 2, tg::TgCmp{7}), 0, halt},   // undefined cmp
        {encode_w0(TgOp::Read, 1, 2), halt},                  // Read with b
        {encode_w0(TgOp::Read, 1, 0, tg::TgCmp::Ne), halt},   // Read with cmp
        {encode_w0(TgOp::Halt, 1)},                           // Halt with a
        {encode_w0(TgOp::Idle, 0, 0, tg::TgCmp::Eq, 3), 5},   // Idle with imm12
        {encode_w0(TgOp::SetRegister, 1)},                    // truncated
        {encode_w0(TgOp::Jump), 1, halt},                     // into Jump
        {encode_w0(TgOp::Jump), 3, halt},                     // past the end
    };
    for (const std::vector<u32>& image : bad) {
        SCOPED_TRACE(::testing::PrintToString(image));
        EXPECT_THROW((void)tg::disassemble(image), std::invalid_argument);
        EXPECT_THROW(tg::check_image(image), std::invalid_argument);
    }
}

TEST(ParserMutation, ProgramRejectsExtraArguments) {
    for (const char* body :
         {"Read(r1, r2)", "Halt(r1)", "Write(r1, r2, )", "Jump(a, b)",
          "Idle(3) 4", "If(r1 == r2 r3) then a", "If(r1 == r2) then a b",
          "BurstWrite(r1, 1) {0x1} 0x2", "SetRegister(r1, 2)(3)"}) {
        SCOPED_TRACE(body);
        EXPECT_THROW((void)tg::program_from_text(
                         std::string{"MASTER[0,0]\nBEGIN\na:\n  "} + body +
                         "\n  Halt\nEND\n"),
                     std::invalid_argument);
    }
}

TEST(ParserMutation, MissingCallArgumentIsInvalidArgument) {
    // A truncated "Write(r1, r2)" used to escape as std::out_of_range.
    EXPECT_THROW((void)tg::program_from_text(
                     "MASTER[0,0]\nBEGIN\n  Write(r1)\nEND\n"),
                 std::invalid_argument);
}

/// `input` must be rejected with std::invalid_argument naming `token`.
template <typename Parse, typename Input>
void expect_bad_number(Parse&& parse, const Input& input,
                       const std::string& token) {
    SCOPED_TRACE(::testing::PrintToString(input));
    try {
        (void)parse(input);
        ADD_FAILURE() << "accepted";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string{e.what()}.find("'" + token + "'"),
                  std::string::npos)
            << e.what();
    } catch (const std::exception& e) {
        ADD_FAILURE() << "threw a non-invalid_argument: " << e.what();
    }
}

/// A one-event trace whose EVT line is `evt`.
std::string trace_with(const std::string& evt) {
    return "CORE 0 THREAD 0\n" + evt + "\nEND 10\n";
}

TEST(ParserNumbers, TraceRejectsBadNumbers) {
    const auto parse = [](const std::string& t) {
        return tg::trace_from_text(t);
    };
    const std::string tail = " burst=1 assert=1 accept=2 resp=3:3 data=[0x1]";
    // Wider than the 32-bit address: used to truncate to 0xFFFFFFFF.
    expect_bad_number(parse, trace_with("EVT RD 0x1FFFFFFFF" + tail),
                      "0x1FFFFFFFF");
    // Trailing garbage: used to parse as 12.
    expect_bad_number(parse, trace_with("EVT RD 12abc" + tail), "12abc");
    // Wider than the 16-bit burst length: used to truncate.
    expect_bad_number(
        parse,
        trace_with("EVT RD 0x10 burst=70000 assert=1 accept=2 resp=3:3 "
                   "data=[0x1]"),
        "70000");
    // Past 64 bits: used to escape as std::out_of_range ("stoull").
    expect_bad_number(
        parse,
        trace_with("EVT RD 0x10 burst=1 assert=99999999999999999999999 "
                   "accept=2 resp=3:3 data=[0x1]"),
        "99999999999999999999999");
    expect_bad_number(
        parse,
        trace_with("EVT RD 0x10 burst=1 assert=1 accept=2 resp=3:3x "
                   "data=[0x1]"),
        "3x");
    expect_bad_number(
        parse,
        trace_with("EVT WR 0x10 burst=1 assert=1 accept=2 resp=3:3 "
                   "data=[0x100000000]"),
        "0x100000000");
    // An empty burst: used to translate into BurstRead(r1, 0).
    expect_bad_number(
        parse,
        trace_with("EVT BRD 0x10 burst=0 assert=1 accept=2 resp=3:3 data=[]"),
        "0");
    expect_bad_number(
        parse,
        trace_with("EVT BRD 0x10 burst=65 assert=1 accept=2 resp=3:3 data=[]"),
        "65");
    // A resp without its :last half: used to set both halves to 3.
    expect_bad_number(
        parse,
        trace_with("EVT BRD 0x10 burst=1 assert=1 accept=2 resp=3 data=[0x1]"),
        "3");
    // CORE and END numbers: used to read as 0 and 1 through operator>>.
    expect_bad_number(parse, "CORE zz THREAD 0\nEND 10\n", "zz");
    expect_bad_number(parse, "CORE 0 THREAD 0\nEND 1x\n", "1x");
    // The well-formed event still parses.
    const tg::Trace ok = tg::trace_from_text(trace_with("EVT RD 0x10" + tail));
    ASSERT_EQ(ok.events.size(), 1u);
    EXPECT_EQ(ok.events[0].addr, 0x10u);
}

TEST(ParserNumbers, ProgramRejectsBadNumbers) {
    const auto parse = [](const std::string& t) {
        return tg::program_from_text(t);
    };
    const auto prog = [](const std::string& body) {
        return "MASTER[0,0]\nBEGIN\n  " + body + "\n  Halt\nEND\n";
    };
    expect_bad_number(parse, prog("SetRegister(r1, 0x1FFFFFFFF)"),
                      "0x1FFFFFFFF");
    expect_bad_number(parse, prog("Idle(12abc)"), "12abc");
    expect_bad_number(parse, prog("Idle(99999999999999999999999)"),
                      "99999999999999999999999");
    // A register index past int used to escape as std::out_of_range.
    expect_bad_number(parse, prog("Read(r99999999999)"), "r99999999999");
    expect_bad_number(parse, "MASTER[0,1x]\nBEGIN\n  Halt\nEND\n", "1x");
    // Past the 12-bit count field: used to assemble as BurstRead(r1, 904).
    expect_bad_number(parse, prog("BurstRead(r1, 5000)"), "5000");
    expect_bad_number(parse, prog("BurstRead(r1, 65)"), "65");
    // No beats: the core used to drive the next instruction word as data.
    expect_bad_number(parse, prog("BurstWrite(r1, 0) {}"), "0");
    const tg::TgProgram ok = tg::program_from_text(prog("Idle(0x10)"));
    ASSERT_EQ(ok.instrs.size(), 2u);
    EXPECT_EQ(ok.instrs[0].imm, 0x10u);
}

TEST(ParserNumbers, ImageRejectsBadBurstCounts) {
    const auto parse = [](const std::vector<u32>& image) {
        return tg::disassemble(image);
    };
    const u32 halt = tg::encode_w0(tg::TgOp::Halt);
    const auto word0 = [](tg::TgOp op, u32 count) {
        return tg::encode_w0(op, 1, 0, tg::TgCmp::Eq, count);
    };
    using Image = std::vector<u32>;
    expect_bad_number(parse, Image{word0(tg::TgOp::BurstRead, 0), halt}, "0");
    expect_bad_number(parse, Image{word0(tg::TgOp::BurstWrite, 0), halt}, "0");
    Image wide{word0(tg::TgOp::BurstWrite, 65)};
    wide.resize(66, 0x5u);
    wide.push_back(halt);
    expect_bad_number(parse, wide, "65");
    // A count in range still disassembles.
    const tg::TgProgram ok =
        tg::disassemble(Image{word0(tg::TgOp::BurstRead, 64), halt});
    ASSERT_EQ(ok.instrs.size(), 2u);
    EXPECT_EQ(ok.instrs[0].imm, 64u);
}

} // namespace
} // namespace tgsim
